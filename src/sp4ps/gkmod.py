"""Principal-series Harish-Chandra module for Sp(4,R).

Basis functions are Wigner indices (j,n,m1,m2) subject to the delta-parity
conditions; the left action of the noncompact weight vectors u_beta is the
Clebsch-Gordan expansion of

    dl(u_beta) = dr(-Ad(k^{-1}) u_beta)

with the right-action building blocks explicit.  Two sign defects in the
published coefficient tables are corrected here; the convention is pinned
by the numeric principal-series oracle in the test suite and by the
requirement that the degree-2 Casimir act by (lambda1^2+lambda2^2-5)/12.

Coefficients are ``ExactScalar`` values, finite rational combinations of
the radical basis sqrt(r)*pi^(p/2)*i^k, at rational lambda and complex
numbers at complex lambda; ``exact.Character`` fixes which, and this
module reads lambda only as the character stores it.  Both come from one
formula: its exact factors (Clebsch-Gordan values, i/sqrt2, ladder square
roots) become complex only where they meet a complex lambda, through
``exact.lift``.

The ten generators have one name inside this module, their catalog label:
("u", m_beta, n_beta) for the noncompact u_beta and ("U", i) for the
compact U_i.  dl of a label on a basis vector is cached by (label,
vector, character); a compact action does not depend on lambda, so its
cache takes the character's ``exact`` field instead, and the complex
entry is lifted from the exact one once.  ``dl_p_action`` also takes a
root name or the weights (m_beta, n_beta), and ``dl_k_action`` takes
"U0".."U3".

Linear combinations are dicts {basis index: coefficient}.  dl of an
element or of the Casimir is summed by one kernel, with the multiply-add
of the character's arithmetic (``_summation``).  At rational lambda that
is integer scratch form (``ExactScalar.mul_acc``): each product of two
coefficients is added into its output index without making a Fraction,
and each output coefficient is reduced once at the end
(``ExactScalar.settle``).  At complex lambda each product is added in
place, term by term in the same order, so a float result has the same
bits on every run.  An index whose terms all cancel leaves the sum and
goes last if it comes back, so the key order is the one of adding term
by term.  ``lc_add`` and ``lc_scale`` return new dicts.

The Casimir is applied in collected form: its Chevalley words, expanded
once per process in the catalog basis {u_beta, U_i} with letter order
kept, give one outer element for each catalog label applied first, plus a
linear part.  One vector then costs dl of the ten inner labels (cached)
and one ``dl_element`` per inner label, not the eight words letter by
letter.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import sp4
from .exact import Character, ExactScalar, HalfInt, _merge, half_range, lift
from .sp4 import Cyc8, GMat, decompose_chevalley, omega2_words
from .wigner import OutOfRange, WignerIndex, clebsch_gordan_j1, dl_gamma


class DecompositionError(ValueError):
    """An algebra element outside span{u_beta} + span{U_i}."""


# ---------------------------------------------------------------------------
# K-types and m-sets
# ---------------------------------------------------------------------------

def m_set(j, n, delta) -> list[HalfInt]:
    """M(j,n;delta): admissible m2 values for the delta-parities."""
    j, n = HalfInt.of(j), HalfInt.of(n)
    d1, d2 = delta
    out = []
    for m in half_range(-j, j):
        a, b = (n - m), (n + m)
        if a.is_integer() and (a.as_int() - d1) % 2 == 0 and (b.as_int() - d2) % 2 == 0:
            out.append(m)
    return out


def ktype_allowed(j, n, delta) -> bool:
    j, n = HalfInt.of(j), HalfInt.of(n)
    s = (delta[0] + delta[1]) % 2
    return j.twice % 2 == s and n.twice % 2 == s and j.twice >= 0


def ktypes(delta, j_max, n_max) -> list[tuple[HalfInt, HalfInt, int]]:
    """All (j,n) with j <= j_max, |n| <= n_max and nonzero multiplicity."""
    out = []
    j_max, n_max = HalfInt.of(j_max), HalfInt.of(n_max)
    tj = (delta[0] + delta[1]) % 2
    for tjj in range(tj, j_max.twice + 1, 2):
        j = HalfInt(tjj)
        for tnn in range(-n_max.twice + (abs(n_max.twice) + tj) % 2, n_max.twice + 1, 2):
            n = HalfInt(tnn)
            if not ktype_allowed(j, n, delta):
                continue
            mult = len(m_set(j, n, delta))
            if mult:
                out.append((j, n, mult))
    return out


def ktype_basis(j, n, delta) -> list[WignerIndex]:
    """The basis vectors of the K-type (j,n): m2 over m_set, m1 over -j..j."""
    j = HalfInt.of(j)
    return [WignerIndex.of(j, n, m1, m2) for m2 in m_set(j, n, delta) for m1 in half_range(-j, j)]


def check_index(v: WignerIndex, delta) -> bool:
    """Is v an admissible basis index of C_delta(K)?"""
    if not ktype_allowed(v.j, v.n, delta):
        return False
    return v.m2 in m_set(v.j, v.n, delta)


# ---------------------------------------------------------------------------
# exact coefficients
# ---------------------------------------------------------------------------

# The benchmark reads the coefficient type under this name (its workloads
# and its per-layer RSum counts), so the alias stays until it reads
# ExactScalar.
RSum = ExactScalar


def cyc8_to_rsum(z: Cyc8) -> ExactScalar:
    """a + b w + c w^2 + d w^3 with w = e^{i pi/4}: real/imag parts split
    over the radical classes 1 and sqrt2."""
    a, b, c, d = z.c
    return (ExactScalar(a) + ExactScalar(c, 1, 0, True)
            + ExactScalar((b - d) / 2, 2) + ExactScalar((b + d) / 2, 2, 0, True))


# ---------------------------------------------------------------------------
# the noncompact weights (Table of (m_beta, n_beta) <-> roots)
# ---------------------------------------------------------------------------

NONCOMPACT = {
    "2b1+b2": (1, 1), "b1+b2": (0, 1), "b2": (-1, 1),
    "-b2": (1, -1), "-b1-b2": (0, -1), "-2b1-b2": (-1, -1),
}


# every name of a noncompact root: the root, its weights (m_beta, n_beta)
# and its catalog label ("u", m_beta, n_beta), each mapped to the label
_U_NAMES = {name: ("u",) + w for root, w in NONCOMPACT.items() for name in (root, w, ("u",) + w)}


def _noncompact(beta) -> tuple:
    """The catalog label ("u", m_beta, n_beta) of a noncompact root."""
    try:
        return _U_NAMES[beta]
    except (KeyError, TypeError):       # TypeError: an unhashable name
        raise ValueError("not a noncompact root: %r" % (beta,)) from None


# ---------------------------------------------------------------------------
# linear combinations
# ---------------------------------------------------------------------------

def lc_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        _merge(out, k, v)
    return out


def lc_scale(a: dict, c) -> dict:
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def _complex_mul_acc(acc: dict, index, a: complex, b: complex) -> None:
    """acc[index] += a * b in place: ``ExactScalar.mul_acc`` at complex
    lambda.  Its scratch is already the result, so ``dict`` settles it."""
    _merge(acc, index, a * b)


def _summation(chi: Character) -> tuple:
    """The (mul_acc, settle) pair of chi's arithmetic: integer scratch at
    rational lambda, complex numbers otherwise."""
    if chi.exact:
        return ExactScalar.mul_acc, ExactScalar.settle
    return _complex_mul_acc, dict


# ---------------------------------------------------------------------------
# left action of p_C
# ---------------------------------------------------------------------------

def _cg(j, m1, m2: int, j0: int) -> ExactScalar:
    try:
        return clebsch_gordan_j1(j, m1, m2, j0)
    except OutOfRange:
        return ExactScalar(0)


_ONE = ExactScalar(1)
_I_OVER_SQRT2 = ExactScalar(Fraction(1, 2), 2, 0, True)   # i/sqrt2
_I = ExactScalar.i_power(1)


def _dr_terms(lab: tuple, j, n, m2, lam):
    """The three dr(u_nu) contributions as (m_nu, exact factor, affine
    factor, m2 shift).  The i/sqrt2 and ladder factors do not depend on
    lambda and stay exact; the affine factor is a Fraction at rational
    lambda and complex at complex lambda."""
    l1, l2 = lam
    nf, m2f = n.frac, m2.frac
    if lab[2] == 1:
        lad = (j - m2).frac * (j + m2 + 1).frac
        return [
            (-1, _I_OVER_SQRT2, -nf + m2f - (l2 + 1), 0),
            (1, _I_OVER_SQRT2, -nf - m2f - (l1 + 2), 0),
            (0, -_I * ExactScalar.sqrt_rational(lad), 1, 1),
        ]
    lad = (j + m2).frac * (j - m2 + 1).frac
    return [
        (1, _I_OVER_SQRT2, nf - m2f - (l2 + 1), 0),
        (-1, _I_OVER_SQRT2, nf + m2f - (l1 + 2), 0),
        (0, -_I * ExactScalar.sqrt_rational(lad), 1, -1),
    ]


def dr_p_action(beta, v: WignerIndex, chi: Character) -> dict:
    """Right action dr(u_beta): diagonal for the +-b2 and +-(2b1+b2)
    families, an m2-ladder for +-(b1+b2)."""
    lab = _noncompact(beta)
    lam = chi.lam
    out = {}
    for m_nu, factor, affine, shift in _dr_terms(lab, v.j, v.n, v.m2, lam):
        m2p = v.m2 + shift
        coef = lift(factor, lam[0]) * affine
        if m_nu == lab[1] and coef and abs(m2p.twice) <= v.j.twice:
            out[WignerIndex.of(v.j, v.n, v.m1, m2p)] = coef
    return out


def dl_p_action(beta, v: WignerIndex, chi: Character) -> dict:
    """Left action of u_beta on a basis function, as a finite linear
    combination over the K-types (j-1, j, j+1) x (n +- 1)."""
    return dict(_dl_p_cached(_noncompact(beta), v, chi))


# keyed by (catalog label, basis vector, chi); chi's exact field keeps exact
# and float characters apart.  The cached dicts are shared: dl_p_action
# hands out copies, and _dl_label only reads them.
@lru_cache(maxsize=None)
def _dl_p_cached(lab: tuple, v: WignerIndex, chi: Character) -> dict:
    mul_acc, settle = _summation(chi)
    j, m1, m2 = v.j, v.m1, v.m2
    lam = chi.lam
    _, m_beta, n_beta = lab
    # target twice-values: j + j0, n + n_beta, m1 + m_beta, m2 + shift + m_nu
    tj, tn, tm1 = j.twice, v.n.twice + 2 * n_beta, m1.twice + 2 * m_beta
    out = {}
    for m_nu, factor, affine, shift in _dr_terms(lab, j, v.n, m2, lam):
        tm2p = m2.twice + 2 * shift
        coef = -lift(factor, lam[0]) * affine
        if not coef or abs(tm2p) > tj:
            continue
        tm2 = tm2p + 2 * m_nu
        for j0 in (-1, 0, 1):
            tjt = tj + 2 * j0
            if tjt < 0 or (tj == 0 and j0 != 1) or abs(tm1) > tjt or abs(tm2) > tjt:
                continue
            c = _cg(j, m1, m_beta, j0) * _cg(j, HalfInt(tm2p), m_nu, j0)
            if c:
                tgt = WignerIndex(HalfInt(tjt), HalfInt(tn), HalfInt(tm1), HalfInt(tm2))
                mul_acc(out, tgt, lift(c, coef), coef)
    return settle(out)


# ---------------------------------------------------------------------------
# left action of k
# ---------------------------------------------------------------------------

def dl_k_action(gen, v: WignerIndex) -> dict:
    """dl of a compact generator U0..U3 (``wigner.dl_gamma`` takes the gamma
    basis g0, g3, g+, g-).  Coefficients are ExactScalar."""
    if gen not in ("U0", "U1", "U2", "U3"):
        raise ValueError("unknown compact generator %r: dl_k_action takes U0..U3" % (gen,))
    return dict(_dl_k_cached(("U", int(gen[1])), v, True))


_HALF = ExactScalar(Fraction(1, 2))
_MINUS_I_HALF = ExactScalar(Fraction(-1, 2), 1, 0, True)    # 1/(2i) = -i/2


# keyed by (catalog label ("U", i), basis vector, exact); the complex entry
# is lifted from the exact one once.  Shared like _dl_p_cached.
@lru_cache(maxsize=None)
def _dl_k_cached(lab: tuple, v: WignerIndex, exact: bool) -> dict:
    if not exact:
        return {k: c.to_complex() for k, c in _dl_k_cached(lab, v, True).items()}
    i = lab[1]
    if i in (0, 3):    # U0 = gamma_0, U3 = gamma_3
        return dl_gamma("g0" if i == 0 else "g3", v)
    # gamma_1 = (g+ + g-)/2, gamma_2 = (g+ - g-)/(2i)
    cp, cm = (_HALF, _HALF) if i == 1 else (_MINUS_I_HALF, -_MINUS_I_HALF)
    acc = {}
    for c, act in ((cp, dl_gamma("g+", v)), (cm, dl_gamma("g-", v))):
        for k, val in act.items():
            ExactScalar.mul_acc(acc, k, c, val)
    return ExactScalar.settle(acc)


# ---------------------------------------------------------------------------
# algebra elements and words
# ---------------------------------------------------------------------------

# catalog labels: ("u", m_beta, n_beta) and ("U", i)
def _es(q, r=1, im=False) -> ExactScalar:
    return ExactScalar(Fraction(q), r, 0, im)


_CHEVALLEY_TO_CATALOG = {
    "H1": {("u", 1, 1): _es(Fraction(-1, 2), 2, True), ("u", -1, -1): _es(Fraction(-1, 2), 2, True)},
    "H2": {("u", -1, 1): _es(Fraction(-1, 2), 2, True), ("u", 1, -1): _es(Fraction(-1, 2), 2, True)},
    "2a1+a2": {("U", 0): _es(Fraction(1, 2)), ("U", 3): _es(Fraction(1, 2)),
               ("u", 1, 1): _es(Fraction(-1, 4), 2), ("u", -1, -1): _es(Fraction(1, 4), 2)},
    "-2a1+a2": {("U", 0): _es(Fraction(-1, 2)), ("U", 3): _es(Fraction(-1, 2)),
                ("u", 1, 1): _es(Fraction(-1, 4), 2), ("u", -1, -1): _es(Fraction(1, 4), 2)},
    "a2": {("U", 0): _es(Fraction(1, 2)), ("U", 3): _es(Fraction(-1, 2)),
           ("u", -1, 1): _es(Fraction(-1, 4), 2), ("u", 1, -1): _es(Fraction(1, 4), 2)},
    "-a2": {("U", 0): _es(Fraction(-1, 2)), ("U", 3): _es(Fraction(1, 2)),
            ("u", -1, 1): _es(Fraction(-1, 4), 2), ("u", 1, -1): _es(Fraction(1, 4), 2)},
    "a1+a2": {("U", 1): _es(1), ("u", 0, 1): _es(Fraction(1, 2)), ("u", 0, -1): _es(Fraction(1, 2))},
    "-a1+a2": {("U", 1): _es(-1), ("u", 0, 1): _es(Fraction(1, 2)), ("u", 0, -1): _es(Fraction(1, 2))},
    "a1": {("U", 2): _es(1), ("u", 0, 1): _es(Fraction(1, 2), 1, True), ("u", 0, -1): _es(Fraction(-1, 2), 1, True)},
    "-a1": {("U", 2): _es(-1), ("u", 0, 1): _es(Fraction(1, 2), 1, True), ("u", 0, -1): _es(Fraction(-1, 2), 1, True)},
}


def chevalley_element(name: str) -> dict:
    """Chevalley basis vector as an AlgElement (catalog-coefficient map)."""
    if name not in _CHEVALLEY_TO_CATALOG:
        raise DecompositionError("unknown Chevalley label %r" % name)
    return dict(_CHEVALLEY_TO_CATALOG[name])


def gmat_to_element(x: GMat) -> dict:
    """Decompose a 4x4 matrix into the catalog basis."""
    try:
        coords = decompose_chevalley(x)
    except ValueError as exc:
        raise DecompositionError(str(exc)) from exc
    acc = {}
    for name, c in coords.items():
        c = cyc8_to_rsum(c)
        for lab, ce in _CHEVALLEY_TO_CATALOG[name].items():
            ExactScalar.mul_acc(acc, lab, c, ce)
    return ExactScalar.settle(acc)


def _as_element(x) -> dict:
    if isinstance(x, dict):
        return x
    if isinstance(x, str):
        return chevalley_element(x)
    if isinstance(x, GMat):
        return gmat_to_element(x)
    raise DecompositionError("cannot interpret %r as an algebra element" % (x,))


def _dl_label(lab, v: WignerIndex, chi: Character) -> dict:
    """dl of one catalog label on a basis vector, in chi's arithmetic.  The
    result is a cached dict: read it, do not change it."""
    if lab[0] == "u":
        return _dl_p_cached(lab, v, chi)
    return _dl_k_cached(lab, v, chi.exact)


def _dl_element_acc(acc: dict, elem: dict, lc: dict, chi: Character, mul_acc) -> None:
    """acc += dl(elem) lc, each product added by ``mul_acc`` of chi's
    arithmetic (``_summation``)."""
    coefs = [(lab, lift(ce, chi.lam[0])) for lab, ce in elem.items()]
    for v, cv in lc.items():
        for lab, ce in coefs:
            c = ce * cv
            for k, val in _dl_label(lab, v, chi).items():
                mul_acc(acc, k, c, val)


def dl_element(elem, lc: dict, chi: Character) -> dict:
    """Apply dl of one algebra element to a linear combination."""
    mul_acc, settle = _summation(chi)
    acc = {}
    _dl_element_acc(acc, _as_element(elem), lc, chi, mul_acc)
    return settle(acc)


def dl_word(word, v: WignerIndex, chi: Character) -> dict:
    """Left-to-right composition: dl(X1 X2 ... Xn) = dl(X1) ... dl(Xn)."""
    lc = {v: lift(_ONE, chi.lam[0])}
    for elem in reversed(list(word)):
        lc = dl_element(elem, lc, chi)
        if not lc:
            break
    return lc


@lru_cache(maxsize=None)
def _omega2_form() -> tuple:
    """The Casimir collected in the catalog basis, as (inner, outer) pairs:
    omega2 = sum of outer * inner, where inner is the catalog label applied
    first (None for the linear part) and outer a {catalog label: ExactScalar}
    element.  Every word is expanded with its letter order kept and equal
    monomials are summed exactly; no relation of g is used."""
    mul_acc = ExactScalar.mul_acc
    form, linear = {}, {}
    for coef, word in omega2_words():      # words of one or two letters
        coef = ExactScalar.of(coef)
        inner = _CHEVALLEY_TO_CATALOG[word[-1]]
        if len(word) == 1:
            for lab, c in inner.items():
                mul_acc(linear, lab, coef, c)
            continue
        outer = _CHEVALLEY_TO_CATALOG[word[0]]
        for lab, c in inner.items():
            acc, c = form.setdefault(lab, {}), coef * c
            for olab, oc in outer.items():
                mul_acc(acc, olab, c, oc)
    settle = ExactScalar.settle
    return tuple((lab, settle(acc)) for lab, acc in form.items()) + ((None, settle(linear)),)


def omega2_action(v: WignerIndex, chi: Character) -> dict:
    """dl of the degree-2 Casimir (acts by hc_omega2(lambda) on I(chi)),
    from its collected form: dl(outer) dl(inner) v summed over the form in
    one accumulator."""
    mul_acc, settle = _summation(chi)
    one = lift(_ONE, chi.lam[0])
    acc = {}
    for inner, outer in _omega2_form():
        lc = {v: one} if inner is None else _dl_label(inner, v, chi)
        _dl_element_acc(acc, outer, lc, chi, mul_acc)
    return settle(acc)


# ---------------------------------------------------------------------------
# checks of the module structure (verify and the tests call these)
# ---------------------------------------------------------------------------

def casimir_check(vectors, chi: Character) -> bool:
    """omega2_action maps each basis vector v to hc_omega2(lambda) v:
    exactly at rational lambda; at complex lambda the diagonal and every
    other coefficient are within 1e-9 * max(1, |scalar|) of it and of 0.
    The diagonal must be present unless the scalar is 0."""
    exact = chi.exact
    scalar = sp4.hc_omega2(chi.lam)
    expect, zero = (ExactScalar.of(scalar), ExactScalar(0)) if exact else (scalar, 0j)
    tol = 1e-9 * max(1.0, abs(scalar))

    def good(c, want):
        return c == want if exact else abs(c - want) <= tol

    for v in vectors:
        out = omega2_action(v, chi)
        if not good(out.get(v, zero), expect):
            return False
        if not all(good(c, zero) for k, c in out.items() if k != v):
            return False
    return True


def bracket_check(x: GMat, y: GMat, vectors, chi: Character) -> bool:
    """dl is a Lie algebra homomorphism on the pair: dl(x) dl(y) v -
    dl(y) dl(x) v = dl([x,y]) v exactly for each basis vector v (rational
    lambda)."""
    ex, ey, eb = (gmat_to_element(g) for g in (x, y, sp4.bracket(x, y)))
    minus = ExactScalar(-1)
    mul_acc = _summation(chi)[0]
    for v in vectors:
        # dl(x) dl(y) v + dl(y) dl(x) (-v) + dl([x,y]) (-v), in one sum
        acc = {}
        _dl_element_acc(acc, ex, dl_element(ey, {v: _ONE}, chi), chi, mul_acc)
        _dl_element_acc(acc, ey, dl_element(ex, {v: minus}, chi), chi, mul_acc)
        _dl_element_acc(acc, eb, {v: minus}, chi, mul_acc)
        if acc:
            return False
    return True


# ---------------------------------------------------------------------------
# JSON export of an action matrix
# ---------------------------------------------------------------------------

def action_matrix_json(beta, delta, lam, j_max, n_max) -> list[dict]:
    """dl(u_beta) on all admissible basis indices with j <= j_max, as a list
    of {from, to, coeff} with exact scalar strings."""
    beta = _noncompact(beta)
    chi = Character(delta, tuple(lam))
    rows = []
    for (j, n, _mult) in ktypes(delta, j_max, n_max):
        for v in ktype_basis(j, n, delta):
            for tgt, coeff in sorted(dl_p_action(beta, v, chi).items(),
                                     key=lambda kv: (kv[0].j.twice, kv[0].n.twice,
                                                     kv[0].m1.twice, kv[0].m2.twice)):
                rows.append({
                    "from": [str(v.j), str(v.n), str(v.m1), str(v.m2)],
                    "to": [str(tgt.j), str(tgt.n), str(tgt.m1), str(tgt.m2)],
                    "coeff": str(coeff),
                })
    return rows
