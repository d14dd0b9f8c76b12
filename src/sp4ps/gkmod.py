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
numbers at complex lambda.  Both come from one formula: its exact factors
(Clebsch-Gordan values, i/sqrt2, ladder square roots) become complex only
where they meet a complex lambda, through ``exact.lift``.

Linear combinations are dicts {basis index: coefficient}.  dl of an
element, a word or the Casimir is summed into one dict in place
(``_accumulate``), term by term in a fixed order, so a float result has the
same bits on every run; ``lc_add`` and ``lc_scale`` return new dicts.

The Casimir is applied in collected form: its Chevalley words, expanded
once per process in the catalog basis {u_beta, U_i} with letter order
kept, give one outer element for each catalog label applied first, plus a
linear part.  One vector then costs dl of the ten inner labels (cached)
and one ``dl_element`` per inner label, not the eight words letter by
letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import sp4
from .exact import Character, ExactScalar, HalfInt, half_range, lift
from .sp4 import Cyc8, GMat, decompose_chevalley, omega2_words
from .wigner import OutOfRange, WignerIndex, clebsch_gordan_j1

BasisIndex = WignerIndex


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


@dataclass(frozen=True)
class NoncompactLabel:
    m_beta: int
    n_beta: int

    def __post_init__(self):
        if (self.m_beta, self.n_beta) not in NONCOMPACT.values():
            raise ValueError("no noncompact root with weights (%s,%s)"
                             % (self.m_beta, self.n_beta))

    @staticmethod
    def of(x) -> "NoncompactLabel":
        if isinstance(x, NoncompactLabel):
            return x
        if isinstance(x, str):
            return NoncompactLabel(*NONCOMPACT[x])
        return NoncompactLabel(*x)

    @property
    def root(self) -> str:
        return {v: k for k, v in NONCOMPACT.items()}[(self.m_beta, self.n_beta)]


# ---------------------------------------------------------------------------
# linear combinations
# ---------------------------------------------------------------------------

def _accumulate(out: dict, terms: dict, c=None) -> None:
    """out += c * terms in place (out += terms without c), term by term in
    the order of ``terms``; a term that cancels is dropped.  Coefficients
    are ExactScalar or complex, and both are false exactly when zero."""
    if c is not None and c.__class__ is ExactScalar and not c.terms:
        return
    for k, v in terms.items():
        if c is not None:
            v = c * v
        if k in out:
            s = out[k] + v
            if s:
                out[k] = s
            else:
                del out[k]
        elif v:
            out[k] = v


def lc_add(a: dict, b: dict) -> dict:
    out = dict(a)
    _accumulate(out, b)
    return out


def lc_scale(a: dict, c) -> dict:
    if isinstance(c, ExactScalar) and c.is_zero():
        return {}
    return {k: c * v for k, v in a.items()}


# ---------------------------------------------------------------------------
# left action of p_C
# ---------------------------------------------------------------------------

def _cg(j, m1, m2: int, j0: int) -> ExactScalar:
    try:
        return clebsch_gordan_j1(j, m1, m2, j0)
    except OutOfRange:
        return ExactScalar(0)


_I_OVER_SQRT2 = ExactScalar(Fraction(1, 2), 2, 0, True)   # i/sqrt2
_I = ExactScalar.i_power(1)


def _dr_terms(beta: NoncompactLabel, j, n, m2, lam):
    """The three dr(u_nu) contributions as (m_nu, exact factor, affine
    factor, m2 shift).  The i/sqrt2 and ladder factors do not depend on
    lambda and stay exact; the affine factor is a Fraction at rational
    lambda and complex at complex lambda."""
    l1, l2 = lam
    nf, m2f = n.frac, m2.frac
    if beta.n_beta == 1:
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


def _lam(chi: Character) -> tuple:
    """lambda in chi's arithmetic: Fractions when chi is exact, complex
    numbers otherwise."""
    return chi.lam_frac if chi.is_exact() else tuple(complex(x) for x in chi.lam)


def dr_p_action(beta, v: WignerIndex, chi: Character) -> dict:
    """Right action dr(u_beta): diagonal for the +-b2 and +-(2b1+b2)
    families, an m2-ladder for +-(b1+b2)."""
    beta = NoncompactLabel.of(beta)
    lam = _lam(chi)
    out = {}
    for m_nu, factor, affine, shift in _dr_terms(beta, v.j, v.n, v.m2, lam):
        m2p = v.m2 + shift
        coef = lift(factor, lam[0]) * affine
        if m_nu == beta.m_beta and coef and abs(m2p.twice) <= v.j.twice:
            out[WignerIndex.of(v.j, v.n, v.m1, m2p)] = coef
    return out


def dl_p_action(beta, v: WignerIndex, chi: Character) -> dict:
    """Left action of u_beta on a basis function, as a finite linear
    combination over the K-types (j-1, j, j+1) x (n +- 1)."""
    # Python's cross-type numeric equality would let exact and float
    # characters share a cache slot, so exactness is part of the key
    return dict(_dl_p_cached(NoncompactLabel.of(beta), v, chi, chi.is_exact()))


@lru_cache(maxsize=None)
def _dl_p_cached(beta: NoncompactLabel, v: WignerIndex, chi: Character, _exact: bool) -> dict:
    j, n, m1, m2 = v.j, v.n, v.m1, v.m2
    lam = _lam(chi)
    out = {}
    for m_nu, factor, affine, shift in _dr_terms(beta, j, n, m2, lam):
        m2p = m2 + shift
        coef = -lift(factor, lam[0]) * affine
        if not coef or abs(m2p.twice) > j.twice:
            continue
        for j0 in (-1, 0, 1):
            jt = j + j0
            if jt.twice < 0 or (j.twice == 0 and j0 != 1):
                continue
            tm1, tm2 = m1 + beta.m_beta, m2p + m_nu
            if abs(tm1.twice) > jt.twice or abs(tm2.twice) > jt.twice:
                continue
            c = _cg(j, m1, beta.m_beta, j0) * _cg(j, m2p, m_nu, j0)
            if c:
                tgt = WignerIndex.of(jt, n + beta.n_beta, tm1, tm2)
                _accumulate(out, {tgt: lift(c, coef) * coef})
    return out


# ---------------------------------------------------------------------------
# left action of k
# ---------------------------------------------------------------------------

def dl_k_action(gen, v: WignerIndex) -> dict:
    """dl of a compact generator; gen is one of U0..U3 (or the gamma basis
    g0, g3, g+, g-).  Coefficients are ExactScalar."""
    return dict(_dl_k_cached(gen, v))


@lru_cache(maxsize=None)
def _dl_k_cached(gen, v: WignerIndex) -> dict:
    from .wigner import dl_gamma
    if gen in ("g0", "g3", "g+", "g-"):
        return dl_gamma(gen, v)
    if gen == "U0":
        return dl_k_action("g0", v)
    if gen == "U3":
        return dl_k_action("g3", v)
    if gen == "U1":   # gamma_1 = (g+ + g-)/2
        half = ExactScalar(Fraction(1, 2))
        return lc_add(lc_scale(dl_k_action("g+", v), half),
                      lc_scale(dl_k_action("g-", v), half))
    if gen == "U2":   # gamma_2 = (g+ - g-)/(2i)
        mih = ExactScalar(Fraction(-1, 2), 1, 0, True)   # 1/(2i) = -i/2
        return lc_add(lc_scale(dl_k_action("g+", v), mih),
                      lc_scale(dl_k_action("g-", v), -mih))
    raise ValueError("unknown compact generator %r" % (gen,))


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


def compact_root_element(sign: int) -> dict:
    """v_{+-b1} = (1/i)(U1 +- i U2) = -i U1 +- U2."""
    return {("U", 1): ExactScalar(-1, 1, 0, True), ("U", 2): ExactScalar(1 if sign > 0 else -1)}


def gmat_to_element(x: GMat) -> dict:
    """Decompose a 4x4 matrix into the catalog basis."""
    try:
        coords = decompose_chevalley(x)
    except ValueError as exc:
        raise DecompositionError(str(exc)) from exc
    out = {}
    for name, c in coords.items():
        _accumulate(out, chevalley_element(name), cyc8_to_rsum(c))
    return out


def _as_element(x) -> dict:
    if isinstance(x, dict):
        return x
    if isinstance(x, str):
        return chevalley_element(x)
    if isinstance(x, GMat):
        return gmat_to_element(x)
    raise DecompositionError("cannot interpret %r as an algebra element" % (x,))


def _dl_label(lab, v: WignerIndex, chi: Character, exact: bool) -> dict:
    """dl of one catalog label on a basis vector, in chi's arithmetic."""
    if lab[0] == "u":
        return dl_p_action(NoncompactLabel(lab[1], lab[2]), v, chi)
    act = dl_k_action("U%d" % lab[1], v)
    return act if exact else {k: c.to_complex() for k, c in act.items()}


def dl_element(elem, lc: dict, chi: Character) -> dict:
    """Apply dl of one algebra element to a linear combination."""
    elem = _as_element(elem)
    exact = chi.is_exact()
    coefs = elem.items() if exact else [(lab, ce.to_complex()) for lab, ce in elem.items()]
    out = {}
    for v, cv in lc.items():
        for lab, ce in coefs:
            _accumulate(out, _dl_label(lab, v, chi, exact), ce * cv)
    return out


def dl_word(word, v: WignerIndex, chi: Character) -> dict:
    """Left-to-right composition: dl(X1 X2 ... Xn) = dl(X1) ... dl(Xn)."""
    one = ExactScalar(1) if chi.is_exact() else (1 + 0j)
    lc = {v: one}
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
    form, linear = {}, {}
    for coef, word in omega2_words():      # words of one or two letters
        inner = chevalley_element(word[-1])
        if len(word) == 1:
            _accumulate(linear, inner, ExactScalar.of(coef))
            continue
        outer = chevalley_element(word[0])
        for lab, c in inner.items():
            _accumulate(form.setdefault(lab, {}), outer, ExactScalar.of(coef) * c)
    return tuple(form.items()) + ((None, linear),)


def omega2_action(v: WignerIndex, chi: Character) -> dict:
    """dl of the degree-2 Casimir (acts by hc_omega2(lambda) on I(chi)),
    from its collected form: dl(outer) dl(inner) v summed over the form."""
    exact = chi.is_exact()
    out = {}
    for inner, outer in _omega2_form():
        if inner is None:
            lc = {v: ExactScalar(1) if exact else 1 + 0j}
        else:
            lc = _dl_label(inner, v, chi, exact)
        _accumulate(out, dl_element(outer, lc, chi))
    return out


# ---------------------------------------------------------------------------
# checks of the module structure (verify and the tests call these)
# ---------------------------------------------------------------------------

def casimir_check(vectors, chi: Character) -> bool:
    """omega2_action maps each basis vector v to hc_omega2(lambda) v:
    exactly at rational lambda; at complex lambda the diagonal and every
    other coefficient are within 1e-9 * max(1, |scalar|) of it and of 0.
    The diagonal must be present unless the scalar is 0."""
    exact = chi.is_exact()
    scalar = sp4.hc_omega2(_lam(chi))
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
    br = sp4.bracket(x, y)
    one, minus = ExactScalar(1), ExactScalar(-1)
    for v in vectors:
        lhs = lc_add(dl_element(x, dl_element(y, {v: one}, chi), chi),
                     lc_scale(dl_element(y, dl_element(x, {v: one}, chi), chi), minus))
        if lc_add(lhs, lc_scale(dl_element(br, {v: one}, chi), minus)):
            return False
    return True


# ---------------------------------------------------------------------------
# JSON export of an action matrix
# ---------------------------------------------------------------------------

def action_matrix_json(beta, delta, lam, j_max, n_max) -> list[dict]:
    """dl(u_beta) on all admissible basis indices with j <= j_max, as a list
    of {from, to, coeff} with exact scalar strings."""
    beta = NoncompactLabel.of(beta)
    chi = Character(tuple(delta), tuple(lam))
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
