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
roots) become complex only where they meet a complex lambda (``_Float``,
and ``exact.lift`` in ``dr_p_action``).

The ten generators have one name inside this module, their catalog label:
("u", m_beta, n_beta) for the noncompact u_beta and ("U", i) for the
compact U_i.  ``dl_p_action`` also takes a root name or the weights
(m_beta, n_beta), and ``dl_k_action`` takes "U0".."U3".

The generators act through one table per character (``_table``): each
basis vector gets an integer id on first sight, and dl of a label on a
vector is a row of (target id, coefficient), built once when it is first
read (``_dl_row``), so dl of a label is a row lookup.  Tables are filled
under a lock, so ``verify``'s threads may share them, and only the tables
of the last ``_TABLES_KEPT`` characters are kept.  The pieces of a row
that do not depend on lambda (Clebsch-Gordan values, ladder factors, the
compact actions) are cached by their integer arguments.

Linear combinations are dicts {basis index: coefficient}.  dl of an
element, of the Casimir and of a bracket are summed over ids by one
kernel (``_accumulate``) in the character's arithmetic.  At rational
lambda (``_Scratch``) a coefficient is in the integer scratch form of
``exact._mul_acc``, rows included, so each product is added into its
output id without making a Fraction or an ExactScalar.  At complex lambda
(``_Float``) each product is added in place, term by term in the same
order, so a float result has the same bits on every run.  Each output
coefficient is settled once, back to a basis vector and an ExactScalar
or complex.  An index whose terms all cancel leaves the sum and goes last
if it comes back, so the key order is the one of adding term by term.
``lc_add`` and ``lc_scale`` return new dicts.

The Casimir is applied in collected form: its Chevalley words, expanded
once per process in the catalog basis {u_beta, U_i} with letter order
kept, give one outer element for each catalog label applied first, plus a
linear part.  One vector then costs the rows of the ten inner labels and
one kernel pass per inner label, not the eight words letter by letter.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

from . import sp4
from .exact import Character, ExactScalar, HalfInt, _merge, _mul_acc, half_range, lift
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


# ---------------------------------------------------------------------------
# left action of p_C
# ---------------------------------------------------------------------------

# keyed by twice j and twice m1: it does not depend on lambda
@lru_cache(maxsize=None)
def _cg(tj: int, tm1: int, m2: int, j0: int) -> dict:
    """<j+j0, m1+m2 | j, m1, 1, m2> in integer scratch form; {} out of range."""
    try:
        return clebsch_gordan_j1(HalfInt(tj), HalfInt(tm1), m2, j0).scratch()
    except OutOfRange:
        return {}


_ONE = ExactScalar(1)
_I_OVER_SQRT2 = ExactScalar(Fraction(1, 2), 2, 0, True)   # i/sqrt2
_I = ExactScalar.i_power(1)


# keyed by twice j and twice m2: it does not depend on lambda
@lru_cache(maxsize=None)
def _ladder(tj: int, tm2: int) -> ExactScalar:
    """-i sqrt((j - m2)(j + m2 + 1)), the m2-ladder factor of dr(u_nu)."""
    return -_I * ExactScalar.sqrt_rational((tj - tm2) * (tj + tm2 + 2) // 4)


def _dr_terms(lab: tuple, j, n, m2, lam):
    """The three dr(u_nu) contributions as (m_nu, exact factor, affine
    factor, m2 shift).  The i/sqrt2 and ladder factors do not depend on
    lambda and stay exact; the affine factor is a Fraction at rational
    lambda and complex at complex lambda."""
    l1, l2 = lam
    tn, tm2 = n.twice, m2.twice
    if lab[2] == 1:
        return [
            (-1, _I_OVER_SQRT2, Fraction(tm2 - tn, 2) - (l2 + 1), 0),
            (1, _I_OVER_SQRT2, Fraction(-tn - tm2, 2) - (l1 + 2), 0),
            (0, _ladder(j.twice, tm2), 1, 1),
        ]
    return [
        (1, _I_OVER_SQRT2, Fraction(tn - tm2, 2) - (l2 + 1), 0),
        (-1, _I_OVER_SQRT2, Fraction(tn + tm2, 2) - (l1 + 2), 0),
        (0, _ladder(j.twice, -tm2), 1, -1),
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


# keyed by (catalog label, basis vector, chi): the settled view of one row of
# chi's table, for dl_p_action.  Bounded, so that it does not grow across
# characters; the cached dicts are shared, and dl_p_action hands out copies.
@lru_cache(maxsize=1024)
def _dl_p_cached(lab: tuple, v: WignerIndex, chi: Character) -> dict:
    table = _table(chi)
    return table.settle(table.row(lab, table.id(v)))


# ---------------------------------------------------------------------------
# left action of k
# ---------------------------------------------------------------------------

def dl_k_action(gen, v: WignerIndex) -> dict:
    """dl of a compact generator U0..U3 (``wigner.dl_gamma`` takes the gamma
    basis g0, g3, g+, g-).  Coefficients are ExactScalar."""
    if gen not in ("U0", "U1", "U2", "U3"):
        raise ValueError("unknown compact generator %r: dl_k_action takes U0..U3" % (gen,))
    return dict(_dl_k_cached(("U", int(gen[1])), v))


_HALF = ExactScalar(Fraction(1, 2))
_MINUS_I_HALF = ExactScalar(Fraction(-1, 2), 1, 0, True)    # 1/(2i) = -i/2


# keyed by (catalog label ("U", i), basis vector): a compact action does not
# depend on lambda.  Shared like _dl_p_cached.
@lru_cache(maxsize=None)
def _dl_k_cached(lab: tuple, v: WignerIndex) -> dict:
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
# generator tables per character
# ---------------------------------------------------------------------------

class _Scratch:
    """The arithmetic of a rational character: a coefficient is in integer
    scratch form ({radical key: (numerator, denominator)}, ``exact._mul_acc``),
    and a sum keeps one unreduced cell per output index."""

    one = _ONE.scratch()
    mul_acc = staticmethod(_mul_acc)

    @staticmethod
    def lift(c) -> dict:
        return ExactScalar.of(c).scratch()

    @staticmethod
    def lift_cell(cell: dict) -> dict:
        return cell

    @staticmethod
    def product(a: dict, b: dict) -> dict:
        acc = {}
        _mul_acc(acc, 0, a, b)
        return acc[0] if acc else {}

    @staticmethod
    def dl_coef(factor: ExactScalar, affine) -> dict:
        """-factor * affine, for a Fraction (or int) affine factor."""
        if not affine:
            return {}
        an, ad = affine.numerator, affine.denominator
        return {k: (-q.numerator * an, q.denominator * ad) for k, q in factor.terms.items()}

    @staticmethod
    def freeze(cell: dict) -> dict:
        """A row coefficient: the cell in lowest terms."""
        out = {}
        for k, (n, d) in cell.items():
            g = math.gcd(n, d)
            out[k] = (n // g, d // g)
        return out

    settle = staticmethod(ExactScalar.from_scratch)


class _Float:
    """The arithmetic of a complex character: a coefficient is a complex
    number, and each product is added in place, term by term, so a result
    has the same bits on every run."""

    one = _ONE.to_complex()

    @staticmethod
    def lift(c) -> complex:
        return c.to_complex() if c.__class__ is ExactScalar else c

    @staticmethod
    def lift_cell(cell: dict) -> complex:
        return ExactScalar.from_scratch(cell).to_complex()

    @staticmethod
    def product(a: complex, b: complex) -> complex:
        return a * b

    @staticmethod
    def mul_acc(acc: dict, index, a: complex, b: complex) -> None:
        _merge(acc, index, a * b)

    @staticmethod
    def dl_coef(factor: ExactScalar, affine: complex) -> complex:
        return -factor.to_complex() * affine

    @staticmethod
    def freeze(c: complex) -> complex:
        return c

    settle = freeze


_LABELS = tuple(("u",) + w for w in NONCOMPACT.values()) + tuple(("U", i) for i in range(4))


class _Table:
    """The ten catalog generators acting on the basis at one character.

    Each basis vector gets an integer id on first sight (``id``), and
    ``rows[label][id]`` is dl of the label on that vector as a tuple of
    (target id, coefficient) in the character's arithmetic (``arith``), or
    None until it is first read (``row``).  Ids are assigned and rows filled
    under one lock, so threads may share a table; a result does not depend
    on the ids, only on the order of the terms.
    """

    def __init__(self, chi: Character):
        self.chi = chi
        self.arith = _Scratch if chi.exact else _Float
        self.ids = {}
        self.vecs = []
        self.rows = {lab: [] for lab in _LABELS}
        self.lock = threading.RLock()

    def id(self, v: WignerIndex) -> int:
        return self.key_id((v.j.twice, v.n.twice, v.m1.twice, v.m2.twice))

    def key_id(self, key: tuple) -> int:
        """The id of the basis vector with twice-values key = (j, n, m1, m2)."""
        i = self.ids.get(key)
        if i is None:
            with self.lock:
                i = self.ids.get(key)
                if i is None:
                    i = len(self.vecs)
                    self.vecs.append(WignerIndex(*map(HalfInt, key)))
                    for rows in self.rows.values():
                        rows.append(None)
                    self.ids[key] = i    # published last: its rows exist
        return i

    def row(self, lab: tuple, i: int) -> tuple:
        rows = self.rows[lab]
        row = rows[i]
        if row is None:
            with self.lock:
                row = rows[i]
                if row is None:
                    row = rows[i] = _dl_row(self, lab, self.vecs[i])
        return row

    def settle(self, items) -> dict:
        """{basis vector: ExactScalar or complex} from (id, coefficient)
        pairs: each coefficient settled once."""
        vecs, settle = self.vecs, self.arith.settle
        return {vecs[i]: settle(c) for i, c in items}


# A table lives while it is among the last _TABLES_KEPT characters used.
_TABLES_KEPT = 8


@lru_cache(maxsize=_TABLES_KEPT)
def _table(chi: Character) -> _Table:
    return _Table(chi)


def _dl_row(table: _Table, lab: tuple, v: WignerIndex) -> tuple:
    """dl of one catalog label on v, as a row of the table: the one place
    where dl of a label is computed.  A u-row is the Clebsch-Gordan
    expansion of dl(u_beta) = dr(-Ad(k^{-1}) u_beta), summed in the table's
    arithmetic; a U-row is ``_dl_k_cached`` lifted."""
    ar = table.arith
    if lab[0] == "U":
        return tuple((table.id(k), ar.lift(c)) for k, c in _dl_k_cached(lab, v).items())
    j, m1, m2 = v.j, v.m1, v.m2
    _, m_beta, n_beta = lab
    # target twice-values: j + j0, n + n_beta, m1 + m_beta, m2 + shift + m_nu
    tj, tn, tm1 = j.twice, v.n.twice + 2 * n_beta, m1.twice + 2 * m_beta
    out = {}
    for m_nu, factor, affine, shift in _dr_terms(lab, j, v.n, m2, table.chi.lam):
        tm2p = m2.twice + 2 * shift
        coef = ar.dl_coef(factor, affine)
        if not coef or abs(tm2p) > tj:
            continue
        tm2 = tm2p + 2 * m_nu
        for j0 in (-1, 0, 1):
            tjt = tj + 2 * j0
            if tjt < 0 or (tj == 0 and j0 != 1) or abs(tm1) > tjt or abs(tm2) > tjt:
                continue
            cg = _Scratch.product(_cg(tj, m1.twice, m_beta, j0), _cg(tj, tm2p, m_nu, j0))
            if cg:
                ar.mul_acc(out, table.key_id((tjt, tn, tm1, tm2)), ar.lift_cell(cg), coef)
    return tuple((i, ar.freeze(c)) for i, c in out.items())


def _accumulate(table: _Table, acc: dict, elem, lc) -> None:
    """acc += dl(elem) lc over ids: the one summation kernel.  ``elem`` is
    ((catalog label, coefficient), ...) and ``lc`` ((id, coefficient), ...),
    both in the table's arithmetic.  Terms are added for each vector of lc,
    each label of elem and each entry of the label's row, in that order; an
    index whose terms all cancel leaves acc and goes last if it comes back."""
    ar = table.arith
    mul_acc, product = ar.mul_acc, ar.product
    elem = [(table.rows[lab], lab, ce) for lab, ce in elem]
    for i, cv in lc:
        for rows, lab, ce in elem:
            c = product(ce, cv)
            row = rows[i]
            if row is None:
                row = table.row(lab, i)
            for k, val in row:
                mul_acc(acc, k, c, val)


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
        c = cyc8_to_rsum(c).scratch()
        for lab, ce in _CHEVALLEY_TO_CATALOG[name].items():
            _mul_acc(acc, lab, c, ce.scratch())
    return ExactScalar.settle(acc)


def _as_element(x) -> dict:
    if isinstance(x, dict):
        return x
    if isinstance(x, str):
        return chevalley_element(x)
    if isinstance(x, GMat):
        return gmat_to_element(x)
    raise DecompositionError("cannot interpret %r as an algebra element" % (x,))


def dl_element(elem, lc: dict, chi: Character) -> dict:
    """Apply dl of one algebra element to a linear combination."""
    table = _table(chi)
    lift = table.arith.lift
    elem = [(lab, lift(ce)) for lab, ce in _as_element(elem).items()]
    acc = {}
    _accumulate(table, acc, elem, [(table.id(v), lift(cv)) for v, cv in lc.items()])
    return table.settle(acc.items())


def dl_word(word, v: WignerIndex, chi: Character) -> dict:
    """Left-to-right composition: dl(X1 X2 ... Xn) = dl(X1) ... dl(Xn)."""
    lc = {v: lift(_ONE, chi.lam[0])}
    for elem in reversed(list(word)):
        lc = dl_element(elem, lc, chi)
        if not lc:
            break
    return lc


@lru_cache(maxsize=None)
def _omega2_form(arith) -> tuple:
    """The Casimir collected in the catalog basis, as (inner, outer) pairs:
    omega2 = sum of outer * inner, where inner is the catalog label applied
    first (None for the linear part) and outer ((catalog label,
    coefficient), ...) an element in ``arith``'s arithmetic.  Every word is
    expanded with its letter order kept and equal monomials are summed
    exactly; no relation of g is used.  Built once per arithmetic."""
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
    return tuple((lab, tuple((olab, arith.lift(ExactScalar.from_scratch(c))) for olab, c in acc.items()))
                 for lab, acc in list(form.items()) + [(None, linear)])


def omega2_action(v: WignerIndex, chi: Character) -> dict:
    """dl of the degree-2 Casimir (acts by hc_omega2(lambda) on I(chi)),
    from its collected form: dl(outer) dl(inner) v summed over the form in
    one accumulator."""
    table = _table(chi)
    i = table.id(v)
    acc = {}
    for inner, outer in _omega2_form(table.arith):
        lc = ((i, table.arith.one),) if inner is None else table.row(inner, i)
        _accumulate(table, acc, outer, lc)
    return table.settle(acc.items())


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
    table = _table(chi)
    lift = table.arith.lift
    ex, ey, eb = ([(lab, lift(c)) for lab, c in gmat_to_element(g).items()]
                  for g in (x, y, sp4.bracket(x, y)))
    one, minus = lift(_ONE), lift(ExactScalar(-1))
    for v in vectors:
        i = table.id(v)
        # dl(x) dl(y) v + dl(y) dl(x) (-v) + dl([x,y]) (-v), in one sum
        yv, xv, acc = {}, {}, {}
        _accumulate(table, yv, ey, ((i, one),))
        _accumulate(table, acc, ex, yv.items())
        _accumulate(table, xv, ex, ((i, minus),))
        _accumulate(table, acc, ey, xv.items())
        _accumulate(table, acc, eb, ((i, minus),))
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
