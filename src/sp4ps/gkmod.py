"""Principal-series Harish-Chandra module for Sp(4,R).

Basis functions are Wigner indices (j,n,m1,m2) subject to the delta-parity
conditions; the left action of the noncompact weight vectors u_beta is the
Clebsch-Gordan expansion of

    dl(u_beta) = dr(-Ad(k^{-1}) u_beta)

with the right-action building blocks explicit.  Two sign defects in the
published coefficient tables are corrected here; the convention is pinned
by the numeric principal-series oracle in the test suite and by the
requirement that the degree-2 Casimir act by (lambda1^2+lambda2^2-5)/12.

Coefficients are finite rational combinations of the radical basis
sqrt(r)*pi^(p/2)*i^k (class ``RSum``) at rational lambda and complex
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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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


def check_index(v: WignerIndex, delta) -> bool:
    """Is v an admissible basis index of C_delta(K)?"""
    if not ktype_allowed(v.j, v.n, delta):
        return False
    return v.m2 in m_set(v.j, v.n, delta)


# ---------------------------------------------------------------------------
# exact coefficient sums over the radical basis
# ---------------------------------------------------------------------------

class RSum:
    """Finite rational combination of sqrt(r)*pi^(p/2)*i^k basis radicals.

    Distinct radical classes are Q-linearly independent, so classes never
    cross-cancel; a value collapses to a single ExactScalar iff at most one
    class survives.  ``terms`` holds nonzero Fractions only.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: q for k, q in (terms or {}).items() if q}

    @staticmethod
    def _wrap(terms: dict) -> "RSum":
        """An RSum owning ``terms``, which must hold nonzero values only."""
        out = object.__new__(RSum)
        out.terms = terms
        return out

    @staticmethod
    def of(x) -> "RSum":
        if isinstance(x, RSum):
            return x
        if isinstance(x, (int, Fraction)):
            x = ExactScalar.of(x)
        if isinstance(x, ExactScalar):
            if x.is_zero():
                return RSum()
            return RSum._wrap({(x.r, x.p, x.im): x.q})
        raise TypeError("cannot coerce %r to RSum" % (x,))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if other.__class__ is not RSum:
            other = RSum.of(other)
        out = dict(self.terms)
        for k, q in other.terms.items():
            if k in out:
                s = out[k] + q
                if s:
                    out[k] = s
                else:
                    del out[k]
            else:
                out[k] = q
        return RSum._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return RSum._wrap({k: -q for k, q in self.terms.items()})

    def __sub__(self, other):
        return self + (-RSum.of(other))

    def __mul__(self, other):
        if other.__class__ is not RSum:
            other = RSum.of(other)
        out = {}
        for (r1, p1, i1), q1 in self.terms.items():
            for (r2, p2, i2), q2 in other.terms.items():
                # sqrt(r1) sqrt(r2) = g sqrt(r1 r2 / g^2), g = gcd(r1, r2)
                q = q1 * q2
                if r1 == 1 or r2 == 1:
                    r = r1 * r2
                else:
                    g = math.gcd(r1, r2)
                    if g == 1:
                        r = r1 * r2
                    else:
                        r = (r1 // g) * (r2 // g)
                        q = q * g
                if i1 and i2:
                    q = -q
                key = (r, p1 + p2, i1 != i2)
                if key in out:
                    s = out[key] + q
                    if s:
                        out[key] = s
                    else:
                        del out[key]
                else:
                    out[key] = q
        return RSum._wrap(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            other = RSum.of(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def as_exact(self) -> ExactScalar:
        if not self.terms:
            return ExactScalar(0)
        if len(self.terms) > 1:
            raise ValueError("value spans several radical classes: %s" % self)
        (r, p, im), q = next(iter(self.terms.items()))
        return ExactScalar(q, r, p, im)

    def to_complex(self) -> complex:
        return sum((ExactScalar(q, r, p, im).to_complex()
                    for (r, p, im), q in self.terms.items()), 0j)

    def __repr__(self):
        if not self.terms:
            return "RSum(0)"
        return " + ".join(str(ExactScalar(q, r, p, im))
                          for (r, p, im), q in sorted(self.terms.items()))


def cyc8_to_rsum(z: Cyc8) -> RSum:
    """a + b w + c w^2 + d w^3 with w = e^{i pi/4}: real/imag parts split
    over the radical classes 1 and sqrt2."""
    a, b, c, d = z.c
    return RSum({(1, 0, False): a, (1, 0, True): c,
                 (2, 0, False): (b - d) / 2, (2, 0, True): (b + d) / 2})


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
    are RSum or complex, and both are false exactly when zero."""
    if c is not None and c.__class__ is RSum and not c.terms:
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
    if isinstance(c, RSum) and c.is_zero():
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


def _field(chi: Character):
    """lambda and the coefficient constructor of chi's arithmetic: Fractions
    and RSum when chi is exact, complex numbers for both otherwise."""
    if chi.is_exact():
        return chi.lam_frac, RSum.of
    return tuple(complex(x) for x in chi.lam), complex


def dr_p_action(beta, v: WignerIndex, chi: Character) -> dict:
    """Right action dr(u_beta): diagonal for the +-b2 and +-(2b1+b2)
    families, an m2-ladder for +-(b1+b2)."""
    beta = NoncompactLabel.of(beta)
    lam, coef_of = _field(chi)
    out = {}
    for m_nu, factor, affine, shift in _dr_terms(beta, v.j, v.n, v.m2, lam):
        m2p = v.m2 + shift
        coef = lift(factor, lam[0]) * affine
        if m_nu == beta.m_beta and coef and abs(m2p.twice) <= v.j.twice:
            out[WignerIndex.of(v.j, v.n, v.m1, m2p)] = coef_of(coef)
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
    lam, coef_of = _field(chi)
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
                _accumulate(out, {tgt: coef_of(lift(c, coef) * coef)})
    return out


# ---------------------------------------------------------------------------
# left action of k
# ---------------------------------------------------------------------------

def dl_k_action(gen, v: WignerIndex) -> dict:
    """dl of a compact generator; gen is one of U0..U3 (or the gamma basis
    g0, g3, g+, g-).  Coefficients are RSum."""
    return dict(_dl_k_cached(gen, v))


@lru_cache(maxsize=None)
def _dl_k_cached(gen, v: WignerIndex) -> dict:
    from .wigner import dl_gamma
    if gen in ("g0", "g3", "g+", "g-"):
        return {k: RSum.of(c) for k, c in dl_gamma(gen, v).items()}
    if gen == "U0":
        return dl_k_action("g0", v)
    if gen == "U3":
        return dl_k_action("g3", v)
    if gen == "U1":   # gamma_1 = (g+ + g-)/2
        half = ExactScalar(Fraction(1, 2))
        return lc_add(lc_scale(dl_k_action("g+", v), RSum.of(half)),
                      lc_scale(dl_k_action("g-", v), RSum.of(half)))
    if gen == "U2":   # gamma_2 = (g+ - g-)/(2i)
        mih = ExactScalar(Fraction(-1, 2), 1, 0, True)   # 1/(2i) = -i/2
        return lc_add(lc_scale(dl_k_action("g+", v), RSum.of(mih)),
                      lc_scale(dl_k_action("g-", v), RSum.of(-mih)))
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
    return {lab: RSum.of(c) for lab, c in _CHEVALLEY_TO_CATALOG[name].items()}


def compact_root_element(sign: int) -> dict:
    """v_{+-b1} = (1/i)(U1 +- i U2) = -i U1 +- U2."""
    mi = RSum.of(ExactScalar(-1, 1, 0, True))
    return {("U", 1): mi, ("U", 2): RSum.of(ExactScalar(1 if sign > 0 else -1))}


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
    one = RSum.of(1) if chi.is_exact() else (1 + 0j)
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
    first (None for the linear part) and outer a {catalog label: RSum}
    element.  Every word is expanded with its letter order kept and equal
    monomials are summed exactly; no relation of g is used."""
    form, linear = {}, {}
    for coef, word in omega2_words():      # words of one or two letters
        inner = chevalley_element(word[-1])
        if len(word) == 1:
            _accumulate(linear, inner, RSum.of(coef))
            continue
        outer = chevalley_element(word[0])
        for lab, c in inner.items():
            _accumulate(form.setdefault(lab, {}), outer, RSum.of(coef) * c)
    return tuple(form.items()) + ((None, linear),)


def omega2_action(v: WignerIndex, chi: Character) -> dict:
    """dl of the degree-2 Casimir (acts by hc_omega2(lambda) on I(chi)),
    from its collected form: dl(outer) dl(inner) v summed over the form."""
    exact = chi.is_exact()
    out = {}
    for inner, outer in _omega2_form():
        if inner is None:
            lc = {v: RSum.of(1) if exact else 1 + 0j}
        else:
            lc = _dl_label(inner, v, chi, exact)
        _accumulate(out, dl_element(outer, lc, chi))
    return out


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
        for m2 in m_set(j, n, delta):
            for m1 in half_range(-j, j):
                v = WignerIndex.of(j, n, m1, m2)
                for tgt, coeff in sorted(dl_p_action(beta, v, chi).items(),
                                         key=lambda kv: (kv[0].j.twice, kv[0].n.twice,
                                                         kv[0].m1.twice, kv[0].m2.twice)):
                    rows.append({
                        "from": [str(j), str(n), str(m1), str(m2)],
                        "to": [str(tgt.j), str(tgt.n), str(tgt.m1), str(tgt.m2)],
                        "coeff": str(coeff.as_exact()),
                    })
    return rows
