"""Intertwining operators for the Sp(4,R) minimal principal series.

The rank-one building blocks are the scalar integrals Q(z,nu), the
change-of-basis matrices M, N (Wigner D-values at quarter-turn angles), and
the simple-operator entries S (finite sum over M N Q, or the terminating
3F2 at 1, a Hahn polynomial in z).  Normalized entries are rational in the
spectral parameter up to one fixed radical, so the default computations are
exact at any rational lambda; exact entries are ``ExactScalar`` values (sums
of radical monomials).  Every hypergeometric sum and series here
takes its terms from ``exact.hyp_terms``; a generating function in t is a
list of coefficients (``laurent``), read one coefficient of a product at a
time.

The long operator has two routes: the product A4 A3 A2 A1 of the simple
operators (the stages of LONG_WORD, from the one stage rule of the Weyl
reflections a1 and a2 in word_stages), and the constant term of a
two-variable generating function, divided by the per-block constant
(z_A1)_j (z_A3)_j.  That constant is a closed form checked against the
product over a stated range (see genfun_vs_product), not derived, so the
genfun route runs without the product and genfun_check compares the two
entry by entry.  Both routes compute a block as a whole: a factor that
depends on one index only (a row, a column, an m4 or a p) is built once per
block.  A factor that depends on lambda and the spin but not on n is built
once per character and kept in a bounded memo: q_ratio(z, m) (the S blocks
of A1 and A3, t_norm of A2 and A4, the generating function's A2 pair and A4
column), and the generating function's m1-only t-series coefficients,
eps jets and Gamma values (_genfun_side); its m2-only factors are the same
list mirrored (m -> -m, lambda2 -> -lambda2, p -> j-eps-p).  The unnormalized
Q(z, m4) of s_entry_sum (q_factor) and the closed form's S00(z) (_s00)
have bounded memos of their own, so that a check which builds its entries
one at a time builds each factor once per argument.  Their keys
keep an exact argument and a complex one of equal value apart, and
gamma_half's own memo lets them share its values.  The lambda-free S
terms i^{-2 m4} M_{m3,m4} N_{m4,m2} are built once per spin (_s_terms),
with one (scratch, complex) pair per distinct value (exact.value_pair), and S
entries and block products are summed in the arithmetic of their entries,
``exact.Scratch`` (integer scratch form, each entry settled once) or
``exact.Complex``, by one loop each.

Every Gamma ratio of the layer (Q, S00, the half-odd Pochhammer pair and
the closed form's prefactor) is one call of _gamma_ratio, exact at
half-integer arguments and complex at complex ones, with one pole rule on
both paths: a Gamma of the denominator at its pole makes the ratio 0, an
excess of numerator poles is a PoleError, and equal orders give the
limit.

Removable singularities (a prefactor pole cancelling a vanishing
hypergeometric sum, and the spurious per-term poles of the long-operator
generating function on lambda1 hyperplanes) are evaluated by perturbing the
parameter with a formal epsilon and extracting the constant Laurent
coefficient; a surviving pole part is a genuine pole and raises.  A
PoleError or UnsupportedExactInput names the stage or block and the factor
with its argument.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .exact import (Character, Complex, ExactScalar, HalfInt, PoleError, Scratch, UnsupportedExactInput,
                    gamma_half, half_range, hyp_terms, lift, pochhammer, require_finite, value_pair)
from .gkmod import m_set
from .laurent import LSeries1, binom_series, hyp2f1_series, product_coeff
from .sp4 import weyl_on_lambda
from .wigner import EulerAngles, WignerIndex, c_factor, wigner_D


class QuadratureError(ArithmeticError):
    """Numerical quadrature failed to converge."""


class DegenerateBlock(AssertionError):
    """Every generating-function entry of a block is 0.  The long operator
    can vanish on a block (at lambda=(7,2) the product does on some), but
    the generating-function route has no independent check of a zero block,
    so it reports the block instead of returning it."""


@contextmanager
def _named(what: str):
    """Prefix a PoleError or UnsupportedExactInput raised in the body with
    the factor or block it came from."""
    try:
        yield
    except (PoleError, UnsupportedExactInput) as exc:
        raise type(exc)("%s: %s" % (what, exc)) from exc


KINDS = ("A1", "A2", "A3", "A4", "LONG", "LONG_GENFUN")


# ---------------------------------------------------------------------------
# block matrices
# ---------------------------------------------------------------------------

@dataclass
class BlockMatrix:
    """An operator on one K-isotypic block, rows/cols indexed by m-values."""

    ktype: tuple
    row_index: list
    col_index: list
    entries: list

    def get(self, mr, mc):
        return self.entries[self.row_index.index(HalfInt.of(mr))][self.col_index.index(HalfInt.of(mc))]

    def matmul(self, other: "BlockMatrix") -> "BlockMatrix":
        """The block product, summed in the arithmetic of the entries
        (``exact.Scratch`` for ExactScalars, else ``exact.Complex``): each
        operand lifted once, the terms of an entry added in column order,
        and each entry settled once."""
        if self.col_index != other.row_index:
            raise ValueError("index mismatch in block product")
        exact = self.entries and self.entries[0] and self.entries[0][0].__class__ is ExactScalar
        ar = Scratch if exact else Complex
        lift, mul_acc, settle, zero = ar.lift, ar.mul_acc, ar.settle, ar.zero
        ks = range(len(other.col_index))
        bs = [[lift(b) for b in brow] for brow in other.entries]
        rows = []
        for row in self.entries:
            acc: dict = {}
            for a, brow in zip(row, bs):
                if a:
                    a = lift(a)
                    for k, b in zip(ks, brow):
                        if b:
                            mul_acc(acc, k, a, b)
            rows.append([settle(acc.get(k, zero)) for k in ks])
        return BlockMatrix(self.ktype, list(self.row_index), list(other.col_index), rows)

    def is_identity(self) -> bool:
        """Exactly the identity (exact entries)."""
        return self.row_index == self.col_index and all(
            e == ExactScalar(int(i == k))
            for i, row in enumerate(self.entries) for k, e in enumerate(row))

    def scale(self, c) -> "BlockMatrix":
        return BlockMatrix(self.ktype, list(self.row_index), list(self.col_index),
                           [[c * e for e in row] for row in self.entries])


# ---------------------------------------------------------------------------
# Q factor
# ---------------------------------------------------------------------------

def _gamma_ratio(num, den, pole_msg: str):
    """prod Gamma(a) over num / prod Gamma(a) over den, each argument an
    (a, slope) pair with slope the rate of a in the underlying variable.

    One pole rule at exact half-integer and at float or complex arguments:
    a pole Gamma(x) ~ (-1)^p/(p! slope (z-z0)) at x = -p is counted with its
    slope; a numerator excess raises PoleError(pole_msg), a denominator
    excess gives 0, and equal orders give the directional limit.  The other
    Gammas are ``gamma_half`` at exact arguments and scipy's gamma and
    rgamma at float ones.
    """
    exact = not any(isinstance(a, (float, complex)) for a, _ in num + den)
    poles, order, regular = ExactScalar(1), 0, ([], [])
    for args, sign, rest in ((num, 1, regular[0]), (den, -1, regular[1])):
        for a, slope in args:
            a = HalfInt.of(a) if exact else complex(a)
            p = _pole_index(a)
            if p is None:
                rest.append(a)
                continue
            order += sign
            g = ExactScalar(Fraction((-1) ** p) / (math.factorial(p) * Fraction(slope)))
            poles = poles * g if sign > 0 else poles / g
    if order > 0:
        raise PoleError(pole_msg)
    if order < 0:
        return ExactScalar(0) if exact else 0j
    if exact:
        val = poles
        for a in regular[0]:
            val = val * gamma_half(a)
        for a in regular[1]:
            val = val / gamma_half(a)
        return val
    from scipy.special import gamma, rgamma
    vals = [complex(gamma(a)) for a in regular[0]] + [complex(rgamma(a)) for a in regular[1]]
    if poles != 1:             # equal pole orders: the limit's factor
        vals.append(poles.to_complex())
    out, *rest = vals
    for x in rest:
        out = out * x
    return out


def _pole_index(a):
    """p where a = -p is a pole of Gamma (p = 0, 1, 2, ...), else None."""
    if isinstance(a, complex):
        if a.imag == 0 and a.real <= 0 and a.real.is_integer():
            return -int(a.real)
        return None
    return -a.as_int() if a.is_integer() and a.as_int() <= 0 else None


# The lambda-only factors (q_factor, q_ratio, _s00, _genfun_side) are kept
# for the last _FACTORS_KEPT arguments of each; verify --deep reads 61
# q_factor, 202 q_ratio, 5 S00 and 32 genfun lists.  typed=True keeps an
# exact argument and a complex one of equal value (7/2 and 3.5+0j hash
# alike) apart.
_FACTORS_KEPT = 1024


@lru_cache(maxsize=_FACTORS_KEPT, typed=True)
def q_factor(z, nu):
    """Q(z,nu) = pi 2^{2-2z} Gamma(2z-1) / (Gamma(z+nu) Gamma(z-nu)).

    Exact at half-integer z; complex z runs on the float path.  Both take
    the Gammas from _gamma_ratio: a pole excess in the numerator raises, and
    a Gamma of the denominator at its pole makes Q zero.  A bounded memo:
    the S entries of one block, and of every block at the same z, read the
    same Q(z, m4), and s_entry_sum builds one entry at a time.
    """
    if isinstance(z, (int, Fraction)):
        z = Fraction(z)
        nu = nu.frac if isinstance(nu, HalfInt) else Fraction(nu)
        if (2 * z).denominator != 1:
            raise ValueError("exact Q needs a half-integer z, got %s" % z)
    else:
        z = complex(z)
        nu = complex(float(nu) if isinstance(nu, HalfInt) else nu)
    gam = _gamma_ratio([(2 * z - 1, 2)], [(z + nu, 1), (z - nu, 1)],
                       "Q(%s,%s): uncancelled Gamma(2z-1) pole" % (z, nu))
    return lift(ExactScalar(1, 1, 2), z) * 2 ** (2 - 2 * z) * gam


@lru_cache(maxsize=_FACTORS_KEPT, typed=True)
def q_ratio(z, m):
    """Q(z,m)/Q(z,0) = Gamma(z)^2/(Gamma(z+m)Gamma(z-m)) = 1/((z)^(m) (z)^(-m)),
    also the Pochhammer pair of t_norm and the generating function.

    Integer m: the rational function (z-|m|)^(|m|)/(z)^(|m|), exact at
    rational z and complex at complex z; a vanishing (z)^(|m|) is a pole.
    Half-odd m (half-integer-spin blocks, delta=(1,1) exponents): the Gamma
    ratio of _gamma_ratio, exact at half-integer z and complex at complex z,
    with one pole rule on both paths (a denominator pole gives 0); any other
    rational z raises UnsupportedExactInput.
    """
    m = HalfInt.of(m)
    exact = isinstance(z, (int, Fraction))
    z = Fraction(z) if exact else complex(z)
    if m.is_integer():
        k = abs(m.as_int())
        den = pochhammer(z, k)
        if den == 0:
            raise PoleError("Pochhammer pair pole: (%s)^(%d) = 0" % (z, k))
        val = pochhammer(z - k, k) / den
        return ExactScalar.of(val) if exact else val
    if exact and (2 * z).denominator != 1:
        raise UnsupportedExactInput("half-odd Pochhammer pair exponent %s needs a "
                                    "half-integer argument, got %s" % (m, z))
    mf = abs(m.frac) if exact else abs(float(m))
    return _gamma_ratio([(z, 1), (z, 1)], [(z + mf, 1), (z - mf, 1)],
                        "Pochhammer pair pole at %s" % z)


# ---------------------------------------------------------------------------
# change-of-basis matrices
# ---------------------------------------------------------------------------

_M_ANGLES = EulerAngles.pi_units(0, Fraction(-1, 2), Fraction(3, 2), Fraction(1, 2))
_N_ANGLES = EulerAngles.pi_units(0, Fraction(-1, 2), Fraction(-3, 2), Fraction(1, 2))


# The spin tables (mn_matrices, _s_terms) are kept for the last
# _SPINS_KEPT spins used; verify --deep reads 13.
_SPINS_KEPT = 32


@lru_cache(maxsize=_SPINS_KEPT)
def mn_matrices(j) -> tuple[BlockMatrix, BlockMatrix]:
    """M and N: Wigner D-values of exp(-+(3 pi/2) U1); N is the exact
    inverse of M."""
    j = HalfInt.of(j)
    ms = half_range(-j, j)
    m_rows, n_rows = [], []
    for a in ms:
        m_rows.append([wigner_D(WignerIndex.of(j, 0, a, b), _M_ANGLES) for b in ms])
        n_rows.append([wigner_D(WignerIndex.of(j, 0, a, b), _N_ANGLES) for b in ms])
    return (BlockMatrix((j, None), ms, ms, m_rows),
            BlockMatrix((j, None), ms, ms, n_rows))


@lru_cache(maxsize=_SPINS_KEPT)
def _s_terms(j: HalfInt) -> list:
    """The lambda-free terms of _s_block at spin j, built once per spin:
    ``terms[a][k]`` is, for the a-th m3 and the k-th m2 of -j..j, the tuple
    of (m4, (scratch form, complex value)) of each nonzero
    i^{-2 m4} M_{m3,m4} N_{m4,m2}, in m4 order, one pair per value
    (``exact.value_pair``); an arithmetic reads its member of the pair at
    its ``form``."""
    M, N = mn_matrices(j)
    m4s = M.col_index
    terms = []
    for mrow in M.entries:
        row = []
        for k in range(len(m4s)):
            cell = []
            for i, m4 in enumerate(m4s):
                c = mrow[i] * N.entries[i][k]
                if c:
                    p = ExactScalar.i_power(-m4.twice) * c
                    cell.append((m4, value_pair(tuple(p.scratch().items()))))
            row.append(tuple(cell))
        terms.append(row)
    return terms


def _two_pow(m: HalfInt) -> ExactScalar:
    """2^m for half-integer m."""
    f = m.frac
    if f.denominator == 1:
        return ExactScalar(Fraction(2) ** int(f))
    k = int(f - Fraction(1, 2))
    return ExactScalar(Fraction(2) ** k) * ExactScalar.sqrt_rational(2)


def m_entry_genfun(j, m3, m4) -> ExactScalar:
    """M^j_{m3,m4} as a constant Laurent coefficient: the independent
    generating-function route used to cross-check mn_matrices."""
    j, m3, m4 = HalfInt.of(j), HalfInt.of(m3), HalfInt.of(m4)
    tj = (j + j).as_int()
    f1 = binom_series((j - m3).as_int(), Fraction(1, 2), tj)
    f2 = binom_series((j + m3).as_int(), Fraction(-1, 2), tj)
    ct = product_coeff(f1, f2, (j - m4).as_int())
    phase = ExactScalar.i_power((m4 - m3).as_int()) * ExactScalar((-1) ** tj)
    return (c_factor(j, m4) / c_factor(j, m3)) * phase * _two_pow(-m4) * ExactScalar.of(ct)


# ---------------------------------------------------------------------------
# S entries
# ---------------------------------------------------------------------------

def _s_block(j, rows, cols, z, factor) -> list:
    """[sum_{m4} i^{-2 m4} M_{m3,m4} N_{m4,m2} factor(z, m4)] for m3 in rows
    and m2 in cols.  The lambda-free products i^{-2 m4} M N come from
    _s_terms, built once per spin.  factor(z, m4) is evaluated once, for the
    m4 that a nonzero M N term first needs, so it raises only where one
    entry would.  An entry is summed in the arithmetic of z
    (``exact.Scratch`` at exact z, else ``exact.Complex``), its terms added
    in m4 order, and settled once."""
    j = HalfInt.of(j)
    ms = half_range(-j, j)
    terms = _s_terms(j)
    ks = [ms.index(HalfInt.of(m2)) for m2 in cols]
    ar = Complex if isinstance(z, (float, complex)) else Scratch
    lift, mul_acc, settle, zero, form = ar.lift, ar.mul_acc, ar.settle, ar.zero, ar.form
    fac: dict = {}

    def factor_at(m4):
        f = fac.get(m4)
        if f is None:
            f = fac[m4] = lift(factor(z, m4))
        return f

    out = []
    for m3 in rows:
        trow = terms[ms.index(HalfInt.of(m3))]
        acc: dict = {}
        for col, k in enumerate(ks):
            for m4, p in trow[k]:
                mul_acc(acc, col, p[form], factor_at(m4))
        out.append([settle(acc.get(col, zero)) for col in range(len(ks))])
    return out


def s_entry_sum(j, n, m3, m2, z):
    """S^{j,n}_{m3,m2}(z) = sum_{m4} i^{-2 m4} M_{m3,m4} N_{m4,m2} Q(z,m4)."""
    return _s_block(j, [m3], [m2], z, q_factor)[0][0]


def s_norm(j, n, m3, m2, z):
    """Normalized entry script-S = S / S^{(0,n)}_{0,0}: Q replaced by the
    ratio Q(z,m4)/Q(z,0); exact at any rational z for integer-spin blocks."""
    return _s_block(j, [m3], [m2], z, q_ratio)[0][0]


def t_norm(n, m, z):
    """script-T^n_m(z) = i^{m-n} / ((z)^{((m-n)/2)} (z)^{((n-m)/2)})."""
    n, m = HalfInt.of(n), HalfInt.of(m)
    diff = m - n
    if not diff.is_integer():
        raise ValueError("t_norm needs m-n integral, got %s" % diff)
    d = diff.as_int()
    return lift(ExactScalar.i_power(d), z) * q_ratio(z, HalfInt(d))


# ---------------------------------------------------------------------------
# epsilon jets
# ---------------------------------------------------------------------------

_JET_HI = 4


def _jet(z0) -> LSeries1:
    return LSeries1(0, [Fraction(z0), Fraction(1)], _JET_HI)


def _jet_value(total: LSeries1, what: str) -> Fraction:
    for e in range(total.min_exp, 0):
        if total.coeff(e):
            raise PoleError("%s has a genuine pole (eps^%d survives)" % (what, e))
    return total.coeff(0)


# ---------------------------------------------------------------------------
# closed-form S (terminating 3F2)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_FACTORS_KEPT)
def _s00(z: Fraction) -> ExactScalar:
    """S^{(0,n)}_{0,0}(z) = sqrt(pi) Gamma(z-1/2)/Gamma(z)."""
    return ExactScalar(1, 1, 1) * _gamma_ratio([(z - Fraction(1, 2), 1)], [(z, 1)],
                                               "S00 pole at z=%s" % z)


def s_entry_3f2(j, n, m1, m4, z):
    """Closed-form S^{j,n}_{m1,m4}(z): terminating 3F2 at unit argument with
    its Gamma/Pochhammer prefactor.  Equals s_entry_sum wherever both are
    defined; removable prefactor poles are taken as limits.  On the float
    path they (poles of Gamma((2z-m1+m4-1)/2)) lie at real half-odd z,
    which is binary-exact, so the exact value is returned there."""
    j, m1, m4 = HalfInt.of(j), HalfInt.of(m1), HalfInt.of(m4)
    if not j.is_integer():
        raise ValueError("closed form assumes integer j (delta in {(0,0),(1,1)})")
    if (m1 - m4).as_int() % 2:
        raise ValueError("closed form needs m1 = m4 mod 2")
    if isinstance(z, (int, Fraction)):
        z = Fraction(z)
        if (2 * z).denominator != 1:
            raise ValueError("exact closed form needs half-integer z")
        return _s00(z) * _s_norm_closed_exact(j, m1, m4, z)
    jj, a, b = j.as_int(), m1.as_int(), m4.as_int()
    zc = complex(z)
    top = (2 * zc - a + b - 1) / 2
    if top.imag == 0 and top.real <= 0 and top.real.is_integer():
        return s_entry_3f2(j, n, m1, m4, Fraction(zc.real)).to_complex()
    # the terminating 3F2 cancels heavily at some z, so it is summed exactly
    # at the (binary-exact) Gaussian rational z and rounded once
    zq = ExactScalar(Fraction(zc.real)) + ExactScalar(Fraction(zc.imag), 1, 0, True)
    terms = hyp_terms(*_s_3f2_params(jj, a, b, zq), 1, min(jj + a, jj - b))
    f = sum(terms, ExactScalar(0)).to_complex()
    pref = (-1) ** ((a + b) // 2) * math.factorial(2 * jj) * math.pi \
        / (c_factor(j, m1).to_complex() * c_factor(j, m4).to_complex())
    gam = _gamma_ratio([(top, 1)], [((-2 * jj - a + b + 1) / 2, 1), (jj + zc, 1)],
                       "closed-form S prefactor pole at z=%s" % z)
    return require_finite(pref * gam * f)


def _s_3f2_params(jj: int, a: int, b: int, z) -> tuple:
    """Top and bottom parameters of the 3F2 at 1 in the closed-form S entry
    (a Hahn polynomial in z)."""
    return ([z - jj - 1, Fraction(-jj - a), Fraction(b - jj)],
            [Fraction(-2 * jj), Fraction(1 - 2 * jj - a + b, 2)])


def _s_norm_closed_exact(j: HalfInt, m1: HalfInt, m2: HalfInt, z: Fraction) -> ExactScalar:
    jj, a, b = j.as_int(), m1.as_int(), m2.as_int()
    zj = _jet(z)
    pref = pochhammer(zj - Fraction(1, 2), -((a - b) // 2)) * pochhammer(zj, jj).inverse()
    total = sum(hyp_terms(*_s_3f2_params(jj, a, b, zj), 1, min(jj + a, jj - b)))
    rat = _jet_value(pref * total, "closed-form S at z=%s" % z)
    ghalf = gamma_half(Fraction(1 - 2 * jj - a + b, 2))
    const = (ExactScalar(Fraction((-1) ** ((a + b) // 2) * math.factorial(2 * jj)), 1, 1)
             / (c_factor(j, m1) * c_factor(j, m2) * ghalf))
    return const * ExactScalar.of(rat)


# ---------------------------------------------------------------------------
# H and G generating functions for script-S
# ---------------------------------------------------------------------------

def hg_entry_ct(which: str, j, m1, m2, z) -> ExactScalar:
    """Constant Laurent coefficient of H^j_{m1,m2}(z;t) or G^j_{m1,m2}(z;t);
    both must equal s_norm."""
    j, m1, m2 = HalfInt.of(j), HalfInt.of(m1), HalfInt.of(m2)
    jj, a, b = j.as_int(), m1.as_int(), m2.as_int()
    z = Fraction(z)
    zj = _jet(z)
    if which == "H":
        npow, fpar, fa = jj + a, Fraction(-1 + a + b, 2), -jj + b
        gam, fac = gamma_half(Fraction(1 - a - b, 2)), math.factorial(jj + a)
    elif which == "G":
        npow, fpar, fa = jj - b, Fraction(-1 - a - b, 2), -jj - a
        gam, fac = gamma_half(Fraction(1 + a + b, 2)), math.factorial(jj - b)
    else:
        raise ValueError("which must be 'H' or 'G'")
    f = hyp2f1_series(Fraction(fa), zj - 1 - jj, Fraction(-2 * jj), 1, npow)
    ct = product_coeff(f, binom_series(fpar, -1, npow), npow)
    pref = pochhammer(zj - Fraction(1, 2), -((a - b) // 2)) * pochhammer(zj, jj).inverse()
    rat = _jet_value(pref * ct, "[%s]_0 at z=%s" % (which, z))
    const = (ExactScalar(Fraction((-1) ** npow * math.factorial(2 * jj) * fac), 1, -1)
             * gam / (c_factor(j, m1) * c_factor(j, m2)))
    return const * ExactScalar.of(rat)


# ---------------------------------------------------------------------------
# stages along a Weyl word, and the product path
# ---------------------------------------------------------------------------

# A reduced word of the long Weyl element of C2: its simple reflections,
# named as in sp4.weyl_on_lambda, in the order they act.  Stage Ak is its
# k-th position.  BRAID_WORD is the other reduced word (braid_check).
LONG_WORD = ("a1", "a2", "a1", "a2")
BRAID_WORD = ("a2", "a1", "a2", "a1")

# One stage of a word: its name, its reflection, its source and target
# characters, and its argument.
Stage = namedtuple("Stage", "name reflection source target argument")


# kept for the last 32 (word, chi) pairs: the product and the generating
# function read them once per block
@lru_cache(maxsize=32)
def word_stages(word: tuple, chi: Character) -> tuple:
    """The stages of word from chi, in the order they act: at (delta_s, mu),
    a1 has the argument (mu1-mu2+1)/2, a2 (mu2+1)/2, and both land at
    weyl_on_lambda([r], mu), with delta swapped by a1.  A stage is named
    A1..A4 on LONG_WORD and by reflection and position on any other word."""
    stages = []
    for pos, r in enumerate(word, 1):
        mu1, mu2 = chi.lam
        target = Character(chi.delta[::-1] if r == "a1" else chi.delta, weyl_on_lambda([r], chi.lam))
        name = "A%d" % pos if word == LONG_WORD else "%s at position %d" % (r, pos)
        stages.append(Stage(name, r, chi, target, (mu1 - mu2 + 1) / 2 if r == "a1" else (mu2 + 1) / 2))
        chi = target
    return tuple(stages)


def stage_operator(stage: Stage, ktype) -> BlockMatrix:
    """The normalized block of a stage: script-S for a1, diagonal script-T for a2."""
    j, n = HalfInt.of(ktype[0]), HalfInt.of(ktype[1])
    z = stage.argument
    rows, cols = (m_set(j, n, c.delta) for c in (stage.target, stage.source))
    with _named("stage %s (argument %s)" % (stage.name, z)):
        if stage.reflection == "a1":
            ent = _s_block(j, rows, cols, z, q_ratio)
        else:
            ar = stage.source.arith
            zero = ar.settle(ar.zero)
            ent = [[t_norm(n, mr, z) if mr == mc else zero for mc in cols] for mr in rows]
        if not stage.source.exact:
            ent = [[require_finite(e) for e in row] for row in ent]
    return BlockMatrix((j, n), rows, cols, ent)


def simple_operator(kind: str, ktype, chi: Character) -> BlockMatrix:
    """Stage ``kind`` (A1..A4) of LONG_WORD from chi."""
    if kind not in KINDS[:4]:
        raise ValueError("simple_operator kind must be one of A1..A4")
    return stage_operator(word_stages(LONG_WORD, chi)[KINDS.index(kind)], ktype)


def word_product(word, ktype, chi: Character) -> BlockMatrix:
    """The stages of word from chi, built in acting order and folded left: ((A4 A3) A2) A1."""
    return reduce(BlockMatrix.matmul, [stage_operator(st, ktype) for st in word_stages(word, chi)][::-1])


def long_operator_product(ktype, chi: Character) -> BlockMatrix:
    """A4 A3 A2 A1: the product along LONG_WORD."""
    return word_product(LONG_WORD, ktype, chi)


# ---------------------------------------------------------------------------
# the long operator via the two-variable generating function
# ---------------------------------------------------------------------------

def genfun_entry_raw(j, n, delta, m1, m2, lam) -> ExactScalar:
    """[A(lambda)]^{j,n}_{m1,m2}: the constant (t1,t2) Laurent coefficient
    of the generating function; the 1x1 case of _genfun_raw_block."""
    return _genfun_raw_block(j, n, delta, [m1], [m2], lam)[0][0]


def _genfun_raw_block(j, n, delta, rows, cols, lam) -> list:
    """[A(lambda)]^{j,n}_{m1,m2} for m1 in rows and m2 in cols: the constant
    (t1,t2) Laurent coefficient of the generating function, assembled as a
    p-indexed sum of separable terms (the partial-sum form of the 5F4): each
    term is an m1-only factor times an m2-only factor times a p-only factor.
    The m1-only and m2-only factors depend on (j, m, eps) and lambda, not on
    n, so they are built once per character and kept by _genfun_side: the
    t2 factors are the t1 factors mirrored, so column m2 reads
    _genfun_side(jj, -m2, eps, lambda1, -lambda2) in reverse p order.  The
    p-only factors (the A2 Pochhammer pair, which depends on n) and the A4
    column constant are built once per block.

    lambda1 is perturbed by a formal epsilon; per-term poles on lambda1
    hyperplanes must cancel across the sum, within each radical monomial of
    the exact factors, else PoleError.  A PoleError or
    UnsupportedExactInput names the block and the factor.  The t1 and t2
    series are read only up to t^{2j}, so they are built to that order.
    """
    j, n = HalfInt.of(j), HalfInt.of(n)
    jj, nn = j.as_int(), n.as_int()
    eps = ((j - n).as_int() - delta[0]) % 2
    l1, l2 = Fraction(lam[0]), Fraction(lam[1])
    half = Fraction(1, 2)
    _a1, a2, _a3, a4 = word_stages(LONG_WORD, Character(delta, (l1, l2)))
    ps = range(0, jj - eps + 1)
    with _named("block (%s,%s)" % (j, n)):
        # p-only: (-1)^p times the lambda1 Pochhammer pair of exponent
        # (j-n-2p-eps)/2, as an eps jet where that exponent is an integer and
        # exactly at the A2 argument where it is half-odd; the A2 argument
        # moves with lambda1 at half its rate
        base = LSeries1(0, [a2.argument, half], _JET_HI)
        p_jet, p_exact = [], []
        for p in ps:
            pair_e = HalfInt(jj - nn - 2 * p - eps)
            sgn = Fraction((-1) ** p)
            if pair_e.is_integer():
                k = pair_e.as_int()
                p_jet.append((pochhammer(base, k) * pochhammer(base, -k)).inverse() * sgn)
                p_exact.append(ExactScalar(1))
            else:
                p_jet.append(sgn)
                with _named("stage %s Pochhammer pair (argument %s)" % (a2.name, a2.argument)):
                    p_exact.append(q_ratio(a2.argument, pair_e))

        # m1-only (rows) and m2-only (cols) factors of the character; the
        # columns take this block's p-only factors, and the A4 pair
        row_jet, row_gam, row_const = [], [], []
        for m1 in rows:
            m1 = HalfInt.of(m1)
            jets, gams = _genfun_side(jj, m1.as_int(), eps, l1, l2)
            row_jet.append(jets)
            row_gam.append(gams)
            row_const.append(c_factor(j, m1).inverse())
        col_jet, col_gam, col_const = [], [], []
        for m2 in cols:
            m2 = HalfInt.of(m2)
            jets, gams = _genfun_side(jj, -m2.as_int(), eps, l1, -l2)
            col_jet.append([c * pj for c, pj in zip(reversed(jets), p_jet)])
            col_gam.append([g * pe for g, pe in zip(reversed(gams), p_exact)])
            with _named("stage %s Pochhammer pair (argument %s)" % (a4.name, a4.argument)):
                col_const.append(t_norm(n, m2, a4.argument) / c_factor(j, m2))

        # i^{-n+j-2p-eps} = i^{j-n-eps} * (-1)^p: a fixed phase times a sign
        const = ExactScalar(Fraction(math.factorial(2 * jj)) ** 2, 1, -2) \
            * ExactScalar.i_power(jj - nn - eps)
        out = []
        for m1, rj, rg, rc in zip(rows, row_jet, row_gam, row_const):
            out_row = []
            for m2, cj, cg, cc in zip(cols, col_jet, col_gam, col_const):
                # jets summed per radical key of the exact factors
                buckets: dict = {}
                for p in ps:
                    jet = rj[p] * cj[p]
                    for key, q in (rg[p] * cg[p]).terms.items():
                        add = jet * q
                        buckets[key] = buckets[key] + add if key in buckets else add
                total = ExactScalar(0)
                for (r, pk, im), jet in buckets.items():
                    if not jet.is_zero():
                        rat = _jet_value(jet, "entry (%s,%s)" % (m1, m2))
                        total = total + ExactScalar(rat, r, pk, im)
                out_row.append(const * rc * cc * total)
            out.append(out_row)
    return out


@lru_cache(maxsize=_FACTORS_KEPT, typed=True)
def _genfun_side(jj: int, a: int, eps: int, l1: Fraction, l2: Fraction) -> tuple:
    """The m1-only factors of _genfun_raw_block at m1 = a, per p: the
    coefficient of the t1 series times its eps-jet Pochhammer, and the
    Gamma factor.  The t2 factors are these mirrored: the m2-only factors
    at m2 = b are _genfun_side(jj, -b, eps, l1, -l2) in reverse p order."""
    half = Fraction(1, 2)
    l1j = _jet(l1)
    ps = range(0, jj - eps + 1)
    f1 = hyp2f1_series(Fraction(-jj + a), (l1j - l2 - 2 * jj - 1) * half, Fraction(-2 * jj), 1, 2 * jj)
    jets = tuple(_ct_at(f1, Fraction(-1 + jj + a - eps, 2) - p, 2 * jj - 2 * p - eps)
                 * pochhammer((l1j - l2) * half, (eps - jj + a) // 2 + p) for p in ps)
    return jets, tuple(gamma_half(Fraction(1 + eps - jj - a, 2) + p) for p in ps)


def _ct_at(f: list, binom_exp: Fraction, shift: int):
    """Coefficient of t^shift in (1-t)^{binom_exp} * f(t)."""
    return product_coeff(f, binom_series(binom_exp, -1, shift), shift)


def genfun_vs_product(ktype, chi: Character):
    """Long-operator block from the generating function, in the layout of
    long_operator_product, and its per-block constant.

    The raw entries are divided by (z_A1)_j (z_A3)_j, with z_A1 and z_A3
    the A1 and A3 stage arguments.  That constant is a closed form, not
    derived: it equals the ratio of the raw entries to the product's on
    every block of j <= 4, |n| <= 4 at eleven characters of both delta
    classes (345 blocks; the others are poles or zero blocks).  The product
    is not called here; genfun_check compares the two routes entry by
    entry.  Returns (block, constant).  Raises DegenerateBlock when
    every raw entry is 0, and PoleError when the constant is 0.
    """
    j, n = HalfInt.of(ktype[0]), HalfInt.of(ktype[1])
    delta = chi.delta
    if delta not in ((0, 0), (1, 1)):
        raise ValueError("generating function requires delta in {(0,0),(1,1)}")
    if not j.is_integer():
        raise ValueError("generating function requires integer j")
    if not chi.exact:
        raise ValueError("generating-function path is exact-only")
    jj = j.as_int()
    z1, z3 = (stage.argument for stage in word_stages(LONG_WORD, chi)[::2])
    const = pochhammer(z1, jj) * pochhammer(z3, jj)
    if const == 0:
        raise PoleError("block (%s,%s): constant (z_A1)_%d (z_A3)_%d is 0 (arguments %s, %s)"
                        % (j, n, jj, jj, z1, z3))
    const = ExactScalar(const)
    ms = m_set(j, n, delta)
    raw = _genfun_raw_block(j, n, delta, ms, ms, chi.lam)
    if all(g.is_zero() for row in raw for g in row):
        raise DegenerateBlock("degenerate block (%s,%s): every generating-function entry is 0"
                              % (j, n))
    inv = const.inverse()
    # the generating function's (m1,m2) layout is the transpose of the product's
    ent = [[raw[k][i] * inv for k in range(len(ms))] for i in range(len(ms))]
    return BlockMatrix((j, n), list(ms), list(ms), ent), const


def long_operator_genfun(ktype, chi: Character) -> BlockMatrix:
    """The block of genfun_vs_product, without its per-block constant."""
    return genfun_vs_product(ktype, chi)[0]


# ---------------------------------------------------------------------------
# checks: two routes compared on the given inputs (verify and the tests call
# these; exact unless a tolerance is stated)
# ---------------------------------------------------------------------------

def mn_inverse_check(j) -> bool:
    """M N = identity on the spin-j block."""
    m, n = mn_matrices(j)
    return m.matmul(n).is_identity()


def closed_form_check(j: int, zs) -> bool:
    """s_entry_3f2 = s_entry_sum on every entry (m1, m4), m1 = m4 mod 2, of
    the block (j, 0) at each half-integer z."""
    for m1 in range(-j, j + 1):
        for m4 in range(-j, j + 1):
            if (m1 - m4) % 2:
                continue
            for z in zs:
                if s_entry_3f2(j, 0, m1, m4, z) != s_entry_sum(j, 0, m1, m4, z):
                    return False
    return True


def parity_check(j: int, z) -> bool:
    """S^{j,0}_{m3,m2}(z) = 0 on every entry with 2j + m3 - m2 odd."""
    for m3 in range(-j, j + 1):
        for m2 in range(-j, j + 1):
            if (2 * j + m3 - m2) % 2 and not s_entry_sum(j, 0, m3, m2, z).is_zero():
                return False
    return True


def hg_check(j: int, zs) -> bool:
    """[H]_0 = [G]_0 = s_norm on every entry (m1, m2), m1 = m2 mod 2, of the
    block (j, 0) at each half-integer z."""
    for m1 in range(-j, j + 1):
        for m2 in range(-j, j + 1):
            if (m1 - m2) % 2:
                continue
            for z in zs:
                s = s_norm(j, 0, m1, m2, z)
                if hg_entry_ct("H", j, m1, m2, z) != s or hg_entry_ct("G", j, m1, m2, z) != s:
                    return False
    return True


def genfun_check(ktype, chi: Character) -> bool:
    """The generating-function block, with its constant fixed in advance,
    equals long_operator_product entry by entry, and the constant is not 0."""
    gm, const = genfun_vs_product(ktype, chi)
    pm = long_operator_product(ktype, chi)
    return (not const.is_zero() and (gm.row_index, gm.col_index) == (pm.row_index, pm.col_index)
            and gm.entries == pm.entries)


def inversion_check(j, n, delta, zs) -> bool:
    """script-S(1-z) script-S(z) = identity at each rational z: a1 applied
    twice from ((delta2,delta1), (2z-1, 0)), at the arguments z and 1-z."""
    return all(word_product(("a1", "a1"), (j, n), Character(tuple(delta)[::-1], (2 * z - 1, 0)))
               .is_identity() for z in map(Fraction, zs))


def braid_check(ktypes, chi: Character) -> bool:
    """The product along LONG_WORD equals the product along BRAID_WORD on
    each K-type (j, n): the braid (Knapp-Stein cocycle) relation of the two
    reduced words of the long Weyl element.  Exact at rational lambda, and
    within 1e-12 max(1, largest |entry|) at complex lambda.  Both words use
    the same four stage arguments, so a scalar factor per stage cancels and
    this check cannot see the normalization."""
    for kt in ktypes:
        a, b = (word_product(word, kt, chi) for word in (LONG_WORD, BRAID_WORD))
        if (a.row_index, a.col_index) != (b.row_index, b.col_index):
            return False
        if chi.exact:
            if a.entries != b.entries:
                return False
            continue
        pairs = [(x, y) for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb)]
        tol = 1e-12 * max([1.0] + [abs(v) for p in pairs for v in p])
        if any(abs(x - y) > tol for x, y in pairs):
            return False
    return True


def mellin_numeric_check(z: float, m) -> bool:
    """Quadrature of int_0^1 x^{z-1} cos(2m arcsin sqrt(1-x))/sqrt(x(1-x)) dx
    against q_factor(z,m) to 1e-8 * max(1, |Q|); the substitution
    x = sin^2 u removes the endpoint singularities."""
    from scipy.integrate import quad
    if z <= 0.5:
        raise ValueError("need z > 1/2 for absolute convergence")
    mf = float(HalfInt.of(m))

    def integrand(u):
        return 2.0 * math.sin(u) ** (2 * z - 2) * math.cos(2 * mf * (math.pi / 2 - u))

    val, err = quad(integrand, 0.0, math.pi / 2, limit=200)
    if err > 1e-9 * max(1.0, abs(val)):
        raise QuadratureError("quadrature error estimate %g too large" % err)
    q = q_factor(complex(z), mf).real
    return abs(val - q) <= 1e-8 * max(1.0, abs(q))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _scalar_str(x) -> str:
    return str(x) if isinstance(x, ExactScalar) else repr(complex(x))


def _scalar_parse(s: str):
    from .exact import parse_scalar
    try:
        return parse_scalar(s)
    except ValueError:
        return complex(s.replace(" ", "").replace("(", "").replace(")", ""))


def _lam_str(x) -> str:
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        return "%d/%d" % (f.numerator, f.denominator)
    return repr(x)


def block_to_json(bm: BlockMatrix, chi: Character, kind: str) -> str:
    j, n = bm.ktype
    doc = {
        "ktype": [str(j), str(n)],
        "delta": list(chi.delta),
        "lambda": [_lam_str(x) for x in chi.lam],
        "kind": kind,
        "rows": [str(m) for m in bm.row_index],
        "cols": [str(m) for m in bm.col_index],
        "entries": [[_scalar_str(e) for e in row] for row in bm.entries],
    }
    return json.dumps(doc, indent=1)


def block_from_json(text: str) -> tuple[BlockMatrix, dict]:
    doc = json.loads(text)
    rows = [HalfInt.of(Fraction(m)) for m in doc["rows"]]
    cols = [HalfInt.of(Fraction(m)) for m in doc["cols"]]
    ent = [[_scalar_parse(e) for e in row] for row in doc["entries"]]
    ktype = (HalfInt.of(Fraction(doc["ktype"][0])), HalfInt.of(Fraction(doc["ktype"][1])))
    return BlockMatrix(ktype, rows, cols, ent), doc


def block_to_csv(bm: BlockMatrix) -> str:
    lines = ["m," + ",".join(str(m) for m in bm.col_index)]
    for m, row in zip(bm.row_index, bm.entries):
        lines.append(str(m) + "," + ",".join(_scalar_str(e) for e in row))
    return "\n".join(lines) + "\n"
