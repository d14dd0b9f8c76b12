import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.linalg import expm

from sp4ps import wigner
from sp4ps.exact import ExactScalar, HalfInt, PoleError, binomial, half_range, pochhammer
from sp4ps.wigner import (EulerAngles, OutOfRange, WignerIndex, c_factor,
                          cg_product_check, clebsch_gordan_j1, cos_pi, d_matrix_check,
                          dl_gamma, dr_gamma, euler_from_u2, jacobi_check,
                          jacobi_genfun_check, jacobi_hyp, jacobi_sum,
                          little_d, little_d_check, product_expand,
                          sin_pi, su2_matrix, wigner_D, wigner_via_jacobi)

_G = {
    "g0": np.array([[0.5j, 0], [0, 0.5j]]),
    "g1": np.array([[0, 0.5j], [0.5j, 0]]),
    "g2": np.array([[0, 0.5], [-0.5, 0]]),
    "g3": np.array([[0.5j, 0], [0, -0.5j]]),
}


def _wig(idx, u):
    return wigner_D(idx, EulerAngles(*euler_from_u2(u)))


# ---------------------------------------------------------------------------
# Jacobi polynomials
# ---------------------------------------------------------------------------

def test_jacobi_sum_examples():
    assert jacobi_sum(0, F(3), F(-1, 2), F(1, 4)) == 1
    assert jacobi_sum(1, F(0), F(0), F(5, 9)) == F(5, 9)     # P1^{(0,0)} = x
    # brute-forced from the Gamma-sum definition
    assert jacobi_sum(2, F(1), F(1), F(0)) == F(-3, 4)


def test_jacobi_hyp_examples():
    assert jacobi_hyp(0, F(2), F(5), F(1, 3)) == 1
    assert jacobi_hyp(1, F(0), F(0), F(1, 2)) == jacobi_sum(1, F(0), F(0), F(1, 2)) == F(1, 2)
    assert jacobi_hyp(3, F(2), F(-1), F(1)) == 10            # binom(5,3) at x=1
    # reflection value at x = -1
    assert jacobi_hyp(2, F(1), F(3), F(-1)) == 10            # (-1)^2 binom(5,2)


def test_jacobi_sum_equals_hyp(rng):
    assert jacobi_check(rng, 50)


def test_jacobi_genfun_check():
    assert jacobi_genfun_check(3, 2, F(1, 2), 0)
    assert jacobi_genfun_check(2, 1, F(1, 2), 3)
    assert jacobi_genfun_check(-1, 3, F(0), 4)


def _jacobi_sum_per_term(n, alpha, beta, x):
    """jacobi_sum as first written: each term's binomial and Pochhammers
    built from scratch, then times ((x-1)/2)^m."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    for arg in (alpha + n + 1, alpha + beta + n + 1):
        if isinstance(arg, (int, F)) and F(arg).denominator == 1 and arg <= 0:
            raise PoleError("degenerate Gamma prefactor at %s" % arg)
    total = 0
    for m in range(n + 1):
        term = (binomial(F(n), m) / math.factorial(n)
                * pochhammer(alpha + m + 1, n - m) * pochhammer(alpha + beta + n + 1, m))
        total = total + term * ((x - 1) / 2) ** m
    return total


def _outcome(f, *args):
    try:
        return f(*args)
    except (PoleError, ValueError) as exc:
        return type(exc), str(exc)


def test_jacobi_sum_matches_the_per_term_formula(rng):
    # the running products and the one denominator give the same Fraction,
    # and the same PoleError and ValueError, at x of small denominators and
    # at the binary-exact cos(theta) that wigner_via_jacobi passes
    kinds = []
    while kinds.count(F) < 500:
        n = rng.randrange(-1, 11)
        al = F(rng.randrange(-12, 7), rng.choice([1, 1, 2, 3]))
        be = F(rng.randrange(-12, 7), rng.choice([1, 1, 2, 3]))
        x = rng.choice([F(rng.randrange(-9, 10), rng.choice([1, 2, 3, 4, 5])),
                        F(math.cos(rng.uniform(0, math.pi)))])
        got, want = _outcome(jacobi_sum, n, al, be, x), _outcome(_jacobi_sum_per_term, n, al, be, x)
        assert got == want and type(got) is type(want), (n, al, be, x)
        kinds.append(want[0] if isinstance(want, tuple) else F)
    assert {PoleError, ValueError} <= set(kinds)


def _little_d_per_term(j, m1, m2, theta):
    """little_d as first written: HalfInt arithmetic and four factorials
    in every term, each term a product of the powers of sin and cos."""
    j, m1, m2 = HalfInt.of(j), HalfInt.of(m1), HalfInt.of(m2)
    lo = max(0, (m1 - m2).as_int())
    hi = min((j - m2).as_int(), (j + m1).as_int())
    tj = (j + j).as_int()
    if isinstance(theta, (int, F)):
        s, c = sin_pi(F(theta) / 2), cos_pi(F(theta) / 2)
        s_pow, c_pow = [ExactScalar(1)], [ExactScalar(1)]
        for _ in range(tj):
            s_pow.append(s_pow[-1] * s)
            c_pow.append(c_pow[-1] * c)
    else:
        s, c = math.sin(float(theta) / 2), math.cos(float(theta) / 2)
        s_pow, c_pow = [s ** a for a in range(tj + 1)], [c ** b for b in range(tj + 1)]
    total = 0 * s
    for p in range(lo, hi + 1):
        a = (m2 - m1).as_int() + 2 * p
        b = tj + (m1 - m2).as_int() - 2 * p
        num = F((-1) ** ((m2 - m1).as_int() + p),
                math.factorial((j + m1).as_int() - p) * math.factorial(p)
                * math.factorial((m2 - m1).as_int() + p)
                * math.factorial((j - m2).as_int() - p))
        total = total + num * s_pow[a] * c_pow[b]
    return total


def test_little_d_matches_the_per_term_formula(rng):
    # exact: every entry of j <= 7 at every quarter turn theta (mod 4 pi),
    # term for term; float: the same bits, negative and large angles too
    for tj in range(0, 15):
        j = HalfInt(tj)
        for m1 in half_range(-j, j):
            for m2 in half_range(-j, j):
                for k in range(-1, 8):
                    got, want = little_d(j, m1, m2, F(k, 2)), _little_d_per_term(j, m1, m2, F(k, 2))
                    assert got.terms == want.terms, (j, m1, m2, k)
                    assert list(got.terms) == list(want.terms)
                for th in (rng.uniform(0, math.pi), rng.uniform(-7, 7), 0.0, -0.0, math.pi):
                    got, want = little_d(j, m1, m2, th), _little_d_per_term(j, m1, m2, th)
                    assert got.hex() == want.hex(), (j, m1, m2, th)
    for bad in ((1, 2, 0), (1, 0, -2), (1, F(1, 2), 0), (F(1, 2), F(1, 2), 1)):
        with pytest.raises(ValueError):
            little_d(*bad, F(1, 2))


def test_c_pair_is_the_c_factor_product():
    # wigner_D's memo of c^j_{m1} c^j_{m2} holds the product of the two
    # c_factor values, term for term, and its complex value to the bit
    for tj in range(0, 15):
        j = HalfInt(tj)
        for m1 in half_range(-j, j):
            for m2 in half_range(-j, j):
                a, b = sorted((abs(m1.twice), abs(m2.twice)))
                cc, cc_complex = wigner._c_pair(tj, a, b)
                want = c_factor(j, m1) * c_factor(j, m2)
                assert cc.terms == want.terms
                assert repr(cc_complex) == repr(want.to_complex())


# ---------------------------------------------------------------------------
# little d and the full D-function
# ---------------------------------------------------------------------------

def test_little_d_special_values():
    # single p = 0 term: cos^{2j}(theta/2)/(2j)!
    for tj in (2, 3, 5):
        j = HalfInt(tj)
        d = little_d(j, j, j, F(1, 2))
        expect = ExactScalar.sqrt_rational(F(1, 2)) ** tj / math.factorial(tj)
        assert d == expect
    # theta = 0 collapses to the Kronecker delta over (j+m)!(j-m)!
    assert little_d(2, 1, 1, F(0)) == ExactScalar(F(1, math.factorial(3) * math.factorial(1)))
    assert little_d(2, 1, -1, F(0)).is_zero()
    # two cancelling terms at theta = pi/2
    assert little_d(1, 0, 0, F(1, 2)).is_zero()


def test_wigner_D_identity_and_axis_values():
    ang0 = EulerAngles.pi_units(0, 0, 0, 0)
    for (j, n, m1, m2) in [(1, 0, 1, 1), (2, 1, -1, -1), (2, 0, 1, -1)]:
        v = wigner_D(WignerIndex.of(j, n, m1, m2), ang0)
        assert v == ExactScalar(1 if m1 == m2 else 0)
    # W(zeta,psi,0,0) = e^{i n zeta + i m1 psi} delta_{m1,m2}
    ang = EulerAngles.pi_units(F(1, 2), F(1), 0, 0)
    idx = WignerIndex.of(2, 1, 1, 1)
    assert wigner_D(idx, ang) == ExactScalar.i_power(1) * ExactScalar(-1)
    angf = EulerAngles(0.37, -1.1, 0.0, 0.0)
    v = wigner_D(idx, angf)
    assert abs(v - cmath.exp(1j * (0.37 - 1.1))) < 1e-12
    assert abs(wigner_D(WignerIndex.of(2, 1, 1, -1), angf)) < 1e-12


def test_wigner_D_theta_pi():
    idx = WignerIndex.of(1, 1, 1, -1)
    v = wigner_D(idx, EulerAngles.pi_units(0, 0, 1, 0))
    # brute force from the d-sum: c c * single surviving term
    d = little_d(1, 1, -1, F(1))
    assert v == c_factor(HalfInt.of(1), HalfInt.of(1)) ** 2 * d
    assert v == ExactScalar(1)   # single p=2 term: sqrt2*sqrt2*(1/2)


def test_wigner_via_jacobi_matches_little_d(rng):
    # exact at theta in {0, pi} (where the prefactor powers are defined)
    for tj in range(0, 11):
        j = HalfInt(tj)
        for m1 in half_range(-j, j):
            for m2 in half_range(-j, j):
                if (m1 - m2).as_int() >= 0:
                    assert wigner_via_jacobi(j, m1, m2, F(0)) == little_d(j, m1, m2, F(0))
                if (m1 + m2).as_int() >= 0:
                    assert wigner_via_jacobi(j, m1, m2, F(1)) == little_d(j, m1, m2, F(1))
    # float tolerance on interior angles
    cases = []
    for _ in range(60):
        tj = rng.randrange(0, 11)
        m1 = HalfInt(rng.randrange(-tj, tj + 1, 2) if tj else 0)
        m2 = HalfInt(rng.randrange(-tj, tj + 1, 2) if tj else 0)
        cases.append((HalfInt(tj), m1, m2, rng.uniform(0.15, math.pi - 0.15)))
    assert little_d_check(cases)


def test_unitarity_and_multiplicativity(rng):
    assert d_matrix_check(rng, 4, 3)


# ---------------------------------------------------------------------------
# Clebsch-Gordan
# ---------------------------------------------------------------------------

def test_cg_examples():
    j = F(7, 2)
    assert clebsch_gordan_j1(j, F(3, 2), 0, 0) == \
        F(3, 2) * ExactScalar.sqrt_rational(1 / (j * (j + 1)))
    assert clebsch_gordan_j1(1, 1, 0, 0) == ExactScalar.sqrt_rational(F(1, 2))
    for j in (1, 2, F(5, 2)):
        assert clebsch_gordan_j1(j, j, 1, 1) == ExactScalar(1)
    with pytest.raises(OutOfRange):
        clebsch_gordan_j1(0, 0, 1, 0)
    with pytest.raises(OutOfRange):
        clebsch_gordan_j1(F(1, 2), F(1, 2), 1, -1)


def test_cg_orthonormality():
    # sum_J <J,M|j,m1,1,m2><J,M|j,m1',1,m2'> = delta over fixed M
    for tj in range(1, 9):
        j = HalfInt(tj)
        for m1 in half_range(-j, j):
            for d1 in (-1, 0, 1):
                for d2 in (-1, 0, 1):
                    m1p_t = m1.twice + 2 * (d1 - d2)
                    if abs(m1p_t) > tj:
                        continue
                    m1p = HalfInt(m1p_t)
                    acc = ExactScalar(0)
                    for j0 in (-1, 0, 1):
                        try:
                            a = clebsch_gordan_j1(j, m1, d1, j0)
                            b = clebsch_gordan_j1(j, m1p, d2, j0)
                        except OutOfRange:
                            continue
                        if not (a.is_zero() or b.is_zero()):
                            acc = acc + a * b
                    want = ExactScalar(1 if (m1 == m1p and d1 == d2) else 0)
                    assert acc == want, (j, m1, d1, d2)


def test_product_expand_trivial_and_stretched():
    one = WignerIndex.of(0, 0, 0, 0)
    idx = WignerIndex.of(1, 1, 1, 0)
    out = product_expand(one, WignerIndex.of(1, 1, 1, 0))
    assert out == {idx: ExactScalar(1)}
    out = product_expand(WignerIndex.of(1, 0, 1, 1), WignerIndex.of(1, 1, 1, 1))
    assert out == {WignerIndex.of(2, 1, 2, 2): ExactScalar(1)}
    # the (0,0)x(0,0) weight kills the J=1 coupling: two surviving terms
    out = product_expand(WignerIndex.of(1, 0, 0, 0), WignerIndex.of(1, 1, 0, 0))
    assert out == {WignerIndex.of(0, 1, 0, 0): ExactScalar(F(1, 3)),
                   WignerIndex.of(2, 1, 0, 0): ExactScalar(F(2, 3))}


def test_product_expand_pointwise(rng):
    cases = []
    for _ in range(20):
        u = su2_matrix(*[rng.uniform(-3, 3) for _ in range(4)])
        ea = EulerAngles(*euler_from_u2(u))
        tj = rng.randrange(0, 7)
        m11 = HalfInt(rng.randrange(-tj, tj + 1, 2) if tj else 0)
        m12 = HalfInt(rng.randrange(-tj, tj + 1, 2) if tj else 0)
        idx1 = WignerIndex.of(HalfInt(tj), HalfInt(tj % 2), m11, m12)
        idx2 = WignerIndex.of(1, 1, rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1]))
        cases.append((idx1, idx2, ea))
    assert cg_product_check(cases)


# ---------------------------------------------------------------------------
# infinitesimal actions against numeric differentiation
# ---------------------------------------------------------------------------

def _nd(side, gen, idx, u, h=1e-6):
    if side == "r":
        f = lambda t: _wig(idx, u @ expm(t * gen))
    else:
        f = lambda t: _wig(idx, expm(-t * gen) @ u)
    return (f(h) - f(-h)) / (2 * h)


def test_dr_dl_gamma_eigen_and_ladder(rng):
    idx = WignerIndex.of(2, 1, 1, 0)
    assert dr_gamma("g0", idx) == {idx: ExactScalar(-1, 1, 0, True)}
    assert dl_gamma("g0", idx) == {idx: ExactScalar(1, 1, 0, True)}
    assert dl_gamma("g3", idx) == {idx: ExactScalar(1, 1, 0, True)}
    assert dr_gamma("g3", idx) == {}                       # m2 = 0
    top = WignerIndex.of(2, 0, 1, 2)
    out = dr_gamma("g+", top)
    assert out == {WignerIndex.of(2, 0, 1, 1): ExactScalar(2, 1, 0, True)}
    assert dl_gamma("g+", WignerIndex.of(2, 0, 2, 0)) == {}
    # ladder at the top weight: dr(g1+ig2) at m2=j gives i sqrt(2j) at m2-1
    j = 3
    out = dr_gamma("g+", WignerIndex.of(j, 0, 0, j))
    assert out == {WignerIndex.of(j, 0, 0, j - 1): ExactScalar(1, 2 * j, 0, True)}


def test_gamma_actions_vs_numeric(rng):
    for _ in range(3):
        u = su2_matrix(*[rng.uniform(-2, 2) for _ in range(4)])
        idx = WignerIndex.of(2, 1, 1, 0)
        for gen, mat in [("g0", _G["g0"]), ("g3", _G["g3"])]:
            num_r = _nd("r", mat, idx, u)
            num_l = _nd("l", mat, idx, u)
            want_r = sum(c.to_complex() * _wig(t, u) for t, c in dr_gamma(gen, idx).items())
            want_l = sum(c.to_complex() * _wig(t, u) for t, c in dl_gamma(gen, idx).items())
            assert abs(num_r - want_r) < 1e-8
            assert abs(num_l - want_l) < 1e-8
        for sign, gen in [(1, "g+"), (-1, "g-")]:
            num_r = _nd("r", _G["g1"], idx, u) + sign * 1j * _nd("r", _G["g2"], idx, u)
            num_l = _nd("l", _G["g1"], idx, u) + sign * 1j * _nd("l", _G["g2"], idx, u)
            want_r = sum(c.to_complex() * _wig(t, u) for t, c in dr_gamma(gen, idx).items())
            want_l = sum(c.to_complex() * _wig(t, u) for t, c in dl_gamma(gen, idx).items())
            assert abs(num_r - want_r) < 1e-8
            assert abs(num_l - want_l) < 1e-8


def test_index_validation():
    with pytest.raises(ValueError):
        WignerIndex.of(1, 0, 2, 0)
    with pytest.raises(ValueError):
        WignerIndex.of(F(3, 2), 0, 1, F(1, 2))


def test_index_equality_and_hash():
    a = WignerIndex.of(F(3, 2), F(1, 2), F(-1, 2), F(3, 2))
    b = WignerIndex.of("3/2", "1/2", "-1/2", "3/2")
    c = WignerIndex.of(HalfInt(3), HalfInt(1), HalfInt(-1), HalfInt(3))
    assert a == b == c and hash(a) == hash(b) == hash(c)
    d = WignerIndex.of(2, 1, 0, -1)
    assert d == WignerIndex.of(F(2), F(1), F(0), F(-1)) == WignerIndex.of("2", "1", "0", "-1")
    table = {a: 1, d: 2}
    table[b] = 3
    table[WignerIndex.of(F(2), "1", 0, F(-1))] = 4
    assert table == {c: 3, d: 4} and len(table) == 2
    assert a != d and a != WignerIndex.of(F(3, 2), F(1, 2), F(1, 2), F(3, 2))
    assert a != (3, 1, -1, 3) and a != "W[(3/2,1/2);-1/2,3/2]" and a != None  # noqa: E711
