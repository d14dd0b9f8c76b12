from fractions import Fraction as F

import pytest

from sp4ps.exact import PoleError
from sp4ps.laurent import (LSeries1, TruncationError, binom_series, hyp2f1_series,
                           hyp_partial_sum, partial_sum_check, product_coeff)


def test_binom_series_examples():
    assert binom_series(F(2), 1, 4) == [1, 2, 1, 0, 0]
    assert binom_series(F(-1), -1, 5) == [1] * 6
    assert binom_series(F(1, 2), -1, 3) == [1, F(-1, 2), F(-1, 8), F(-1, 16)]
    assert binom_series(F(3), F(-1, 2), 4) == [1, F(-3, 2), F(3, 4), F(-1, 8), 0]


def test_binom_series_exponent_addition(rng):
    for _ in range(25):
        e1 = F(rng.randrange(-6, 7), rng.randrange(1, 4))
        e2 = F(rng.randrange(-6, 7), rng.randrange(1, 4))
        scale = F(rng.choice([1, -1]) * rng.randrange(1, 4), rng.randrange(1, 4))
        a, b = binom_series(e1, scale, 8), binom_series(e2, scale, 8)
        assert [product_coeff(a, b, k) for k in range(9)] == binom_series(e1 + e2, scale, 8)


def test_hyp2f1_series():
    assert hyp2f1_series(F(0), F(5), F(3), 1, 3) == [1, 0, 0, 0]
    assert hyp2f1_series(F(-1), F(3), F(5), 1, 4)[:3] == [1, F(-3, 5), 0]
    # terminates at degree j-m1 before the -2j denominator dies
    assert hyp2f1_series(F(-1), F(7, 2), F(-4), 1, 6)[2] == 0
    with pytest.raises(PoleError):
        hyp2f1_series(F(-5), F(7, 2), F(-2), 1, 6)


def test_constant_terms():
    s = LSeries1(-1, [F(1), F(3), F(1)], 4)   # eps^-1 + 3 + eps
    assert s.coeff(0) == 3
    assert s.coeff(-5) == 0
    with pytest.raises(TruncationError):
        s.coeff(5)
    with pytest.raises(TruncationError):
        product_coeff([F(1), F(2)], [F(1), F(2), F(3)], 2)


def test_ring_axioms(rng):
    def rand_jet():
        lo = rng.randrange(-3, 1)
        n = rng.randrange(1, 6)
        return LSeries1(lo, [F(rng.randrange(-4, 5)) for _ in range(n)], lo + n + rng.randrange(0, 3))

    for _ in range(40):
        a, b, c = rand_jet(), rand_jet(), rand_jet()
        lhs = (a + b) * c
        rhs = a * c + b * c
        for e in range(lhs.min_exp, lhs.trunc + 1):
            if e <= rhs.trunc:
                assert lhs.coeff(e) == rhs.coeff(e)
        p1 = (a * b) * c
        p2 = a * (b * c)
        for e in range(p1.min_exp, min(p1.trunc, p2.trunc) + 1):
            assert p1.coeff(e) == p2.coeff(e)
        assert (a - a).is_zero() and (a * F(2) - a - a).is_zero()


def test_inverse():
    s = LSeries1(0, [F(1)] * 7, 6)             # 1/(1-eps)
    inv = s.inverse()                          # 1 - eps
    assert inv.coeff(0) == 1 and inv.coeff(1) == -1 and inv.coeff(2) == 0
    shifted = LSeries1(-2, [F(1)] * 7, 4)      # eps^-2/(1-eps)
    back = shifted.inverse()
    assert back.order() == 2
    prod = shifted * back
    assert prod.coeff(0) == 1 and prod.coeff(1) == 0


def test_scalar_add_beyond_window():
    # the constant term lies beyond a window that ends below eps^0: it is
    # unknown there, so the sum is the same jet
    s = LSeries1(-3, [F(1), F(2)], -1)
    for t in (s + 1, 1 + s, s - 1, s + F(-5, 3), s - F(1, 2)):
        assert (t.min_exp, t.trunc) == (-3, -1)
        assert [t.coeff(e) for e in range(-5, 0)] == [0, 0, 1, 2, 0]
        with pytest.raises(TruncationError):
            t.coeff(0)
    t = LSeries1(-3, [F(1), F(2)], 0) - F(1, 2)
    assert (t.min_exp, t.trunc) == (-3, 0)
    assert [t.coeff(e) for e in range(-3, 1)] == [1, 2, 0, F(-1, 2)]


# A schoolbook reference on Fraction lists with the jet window rules: a jet
# is (min_exp, coefficients, trunc).

def _ref_at(a, e):
    i = e - a[0]
    return a[1][i] if 0 <= i < len(a[1]) else F(0)


def _ref_add(a, b):
    trunc = min(a[2], b[2])
    lo = min(a[0], b[0])
    hi = min(max(a[0] + len(a[1]), b[0] + len(b[1])) - 1, trunc)
    return lo, [_ref_at(a, e) + _ref_at(b, e) for e in range(lo, hi + 1)], trunc


def _ref_mul(a, b):
    trunc = min(a[2] + b[0], b[2] + a[0])
    lo = a[0] + b[0]
    out = [F(0)] * (trunc - lo + 1)
    for e in range(lo, trunc + 1):
        for i, x in enumerate(a[1]):
            out[e - lo] += x * _ref_at(b, e - a[0] - i)
    return lo, out, trunc


def _ref_scale(a, c):
    return a[0], [x * c for x in a[1]], a[2]


def _ref_inverse(a):
    v = next(a[0] + i for i, c in enumerate(a[1]) if c)
    n = a[2] - v + 1
    u = [_ref_at(a, v + i) for i in range(n)]
    out = [1 / u[0]]
    for e in range(1, n):
        out.append(-sum(u[k] * out[e - k] for k in range(1, e + 1)) / u[0])
    return -v, out, a[2] - 2 * v


def _assert_same(jet, ref):
    lo, coeffs, trunc = ref
    assert (jet.min_exp, jet.trunc) == (lo, trunc)
    for e in range(lo - 2, trunc + 1):
        got = jet.coeff(e)
        assert type(got) is F and got == _ref_at(ref, e), (e, jet, ref)
    with pytest.raises(TruncationError):
        jet.coeff(trunc + 1)
    assert jet.is_zero() == (not any(coeffs))
    if any(coeffs):
        assert jet.order() == next(lo + i for i, c in enumerate(coeffs) if c)


def test_jets_match_fraction_reference(rng):
    def rand_coeff():
        return F(rng.randrange(-40, 41), rng.choice([1, 2, 3, 4, 6, 9, 10, 49, 64]))

    def rand_ref():
        lo = rng.randrange(-4, 3)
        n = rng.randrange(1, 6)
        coeffs = [rand_coeff() for _ in range(n)]
        if rng.random() < 0.7:
            # a leading coefficient that is nonzero, often negative and not a unit
            coeffs[0] = rng.choice([-1, 1]) * F(rng.randrange(2, 30), rng.randrange(1, 12))
        return lo, coeffs, lo + n - 1 + rng.randrange(0, 4)

    for _ in range(200):
        a, b = rand_ref(), rand_ref()
        ja, jb = LSeries1(*a), LSeries1(*b)
        _assert_same(ja, a)
        _assert_same(ja + jb, _ref_add(a, b))
        _assert_same(ja - jb, _ref_add(a, _ref_scale(b, -1)))
        _assert_same(ja * jb, _ref_mul(a, b))
        c, k = rand_coeff(), rng.randrange(-5, 6)
        for s in (c, k):
            _assert_same(ja * s, _ref_scale(a, s))
            _assert_same(s * ja, _ref_scale(a, s))
            if a[2] >= 0:
                _assert_same(ja + s, _ref_add(a, (0, [F(s)], a[2])))
                _assert_same(s + ja, _ref_add(a, (0, [F(s)], a[2])))
        if any(a[1]):
            inv = _ref_inverse(a)
            _assert_same(ja.inverse(), inv)
            _assert_same(c / ja, _ref_scale(inv, c))
        else:
            with pytest.raises(ValueError):
                ja.inverse()


def test_window_tracking():
    a = LSeries1(0, [F(1), F(1)], 1)
    b = LSeries1(-1, [F(1)], 5)
    p = a * b
    assert p.trunc == 0      # min(1 + (-1), 5 + 0)
    assert p.coeff(-1) == 1 and p.coeff(0) == 1
    with pytest.raises(TruncationError):
        p.coeff(1)


def test_partial_sum_check_basics(rng):
    assert partial_sum_check([F(1, 2)], [F(3, 2)], F(2), 0)
    for _ in range(10):
        a_vec = [F(rng.randrange(1, 9), rng.randrange(1, 4)) for _ in range(3)]
        b_vec = [F(rng.randrange(1, 9), rng.randrange(1, 4)) + 7 for _ in range(2)]
        z = F(rng.randrange(1, 7), rng.randrange(1, 5))
        assert partial_sum_check(a_vec, b_vec, z, 4)


def test_partial_sum_check_operator_instance():
    # the vectors the long-operator p-sum produces at j=2, rational lambda
    # (lambda chosen off the degenerate set where a numerator entry is a
    # nonpositive integer and the reversal collapses)
    j, m1, m2, n = 2, 0, 0, 0
    l1, l2 = F(7, 3), F(3, 5)
    a_vec = [F(1 - j - m1, 2), (-j + m1 + l1 - l2) / 2, (1 - j + n - l1) / 2]
    b_vec = [F(1 - j - m2, 2), 1 - (j - m2 + l1 + l2) / 2, (1 - j + n + l1) / 2]
    assert partial_sum_check(a_vec, b_vec, F(3, 7), j)
    assert hyp_partial_sum(a_vec, b_vec, F(1), j) is not None
