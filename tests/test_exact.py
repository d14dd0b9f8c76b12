import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4ps.exact import (Character, Complex, ExactScalar, HalfInt, PoleError, Scratch,
                         binomial, gamma_half, half_range,
                         hyp_terminating, hyp_terms, lift, parse_scalar, pochhammer)
from sp4ps.gkmod import lc_add
from sp4ps.intertwine import _jet


# ---------------------------------------------------------------------------
# HalfInt
# ---------------------------------------------------------------------------

def test_halfint_basics():
    h = HalfInt.of(F(3, 2))
    assert str(h) == "3/2" and not h.is_integer()
    assert (h + 1).twice == 5
    assert (h - h).twice == 0
    assert HalfInt.of(2).as_int() == 2
    assert HalfInt.of("5/2").frac == F(5, 2)
    assert [m.twice for m in half_range(HalfInt.of(-1), HalfInt.of(1))] == [-2, 0, 2]
    with pytest.raises(ValueError):
        HalfInt.of(F(1, 3))


# ---------------------------------------------------------------------------
# pochhammer / gamma / binomial
# ---------------------------------------------------------------------------

def test_pochhammer_examples():
    assert pochhammer(F(7, 3), 0) == 1
    assert pochhammer(F(2), 3) == 24
    # (1/2)^(-1) = -1/(1 - 1/2) via the reversal rule
    assert pochhammer(F(1, 2), -1) == -2
    with pytest.raises(PoleError):
        pochhammer(F(2), -3)


def test_pochhammer_splitting(rng):
    for _ in range(50):
        a = F(rng.randrange(1, 60), rng.randrange(1, 9))  # positive: no poles
        m = rng.randrange(0, 6)
        n = rng.randrange(0, 6)
        assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


def test_gamma_half():
    assert gamma_half(F(1, 2)) == ExactScalar(1, 1, 1)
    assert gamma_half(3) == ExactScalar(2)
    # oracle: functional equation Gamma(a) = Gamma(a+1)/a
    assert gamma_half(F(-1, 2)) == gamma_half(F(1, 2)) / F(-1, 2)
    assert gamma_half(F(-1, 2)) == ExactScalar(-2, 1, 1)
    with pytest.raises(PoleError):
        gamma_half(0)
    with pytest.raises(PoleError):
        gamma_half(-3)


def test_legendre_duplication():
    # Gamma(a)Gamma(a+1/2) 2^{2a-1}/sqrt(pi) = Gamma(2a)
    for ta in range(1, 12):
        a = F(ta, 2)
        lhs = gamma_half(a) * gamma_half(a + F(1, 2)) * F(2) ** (ta - 1) / ExactScalar(1, 1, 1)
        assert lhs == gamma_half(2 * a)


def test_binomial():
    assert binomial(F(4), 2) == 6
    assert binomial(F(22, 7), 0) == 1
    assert binomial(F(1, 2), 2) == F(-1, 8)


def test_hyp_terminating_cancels_equal_params():
    # (-3) appears on both sides: convention is termwise cancellation
    v = hyp_terminating([F(-3), F(1, 2)], [F(-3), F(2)], F(1), 3)
    w = hyp_terminating([F(1, 2)], [F(2)], F(1), 3)
    assert v == w
    with pytest.raises(PoleError):
        hyp_terminating([F(1, 2)], [F(-2)], F(1), 5)


def _rf_term(tops, bots, arg, k) -> F:
    """prod(tops)^(k)/prod(bots)^(k) * arg^k / k! through sympy's rf."""
    import sympy

    def q(x):
        return sympy.Rational(x.numerator, x.denominator)

    v = q(arg) ** k / sympy.factorial(k)
    for a in tops:
        v *= sympy.rf(q(a), k)
    for b in bots:
        v /= sympy.rf(q(b), k)
    return F(int(v.p), int(v.q))


def test_hyp_terms_matches_rising_factorials(rng):
    for _ in range(40):
        tops = [F(rng.randrange(-6, 7), rng.choice([1, 2, 3])) for _ in range(rng.randrange(0, 4))]
        bots = [F(2 * rng.randrange(-6, 7) + 1, 2) for _ in range(rng.randrange(0, 3))]
        arg = F(rng.randrange(-5, 6), rng.randrange(1, 5))
        kmax = rng.randrange(0, 9)
        assert hyp_terms(tops, bots, arg, kmax) == [_rf_term(tops, bots, arg, k)
                                                    for k in range(kmax + 1)]


def test_hyp_terms_terminates_before_a_bottom_dies():
    # the top -2 stops the series before the bottom -4 reaches 0
    terms = hyp_terms([F(-2), F(1, 3)], [F(-4)], F(3, 2), 7)
    assert terms[:3] == [_rf_term([F(-2), F(1, 3)], [F(-4)], F(3, 2), k) for k in range(3)]
    assert terms[2] != 0 and terms[3:] == [0] * 5
    # a top and a bottom reaching 0 at the same step: the top wins
    assert hyp_terms([F(-1)], [F(-1)], F(1), 4) == [1, 1, 0, 0, 0]


def test_hyp_terms_pole_when_a_bottom_dies_first():
    with pytest.raises(PoleError):
        hyp_terms([F(-5), F(1, 2)], [F(-2)], F(1), 6)
    # a bottom reaching 0 at k = kmax is never divided by
    assert len(hyp_terms([F(-5)], [F(-2)], F(1), 2)) == 3


def test_hyp_terms_with_an_epsilon_jet_parameter():
    zj = _jet(F(7, 3))
    rest, bots, arg = [F(-4)], [F(5, 2)], F(2, 3)
    terms = hyp_terms([zj - 3] + rest, bots, arg, 6)
    for k, t in enumerate(terms):
        want = pochhammer(zj - 3, k) * _rf_term(rest, bots, arg, k)
        assert (want - t).is_zero()


# ---------------------------------------------------------------------------
# ExactScalar
# ---------------------------------------------------------------------------

_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_scalars = st.builds(
    lambda q, r, p, im: ExactScalar(q, r, p, im),
    _rationals,
    st.sampled_from([1, 2, 3, 5, 6, 7, 10, 30]),
    st.integers(min_value=-2, max_value=2),
    st.booleans(),
)


# sums of up to three monomials, the empty sum (zero) included
_sums = st.lists(_scalars, max_size=3).map(lambda xs: sum(xs, ExactScalar(0)))


def _squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


@settings(max_examples=200, deadline=None)
@given(_sums, _sums, _sums)
def test_mul_associative_commutative_squarefree(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert all(_squarefree(r) for r, _p, _im in (a * b).terms)


@settings(max_examples=200, deadline=None)
@given(_sums, _sums, _sums)
def test_sums_form_a_ring(a, b, c):
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero() and a + 0 == a and a * 1 == a
    assert all(q and isinstance(q, F) for q in (a * b + c).terms.values())
    assert abs((a * b + c).to_complex() - (a.to_complex() * b.to_complex() + c.to_complex())) \
        <= 1e-9 * (1 + abs(a.to_complex()) * abs(b.to_complex()) + abs(c.to_complex()))


@settings(max_examples=200, deadline=None)
@given(_sums)
def test_serialization_roundtrip(a):
    assert parse_scalar(str(a)) == a and repr(a) == str(a)


def test_addition_rules():
    a = ExactScalar(F(1, 2), 2)
    b = ExactScalar(F(1, 3), 2)
    assert a + b == ExactScalar(F(5, 6), 2)
    assert a + ExactScalar(0) == a
    # different radical keys do not combine: the sum keeps both terms, prints
    # them in key order and reads back
    for other, text in ((ExactScalar(1, 3), "1/2*sqrt(2)*pi^(0/2) + 1/1*sqrt(3)*pi^(0/2)"),
                        (ExactScalar(F(1, 2), 2, 0, True),
                         "1/2*sqrt(2)*pi^(0/2) + i*1/2*sqrt(2)*pi^(0/2)")):
        s = a + other
        assert len(s.terms) == 2 and str(s) == text and parse_scalar(text) == s
        assert s - other == a
    with pytest.raises(ValueError):
        (a + ExactScalar(1, 3)).inverse()


def test_zero_is_canonical():
    z = ExactScalar(0, 7, 3, True)
    assert z.terms == {} and z == ExactScalar(0) == 0
    assert str(z) == "0/1*sqrt(1)*pi^(0/2)" and parse_scalar(str(z)).is_zero()
    assert (ExactScalar(1, 2) * 0).is_zero()


def test_i_powers_cycle():
    vals = [ExactScalar.i_power(k) for k in range(4)]
    assert vals[0] == ExactScalar(1)
    assert vals[1] * vals[1] == ExactScalar(-1)
    assert vals[1] * vals[3] == ExactScalar(1)
    assert ExactScalar.i_power(-1) == vals[3]
    assert vals[1].conjugate() == vals[3]


def test_inverse_and_division():
    a = ExactScalar(F(3, 2), 2, 1, True)
    assert a * a.inverse() == ExactScalar(1)
    assert (a / a) == ExactScalar(1)
    assert a ** -2 == (a * a).inverse()


def test_sqrt_rational():
    assert ExactScalar.sqrt_rational(F(8, 9)) == ExactScalar(F(2, 3), 2)
    assert ExactScalar.sqrt_rational(0).is_zero()
    s = ExactScalar.sqrt_rational(F(12))
    assert s == ExactScalar(2, 3)


def test_float_agrees_with_exact(rng):
    # relative 1e-12 over 1000 random products evaluated both ways
    for _ in range(1000):
        a = ExactScalar(F(rng.randrange(-9, 10) or 1, rng.randrange(1, 7)),
                        rng.choice([1, 2, 3, 5, 6]), rng.randrange(-1, 2),
                        rng.random() < 0.5)
        b = ExactScalar(F(rng.randrange(-9, 10) or 1, rng.randrange(1, 7)),
                        rng.choice([1, 2, 3, 5, 6]), rng.randrange(-1, 2),
                        rng.random() < 0.5)
        exact = (a * b).to_complex()
        floaty = a.to_complex() * b.to_complex()
        assert abs(exact - floaty) <= 1e-12 * max(1.0, abs(exact))


def test_character():
    chi = Character((0, 1), (F(1, 2), F(3)))
    assert chi.exact and chi.lam == (F(1, 2), F(3))
    assert not Character((0, 0), (1 + 2j, 0.5j)).exact
    with pytest.raises(ValueError):
        Character((2, 0), (F(1), F(1)))
    # both parts rational: two Fractions; anything else: two complex numbers
    exact = Character([0, 1], (2, F(3, 2)))
    assert exact.delta == (0, 1) and [type(x) for x in exact.lam] == [F, F]
    mixed = Character((0, 0), (F(5, 2), 1.5 + 0j))
    assert not mixed.exact and mixed.lam == (2.5 + 0j, 1.5 + 0j)
    assert [type(x) for x in mixed.lam] == [complex, complex]
    # equal values in another arithmetic: never the same character
    assert Character((0, 0), (F(5, 2), F(3, 2))) != Character((0, 0), (2.5 + 0j, 1.5 + 0j))
    for lam in ((float("nan"), 1), (1, complex("inf"))):
        with pytest.raises(ValueError, match="finite"):
            Character((0, 0), lam)


# ---------------------------------------------------------------------------
# the summation arithmetics
# ---------------------------------------------------------------------------

def test_character_arith_follows_exact():
    for lam in ((F(5, 2), F(3, 2)), (2, F(-1, 3)), (2.5 + 0j, 1.5 + 0j), (F(1, 2), 0.5j), (1.0, 2)):
        chi = Character((0, 1), lam)
        assert chi.arith is (Scratch if chi.exact else Complex)


@pytest.mark.parametrize("chi", [Character((0, 0), (F(5, 2), F(3, 2))), Character((0, 0), (2.5 + 0j, 1.5 + 0j))],
                         ids=["exact", "complex"])
def test_mul_acc_cancel_and_reappear_keeps_order(chi):
    # the arithmetic the module kernel sums with at chi
    arith = chi.arith
    one, two = ExactScalar(1), ExactScalar(2)
    r2 = ExactScalar(F(1, 3), 2, 0, True)                 # i sqrt2 / 3
    mixed = ExactScalar(-1) + ExactScalar(F(1, 2), 3)     # -1 + sqrt3 / 2
    steps = [("a", one, one), ("b", two, r2), ("c", one, r2),
             ("a", -one, one),        # a cancels: deleted
             ("d", r2, r2),
             ("c", one, mixed),       # the old term of c survives the new ones
             ("a", two, r2),          # a comes back: last
             ("b", -two, r2)]         # b cancels for good
    acc, ref = {}, {}
    for idx, x, y in steps:
        arith.mul_acc(acc, idx, arith.lift(x), arith.lift(y))
        x, y = lift(x, chi.lam[0]), lift(y, chi.lam[0])
        ref = lc_add(ref, {idx: x * y})
        assert list(acc) == list(ref)
    got = {idx: arith.settle(c) for idx, c in acc.items()}
    assert list(got.items()) == list(ref.items()) and list(got) == ["c", "d", "a"]


def test_mul_acc_denominators_and_settle():
    lift_, mul_acc = Scratch.lift, Scratch.mul_acc
    acc = {}
    mul_acc(acc, 0, lift_(ExactScalar(F(1, 6))), lift_(ExactScalar(1)))
    mul_acc(acc, 0, lift_(ExactScalar(F(1, 4))), lift_(ExactScalar(1)))
    assert acc == {0: {(1, 0, False): [5, 12]}}            # lcm, not 24
    mul_acc(acc, 0, lift_(ExactScalar(F(1, 2), 2)), lift_(ExactScalar(F(1, 2), 6)))
    # sqrt2 sqrt6 = 2 sqrt3: the product rule's integer factor
    assert acc[0][(3, 0, False)] == [2, 4]
    got = Scratch.settle(acc[0])
    assert got.terms == {(1, 0, False): F(5, 12), (3, 0, False): F(1, 2)}
    assert got.terms[(3, 0, False)].numerator == 1
    a = ExactScalar(F(2, 3), 6, 1, True) + ExactScalar(F(-5, 7), 10)
    b = ExactScalar(F(3, 4), 15, -1, True) + ExactScalar(F(1, 9))
    acc = {}
    mul_acc(acc, "x", lift_(a), lift_(b))
    assert {idx: Scratch.settle(c) for idx, c in acc.items()} == {"x": a * b}
    # within one product the rational term of c cancels first, then sqrt3
    # arrives: c kept its place
    one = ExactScalar(1)
    acc = {}
    mul_acc(acc, "c", lift_(one), lift_(one))
    mul_acc(acc, "e", lift_(one), lift_(one))
    mul_acc(acc, "c", lift_(one), lift_(ExactScalar(-1) + ExactScalar(1, 3)))
    assert list(acc) == ["c", "e"] and acc["c"] == {(3, 0, False): [1, 1]}


def test_scratch_and_complex_sums_agree(rng):
    # the same products summed exactly and in complex numbers: within 1e-15
    # of the sum of the products' absolute values
    def draw():
        return ExactScalar(F(rng.randrange(-9, 10) or 1, rng.randrange(1, 7)),
                           rng.choice([1, 2, 3, 5, 6]), rng.randrange(-1, 2), rng.random() < 0.5)

    terms = [(rng.randrange(5), draw() + draw(), draw()) for _ in range(200)]
    sums = {}
    for ar in (Scratch, Complex):
        acc = sums[ar] = {}
        for idx, a, b in terms:
            ar.mul_acc(acc, idx, ar.lift(a), ar.lift(b))
    for idx in range(5):
        scale = sum(abs(a.to_complex() * b.to_complex()) for i, a, b in terms if i == idx)
        exact = Scratch.settle(sums[Scratch].get(idx, Scratch.zero)).to_complex()
        assert abs(exact - sums[Complex].get(idx, Complex.zero)) <= 1e-15 * scale


def test_complex_sum_starts_at_zero():
    # a first product with a -0.0 part is added to 0j, not stored bare, so
    # the sum has the bits of 0j + p1 + p2 + ... in order
    a, b = complex(2.0, -0.0), complex(3.0, -0.0)
    first = a * b
    assert math.copysign(1.0, first.imag) == -1.0
    later = (complex(1.5, 0.25), complex(-0.5, 4.0))
    acc = {}
    Complex.mul_acc(acc, "x", a, b)
    Complex.mul_acc(acc, "y", a, b)
    Complex.mul_acc(acc, "y", *later)
    want_x = 0j + first
    want_y = 0j + first + later[0] * later[1]
    assert [(math.copysign(1.0, v.real), math.copysign(1.0, v.imag), v) for v in acc.values()] == \
        [(math.copysign(1.0, w.real), math.copysign(1.0, w.imag), w) for w in (want_x, want_y)]
    assert math.copysign(1.0, acc["x"].imag) == 1.0
