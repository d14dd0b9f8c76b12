"""Closed exact scalar arithmetic shared by every other module.

The scalar system is deliberately small: every exact quantity that shows up
in the operator computations is of the form

    q * sqrt(r) * pi^(p/2) * i^k

with q rational, r a positive squarefree integer, p an integer and k in
{0,1} (the sign of q supplies the other half of the 4-cycle of i-powers).
``ExactScalar`` closes this set under multiplication; addition is only
defined when the radical parts agree, and a mismatch raises instead of
coercing.  The complex floating-point fallback is plain ``complex``; an
exact constant enters a float computation only through ``lift``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class PoleError(ArithmeticError):
    """A gamma/Pochhammer factor was evaluated at a nonpositive-integer pole."""


class UnsupportedExactInput(ArithmeticError):
    """A finite value the exact scalars cannot represent (e.g. a Gamma at a
    quarter-integer); the float path computes it."""


class MixedRadicalError(ArithmeticError):
    """Addition of two exact scalars whose radical parts differ."""


# Complex floating-point fallback type ("CScalar" in interface docs).
CScalar = complex


def require_finite(z: complex) -> complex:
    """Reject NaN/Inf results on the float path: a Gamma evaluated at its
    pole, so a PoleError like its exact counterpart."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise PoleError("non-finite value on float path: %r" % (complex(z),))
    return z


def lift(c, like):
    """The exact constant ``c`` in the arithmetic of ``like``: ``c`` itself
    beside an exact value, ``complex`` beside a float one.  This is where
    every float path meets the exact constants of its formula."""
    return c.to_complex() if isinstance(like, (float, complex)) else c


# ---------------------------------------------------------------------------
# half-integers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class HalfInt:
    """An element of (1/2)Z, stored as twice its value."""

    twice: int

    @staticmethod
    def of(x) -> "HalfInt":
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, int):
            return HalfInt(2 * x)
        if isinstance(x, Fraction):
            if x.denominator not in (1, 2):
                raise ValueError("not a half-integer: %s" % x)
            return HalfInt(int(2 * x))
        if isinstance(x, str):
            return HalfInt.of(Fraction(x))
        raise TypeError("cannot make HalfInt from %r" % (x,))

    @property
    def frac(self) -> Fraction:
        return Fraction(self.twice, 2)

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError("%s is not an integer" % self)
        return self.twice // 2

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other):
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __rsub__(self, other):
        return HalfInt(HalfInt.of(other).twice - self.twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __mul__(self, other):
        if isinstance(other, int):
            return HalfInt(self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    def __abs__(self):
        return HalfInt(abs(self.twice))

    def __float__(self):
        return self.twice / 2.0

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return "%d/2" % self.twice

    __repr__ = __str__


def half_range(lo: HalfInt, hi: HalfInt):
    """All half-integers lo, lo+1, ..., hi (integer steps)."""
    m = lo
    out = []
    while m.twice <= hi.twice:
        out.append(m)
        m = m + 1
    return out


# ---------------------------------------------------------------------------
# squarefree bookkeeping
# ---------------------------------------------------------------------------

def _square_split(n: int) -> tuple[int, int]:
    # n = s^2 * f with f squarefree; trial division is fine at the sizes
    # produced here (radicands are reduced eagerly, so they stay small).
    s, f = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    return s, f * n


# ---------------------------------------------------------------------------
# the scalar
# ---------------------------------------------------------------------------

class ExactScalar:
    """q * sqrt(r) * pi^(p/2), optionally times i.

    Multiplication is closed (radicands combine with square extraction);
    addition requires matching (r, p, imag) unless one side is zero.
    """

    __slots__ = ("q", "r", "p", "im")

    def __init__(self, q, r: int = 1, p: int = 0, im: bool = False):
        q = Fraction(q)
        if r <= 0:
            raise ValueError("radicand must be positive")
        if q == 0:
            r, p, im = 1, 0, False
        self.q, self.r, self.p, self.im = q, r, p, im

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(x) -> "ExactScalar":
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return ExactScalar(Fraction(x))
        if isinstance(x, HalfInt):
            return ExactScalar(x.frac)
        raise TypeError("cannot coerce %r to ExactScalar" % (x,))

    @staticmethod
    def sqrt_rational(x) -> "ExactScalar":
        """sqrt of a nonnegative rational, as q*sqrt(r)."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("sqrt of negative rational")
        if x == 0:
            return ExactScalar(0)
        num, den = x.numerator, x.denominator
        s, f = _square_split(num * den)
        return ExactScalar(Fraction(s, den), f)

    @staticmethod
    def i_power(k: int) -> "ExactScalar":
        k %= 4
        return ExactScalar(1 if k in (0, 1) else -1, 1, 0, im=(k % 2 == 1))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.q == 0

    def __bool__(self):
        return self.q != 0

    def is_rational(self) -> bool:
        return self.r == 1 and self.p == 0 and not self.im

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("%s is not rational" % self)
        return self.q

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = ExactScalar.of(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if (self.r, self.p, self.im) != (other.r, other.p, other.im):
            raise MixedRadicalError("cannot add %s and %s" % (self, other))
        return ExactScalar(self.q + other.q, self.r, self.p, self.im)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-ExactScalar.of(other))

    def __rsub__(self, other):
        return ExactScalar.of(other) + (-self)

    def __neg__(self):
        return ExactScalar(-self.q, self.r, self.p, self.im)

    def __mul__(self, other):
        other = ExactScalar.of(other)
        if self.is_zero() or other.is_zero():
            return ExactScalar(0)
        g = math.gcd(self.r, other.r)
        q = self.q * other.q * g
        r = (self.r // g) * (other.r // g)
        im = self.im != other.im
        if self.im and other.im:
            q = -q
        return ExactScalar(q, r, self.p + other.p, im)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero ExactScalar")
        # 1/(q sqrt(r) pi^{p/2} i^k) = (1/(q r)) sqrt(r) pi^{-p/2} i^{-k}
        q = 1 / (self.q * self.r)
        if self.im:
            q = -q
        return ExactScalar(q, self.r, -self.p, self.im)

    def __truediv__(self, other):
        return self * ExactScalar.of(other).inverse()

    def __rtruediv__(self, other):
        return ExactScalar.of(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = ExactScalar(1)
        b = self
        while k:
            if k & 1:
                out = out * b
            b = b * b
            k >>= 1
        return out

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(-self.q if self.im else self.q, self.r, self.p, self.im)

    # -- comparisons / conversions -----------------------------------------

    def __eq__(self, other):
        try:
            other = ExactScalar.of(other)
        except TypeError:
            return NotImplemented
        return (self.q, self.r, self.p, self.im) == (other.q, other.r, other.p, other.im)

    def __hash__(self):
        return hash((self.q, self.r, self.p, self.im))

    def to_complex(self) -> complex:
        v = float(self.q) * math.sqrt(self.r) * math.pi ** (self.p / 2.0)
        return require_finite(complex(0.0, v) if self.im else complex(v, 0.0))

    # -- serialization: "q*sqrt(r)*pi^(p/2)" with q as "num/den" ------------

    def __str__(self):
        core = "%d/%d*sqrt(%d)*pi^(%d/2)" % (
            self.q.numerator, self.q.denominator, self.r, self.p)
        return "i*" + core if self.im else core

    def __repr__(self):
        return "ExactScalar(%s)" % self


def parse_scalar(s: str) -> ExactScalar:
    """Inverse of str(ExactScalar); bit-exact round-trip."""
    s = s.strip()
    im = s.startswith("i*")
    if im:
        s = s[2:]
    try:
        qs, rs, ps = s.split("*")
        q = Fraction(qs)
        if not (rs.startswith("sqrt(") and rs.endswith(")")):
            raise ValueError
        r = int(rs[5:-1])
        if not (ps.startswith("pi^(") and ps.endswith("/2)")):
            raise ValueError
        p = int(ps[4:-3])
    except ValueError as exc:
        raise ValueError("malformed ExactScalar string: %r" % s) from exc
    return ExactScalar(q, r, p, im)


# ---------------------------------------------------------------------------
# induction datum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    """Induction datum: discrete part delta in {0,1}^2, continuous lambda."""

    delta: tuple[int, int]
    lam: tuple

    def __post_init__(self):
        if not (self.delta[0] in (0, 1) and self.delta[1] in (0, 1)):
            raise ValueError("delta components must be 0 or 1")

    def is_exact(self) -> bool:
        return all(isinstance(x, (int, Fraction)) for x in self.lam)

    @property
    def lam_frac(self) -> tuple[Fraction, Fraction]:
        return (Fraction(self.lam[0]), Fraction(self.lam[1]))


# ---------------------------------------------------------------------------
# special functions on the closed scalar set
# ---------------------------------------------------------------------------

def pochhammer(a, n: int):
    """Rising factorial (a)^(n) = Gamma(a+n)/Gamma(a), integer n of any sign.

    Works for Fraction/int (exact) and float/complex arguments alike.
    """
    if n >= 0:
        out = _one_like(a)
        for i in range(n):
            out = out * (a + i)
        return out
    out = _one_like(a)
    for i in range(1, -n + 1):
        d = a - i
        if _is_exact_number(a) and d == 0:
            raise PoleError("(%s)^(%d) hits a pole" % (a, n))
        out = out / d
    return out


def _one_like(a):
    if isinstance(a, (int, Fraction)):
        return Fraction(1)
    return 1.0 if isinstance(a, float) else (1 + 0j) if isinstance(a, complex) else Fraction(1)


def _is_exact_number(a) -> bool:
    return isinstance(a, (int, Fraction))


def gamma_half(a) -> ExactScalar:
    """Gamma at a half-integer argument, as rational * sqrt(pi)^p.

    p is 1 for half-odd arguments and 0 for integer ones.  Raises PoleError
    at nonpositive integers.
    """
    a = HalfInt.of(a) if not isinstance(a, HalfInt) else a
    if a.is_integer():
        k = a.as_int()
        if k <= 0:
            raise PoleError("Gamma pole at %s" % a)
        return ExactScalar(math.factorial(k - 1))
    # half-odd: walk to Gamma(1/2) = sqrt(pi)
    q = Fraction(1)
    t = a.frac
    while t > Fraction(1, 2):
        t -= 1
        q *= t
    while t < Fraction(1, 2):
        q /= t
        t += 1
    return ExactScalar(q, 1, 1)


def binomial(n, k: int):
    """Generalized binomial via falling factorials; k a nonnegative integer."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    num = _one_like(n)
    for i in range(k):
        num = num * (n - i)
    return num / math.factorial(k)


def hyp_terminating(tops, bots, arg, kmax: int):
    """Sum_{k=0}^{kmax} prod(tops)^(k)/prod(bots)^(k) * arg^k / k!.

    Equal top/bottom parameters are cancelled pairwise first (the
    partial-sum reversal convention); a remaining bottom parameter hitting
    a nonpositive integer inside the summation range raises PoleError
    unless the numerator terminates earlier.
    """
    tops = list(tops)
    bots = list(bots)
    for t in list(tops):
        if t in bots:
            tops.remove(t)
            bots.remove(t)
    total = _one_like(arg) * 0
    term = _one_like(arg)
    for k in range(kmax + 1):
        total = total + term
        if k == kmax:
            break
        num = _one_like(arg)
        dead = False
        for t in tops:
            f = t + k
            num = num * f
            if _is_exact_number(f) and f == 0:
                dead = True
        if dead:
            break
        den = _one_like(arg)
        for b in bots:
            f = b + k
            if _is_exact_number(f) and f == 0:
                raise PoleError(
                    "hypergeometric bottom parameter %s hits 0 at k=%d" % (b, k))
            den = den * f
        term = term * num / den * arg / (k + 1)
    return total
