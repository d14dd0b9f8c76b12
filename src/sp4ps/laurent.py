"""Epsilon jets and hypergeometric t-series.

A removable singularity in the spectral parameter is evaluated by
perturbing the parameter with a formal epsilon: ``LSeries1`` is a truncated
Laurent series in epsilon with rational coefficients, stored as integer
numerators over one positive common denominator in lowest terms.  It
carries an explicit known window: coefficients are stored for exponents
``min_exp .. min_exp+len-1`` and everything above ``trunc`` is unknown (not
zero).  Reading past the window raises ``TruncationError``; reading below
``min_exp`` returns a known zero.

A t-series is a plain list of coefficients from t^0; its entries are
Fractions or epsilon jets.  ``binom_series`` and ``hyp2f1_series`` build one
from ``exact.hyp_terms``, and ``product_coeff`` reads one coefficient of a
product.  There is no two-variable series: the long operator's generating
function is summed as separable terms, each a product of one-variable
coefficients (``intertwine._ct_at``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import PoleError, hyp_terminating, hyp_terms, pochhammer


class TruncationError(ArithmeticError):
    """A coefficient beyond the known window was requested."""


def _ratio(x) -> tuple:
    """(numerator, denominator) of an int or a Fraction."""
    if x.__class__ is int:
        return x, 1
    if x.__class__ is not Fraction:
        x = Fraction(x)
    return x.numerator, x.denominator


class LSeries1:
    """Laurent polynomial window in epsilon with rational coefficients.

    ``nums[i] / den`` is the coefficient of eps^(min_exp+i): integer
    numerators over one positive denominator, reduced by one gcd per
    operation, so the ring operations run on ints.  The constructor takes
    Fractions (or ints) and ``coeff`` returns a Fraction.
    """

    __slots__ = ("min_exp", "nums", "den", "trunc")

    def __init__(self, min_exp: int, coeffs: list, trunc: int):
        if trunc < min_exp + len(coeffs) - 1:
            raise ValueError("trunc below stored window")
        coeffs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        self.min_exp = min_exp
        self.nums = [c.numerator * (den // c.denominator) for c in coeffs]
        self.den = den
        self.trunc = trunc

    @staticmethod
    def _of(min_exp: int, nums: list, den: int, trunc: int) -> "LSeries1":
        """The jet nums/den (den nonzero, of any sign), in lowest terms."""
        if den < 0:
            nums, den = [-a for a in nums], -den
        g = math.gcd(den, *nums)
        if g > 1:
            nums, den = [a // g for a in nums], den // g
        out = object.__new__(LSeries1)
        out.min_exp, out.nums, out.den, out.trunc = min_exp, nums, den, trunc
        return out

    # -- access ----------------------------------------------------------

    def coeff(self, e: int) -> Fraction:
        if e > self.trunc:
            raise TruncationError(
                "coefficient of eps^%d beyond window (trunc=%d)" % (e, self.trunc))
        i = e - self.min_exp
        return Fraction(self.nums[i], self.den) if 0 <= i < len(self.nums) else Fraction(0)

    def order(self) -> int:
        """Exponent of the lowest nonzero known coefficient."""
        for i, a in enumerate(self.nums):
            if a:
                return self.min_exp + i
        raise ValueError("series is zero on its known window")

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- ring ops ----------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not LSeries1:
            if self.trunc < 0:
                return self          # eps^0 lies beyond the known window
            n, d = _ratio(other)
            other = LSeries1._of(0, [n], d, self.trunc)
        trunc = min(self.trunc, other.trunc)
        lo = min(self.min_exp, other.min_exp)
        hi = min(max(self.min_exp + len(self.nums), other.min_exp + len(other.nums)) - 1, trunc)
        d1, d2 = self.den, other.den
        g = math.gcd(d1, d2)
        den = d1 // g * d2
        out = [0] * max(hi - lo + 1, 0)
        for s, f in ((self, d2 // g), (other, d1 // g)):
            for i, a in enumerate(s.nums[:max(hi + 1 - s.min_exp, 0)], s.min_exp - lo):
                out[i] += a * f
        return LSeries1._of(lo, out, den, trunc)

    __radd__ = __add__

    def __neg__(self):
        return LSeries1._of(self.min_exp, [-a for a in self.nums], self.den, self.trunc)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if other.__class__ is not LSeries1:
            # scalar multiplication keeps the window
            n, d = _ratio(other)
            return LSeries1._of(self.min_exp, [a * n for a in self.nums], self.den * d, self.trunc)
        trunc = min(self.trunc + other.min_exp, other.trunc + self.min_exp)
        lo = self.min_exp + other.min_exp
        n = trunc - lo + 1           # >= 0: each stored window ends at or below its trunc
        out = [0] * n
        bs = other.nums
        for i, a in enumerate(self.nums[:n]):
            if a:
                for k, b in enumerate(bs[:n - i], i):
                    out[k] += a * b
        return LSeries1._of(lo, out, self.den * other.den, trunc)

    __rmul__ = __mul__

    def inverse(self) -> "LSeries1":
        """Laurent inversion; the lowest known coefficient must be nonzero.

        With u = U/den and U an integer polynomial with U_0 != 0, the
        coefficients of 1/U are X_e / U_0^(e+1), where X_0 = 1 and
        X_e = -sum_{k=1..e} U_k U_0^(k-1) X_(e-k) are integers; so
        1/u = den * sum_e X_e U_0^(n-1-e) eps^e / U_0^n.
        """
        v = self.order()
        n = self.trunc - v + 1
        nums = self.nums[v - self.min_exp:][:n]
        u = nums + [0] * (n - len(nums))
        u0 = u[0]
        pw = [1]                      # pw[k] = U_0^k
        for _ in range(n):
            pw.append(pw[-1] * u0)
        x = [1]
        for e in range(1, n):
            x.append(-sum(u[k] * pw[k - 1] * x[e - k] for k in range(1, e + 1) if u[k]))
        out = [self.den * xe * pw[n - 1 - e] for e, xe in enumerate(x)]
        return LSeries1._of(-v, out, pw[n], self.trunc - 2 * v)

    def __rtruediv__(self, other):
        inv = self.inverse()
        return inv if other == 1 else inv * other

    def __repr__(self):
        bits = ["(%s)eps^%d" % (Fraction(a, self.den), self.min_exp + i)
                for i, a in enumerate(self.nums) if a]
        return " + ".join(bits or ["0"]) + " + O(eps^%d)" % (self.trunc + 1)


# ---------------------------------------------------------------------------
# t-series: coefficient lists from t^0
# ---------------------------------------------------------------------------

def binom_series(exponent, scale, order: int) -> list:
    """(1 + scale*t)^exponent through t^order, exponent and scale rational."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return hyp_terms([-exponent], [], -scale, order)


def hyp2f1_series(a, b, c, scale=1, order: int = 0) -> list:
    """2F1(a,b;c;scale*t) through t^order.

    When c is a nonpositive integer the series must terminate (a numerator
    parameter hitting zero) before the denominator does, else PoleError.
    """
    return hyp_terms([a, b], [c], scale, order)


def product_coeff(a: list, b: list, k: int):
    """Coefficient of t^k in the product of the t-series a and b."""
    if k >= min(len(a), len(b)):
        raise TruncationError("coefficient of t^%d beyond series of %d and %d terms"
                              % (k, len(a), len(b)))
    acc = Fraction(0)
    for i in range(k + 1):
        if a[i] and b[k - i]:      # a jet is always true
            t = a[i] * b[k - i]
            acc = acc + t if acc else t
    return acc


# ---------------------------------------------------------------------------
# partial-sum reversal identity (finite hypergeometric sums)
# ---------------------------------------------------------------------------

def hyp_partial_sum(a_vec, b_vec, z, m: int):
    """sum_{k=0}^{m} (a)^(k)/(b)^(k) z^k/k! with vector Pochhammers."""
    total = 0
    for k in range(m + 1):
        num = Fraction(1)
        for a in a_vec:
            num *= pochhammer(a, k)
        den = Fraction(1)
        for b in b_vec:
            den *= pochhammer(b, k)
        if den == 0:
            raise PoleError("vanishing bottom Pochhammer in partial sum at k=%d" % k)
        total += num / den * z ** k / math.factorial(k)
    return total


def partial_sum_check(a_vec, b_vec, z, m: int) -> bool:
    """Left side of the partial-sum reversal formula vs its hypergeometric
    reversal: both evaluated exactly at rational inputs."""
    lhs = hyp_partial_sum(a_vec, b_vec, z, m)
    p, q = len(a_vec), len(b_vec)
    pref = Fraction(1)
    for a in a_vec:
        pref *= pochhammer(a, m)
    for b in b_vec:
        pref /= pochhammer(b, m)
    pref = pref * z ** m / math.factorial(m)
    tops = [Fraction(-m), Fraction(1)] + [1 - m - Fraction(b) for b in b_vec]
    bots = [1 - m - Fraction(a) for a in a_vec]
    arg = Fraction((-1) ** (p + q + 1), 1) / z
    rhs = pref * hyp_terminating(tops, bots, arg, m)
    return lhs == rhs
