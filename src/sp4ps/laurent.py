"""Epsilon jets and hypergeometric t-series.

A removable singularity in the spectral parameter is evaluated by
perturbing the parameter with a formal epsilon: ``LSeries1`` is a truncated
Laurent series in epsilon with Fraction coefficients.  It carries an
explicit known window: coefficients are stored for exponents
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


class LSeries1:
    """Laurent polynomial window in epsilon with Fraction coefficients."""

    __slots__ = ("min_exp", "coeffs", "trunc")

    def __init__(self, min_exp: int, coeffs: list, trunc: int):
        if trunc < min_exp + len(coeffs) - 1:
            raise ValueError("trunc below stored window")
        self.min_exp = min_exp
        self.coeffs = list(coeffs)
        self.trunc = trunc

    # -- access ----------------------------------------------------------

    def coeff(self, e: int) -> Fraction:
        if e > self.trunc:
            raise TruncationError(
                "coefficient of eps^%d beyond window (trunc=%d)" % (e, self.trunc))
        i = e - self.min_exp
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def order(self) -> int:
        """Exponent of the lowest nonzero known coefficient."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.min_exp + i
        raise ValueError("series is zero on its known window")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- ring ops ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LSeries1):
            other = LSeries1(0, [Fraction(other)], self.trunc)
        trunc = min(self.trunc, other.trunc)
        lo = min(self.min_exp, other.min_exp)
        hi = min(max(self.min_exp + len(self.coeffs), other.min_exp + len(other.coeffs)) - 1, trunc)
        pairs = ((self.coeff(e), other.coeff(e)) for e in range(lo, hi + 1))
        return LSeries1(lo, [a + b if a and b else a or b for a, b in pairs], trunc)

    __radd__ = __add__

    def __neg__(self):
        return LSeries1(self.min_exp, [-c for c in self.coeffs], self.trunc)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LSeries1):
            # scalar multiplication keeps the window
            return LSeries1(self.min_exp, [c * other for c in self.coeffs], self.trunc)
        trunc = min(self.trunc + other.min_exp, other.trunc + self.min_exp)
        lo = self.min_exp + other.min_exp
        n = trunc - lo + 1
        out = [Fraction(0)] * max(n, 1)
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for k, b in enumerate(other.coeffs[:n - i], i):
                    if b:
                        out[k] = out[k] + a * b if out[k] else a * b
        return LSeries1(lo, out, trunc)

    __rmul__ = __mul__

    def inverse(self) -> "LSeries1":
        """Laurent inversion; the lowest known coefficient must be nonzero."""
        v = self.order()
        n = self.trunc - v + 1
        u = [self.coeff(v + i) for i in range(n)]
        out = [1 / u[0]]
        for e in range(1, n):
            out.append(-sum(u[k] * out[e - k] for k in range(1, e + 1)) * out[0])
        return LSeries1(-v, out, self.trunc - 2 * v)

    def __rtruediv__(self, other):
        inv = self.inverse()
        return inv if other == 1 else inv * other

    def __repr__(self):
        bits = ["(%s)eps^%d" % (c, self.min_exp + i) for i, c in enumerate(self.coeffs) if c]
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
