"""Truncated Laurent series with exact coefficients.

One-variable series carry an explicit known window: coefficients are stored
for exponents ``min_exp .. min_exp+len-1`` and everything above ``trunc`` is
unknown (not zero).  Reading past the window raises ``TruncationError`` so a
caller can re-expand; reading below ``min_exp`` returns a known zero.

Coefficients are generic: Fraction, ExactScalar, complex, or another
LSeries1 (series-in-epsilon coefficients are how removable singularities in
the spectral parameter are evaluated).  There is no two-variable series:
the long operator's generating function is summed as separable terms, each
a product of one-variable coefficients (``intertwine._ct_at``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import ExactScalar, PoleError, pochhammer


class TruncationError(ArithmeticError):
    """A coefficient beyond the known window was requested."""


def _is_zero(c) -> bool:
    if isinstance(c, LSeries1):
        return all(_is_zero(x) for x in c.coeffs)
    if isinstance(c, ExactScalar):
        return c.is_zero()
    return c == 0


def _inv(c):
    if isinstance(c, (LSeries1, ExactScalar)):
        return c.inverse()
    return 1 / c


class LSeries1:
    """Laurent polynomial window in one variable."""

    __slots__ = ("var", "min_exp", "coeffs", "trunc")

    def __init__(self, var: str, min_exp: int, coeffs: list, trunc: int):
        if trunc < min_exp + len(coeffs) - 1:
            raise ValueError("trunc below stored window")
        self.var = var
        self.min_exp = min_exp
        self.coeffs = list(coeffs)
        self.trunc = trunc

    # -- access ----------------------------------------------------------

    def coeff(self, e: int):
        if e > self.trunc:
            raise TruncationError(
                "coefficient of %s^%d beyond window (trunc=%d)" % (self.var, e, self.trunc))
        if e < self.min_exp or e >= self.min_exp + len(self.coeffs):
            return 0
        return self.coeffs[e - self.min_exp]

    def __getitem__(self, e: int):
        return self.coeff(e)

    def order(self) -> int:
        """Exponent of the lowest nonzero known coefficient."""
        for i, c in enumerate(self.coeffs):
            if not _is_zero(c):
                return self.min_exp + i
        raise ValueError("series is zero on its known window")

    def is_zero(self) -> bool:
        return all(_is_zero(c) for c in self.coeffs)

    # -- ring ops ----------------------------------------------------------

    def _coerce(self, other) -> "LSeries1":
        # anything that is not a series in the same variable (including a
        # series in another variable, e.g. an epsilon-jet) is a scalar here
        if isinstance(other, LSeries1) and other.var == self.var:
            return other
        return LSeries1(self.var, 0, [other], self.trunc)

    def __add__(self, other):
        other = self._coerce(other)
        trunc = min(self.trunc, other.trunc)
        lo = min(self.min_exp, other.min_exp)
        hi = min(max(self.min_exp + len(self.coeffs), other.min_exp + len(other.coeffs)) - 1, trunc)
        coeffs = []
        for e in range(lo, hi + 1):
            a = self.coeffs[e - self.min_exp] if self.min_exp <= e < self.min_exp + len(self.coeffs) else 0
            b = other.coeffs[e - other.min_exp] if other.min_exp <= e < other.min_exp + len(other.coeffs) else 0
            if isinstance(a, int) and a == 0:
                coeffs.append(b)
            elif isinstance(b, int) and b == 0:
                coeffs.append(a)
            else:
                coeffs.append(a + b)
        if not coeffs:
            coeffs = [0]
            lo = min(lo, trunc)
        return LSeries1(self.var, lo, coeffs, trunc)

    __radd__ = __add__

    def __neg__(self):
        return LSeries1(self.var, self.min_exp, [-c if not (isinstance(c, int) and c == 0) else 0 for c in self.coeffs], self.trunc)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if not (isinstance(other, LSeries1) and other.var == self.var):
            # scalar multiplication keeps the window
            return LSeries1(self.var, self.min_exp,
                            [0 if _is_zero(c) or _is_zero(other) else c * other for c in self.coeffs],
                            self.trunc)
        trunc = min(self.trunc + other.min_exp, other.trunc + self.min_exp)
        lo = self.min_exp + other.min_exp
        n = trunc - lo + 1
        out = [0] * max(n, 1)
        for i, a in enumerate(self.coeffs):
            if _is_zero(a):
                continue
            for k, b in enumerate(other.coeffs):
                e = i + k
                if e >= n:
                    break
                if _is_zero(b):
                    continue
                t = a * b
                out[e] = t if (isinstance(out[e], int) and out[e] == 0) else out[e] + t
        return LSeries1(self.var, lo, out, trunc)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LSeries1":
        """Multiply by var^k."""
        return LSeries1(self.var, self.min_exp + k, self.coeffs, self.trunc + k)

    def __truediv__(self, other):
        if isinstance(other, LSeries1) and other.var == self.var:
            return self * other.inverse()
        if isinstance(other, ExactScalar):
            return self * other.inverse()
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, Fraction):
            return self * (1 / other)
        return self * (1.0 / other)

    def inverse(self) -> "LSeries1":
        """Laurent inversion; the lowest known coefficient must be invertible."""
        v = self.order()
        c0 = self.coeffs[v - self.min_exp]
        n = self.trunc - v + 1
        # u = series/ (c0 x^v) = 1 + higher; invert by Neumann recursion
        u = [self.coeff(v + i) for i in range(n)]
        inv0 = _inv(c0)
        out = [0] * n
        out[0] = inv0
        for e in range(1, n):
            acc = 0
            for k in range(1, e + 1):
                if _is_zero(u[k]) or _is_zero(out[e - k]):
                    continue
                t = u[k] * out[e - k]
                acc = t if (isinstance(acc, int) and acc == 0) else acc + t
            out[e] = 0 if (isinstance(acc, int) and acc == 0) else -(acc * inv0)
        return LSeries1(self.var, -v, out, self.trunc - 2 * v)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = None
        b = self
        while k:
            if k & 1:
                out = b if out is None else out * b
            b = b * b
            k >>= 1
        return out if out is not None else LSeries1(self.var, 0, [1], self.trunc)

    def __repr__(self):
        bits = []
        for i, c in enumerate(self.coeffs):
            if not _is_zero(c):
                bits.append("(%s)%s^%d" % (c, self.var, self.min_exp + i))
        return " + ".join(bits or ["0"]) + " + O(%s^%d)" % (self.var, self.trunc + 1)


# ---------------------------------------------------------------------------
# series constructors
# ---------------------------------------------------------------------------

def binom_series(exponent, sign: int, order: int, var: str = "t") -> LSeries1:
    """(1 + sign*t)^exponent through t^order; exponent rational or half-integer."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = []
    term = Fraction(1) if isinstance(exponent, (int, Fraction)) else 1.0
    for k in range(order + 1):
        coeffs.append(term if sign > 0 or k % 2 == 0 else -term)
        term = term * (exponent - k) / (k + 1)
    return LSeries1(var, 0, coeffs, order)


def hyp2f1_series(a, b, c, scale=1, order: int = 0, var: str = "t") -> LSeries1:
    """2F1(a,b;c;scale*t) through t^order.

    When c is a nonpositive integer the series must terminate (a numerator
    parameter hitting zero) before the denominator does, else PoleError.
    """
    coeffs = []
    term = (1 + 0j) if any(isinstance(x, (float, complex)) for x in (a, b, c, scale)) \
        else Fraction(1)
    dead = False
    for k in range(order + 1):
        coeffs.append(term if not dead else 0)
        if dead or k == order:
            continue
        num = (a + k) * (b + k)
        if _is_zero(num):
            dead = True
            continue
        den = c + k
        if _is_zero(den):
            raise PoleError("2F1 denominator (%s)+%d vanishes before termination" % (c, k))
        term = term * num / den * scale / (k + 1)
    return LSeries1(var, 0, coeffs, order)


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
    from .exact import hyp_terminating
    rhs = pref * hyp_terminating(tops, bots, arg, m)
    return lhs == rhs
