"""Closed exact scalar arithmetic shared by every other module.

Every exact quantity in the module action and the operator computations is
a finite sum of radical monomials

    q * sqrt(r) * pi^(p/2) * i^k

with q rational, r a positive squarefree integer, p an integer and k in
{0,1} (the sign of q supplies the other half of the 4-cycle of i-powers).
``ExactScalar`` holds such a sum as {(r, p, im): q}; it is a ring, and the
inverse is defined for a single monomial.  A linear combination of such
sums is summed in one of two arithmetics, which ``Character.arith`` picks
for a character: ``Scratch`` at rational lambda, in integer scratch form
({radical key: (numerator, denominator)} dicts) with each output
coefficient turned into a reduced value once, and ``Complex`` at complex
lambda, on plain ``complex`` numbers.  The module kernel, the S blocks
and the block products sum through ``lift``, ``mul_acc`` and ``settle``
of one of them.  ``ExactScalar.__mul__`` and ``Scratch.mul_acc`` share
one product rule for radical monomials, ``_radical_product``, which they
read through a bounded memo keyed by the pair of radical keys
(``_key_product``): a run meets a few dozen keys and multiplies them
hundreds of thousands of times.  A constant that both arithmetics read
(a Clebsch-Gordan product of a module row, an S term of the operator
layer) is held as one (scratch form, complex) pair per value
(``value_pair``, a bounded memo), which ``Scratch.form`` and
``Complex.form`` index.  An exact constant enters a float computation only
through ``lift`` (or ``Complex.lift``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache


class PoleError(ArithmeticError):
    """A gamma/Pochhammer factor was evaluated at a nonpositive-integer pole."""


class UnsupportedExactInput(ArithmeticError):
    """A finite value the exact scalars cannot represent (e.g. a Gamma at a
    quarter-integer); the float path computes it."""


def require_finite(z: complex) -> complex:
    """Reject NaN/Inf results on the float path: a Gamma evaluated at its
    pole, so a PoleError like its exact counterpart."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise PoleError("non-finite value on float path: %r" % (complex(z),))
    return z


def lift(c, like):
    """The exact constant ``c`` in the arithmetic of ``like``: ``c`` itself
    beside an exact value, ``complex`` beside a float one.  This is where
    every float path outside a sum of products meets the exact constants of
    its formula; a sum lifts its operands with ``Scratch.lift`` or
    ``Complex.lift``."""
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

_ONE = (1, 0, False)          # radical key of the rationals


def _radical_product(k1, k2):
    """The product rule of the radical basis: the monomials with keys k1 and
    k2 multiply to f times the monomial with the returned key, f an integer.
    sqrt(r1) sqrt(r2) = g sqrt(r1 r2 / g^2) with g = gcd(r1, r2), and
    i * i = -1."""
    r1, p1, i1 = k1
    r2, p2, i2 = k2
    f = 1
    if r1 == 1 or r2 == 1:
        r = r1 * r2
    else:
        f = math.gcd(r1, r2)
        r = (r1 // f) * (r2 // f)
    if i1 and i2:
        f = -f
    return (r, p1 + p2, i1 != i2), f


# The memo of _radical_product, {(k1, k2): (key, f)}.  Only a few dozen
# radical keys occur in a run, so it holds every pair verify --deep meets;
# it starts again from empty if it ever fills.
_KEY_PRODUCTS = {}
_KEY_PRODUCTS_KEPT = 4096


def _key_product(k1, k2):
    """``_radical_product(k1, k2)``, memoized in ``_KEY_PRODUCTS``: the one
    product rule of ``ExactScalar.__mul__`` and ``Scratch.mul_acc``."""
    kf = _KEY_PRODUCTS.get((k1, k2))
    if kf is None:
        if len(_KEY_PRODUCTS) >= _KEY_PRODUCTS_KEPT:
            _KEY_PRODUCTS.clear()
        kf = _KEY_PRODUCTS[k1, k2] = _radical_product(k1, k2)
    return kf


def _merge(out: dict, key, q) -> None:
    """out[key] += q in place; a value that cancels is dropped."""
    if key in out:
        s = out[key] + q
        if s:
            out[key] = s
        else:
            del out[key]
    else:
        out[key] = q


class ExactScalar:
    """A finite sum of q * sqrt(r) * pi^(p/2) * i^k.

    ``terms`` maps the radical key (r, p, im) to its nonzero Fraction q; zero
    has no terms.  Distinct keys are Q-linearly independent, so keys never
    cancel each other and a value has one canonical form.
    """

    __slots__ = ("terms",)

    def __init__(self, q, r: int = 1, p: int = 0, im: bool = False):
        q = Fraction(q)
        if r <= 0:
            raise ValueError("radicand must be positive")
        self.terms = {(r, p, bool(im)): q} if q else {}

    @staticmethod
    def _wrap(terms: dict) -> "ExactScalar":
        """An ExactScalar owning ``terms``, which must hold nonzero values only."""
        out = object.__new__(ExactScalar)
        out.terms = terms
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(x) -> "ExactScalar":
        if x.__class__ is ExactScalar:
            return x
        if isinstance(x, (int, Fraction)):
            return ExactScalar(x)
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
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_rational(self) -> bool:
        return self.terms.keys() <= {_ONE}

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("%s is not rational" % self)
        return self.terms.get(_ONE, Fraction(0))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not ExactScalar:
            other = ExactScalar.of(other)
        out = dict(self.terms)
        for k, q in other.terms.items():
            _merge(out, k, q)
        return ExactScalar._wrap(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-ExactScalar.of(other))

    def __rsub__(self, other):
        return ExactScalar.of(other) + (-self)

    def __neg__(self):
        return ExactScalar._wrap({k: -q for k, q in self.terms.items()})

    def __mul__(self, other):
        if other.__class__ is not ExactScalar:
            other = ExactScalar.of(other)
        out = {}
        for k1, q1 in self.terms.items():
            for k2, q2 in other.terms.items():
                key, f = _key_product(k1, k2)
                q = q1 * q2
                _merge(out, key, q if f == 1 else q * f)
        return ExactScalar._wrap(out)

    __rmul__ = __mul__

    # -- linear combinations in integer scratch form ------------------------

    def scratch(self) -> dict:
        """The terms in integer scratch form, {radical key: (numerator,
        denominator)}: the operand form of ``Scratch.mul_acc``."""
        return {k: (q.numerator, q.denominator) for k, q in self.terms.items()}

    @staticmethod
    def from_scratch(cell: dict) -> "ExactScalar":
        """The ExactScalar of a scratch form or cell with nonzero
        numerators: one reduced Fraction per term, in its key order."""
        return ExactScalar._wrap({k: Fraction(n, d) for k, (n, d) in cell.items()})

    def inverse(self) -> "ExactScalar":
        """1/x of a single term; a sum of several terms has no inverse here."""
        if not self.terms:
            raise ZeroDivisionError("inverse of zero ExactScalar")
        if len(self.terms) > 1:
            raise ValueError("inverse of a sum of several radical terms: %s" % self)
        # 1/(q sqrt(r) pi^{p/2} i^k) = (1/(q r)) sqrt(r) pi^{-p/2} i^{-k}
        ((r, p, im), q), = self.terms.items()
        q = 1 / (q * r)
        return ExactScalar._wrap({(r, -p, im): -q if im else q})

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
        return ExactScalar._wrap({k: -q if k[2] else q for k, q in self.terms.items()})

    # -- comparisons / conversions -----------------------------------------

    def __eq__(self, other):
        if other.__class__ is not ExactScalar:
            try:
                other = ExactScalar.of(other)
            except TypeError:
                return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_complex(self) -> complex:
        out = 0j
        for (r, p, im), q in self.terms.items():
            v = float(q) * math.sqrt(r) * math.pi ** (p / 2.0)
            out += complex(0.0, v) if im else v
        return require_finite(out)

    # -- serialization: "q*sqrt(r)*pi^(p/2)" terms in key order, " + " ------

    def __str__(self):
        if not self.terms:
            return _term_str(Fraction(0), *_ONE)
        return " + ".join(_term_str(q, *k) for k, q in sorted(self.terms.items()))

    __repr__ = __str__


def _term_str(q: Fraction, r: int, p: int, im: bool) -> str:
    core = "%d/%d*sqrt(%d)*pi^(%d/2)" % (q.numerator, q.denominator, r, p)
    return "i*" + core if im else core


def parse_scalar(s: str) -> ExactScalar:
    """Inverse of str(ExactScalar); bit-exact round-trip."""
    out = ExactScalar(0)
    for term in s.strip().split(" + "):
        im = term.startswith("i*")
        if im:
            term = term[2:]
        try:
            qs, rs, ps = term.split("*")
            q = Fraction(qs)
            if not (rs.startswith("sqrt(") and rs.endswith(")")):
                raise ValueError
            r = int(rs[5:-1])
            if not (ps.startswith("pi^(") and ps.endswith("/2)")):
                raise ValueError
            p = int(ps[4:-3])
        except ValueError as exc:
            raise ValueError("malformed ExactScalar string: %r" % s) from exc
        out = out + ExactScalar(q, r, p, im)
    return out


# ---------------------------------------------------------------------------
# the two summation arithmetics
# ---------------------------------------------------------------------------

class Scratch:
    """The summation arithmetic of a rational character.  An operand is in
    integer scratch form ({radical key: (numerator, denominator)},
    ``ExactScalar.scratch``), and a sum keeps one unreduced cell per output
    index, settled once to an ExactScalar."""

    one = ExactScalar(1).scratch()
    zero = {}           # read only: the cell of an index with no terms
    form = 0            # the scratch member of a (scratch, complex) pair

    @staticmethod
    def lift(c) -> dict:
        return ExactScalar.of(c).scratch()

    @staticmethod
    def mul_acc(acc: dict, index, a: dict, b: dict) -> None:
        """acc[index] += a * b, with no Fraction and no ExactScalar made.

        ``a`` and ``b`` are in integer scratch form with nonzero numerators
        and positive denominators, or are cells of an accumulator.  ``acc``
        maps an index to a cell {radical key: [numerator, denominator]},
        unreduced; two denominators combine by their lcm.  A key whose
        numerator reaches 0 is dropped, and an index whose terms all cancel
        is deleted, so it goes last if it comes back.  The product of two
        radical keys is read from the memo ``_KEY_PRODUCTS`` (``_key_product``
        fills it), so ``_radical_product`` runs once per pair of keys.
        """
        cell = acc.get(index)
        if cell is None:
            cell = acc[index] = {}
        bterms = b.items()
        products = _KEY_PRODUCTS
        for k1, (n1, d1) in a.items():
            for k2, (n2, d2) in bterms:
                key, f = products.get((k1, k2)) or _key_product(k1, k2)
                n = n1 * n2 * f
                d = d1 * d2
                old = cell.get(key)
                if old is None:
                    cell[key] = [n, d]
                    continue
                n0, d0 = old
                if d0 == d:
                    n += n0
                else:
                    g = math.gcd(d0, d)
                    n = n0 * (d // g) + n * (d0 // g)
                    d = d0 // g * d
                if n:
                    old[0], old[1] = n, d
                else:
                    del cell[key]
        if not cell:
            del acc[index]

    @staticmethod
    def product(a: dict, b: dict) -> dict:
        acc = {}
        Scratch.mul_acc(acc, 0, a, b)
        return acc.get(0, {})

    @staticmethod
    def freeze(cell: dict) -> dict:
        """A cell in lowest terms, to be kept as an operand."""
        out = {}
        for k, (n, d) in cell.items():
            g = math.gcd(n, d)
            out[k] = (n // g, d // g)
        return out

    settle = staticmethod(ExactScalar.from_scratch)


class Complex:
    """The summation arithmetic of a complex character: an operand is a
    complex number.  A sum starts at 0j and adds its products in place, in
    order, so a result has the same bits on every run; an index whose sum
    is 0 is deleted, so it goes last if it comes back."""

    one = 1 + 0j
    zero = 0j
    form = 1            # the complex member of a (scratch, complex) pair

    @staticmethod
    def lift(c):
        return c.to_complex() if c.__class__ is ExactScalar else c

    @staticmethod
    def mul_acc(acc: dict, index, a: complex, b: complex) -> None:
        s = acc.get(index, 0j) + a * b
        if s:
            acc[index] = s
        else:
            acc.pop(index, None)

    @staticmethod
    def product(a: complex, b: complex) -> complex:
        return a * b

    @staticmethod
    def freeze(c: complex) -> complex:
        return c

    settle = freeze


# keyed by the value's items in key order, which fix the complex value's
# bits; verify --deep reads 776 (632 CG products and 148 S terms, 4 shared)
_PAIRS_KEPT = 4096


@lru_cache(maxsize=_PAIRS_KEPT)
def value_pair(items: tuple) -> tuple:
    """The value with these (radical key, (numerator, denominator)) items
    as the pair (scratch form, complex) that ``Scratch.form`` and
    ``Complex.form`` index: one shared pair per value, which no holder
    mutates."""
    cell = dict(items)
    return cell, ExactScalar.from_scratch(cell).to_complex()


# ---------------------------------------------------------------------------
# induction datum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    """Induction datum: discrete part delta in {0,1}^2, continuous lambda.

    This is the one place that fixes lambda's arithmetic: ``lam`` is stored
    as two Fractions when both parts are rational (int or Fraction) and as
    two complex numbers otherwise, and ``exact`` says which.  ``exact``
    takes part in equality and hashing, so an exact and a float character
    never share a cache slot even where their values compare equal.
    ``arith`` is the summation arithmetic that goes with it.
    """

    delta: tuple[int, int]
    lam: tuple
    exact: bool = field(init=False)

    def __post_init__(self):
        delta = tuple(self.delta)
        if not (len(delta) == 2 and delta[0] in (0, 1) and delta[1] in (0, 1)):
            raise ValueError("delta components must be 0 or 1")
        if len(self.lam) != 2:
            raise ValueError("lambda must have two parts, got %r" % (self.lam,))
        exact = all(isinstance(x, (int, Fraction)) for x in self.lam)
        lam = tuple(Fraction(x) if exact else complex(x) for x in self.lam)
        if not exact and not all(math.isfinite(x.real) and math.isfinite(x.imag) for x in lam):
            raise ValueError("lambda parts must be finite, got %r" % (self.lam,))
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "exact", exact)

    @property
    def arith(self):
        """``Scratch`` at rational lambda, ``Complex`` at complex lambda."""
        return Scratch if self.exact else Complex


# ---------------------------------------------------------------------------
# special functions on the closed scalar set
# ---------------------------------------------------------------------------

def pochhammer(a, n: int):
    """Rising factorial (a)^(n) = Gamma(a+n)/Gamma(a), integer n of any sign:
    the product a (a+1) ... (a+n-1), or one over (a-1) (a-2) ... (a+n) when
    n < 0.  Works for Fraction/int (exact), float/complex and epsilon-jet
    arguments alike.
    """
    if n == 0:
        return _one_like(a)
    if isinstance(a, int):
        a = Fraction(a)
    # the product starts from its first factor, so a jet needs no unit
    out, *factors = [a + i for i in range(n)] if n > 0 else [a - i for i in range(1, -n + 1)]
    for f in factors:
        out = out * f
    if n > 0:
        return out
    if out == 0:
        raise PoleError("(%s)^(%d) hits a pole" % (a, n))
    return 1 / out


def _one_like(a):
    """1 in the arithmetic of a: a Fraction beside an exact number, else
    a * 0 + 1 (so a jet stays a jet)."""
    return Fraction(1) if isinstance(a, (int, Fraction)) else a * 0 + 1


# keyed by the argument as given (typed; verify --deep reads 33): the
# operator layer's memos share its values
_GAMMAS_KEPT = 1024


@lru_cache(maxsize=_GAMMAS_KEPT, typed=True)
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
    # half-odd a = k + 1/2: Gamma(k+1/2) = (2k)!/(4^k k!) sqrt(pi), and
    # Gamma(1/2-k) = (-4)^k k!/(2k)! sqrt(pi)
    k = (a.twice - 1) // 2
    if k >= 0:
        q = Fraction(math.factorial(2 * k), 4 ** k * math.factorial(k))
    else:
        q = Fraction((-4) ** -k * math.factorial(-k), math.factorial(-2 * k))
    return ExactScalar(q, 1, 1)


def binomial(n, k: int):
    """Generalized binomial via falling factorials; k a nonnegative integer."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    num = _one_like(n)
    for i in range(k):
        num = num * (n - i)
    return num / math.factorial(k)


def hyp_terms(tops, bots, arg, kmax: int) -> list:
    """The terms prod(tops)^(k)/prod(bots)^(k) * arg^k / k! for k = 0..kmax,
    in the arithmetic of the parameters (Fraction, epsilon jet or complex).

    Once a top parameter reaches 0 every later term is 0; a bottom parameter
    that reaches 0 first raises PoleError.
    """
    terms = [Fraction(1)]
    for k in range(kmax):
        tops_k = [t + k for t in tops]
        # an epsilon jet compares unequal to 0: z + eps + k never vanishes
        if any(f == 0 for f in tops_k):
            return terms + [Fraction(0)] * (kmax - k)
        den = Fraction(k + 1)
        for b in bots:
            d = b + k
            if d == 0:
                raise PoleError("hypergeometric bottom parameter %s hits 0 at k=%d" % (b, k))
            den = den * d
        ratio = arg / den
        for f in tops_k:
            ratio = ratio * f
        terms.append(terms[-1] * ratio)
    return terms


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
    return sum(hyp_terms(tops, bots, arg, kmax))
