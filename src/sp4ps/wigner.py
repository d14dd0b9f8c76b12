"""U(2) compact-group kit: Euler angles, Wigner D-functions, Jacobi
polynomials, Clebsch-Gordan coefficients, and the infinitesimal left/right
actions on matrix coefficients.

Exact evaluation is supported at quarter-turn angles (integer multiples of
pi/2, where sin/cos of half-angles lie in {0, +-1, +-1/sqrt2}); everything
else runs on the complex float path.  The factorial radicals and the
Clebsch-Gordan values are kept by the one memo rule of ``exact``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactScalar, HalfInt, PoleError, _memo, binomial, half_range, hyp_terminating
from .laurent import binom_series, product_coeff


class OutOfRange(ValueError):
    """Clebsch-Gordan target outside the coupled representation."""


# ---------------------------------------------------------------------------
# angles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EulerAngles:
    """Euler angles (zeta, psi, theta, phi).

    Exact angles are Fractions in units of pi; float entries are radians.
    The tuple is exact only if every component is an int or Fraction.
    """

    zeta: object
    psi: object
    theta: object
    phi: object

    @staticmethod
    def pi_units(zeta, psi, theta, phi) -> "EulerAngles":
        return EulerAngles(Fraction(zeta), Fraction(psi), Fraction(theta), Fraction(phi))

    def is_exact(self) -> bool:
        return all(isinstance(a, (int, Fraction)) for a in
                   (self.zeta, self.psi, self.theta, self.phi))

    def radians(self) -> tuple[float, float, float, float]:
        if self.is_exact():
            return tuple(float(a) * math.pi for a in (self.zeta, self.psi, self.theta, self.phi))
        return (float(self.zeta), float(self.psi), float(self.theta), float(self.phi))


_HALF_SQRT2 = ExactScalar(Fraction(1, 2), 2)   # 1/sqrt(2)


# sin(c*pi) at the quarter turns c in [0, 2)
_SIN_PI = {Fraction(0): ExactScalar(0), Fraction(1, 4): _HALF_SQRT2,
           Fraction(1, 2): ExactScalar(1), Fraction(3, 4): _HALF_SQRT2,
           Fraction(1): ExactScalar(0), Fraction(5, 4): -_HALF_SQRT2,
           Fraction(3, 2): ExactScalar(-1), Fraction(7, 4): -_HALF_SQRT2}


def sin_pi(c: Fraction) -> ExactScalar:
    """sin(c*pi) for c a multiple of 1/4."""
    c = Fraction(c) % 2
    if c not in _SIN_PI:
        raise ValueError("sin(%s*pi) is not a quarter-turn value" % c)
    return _SIN_PI[c]


def cos_pi(c: Fraction) -> ExactScalar:
    return sin_pi(Fraction(c) + Fraction(1, 2))


def phase_i(c: Fraction) -> ExactScalar:
    """exp(i*pi*c) for 2c integral, i.e. a fourth root of unity."""
    c = Fraction(c)
    if (2 * c).denominator != 1:
        raise ValueError("exp(i pi %s) is not a fourth root of unity" % c)
    return ExactScalar.i_power(int(2 * c))


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WignerIndex:
    """One Wigner basis function W^{(j,n)}_{m1,m2}."""

    j: HalfInt
    n: HalfInt
    m1: HalfInt
    m2: HalfInt

    @staticmethod
    def of(j, n, m1, m2) -> "WignerIndex":
        idx = WignerIndex(HalfInt.of(j), HalfInt.of(n), HalfInt.of(m1), HalfInt.of(m2))
        if idx.j.twice < 0:
            raise ValueError("negative spin j")
        for m in (idx.m1, idx.m2):
            if abs(m.twice) > idx.j.twice:
                raise ValueError("|m| exceeds j in %s" % (idx,))
            if (idx.j.twice + m.twice) % 2:
                raise ValueError("j+m not an integer in %s" % (idx,))
        return idx

    # dict keys of every linear combination: compare and hash the four
    # integers, not the four HalfInt objects
    def __eq__(self, other):
        if other.__class__ is not WignerIndex:
            return NotImplemented
        return (self.j.twice == other.j.twice and self.n.twice == other.n.twice
                and self.m1.twice == other.m1.twice and self.m2.twice == other.m2.twice)

    def __hash__(self):
        return hash((self.j.twice, self.n.twice, self.m1.twice, self.m2.twice))

    def __str__(self):
        return "W[(%s,%s);%s,%s]" % (self.j, self.n, self.m1, self.m2)


@_memo
def c_factor(j: HalfInt, m: HalfInt) -> ExactScalar:
    """c^j_m = sqrt((j+m)!(j-m)!)."""
    return ExactScalar.sqrt_rational(
        math.factorial((j + m).as_int()) * math.factorial((j - m).as_int()))


# ---------------------------------------------------------------------------
# little d
# ---------------------------------------------------------------------------

def little_d(j, m1, m2, theta):
    """d^{(j)}_{m1,m2}(theta): trigonometric-polynomial sum.

    theta: Fraction (units of pi, must be a multiple of 1/2) for the exact
    path, or a float in radians.  At a quarter turn sin(theta/2) and
    cos(theta/2) are sign * r with one r in {1, 1/sqrt2}, and a + b = 2j in
    every term, so the exact sum is one Fraction times r^{2j}.
    """
    tj, m1, m2 = HalfInt.of(j).twice, HalfInt.of(m1).twice, HalfInt.of(m2).twice
    if (tj + m1) % 2 or (tj + m2) % 2 or max(abs(m1), abs(m2)) > tj:
        raise ValueError("d^(%s)_(%s,%s): need |m| <= j and j+m integral"
                         % (HalfInt(tj), HalfInt(m1), HalfInt(m2)))
    jm1, jm2, d = (tj + m1) // 2, (tj - m2) // 2, (m2 - m1) // 2    # j+m1, j-m2, m2-m1
    fact = [1]
    for k in range(1, tj + 1):
        fact.append(fact[-1] * k)
    # term p: (-1)^(d+p) s^a c^b / ((j+m1-p)! p! (d+p)! (j-m2-p)!), a + b = 2j
    ps = range(max(0, -d), min(jm2, jm1) + 1)
    dens = [fact[jm1 - p] * fact[p] * fact[d + p] * fact[jm2 - p] for p in ps]
    if isinstance(theta, (int, Fraction)):
        s, c = sin_pi(Fraction(theta) / 2), cos_pi(Fraction(theta) / 2)
        r = ExactScalar(1) if s.is_zero() or c.is_zero() else _HALF_SQRT2
        sgn_s, sgn_c = (int((v / r).as_fraction()) for v in (s, c))
        total = sum(Fraction((-1) ** (d + p) * sgn_s ** (d + 2 * p) * sgn_c ** (tj - d - 2 * p), den)
                    for p, den in zip(ps, dens))
        return ExactScalar.of(total) * r ** tj
    s, c = math.sin(float(theta) / 2), math.cos(float(theta) / 2)
    s_pow, c_pow = [s ** a for a in range(tj + 1)], [c ** b for b in range(tj + 1)]
    total = 0 * s           # the float zero, -0.0 at negative s
    for p, den in zip(ps, dens):
        # +-1/den is float(Fraction(+-1, den)), the term's first factor
        total = total + (-1) ** (d + p) / den * s_pow[d + 2 * p] * c_pow[tj - d - 2 * p]
    return total


# (c^j_{m1} c^j_{m2}, its complex value) of wigner_D, one radical of the four
# factorials, keyed by (2j, 2|m1|, 2|m2|) with |m1| <= |m2|, the symmetries
# of the value
@_memo
def _c_pair(tj: int, a: int, b: int) -> tuple:
    f = math.factorial
    cc = ExactScalar.sqrt_rational(f((tj + a) // 2) * f((tj - a) // 2) * f((tj + b) // 2) * f((tj - b) // 2))
    return cc, cc.to_complex()


def wigner_D(idx: WignerIndex, angles: EulerAngles):
    """Full Wigner D-function; ExactScalar at quarter-turn angles, complex
    on the float path."""
    phase = None
    if angles.is_exact():
        theta = Fraction(angles.theta)
        c = idx.n.frac * Fraction(angles.zeta) + idx.m1.frac * Fraction(angles.psi) \
            + idx.m2.frac * Fraction(angles.phi)
        if (2 * c).denominator == 1 and (theta / 2) * 4 % 1 == 0:
            phase = phase_i(c)
    if phase is None:
        z, psi, theta, ph = angles.radians()
        phase = cmath.exp(1j * (float(idx.n) * z + float(idx.m1) * psi + float(idx.m2) * ph))
    a, b = sorted((abs(idx.m1.twice), abs(idx.m2.twice)))
    cc, cc_complex = _c_pair(idx.j.twice, a, b)
    return (cc_complex if isinstance(phase, complex) else cc) * phase * little_d(idx.j, idx.m1, idx.m2, theta)


# ---------------------------------------------------------------------------
# Jacobi polynomials (two definitions)
# ---------------------------------------------------------------------------

def jacobi_sum(n: int, alpha, beta, x):
    """Gamma-prefactor sum definition, rewritten over Pochhammers so every
    term is a finite product:
    sum_m (alpha+m+1)_{n-m} (alpha+beta+n+1)_m / (m! (n-m)!) ((x-1)/2)^m.
    Both Pochhammers are running products over m, O(n) in all.  At a
    Fraction x = 1 + 2P/Q the sum is taken over the one denominator Q^n,
    sum_m c_m P^m Q^{n-m} / Q^n, which is the same Fraction.  PoleError if
    the Gamma prefactor degenerates."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    for arg in (alpha + n + 1, alpha + beta + n + 1):
        if isinstance(arg, (int, Fraction)) and Fraction(arg).denominator == 1 and arg <= 0:
            raise PoleError("degenerate Gamma prefactor at %s" % arg)
    tail = [Fraction(1)]                  # (alpha+m+1)_{n-m}, from m = n down
    for m in range(n, 0, -1):
        tail.append(tail[-1] * (alpha + m))
    coeffs, head = [], Fraction(1)        # head: (alpha+beta+n+1)_m
    for m in range(n + 1):
        coeffs.append(tail[n - m] * head / (math.factorial(m) * math.factorial(n - m)))
        head = head * (alpha + beta + n + 1 + m)
    y = (x - 1) / 2
    if isinstance(y, Fraction):
        p, q = y.numerator, y.denominator
        return sum(c * (p ** m * q ** (n - m)) for m, c in enumerate(coeffs)) / q ** n
    total = 0
    for m, c in enumerate(coeffs):
        total = total + c * y ** m
    return total


def jacobi_hyp(n: int, alpha, beta, x):
    """Hypergeometric definition; x = -1 handled by the reflection value."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if x == -1:
        return binomial(beta + n, n) * (-1) ** n
    arg = (x - 1) / (x + 1)
    f = hyp_terminating([Fraction(-n), -n - beta], [alpha + 1], arg, n)
    return binomial(alpha + n, n) * ((x + 1) / 2) ** n * f


def wigner_via_jacobi(idx_j, m1, m2, theta):
    """little_d through the Jacobi-polynomial expression; interior angles
    only when the sin/cos prefactor exponents are negative."""
    j, m1, m2 = HalfInt.of(idx_j), HalfInt.of(m1), HalfInt.of(m2)
    a = (m1 - m2).as_int()
    b = (m1 + m2).as_int()
    deg = (j - m1).as_int()
    pref_den = math.factorial((j + m2).as_int()) * math.factorial((j - m2).as_int())
    if isinstance(theta, (int, Fraction)):
        s = sin_pi(Fraction(theta) / 2)
        c = cos_pi(Fraction(theta) / 2)
        xc = cos_pi(Fraction(theta))
        if not xc.is_rational():
            raise ValueError("exact path needs cos(theta) rational (theta multiple of pi/2)")
        if (s.is_zero() and a < 0) or (c.is_zero() and b < 0):
            raise ValueError("negative prefactor power at a boundary angle")
        sa = ExactScalar(1) if a == 0 else (ExactScalar(0) if s.is_zero() else s ** a)
        cb = ExactScalar(1) if b == 0 else (ExactScalar(0) if c.is_zero() else c ** b)
        if sa.is_zero() or cb.is_zero():
            return ExactScalar(0)
        # the sum definition never degenerates at Wigner parameters
        # (alpha+n+1 = j-m2+1 > 0, alpha+beta+n+1 = j+m1+1 > 0)
        pval = jacobi_sum(deg, Fraction(a), Fraction(b), xc.as_fraction())
        return sa * cb * ExactScalar.of(Fraction(1, pref_den)) * ExactScalar.of(pval)
    th = float(theta)
    s, c = math.sin(th / 2), math.cos(th / 2)
    # evaluate the polynomial over exact rationals at the binary-exact cos
    # so the alternating sum does not lose absolute precision
    pval = jacobi_sum(deg, Fraction(a), Fraction(b), Fraction(math.cos(th)))
    return s ** a * c ** b / pref_den * float(pval)


# ---------------------------------------------------------------------------
# Clebsch-Gordan (V^j tensor V^1)
# ---------------------------------------------------------------------------

@_memo
def clebsch_gordan_j1(j, m1, m2: int, j0: int) -> ExactScalar:
    """<j+j0, m1+m2 | j, m1, 1, m2> from the nine-entry table."""
    j, m1 = HalfInt.of(j), HalfInt.of(m1)
    if m2 not in (-1, 0, 1) or j0 not in (-1, 0, 1):
        raise OutOfRange("second factor is V^1: m2, j0 in {-1,0,1}")
    if abs(m1.twice) > j.twice:
        raise OutOfRange("|m1| > j")
    J = j + j0
    if J.twice < 0 or (j.twice == 0 and j0 != 1):
        raise OutOfRange("target spin %s does not occur in V^%s (x) V^1" % (J, j))
    if abs((m1 + m2).twice) > J.twice:
        raise OutOfRange("target weight exceeds target spin")
    jf, mf = j.frac, m1.frac
    if j0 == -1:
        den = 2 * jf * (2 * jf + 1)
        if m2 == -1:
            val, sgn = (jf + mf) * (jf + mf - 1) / den, 1
        elif m2 == 0:
            val, sgn = (jf - mf) * (jf + mf) / (jf * (2 * jf + 1)), -1
        else:
            val, sgn = (jf - mf) * (jf - mf - 1) / den, 1
    elif j0 == 0:
        if m2 == 0:
            return mf * ExactScalar.sqrt_rational(Fraction(1) / (jf * (jf + 1)))
        den = 2 * jf * (jf + 1)
        if m2 == -1:
            val, sgn = (jf + mf) * (jf - mf + 1) / den, 1
        else:
            val, sgn = (jf - mf) * (jf + mf + 1) / den, -1
    else:
        den = (2 * jf + 2) * (2 * jf + 1)
        if m2 == -1:
            val, sgn = (jf - mf + 1) * (jf - mf + 2) / den, 1
        elif m2 == 0:
            val, sgn = (jf - mf + 1) * (jf + mf + 1) / ((jf + 1) * (2 * jf + 1)), 1
        else:
            val, sgn = (jf + mf + 1) * (jf + mf + 2) / den, 1
    return sgn * ExactScalar.sqrt_rational(val)


def product_expand(idx1: WignerIndex, idx2: WignerIndex) -> dict:
    """W^{(j1,n1)} * W^{(j2,n2)} as a Clebsch-Gordan sum; only j2 = 1 is
    needed (the p_C action), so that is all we support."""
    if idx2.j.twice != 2:
        raise ValueError("product expansion implemented for j2 = 1 only")
    out = {}
    for j0 in (-1, 0, 1):
        J = idx1.j + j0
        M1, M2 = idx1.m1 + idx2.m1, idx1.m2 + idx2.m2
        if J.twice < 0 or abs(M1.twice) > J.twice or abs(M2.twice) > J.twice:
            continue
        if idx1.j.twice == 0 and j0 != 1:
            continue
        c = clebsch_gordan_j1(idx1.j, idx1.m1, idx2.m1.as_int(), j0) * \
            clebsch_gordan_j1(idx1.j, idx1.m2, idx2.m2.as_int(), j0)
        if not c.is_zero():
            out[WignerIndex.of(J, idx1.n + idx2.n, M1, M2)] = c
    return out


# ---------------------------------------------------------------------------
# infinitesimal actions (right and left regular, u(2) generators)
# ---------------------------------------------------------------------------

_I = ExactScalar.i_power(1)


def dr_gamma(gen: str, idx: WignerIndex) -> dict:
    """Right regular action of gamma_0, gamma_3, gamma_1 +- i gamma_2
    ("g0", "g3", "g+", "g-").  Zero coefficients are never stored."""
    j, n, m1, m2 = idx.j, idx.n, idx.m1, idx.m2
    if gen == "g0":
        return {} if n.twice == 0 else {idx: -_I * ExactScalar.of(n.frac)}
    if gen == "g3":
        return {} if m2.twice == 0 else {idx: -_I * ExactScalar.of(m2.frac)}
    if gen == "g+":
        coef = (j + m2).frac * (j - m2 + 1).frac
        if coef == 0:
            return {}
        return {WignerIndex.of(j, n, m1, m2 - 1): _I * ExactScalar.sqrt_rational(coef)}
    if gen == "g-":
        coef = (j - m2).frac * (j + m2 + 1).frac
        if coef == 0:
            return {}
        return {WignerIndex.of(j, n, m1, m2 + 1): _I * ExactScalar.sqrt_rational(coef)}
    raise ValueError("unknown generator %r" % gen)


def dl_gamma(gen: str, idx: WignerIndex) -> dict:
    j, n, m1, m2 = idx.j, idx.n, idx.m1, idx.m2
    if gen == "g0":
        return {} if n.twice == 0 else {idx: _I * ExactScalar.of(n.frac)}
    if gen == "g3":
        return {} if m1.twice == 0 else {idx: _I * ExactScalar.of(m1.frac)}
    if gen == "g+":
        coef = (j - m1).frac * (j + m1 + 1).frac
        if coef == 0:
            return {}
        return {WignerIndex.of(j, n, m1 + 1, m2): -_I * ExactScalar.sqrt_rational(coef)}
    if gen == "g-":
        coef = (j + m1).frac * (j - m1 + 1).frac
        if coef == 0:
            return {}
        return {WignerIndex.of(j, n, m1 - 1, m2): -_I * ExactScalar.sqrt_rational(coef)}
    raise ValueError("unknown generator %r" % gen)


# ---------------------------------------------------------------------------
# Jacobi generating function check
# ---------------------------------------------------------------------------

def jacobi_genfun_check(alpha: int, beta: int, x, order: int) -> bool:
    """Does (1+(x+1)t/2)^alpha (1+(x-1)t/2)^beta match
    sum_n P^{(alpha-n,beta-n)}_n(x) t^n through the given order?  A
    ValueError where neither Jacobi definition applies."""
    x = Fraction(x)
    f1 = binom_series(alpha, (x + 1) / 2, order)
    f2 = binom_series(beta, (x - 1) / 2, order)
    for nn in range(order + 1):
        # jacobi_sum refuses where its Gamma prefactor has a pole (alpha < 0
        # or nn > alpha + beta), jacobi_hyp where its bottom parameter
        # alpha - nn + 1 reaches 0 before a top one; both refuse exactly at
        # alpha >= 0 > beta, nn > alpha
        a, b = Fraction(alpha - nn), Fraction(beta - nn)
        try:
            expect = jacobi_sum(nn, a, b, x)
        except PoleError:
            try:
                expect = jacobi_hyp(nn, a, b, x)
            except PoleError:
                raise ValueError("neither Jacobi definition applies at n=%d, alpha=%s, beta=%s"
                                 % (nn, a, b)) from None
        if product_coeff(f1, f2, nn) != expect:
            return False
    return True


# ---------------------------------------------------------------------------
# float-path helpers (2x2 matrices, Euler extraction)
# ---------------------------------------------------------------------------

def su2_matrix(z: float, psi: float, th: float, ph: float):
    """The generic U(2) Euler-angle matrix e^{-z g0} e^{-psi g3} e^{-th g2} e^{-ph g3}."""
    import numpy as np
    c, s = math.cos(th / 2), math.sin(th / 2)
    return np.array([
        [cmath.exp(0.5j * (-z - ph - psi)) * c, -cmath.exp(0.5j * (-z + ph - psi)) * s],
        [cmath.exp(0.5j * (-z - ph + psi)) * s, cmath.exp(0.5j * (-z + ph + psi)) * c]])


def euler_from_u2(u) -> tuple[float, float, float, float]:
    """Extract (zeta, psi, theta, phi) from a unitary 2x2 matrix."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    zeta = -cmath.phase(det)
    a = u[0, 0] * cmath.exp(0.5j * zeta)
    b = u[1, 0] * cmath.exp(0.5j * zeta)
    c, s = abs(a), abs(b)
    theta = 2 * math.atan2(s, c)
    if s < 1e-14:
        return zeta, -2 * cmath.phase(a), theta, 0.0
    if c < 1e-14:
        return zeta, 2 * cmath.phase(b), theta, 0.0
    return zeta, cmath.phase(b) - cmath.phase(a), theta, -cmath.phase(b) - cmath.phase(a)


def wigner_D_matrix(j, n, u):
    """Float D-matrix of a unitary 2x2 u, rows/cols ordered -j..j."""
    import numpy as np
    j = HalfInt.of(j)
    z, psi, th, ph = euler_from_u2(u)
    ms = half_range(-j, j)
    ang = EulerAngles(z, psi, th, ph)
    return np.array([[wigner_D(WignerIndex.of(j, n, a, b), ang) for b in ms] for a in ms])


# ---------------------------------------------------------------------------
# checks: two computations compared on the given inputs (verify and the tests
# call these; the tolerances are the ones both use)
# ---------------------------------------------------------------------------

def jacobi_check(rng, count: int) -> bool:
    """jacobi_sum = jacobi_hyp exactly at `count` random points: degree
    n <= 10, rational alpha, beta and x.  A point where a definition
    degenerates (PoleError) is drawn again."""
    done = 0
    while done < count:
        n = rng.randrange(0, 11)
        al = Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
        be = Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
        x = Fraction(rng.randrange(-9, 10), rng.choice([2, 3, 4, 5]))
        try:
            a = jacobi_sum(n, al, be, x)
            b = jacobi_hyp(n, al, be, x)
        except PoleError:
            continue   # the two definitions degenerate on different sets
        done += 1
        if a != b:
            return False
    return True


def little_d_check(cases) -> bool:
    """little_d = wigner_via_jacobi to 1e-12 * max(1, |d|) at each
    (j, m1, m2, theta), theta a float."""
    for j, m1, m2, th in cases:
        a = little_d(j, m1, m2, th)
        if abs(a - wigner_via_jacobi(j, m1, m2, th)) > 1e-12 * max(1.0, abs(a)):
            return False
    return True


def d_matrix_check(rng, count: int, j_max) -> bool:
    """For `count` random pairs u1, u2 in U(2) and every j <= j_max (with
    n = 2j mod 2): D(u1) is unitary and D(u1) D(u2) = D(u1 u2), to 1e-10."""
    import numpy as np
    for _ in range(count):
        u1 = su2_matrix(*[rng.uniform(-3, 3) for _ in range(4)])
        u2 = su2_matrix(*[rng.uniform(-3, 3) for _ in range(4)])
        for tj in range(0, HalfInt.of(j_max).twice + 1):
            j, n = HalfInt(tj), HalfInt(tj % 2)
            d1 = wigner_D_matrix(j, n, u1)
            d2 = wigner_D_matrix(j, n, u2)
            d12 = wigner_D_matrix(j, n, u1 @ u2)
            if np.abs(d1 @ d1.conj().T - np.eye(tj + 1)).max() > 1e-10:
                return False
            if np.abs(d1 @ d2 - d12).max() > 1e-10:
                return False
    return True


def cg_product_check(cases) -> bool:
    """W_idx1 W_idx2 = sum of the product_expand coefficients times W at
    their targets, to 1e-10 * max(1, |lhs|), at each (idx1, idx2, angles)
    with float angles."""
    for idx1, idx2, ea in cases:
        lhs = wigner_D(idx1, ea) * wigner_D(idx2, ea)
        rhs = 0j
        for tgt, c in product_expand(idx1, idx2).items():
            rhs += c.to_complex() * wigner_D(tgt, ea)
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs)):
            return False
    return True
