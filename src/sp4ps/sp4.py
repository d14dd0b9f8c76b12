"""Concrete 4x4 realization of sp(4,R).

Exact matrices live over Q(w) with w = exp(i*pi/4) (an 8th root of unity),
which contains i and sqrt(2) and therefore every entry produced by the
Chevalley basis, the u(2) embedding, Weyl reflections, Cayley transforms
and Iwasawa factors at Pythagorean parameters.  All matrix exponentials are
closed-form (nilpotent series or rotation formulas), never generic series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction



# ---------------------------------------------------------------------------
# Q(e^{i pi/4}) arithmetic
# ---------------------------------------------------------------------------

class Cyc8:
    """a + b*w + c*w^2 + d*w^3 with w = exp(i pi/4), w^4 = -1."""

    __slots__ = ("c",)

    def __init__(self, a=0, b=0, c=0, d=0):
        self.c = (Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @staticmethod
    def of(x) -> "Cyc8":
        if isinstance(x, Cyc8):
            return x
        return Cyc8(Fraction(x))

    def __add__(self, other):
        o = Cyc8.of(other)
        return Cyc8(*(x + y for x, y in zip(self.c, o.c)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc8(*(-x for x in self.c))

    def __sub__(self, other):
        return self + (-Cyc8.of(other))

    def __rsub__(self, other):
        return Cyc8.of(other) + (-self)

    def __mul__(self, other):
        o = Cyc8.of(other)
        out = [Fraction(0)] * 4
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            for k, b in enumerate(o.c):
                if b == 0:
                    continue
                e = i + k
                if e >= 4:
                    out[e - 4] -= a * b
                else:
                    out[e] += a * b
        return Cyc8(*out)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.c)

    def __eq__(self, other):
        return self.c == Cyc8.of(other).c

    def __hash__(self):
        return hash(self.c)

    def to_complex(self) -> complex:
        w = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        return sum(float(x) * w ** k for k, x in enumerate(self.c))

    def real_rational(self) -> Fraction:
        """The value as a plain rational, if it is one."""
        if any(x != 0 for x in self.c[1:]):
            raise ValueError("%s is not rational" % (self,))
        return self.c[0]

    def __repr__(self):
        return "Cyc8%r" % (tuple(str(x) for x in self.c),)


CY_I = Cyc8(0, 0, 1, 0)
CY_SQRT2 = Cyc8(0, 1, 0, -1)
CY_INV_SQRT2 = Cyc8(0, Fraction(1, 2), 0, Fraction(-1, 2))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GMat:
    """4x4 matrix over Q(e^{i pi/4})."""

    rows: tuple

    @staticmethod
    def build(entries) -> "GMat":
        return GMat(tuple(tuple(Cyc8.of(x) for x in row) for row in entries))

    @staticmethod
    def zero() -> "GMat":
        return GMat.build([[0] * 4 for _ in range(4)])

    @staticmethod
    def identity() -> "GMat":
        return GMat.build([[1 if i == k else 0 for k in range(4)] for i in range(4)])

    def __add__(self, other):
        return GMat(tuple(tuple(a + b for a, b in zip(r1, r2))
                          for r1, r2 in zip(self.rows, other.rows)))

    def __sub__(self, other):
        return GMat(tuple(tuple(a - b for a, b in zip(r1, r2))
                          for r1, r2 in zip(self.rows, other.rows)))

    def __neg__(self):
        return GMat(tuple(tuple(-a for a in r) for r in self.rows))

    def scale(self, c) -> "GMat":
        c = Cyc8.of(c)
        return GMat(tuple(tuple(c * a for a in r) for r in self.rows))

    def __matmul__(self, other):
        n = 4
        out = []
        for i in range(n):
            row = []
            for k in range(n):
                acc = Cyc8()
                for l in range(n):
                    a, b = self.rows[i][l], other.rows[l][k]
                    if not (a.is_zero() or b.is_zero()):
                        acc = acc + a * b
                row.append(acc)
            out.append(tuple(row))
        return GMat(tuple(out))

    def transpose(self) -> "GMat":
        return GMat(tuple(tuple(self.rows[k][i] for k in range(4)) for i in range(4)))

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def __eq__(self, other):
        return isinstance(other, GMat) and (self - other).is_zero()

    def to_numpy(self):
        import numpy as np
        return np.array([[a.to_complex() for a in r] for r in self.rows])

    def entry(self, i, k) -> Cyc8:
        return self.rows[i][k]


def bracket(x: GMat, y: GMat) -> GMat:
    return (x @ y) - (y @ x)


def _e(i, k) -> GMat:
    return GMat.build([[1 if (a, b) == (i, k) else 0 for b in range(4)] for a in range(4)])


J_SYMPL = GMat.build([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])


def in_sp4(x: GMat) -> bool:
    """X^t J + J X = 0."""
    return ((x.transpose() @ J_SYMPL) + (J_SYMPL @ x)).is_zero()


def is_symplectic(g: GMat) -> bool:
    """g^t J g = J."""
    return (g.transpose() @ J_SYMPL @ g) == J_SYMPL


def symplectic_inverse(g: GMat) -> GMat:
    """g^{-1} = -J g^t J for symplectic g."""
    return (J_SYMPL @ g.transpose() @ J_SYMPL).scale(-1)


# ---------------------------------------------------------------------------
# Chevalley basis and u(2) generators
# ---------------------------------------------------------------------------

POS_ROOTS = ("a1", "a2", "a1+a2", "2a1+a2")
ALL_ROOTS = POS_ROOTS + tuple("-" + r for r in POS_ROOTS)

_CHEV_POS = {
    "a1": _e(0, 1) - _e(3, 2),
    "a2": _e(1, 3),
    "a1+a2": _e(1, 2) + _e(0, 3),
    "2a1+a2": _e(0, 2),
}

H1 = _e(0, 0) - _e(2, 2)
H2 = _e(1, 1) - _e(3, 3)


def chevalley(label: str) -> GMat:
    """Root vector X_alpha (negatives are transposes), or H1/H2."""
    if label in ("H1", "H2"):
        return H1 if label == "H1" else H2
    if label.startswith("-"):
        return _CHEV_POS[label[1:]].transpose()
    return _CHEV_POS[label]


def random_element(rng) -> GMat:
    """A random element of sp(4,R): four distinct vectors of the Chevalley
    basis (H1, H2 and the root vectors), each with an integer coefficient
    in [-3, 3]."""
    x = GMat.zero()
    for lab in rng.sample(["H1", "H2"] + list(ALL_ROOTS), 4):
        x = x + chevalley(lab).scale(Cyc8.of(Fraction(rng.randrange(-3, 4))))
    return x


def root_on_h(label: str) -> tuple[int, int]:
    """alpha as a linear functional (c1, c2) with alpha(t1 H1 + t2 H2) = c1 t1 + c2 t2."""
    base = {"a1": (1, -1), "a2": (0, 2), "a1+a2": (1, 1), "2a1+a2": (2, 0)}
    if label.startswith("-"):
        c = base[label[1:]]
        return (-c[0], -c[1])
    return base[label]


def u2_generators() -> tuple[GMat, GMat, GMat, GMat]:
    """U0..U3, the generators of k identified with gamma_0..gamma_3."""
    half = Fraction(1, 2)
    u0 = GMat.build([[0, 0, half, 0], [0, 0, 0, half], [-half, 0, 0, 0], [0, -half, 0, 0]])
    u1 = GMat.build([[0, 0, 0, half], [0, 0, half, 0], [0, -half, 0, 0], [-half, 0, 0, 0]])
    u2 = GMat.build([[0, half, 0, 0], [-half, 0, 0, 0], [0, 0, 0, half], [0, 0, -half, 0]])
    u3 = GMat.build([[0, 0, half, 0], [0, 0, 0, -half], [-half, 0, 0, 0], [0, half, 0, 0]])
    return u0, u1, u2, u3


# noncompact root vectors v_beta of (p_C), and the normalized u_beta
def v_beta(m_beta: int, n_beta: int) -> GMat:
    """v for the noncompact root with weight (m_beta, n_beta)."""
    half = Cyc8(Fraction(1, 2))
    ih = CY_I * half
    s = n_beta
    if (m_beta, n_beta) in ((1, 1), (-1, -1)):     # +-(2b1+b2)
        x = chevalley("2a1+a2") + chevalley("2a1+a2").transpose()
        return H1.scale(half) + x.scale(ih if s > 0 else -ih)
    if (m_beta, n_beta) in ((-1, 1), (1, -1)):     # +-b2
        x = chevalley("a2") + chevalley("a2").transpose()
        return H2.scale(half) + x.scale(ih if s > 0 else -ih)
    if (m_beta, n_beta) in ((0, 1), (0, -1)):      # +-(b1+b2)
        x12 = chevalley("a1+a2") + chevalley("a1+a2").transpose()
        x1 = chevalley("a1") + chevalley("a1").transpose()
        return x12.scale(half) + x1.scale(-ih if s > 0 else ih)
    raise ValueError("no noncompact root with weight (%s,%s)" % (m_beta, n_beta))


def u_beta(m_beta: int, n_beta: int) -> GMat:
    """Normalized p_C weight vector: sqrt2*i*v for the +-b2, +-(2b1+b2)
    family, v itself for +-(b1+b2)."""
    v = v_beta(m_beta, n_beta)
    if m_beta == 0:
        return v
    return v.scale(CY_SQRT2 * CY_I)


# ---------------------------------------------------------------------------
# closed-form exponentials
# ---------------------------------------------------------------------------

def exp_nilpotent(x: GMat) -> GMat:
    """exp of a nilpotent matrix by its (finite) series."""
    out = GMat.identity()
    term = GMat.identity()
    for k in range(1, 5):
        term = (term @ x).scale(Fraction(1, k))
        if term.is_zero():
            return out
        out = out + term
    if not (term @ x).is_zero():
        raise ValueError("matrix is not nilpotent")
    return out


def _rotation(simple: str, cos, sin) -> GMat:
    """exp(theta K) = (I-P) + cos P + sin K for K = X - X^t of a simple
    root: K = 2 U2 with K^2 = -I for a1, and K^2 = -P_{24} for a2."""
    if simple not in ("a1", "a2"):
        raise ValueError("simple root must be 'a1' or 'a2'")
    x = chevalley(simple)
    p = GMat.identity() if simple == "a1" else _e(1, 1) + _e(3, 3)
    return (GMat.identity() - p) + p.scale(Cyc8.of(cos)) + (x - x.transpose()).scale(Cyc8.of(sin))


def weyl_reflection(simple: str) -> GMat:
    """w_{a1} = exp(pi U2), w_{a2} = exp((pi/2)(U0-U3)): the rotations by
    the angle pi/2; both closed-form."""
    return _rotation(simple, 0, 1)


# ---------------------------------------------------------------------------
# Weyl action on lambda
# ---------------------------------------------------------------------------

def weyl_on_lambda(word, lam):
    """Apply a word of simple reflections to (lambda1, lambda2); the word
    composes like functions (rightmost reflection acts first)."""
    l1, l2 = lam
    for s in reversed(list(word)):
        if s == "a1":
            l1, l2 = l2, l1
        elif s == "a2":
            l1, l2 = l1, -l2
        else:
            raise ValueError("bad reflection %r" % s)
    return (l1, l2)


# ---------------------------------------------------------------------------
# group-level Iwasawa on SL(2) slices
# ---------------------------------------------------------------------------

def _sqrt_fraction(x: Fraction) -> Fraction:
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        raise ValueError("%s is not a perfect rational square" % x)
    return Fraction(num, den)


def h_alpha(simple: str, v: Fraction) -> GMat:
    """h_alpha(v) = image of diag(v, 1/v) under the SL(2) embedding."""
    v = Fraction(v)
    if simple == "a1":
        return GMat.build([[v, 0, 0, 0], [0, 1 / v, 0, 0], [0, 0, 1 / v, 0], [0, 0, 0, v]])
    if simple == "a2":
        return GMat.build([[1, 0, 0, 0], [0, v, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1 / v]])
    raise ValueError("simple root must be 'a1' or 'a2'")


def chi_alpha(label: str, t) -> GMat:
    """chi_alpha(t) = exp(t X_alpha) (nilpotent, closed form)."""
    return exp_nilpotent(chevalley(label).scale(Cyc8.of(t)))


def iwasawa_sl2(simple: str, t):
    """Factor exp(t X_{-alpha}) = kappa_alpha(t) h_alpha(sqrt(1+t^2))
    chi_alpha(t/(1+t^2)).

    Exact path (t a Fraction with 1+t^2 a perfect square) returns GMats;
    float t returns numpy arrays.
    """
    if isinstance(t, (int, Fraction)):
        t = Fraction(t)
        h2 = 1 + t * t
        s = _sqrt_fraction(h2)          # sqrt(1+t^2)
        # theta = arctan(-t)
        return _rotation(simple, 1 / s, -t / s), h_alpha(simple, s), chi_alpha(simple, t / h2)
    import numpy as np
    from scipy.linalg import expm
    t = float(t)
    x = chevalley(simple).to_numpy().real
    h2 = 1 + t * t
    th = math.atan(-t)
    kappa = expm(th * (x - x.T))
    v = math.sqrt(h2)
    pattern = {"a1": [1, -1, -1, 1], "a2": [0, 1, 0, -1]}[simple]
    ha = np.diag([v ** e for e in pattern])
    chi = expm((t / h2) * x)
    return kappa, ha, chi


def iwasawa_exact_check(simple: str, ts) -> bool:
    """The exact Iwasawa factors multiply back to exp(t X_{-alpha})
    (nilpotent series) at each rational t with 1+t^2 a square."""
    for t in ts:
        k, h, chi_n = iwasawa_sl2(simple, t)
        if not (k @ h @ chi_n == exp_nilpotent(chevalley("-" + simple).scale(Cyc8.of(t)))):
            return False
    return True


def iwasawa_float_check(simple: str, rng, count: int) -> bool:
    """The float Iwasawa factors multiply back to exp(t X_{-alpha})
    (scipy expm) to 1e-12 at `count` random t in [-2, 2]."""
    import numpy as np
    from scipy.linalg import expm
    for _ in range(count):
        t = rng.uniform(-2, 2)
        k, h, chi_n = iwasawa_sl2(simple, t)
        if np.abs(k @ h @ chi_n - expm(t * chevalley("-" + simple).to_numpy().real)).max() > 1e-12:
            return False
    return True


# ---------------------------------------------------------------------------
# Cayley transforms
# ---------------------------------------------------------------------------

def cayley_factor(label: str) -> GMat:
    """exp((pi/4)(conj(v_beta) - v_beta)) for beta in {b2, 2b1+b2}: equals
    exp(-(i pi/4)(X_alpha + X_{-alpha})) with S^2 = P, so closed-form."""
    if label == "b2":
        alpha, p = "a2", _e(1, 1) + _e(3, 3)
    elif label == "2b1+b2":
        alpha, p = "2a1+a2", _e(0, 0) + _e(2, 2)
    else:
        raise ValueError("Cayley factors exist for 'b2' and '2b1+b2'")
    s = chevalley(alpha) + chevalley(alpha).transpose()
    # exp(-i theta S) = (I-P) + cos(theta) P - i sin(theta) S at theta = pi/4
    return (GMat.identity() - p) + p.scale(CY_INV_SQRT2) + s.scale(-CY_I * CY_INV_SQRT2)


def cayley_check() -> bool:
    """Conjugation by the composite Cayley element reproduces the stated
    images of the noncompact root vectors, and the two factors commute."""
    c1, c2 = cayley_factor("b2"), cayley_factor("2b1+b2")
    if not (c1 @ c2 == c2 @ c1):
        return False
    comp = c1 @ c2
    inv = symplectic_inverse(comp)

    def ad(x):
        return comp @ x @ inv

    i = CY_I
    cases = [
        (v_beta(-1, 1), chevalley("a2").scale(i)),            # v_{b2} -> i X_{a2}
        (v_beta(1, 1), chevalley("2a1+a2").scale(i)),         # v_{2b1+b2} -> i X_{2a1+a2}
        (v_beta(0, 1), chevalley("a1+a2")),                   # v_{b1+b2} -> X_{a1+a2}
        (v_beta(1, -1), chevalley("-a2").scale(-i)),          # negatives pick up -i
        (v_beta(-1, -1), chevalley("-2a1+a2").scale(-i)),
        (v_beta(0, -1), chevalley("-a1+a2")),
    ]
    return all(ad(v) == target for v, target in cases)


# ---------------------------------------------------------------------------
# Harish-Chandra images of the Casimirs
# ---------------------------------------------------------------------------

def hc_omega2(lam):
    l1, l2 = lam
    return (l1 * l1 + l2 * l2 - 5) / 12


def hc_omega4(lam):
    l1, l2 = lam
    s = l1 * l1 + l2 * l2
    return (l1 ** 4 + l2 ** 4 + 6 * l1 * l1 * l2 * l2 - 6 * s - 11) / 5184


def omega2_words():
    """The degree-2 Casimir as (coefficient, word of Chevalley labels);
    this is the full expression, root-vector terms included."""
    f = Fraction
    return [
        (f(1, 12), ("H1", "H1")),
        (f(1, 12), ("H2", "H2")),
        (f(4, 12), ("H1",)),
        (f(2, 12), ("H2",)),
        (f(2, 12), ("-a1", "a1")),
        (f(4, 12), ("-a2", "a2")),
        (f(2, 12), ("-a1+a2", "a1+a2")),
        (f(4, 12), ("-2a1+a2", "2a1+a2")),
    ]


# ---------------------------------------------------------------------------
# reading Chevalley coordinates off a matrix
# ---------------------------------------------------------------------------

_READ = {
    "H1": (0, 0), "H2": (1, 1),
    "a1": (0, 1), "-a1": (1, 0),
    "a2": (1, 3), "-a2": (3, 1),
    "a1+a2": (1, 2), "-a1+a2": (2, 1),
    "2a1+a2": (0, 2), "-2a1+a2": (2, 0),
}


# the +-1 entries of each Chevalley matrix, as (row, column, is +1)
_SUPPORT = {lab: [(i, k, e.c[0] > 0) for i, row in enumerate(chevalley(lab).rows)
                  for k, e in enumerate(row) if not e.is_zero()]
            for lab in _READ}


def decompose_chevalley(x: GMat) -> dict:
    """Coordinates of x in the basis {H1, H2, X_alpha}; validates that x
    really lies in sp(4) by rebuilding it from the coordinates' supports
    and comparing all 16 entries."""
    coords = {}
    for lab, (i, k) in _READ.items():
        c = x.entry(i, k)
        if not c.is_zero():
            coords[lab] = c
    recon = [[None] * 4 for _ in range(4)]
    for lab, c in coords.items():
        for i, k, plus in _SUPPORT[lab]:
            t = c if plus else -c
            recon[i][k] = t if recon[i][k] is None else recon[i][k] + t
    for row, want in zip(x.rows, recon):
        for a, b in zip(row, want):
            if not (a.is_zero() if b is None else a.c == b.c):
                raise ValueError("matrix is not in the sp(4) span")
    return coords
