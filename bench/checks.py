"""Correctness checks made apart from the program.

Exact values are compared in their coordinates over the radical basis
sqrt(r) * pi^(p/2) * i^k, computed here from the fields of the program's
scalar objects; sums and products are formed by this module's own
arithmetic, never by the program's.  Each check returns a list of error
strings, empty when the result is right.
"""

from __future__ import annotations

import math
from fractions import Fraction

ONE = (1, 0, False)          # radical key of the rationals
REL_TOL = 1e-9               # float path against the exact value


# ---------------------------------------------------------------------------
# radical-basis coordinates
# ---------------------------------------------------------------------------

def coords(x) -> dict:
    """{(r, p, im): Fraction} for an exact scalar of any of the program's
    exact types (ExactScalar, RSum, Cyc8) or a rational.  Cyc8 is read too
    so that the checks still apply if the module layer moves to
    Q(e^{i pi/4}) coefficients (ROADMAP item 2)."""
    if isinstance(x, (int, Fraction)):
        return {ONE: Fraction(x)} if x else {}
    if hasattr(x, "terms"):                       # RSum
        return {k: Fraction(q) for k, q in x.terms.items() if q}
    if hasattr(x, "q") and hasattr(x, "r"):       # ExactScalar
        return {(x.r, x.p, bool(x.im)): Fraction(x.q)} if x.q else {}
    if hasattr(x, "c") and len(x.c) == 4:         # Cyc8: a + b w + c w^2 + d w^3
        a, b, c, d = (Fraction(t) for t in x.c)   # w = (1+i)/sqrt2
        out = {ONE: a, (1, 0, True): c, (2, 0, False): (b - d) / 2, (2, 0, True): (b + d) / 2}
        return {k: q for k, q in out.items() if q}
    raise TypeError("not an exact scalar: %r" % (x,))


def c_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, q in b.items():
        s = out.get(k, 0) + sign * q
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def c_mul(a: dict, b: dict) -> dict:
    """Product; radicands are squarefree, so sqrt(r1) sqrt(r2) =
    g sqrt(r1 r2 / g^2) with g = gcd(r1, r2)."""
    out: dict = {}
    for (r1, p1, i1), q1 in a.items():
        for (r2, p2, i2), q2 in b.items():
            g = math.gcd(r1, r2)
            q = q1 * q2 * g * (-1 if (i1 and i2) else 1)
            out = c_add(out, {((r1 // g) * (r2 // g), p1 + p2, i1 != i2): q})
    return out


def c_complex(a: dict) -> complex:
    return sum((float(q) * math.sqrt(r) * math.pi ** (p / 2) * (1j if im else 1)
                for (r, p, im), q in a.items()), 0j)


def lc_coords(lc: dict) -> dict:
    """A linear combination {basis index: exact scalar} as
    {(index, radical key): Fraction}."""
    out = {}
    for idx, c in lc.items():
        for k, q in coords(c).items():
            out[(idx, k)] = q
    return out


# ---------------------------------------------------------------------------
# module workload
# ---------------------------------------------------------------------------

def casimir_scalar(lam):
    """(lambda1^2 + lambda2^2 - 5)/12, exact for rational lambda."""
    l1, l2 = lam
    if isinstance(l1, complex) or isinstance(l2, complex):
        return (complex(l1) ** 2 + complex(l2) ** 2 - 5) / 12
    return (Fraction(l1) ** 2 + Fraction(l2) ** 2 - 5) / 12


def check_casimir_exact(v, out: dict, scalar: Fraction) -> list:
    want = {(v, ONE): scalar} if scalar else {}
    got = lc_coords(out)
    if got != want:
        extra = sorted(str(k[0]) for k in got if k[0] != v)
        return ["omega2 on %s: diagonal %s, want %s; other terms at %s"
                % (v, {k[1]: q for k, q in got.items() if k[0] == v}, scalar, extra[:3])]
    return []


def check_casimir_float(v, out: dict, scalar: complex, rel_tol: float = REL_TOL) -> list:
    scale = max(1.0, abs(scalar))
    errs = []
    if abs(out.get(v, 0) - scalar) > rel_tol * scale:
        errs.append("omega2 on %s: diagonal %r, want %r" % (v, out.get(v), scalar))
    for k, c in out.items():
        if k != v and abs(c) > rel_tol * scale:
            errs.append("omega2 on %s: term %r at %s" % (v, c, k))
    return errs


def commutator(x: list, y: list) -> list:
    """[X, Y] = X Y - Y X of two 4x4 rational matrices."""
    def mul(a, b):
        return [[sum(a[i][l] * b[l][k] for l in range(4)) for k in range(4)] for i in range(4)]
    xy, yx = mul(x, y), mul(y, x)
    return [[xy[i][k] - yx[i][k] for k in range(4)] for i in range(4)]


def check_bracket(v, xy: dict, yx: dict, br: dict) -> list:
    """dl(X) dl(Y) v - dl(Y) dl(X) v must equal dl([X,Y]) v exactly."""
    diff = c_add(c_add(lc_coords(xy), lc_coords(yx), -1), lc_coords(br), -1)
    if diff:
        return ["bracket on %s: %d terms of dl X dl Y - dl Y dl X - dl [X,Y] survive, e.g. %s"
                % (v, len(diff), next(iter(diff))[0])]
    return []


# ---------------------------------------------------------------------------
# operators workload
# ---------------------------------------------------------------------------

def rising(z: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= z + i
    return out


def long_constant(lam, j: int) -> Fraction:
    """(z_A1)_j (z_A3)_j with z_A1 = (l1-l2+1)/2, z_A3 = (l1+l2+1)/2: the
    per-block constant of the generating-function route (a closed form
    checked over the workload's range, see README)."""
    l1, l2 = Fraction(lam[0]), Fraction(lam[1])
    return rising((l1 - l2 + 1) / 2, j) * rising((l1 + l2 + 1) / 2, j)


def check_constant(ktype, const, lam) -> list:
    j = int(Fraction(str(ktype[0])))
    want = long_constant(lam, j)
    got = coords(const)
    if got != ({ONE: want} if want else {}):
        return ["block %s: per-block constant %s, want %s" % (_kt(ktype), const, want)]
    return []


def _kt(ktype) -> str:
    return "(%s,%s)" % (ktype[0], ktype[1])


def _layout(bm) -> tuple:
    return (tuple(str(m) for m in bm.row_index), tuple(str(m) for m in bm.col_index))


def check_same_block(what: str, a, b) -> list:
    """Two blocks with equal index sets and exactly equal entries."""
    if _layout(a) != _layout(b):
        return ["%s block %s: index sets differ" % (what, _kt(a.ktype))]
    for i, (ra, rb) in enumerate(zip(a.entries, b.entries)):
        for k, (ea, eb) in enumerate(zip(ra, rb)):
            if coords(ea) != coords(eb):
                return ["%s block %s: entry (%s,%s) is %s, want %s"
                        % (what, _kt(a.ktype), a.row_index[i], a.col_index[k], ea, eb)]
    return []


def check_json(bm, back) -> list:
    """The parsed block reproduces the exported exact one: same K-type,
    indices and entries."""
    if (str(back.ktype[0]), str(back.ktype[1])) != (str(bm.ktype[0]), str(bm.ktype[1])):
        return ["json block %s: ktype read back as %s" % (_kt(bm.ktype), _kt(back.ktype))]
    if _layout(back) != _layout(bm):
        return ["json block %s: index sets differ" % _kt(bm.ktype)]
    for i, (ra, rb) in enumerate(zip(bm.entries, back.entries)):
        for k, (ea, eb) in enumerate(zip(ra, rb)):
            if coords(ea) != coords(eb):
                return ["json block %s: entry (%d,%d) read back as %r, written %r"
                        % (_kt(bm.ktype), i, k, eb, ea)]
    return []


def block_coords(bm) -> list:
    return [[coords(e) for e in row] for row in bm.entries]


def coords_matmul(a: list, b: list) -> list:
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for k in range(p):
            acc: dict = {}
            for l in range(m):
                if a[i][l] and b[l][k]:
                    acc = c_add(acc, c_mul(a[i][l], b[l][k]))
            row.append(acc)
        out.append(row)
    return out


def check_identity(what: str, ktype, factors: list) -> list:
    """The product of the blocks in ``factors`` (left to right) is exactly
    the identity."""
    prod = block_coords(factors[0])
    for f in factors[1:]:
        if _layout(f)[0] != _layout(factors[0])[1]:
            return ["%s block %s: factor index sets do not chain" % (what, _kt(ktype))]
        prod = coords_matmul(prod, block_coords(f))
    for i, row in enumerate(prod):
        for k, e in enumerate(row):
            if e != ({ONE: Fraction(1)} if i == k else {}):
                return ["%s block %s: product entry (%d,%d) is %s, want %d"
                        % (what, _kt(ktype), i, k, e, int(i == k))]
    return []


def check_float_block(fbm, ebm, rel_tol: float = REL_TOL) -> list:
    """Float-path block within rel_tol * max(1, |exact|) of the exact block."""
    if _layout(fbm) != _layout(ebm):
        return ["complex block %s: index sets differ" % _kt(ebm.ktype)]
    for i, (rf, re_) in enumerate(zip(fbm.entries, ebm.entries)):
        for k, (f, e) in enumerate(zip(rf, re_)):
            ev = c_complex(coords(e))
            if abs(complex(f) - ev) > rel_tol * max(1.0, abs(ev)):
                return ["complex block %s: entry (%d,%d) is %r, exact %r"
                        % (_kt(ebm.ktype), i, k, f, ev)]
    return []
