"""Command-line front end.

Subcommands: ``compute`` (operator blocks to JSON/CSV), ``verify`` (the
invariant suites, run as independent cells in a thread pool), ``ktypes``
(multiplicity table) and ``mellin-check`` (quadrature grid).  Exit codes:
0 success, 1 failed invariant, 2 pole or configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from .exact import (Character, ExactScalar, HalfInt, PoleError, UnsupportedExactInput,
                    half_range)
from . import exact, gkmod, intertwine, laurent, sp4, wigner


def _parse_lambda(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("lambda must be two comma-separated values")
    out = []
    exact_ok = True
    for p in parts:
        p = p.strip()
        try:
            out.append(Fraction(p))
        except ValueError:
            exact_ok = False
            out.append(complex(p.replace("i", "j")))
    if not exact_ok:
        out = [complex(x) for x in out]
    return tuple(out)


def _parse_delta(text: str):
    a, b = text.split(",")
    d = (int(a), int(b))
    if d[0] not in (0, 1) or d[1] not in (0, 1):
        raise ValueError("delta components must be 0 or 1")
    return d


def _seed() -> int:
    env = os.environ.get("SP4_SEED")
    return int(env) if env else random.SystemRandom().randrange(2 ** 31)


# ---------------------------------------------------------------------------
# verify suites: each returns a list of (cell-name, callable -> bool), or the
# reason why it does not apply to the character
# ---------------------------------------------------------------------------

NEEDS_RATIONAL = "needs rational lambda"


def _seeded(seed, name, fn):
    """A cell whose random inputs come from its own generator, seeded from
    (seed, cell name) when it runs, so that the seed pins them at any
    number of jobs."""
    return name, lambda: fn(random.Random("%d:%s" % (seed, name)))


def _cells_wigner(seed, deep):
    cells = []
    import numpy as np

    def jacobi_eq(rng):
        done = 0
        while done < 50:
            n = rng.randrange(0, 11)
            al = Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
            be = Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
            x = Fraction(rng.randrange(-9, 10), rng.choice([2, 3, 4, 5]))
            try:
                a = wigner.jacobi_sum(n, al, be, x)
                b = wigner.jacobi_hyp(n, al, be, x)
            except PoleError:
                continue   # the two definitions degenerate on different sets
            done += 1
            if a != b:
                return False
        return True
    cells.append(_seeded(seed, "jacobi-sum-vs-hyp", jacobi_eq))

    def d_vs_jacobi(rng):
        for tj in range(0, 11):
            j = HalfInt(tj)
            for m1 in half_range(-j, j):
                for m2 in half_range(-j, j):
                    th = rng.uniform(0.2, math.pi - 0.2)
                    a = wigner.little_d(j, m1, m2, th)
                    b = wigner.wigner_via_jacobi(j, m1, m2, th)
                    if abs(a - b) > 1e-12 * max(1.0, abs(a)):
                        return False
        return True
    cells.append(_seeded(seed, "little-d-vs-jacobi", d_vs_jacobi))

    def unitary_mult(rng):
        jmax = 3
        for _ in range(6):
            ang1 = [rng.uniform(-3, 3) for _ in range(4)]
            ang2 = [rng.uniform(-3, 3) for _ in range(4)]
            u1 = wigner.su2_matrix(*ang1)
            u2 = wigner.su2_matrix(*ang2)
            for tj in range(0, 2 * jmax + 1):
                j = HalfInt(tj)
                n = HalfInt(tj % 2)
                d1 = wigner.wigner_D_matrix(j, n, u1)
                d2 = wigner.wigner_D_matrix(j, n, u2)
                d12 = wigner.wigner_D_matrix(j, n, u1 @ u2)
                if np.abs(d1 @ d1.conj().T - np.eye(tj + 1)).max() > 1e-10:
                    return False
                if np.abs(d1 @ d2 - d12).max() > 1e-10:
                    return False
        return True
    cells.append(_seeded(seed, "unitarity-multiplicativity", unitary_mult))

    def cg_product(rng):
        for _ in range(20):
            ang = [rng.uniform(-3, 3) for _ in range(4)]
            u = wigner.su2_matrix(*ang)
            ea = wigner.EulerAngles(*wigner.euler_from_u2(u))
            tj = rng.randrange(0, 7)
            j1 = HalfInt(tj)
            n1 = HalfInt(tj % 2)
            m11 = HalfInt(rng.randrange(-tj, tj + 1, 2))
            m12 = HalfInt(rng.randrange(-tj, tj + 1, 2))
            idx1 = wigner.WignerIndex.of(j1, n1, m11, m12)
            idx2 = wigner.WignerIndex.of(1, 1, rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1]))
            lhs = wigner.wigner_D(idx1, ea) * wigner.wigner_D(idx2, ea)
            rhs = 0j
            for tgt, c in wigner.product_expand(idx1, idx2).items():
                rhs += c.to_complex() * wigner.wigner_D(tgt, ea)
            if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs)):
                return False
        return True
    cells.append(_seeded(seed, "cg-product-expansion", cg_product))
    return cells


def _cells_mn(deep):
    jmax = 6 if deep else 3

    def run(tj):
        def f():
            m, n = intertwine.mn_matrices(HalfInt(tj))
            return m.matmul(n).is_identity()
        return f
    return [("mn-inverse-j=%s" % (HalfInt(tj),), run(tj)) for tj in range(0, 2 * jmax + 1)]


def _cells_closed_form(deep):
    jmax = 4 if deep else 3
    zs = [Fraction(3, 2), Fraction(5, 2), Fraction(7, 2), Fraction(9, 2), Fraction(11, 2)]

    def run(j):
        def f():
            for m1 in range(-j, j + 1):
                for m4 in range(-j, j + 1):
                    if (m1 - m4) % 2:
                        continue
                    for z in zs:
                        if intertwine.s_entry_3f2(j, 0, m1, m4, z) != intertwine.s_entry_sum(j, 0, m1, m4, z):
                            return False
            return True
        return f
    return [("closed-form-j=%d" % j, run(j)) for j in range(0, jmax + 1)]


def _cells_parity(deep):
    jmax = 4 if deep else 3

    def run(j):
        def f():
            z = Fraction(5, 2)
            for m3 in range(-j, j + 1):
                for m2 in range(-j, j + 1):
                    if (2 * j + m3 - m2) % 2 == 0:
                        continue
                    if not intertwine.s_entry_sum(j, 0, m3, m2, z).is_zero():
                        return False
            return True
        return f
    return [("parity-vanishing-j=%d" % j, run(j)) for j in range(1, jmax + 1)]


def _cells_inversion(deep):
    jmax = 4 if deep else 3
    zs = [Fraction(7, 2), Fraction(5, 2), Fraction(11, 3)]
    cells = []
    for d in ((0, 0), (1, 1)):
        for j in range(0, jmax + 1):
            n = j % 2 if d == (0, 0) else (j + 1) % 2

            def f(j=j, n=n, d=d):
                return all(intertwine.inversion_check(j, n, d, z) for z in zs)
            cells.append(("inversion-j=%d-delta=%d%d" % (j, d[0], d[1]), f))
    return cells


def _cells_hg(deep):
    jmax = 3 if deep else 2
    zs = [Fraction(3, 2), Fraction(5, 2), Fraction(7, 2), Fraction(9, 2), Fraction(11, 2)]

    def run(j):
        def f():
            for m1 in range(-j, j + 1):
                for m2 in range(-j, j + 1):
                    if (m1 - m2) % 2:
                        continue
                    for z in zs:
                        s = intertwine.s_norm(j, 0, m1, m2, z)
                        if intertwine.hg_entry_ct("H", j, m1, m2, z) != s:
                            return False
                        if intertwine.hg_entry_ct("G", j, m1, m2, z) != s:
                            return False
            return True
        return f
    return [("hg-genfun-j=%d" % j, run(j)) for j in range(0, jmax + 1)]


def _cells_genfun(deep, chi):
    jmax = 3 if deep else 2
    cells = []
    if not chi.is_exact():
        return NEEDS_RATIONAL
    if chi.delta not in ((0, 0), (1, 1)):
        return cells
    for j in range(0, jmax + 1):
        for n in (j % 2, (j + 1) % 2) if chi.delta == (0, 0) else ((j + 1) % 2, j % 2):
            if not gkmod.m_set(j, n, chi.delta):
                continue

            def f(j=j, n=n):
                gm, _c = intertwine.genfun_vs_product((j, n), chi)
                pm = intertwine.long_operator_product((j, n), chi)
                return all(gm.entries[i][k] == pm.entries[i][k]
                           for i in range(len(gm.row_index)) for k in range(len(gm.col_index)))
            cells.append(("genfun-product-j=%d-n=%d" % (j, n), f))
    return cells


def _cells_casimir(deep, chi):
    """Omega2 acts by hc_omega2(lambda): exactly at rational lambda, and on
    the float path to 1e-9 * max(1, |scalar|) at complex lambda."""
    jmax = 4 if deep else 3
    exact = chi.is_exact()
    scalar = sp4.hc_omega2(chi.lam_frac if exact else tuple(complex(x) for x in chi.lam))
    expect, zero = (gkmod.RSum.of(ExactScalar.of(scalar)), gkmod.RSum()) if exact else (scalar, 0j)
    tol = 1e-9 * max(1.0, abs(scalar))

    def good(c, want):
        return c == want if exact else abs(c - want) <= tol

    def run(j, n):
        def f():
            for m2 in gkmod.m_set(j, n, chi.delta):
                for m1 in half_range(HalfInt.of(-j), HalfInt.of(j)):
                    v = wigner.WignerIndex.of(j, n, m1, m2)
                    out = gkmod.omega2_action(v, chi)
                    if not good(out.get(v, zero), expect):
                        return False
                    if not all(good(c, zero) for k, c in out.items() if k != v):
                        return False
            return True
        return f
    cells = []
    for j in range(0, jmax + 1):
        for n in range(-jmax, jmax + 1):
            if gkmod.ktype_allowed(j, n, chi.delta) and gkmod.m_set(j, n, chi.delta):
                cells.append(("casimir-j=%d-n=%d" % (j, n), run(j, n)))
    return cells


def _cells_bracket(seed, deep, chi):
    if not chi.is_exact():
        return NEEDS_RATIONAL
    npairs = 20 if deep else 8
    labels = ["H1", "H2"] + list(sp4.ALL_ROOTS)

    def random_elem(rng):
        x = sp4.GMat.zero()
        for lab in rng.sample(labels, 4):
            x = x + sp4.chevalley(lab).scale(sp4.Cyc8.of(Fraction(rng.randrange(-3, 4))))
        return x

    def f(rng):
        x, y = random_elem(rng), random_elem(rng)
        br = sp4.bracket(x, y)
        one = gkmod.RSum.of(1)
        for tj in range(0, 5):
            j = tj // 2
            n = tj % 2
            if not gkmod.m_set(j, n, chi.delta):
                continue
            for m2 in gkmod.m_set(j, n, chi.delta):
                v = wigner.WignerIndex.of(j, n, j // 2, m2)
                lhs = gkmod.lc_add(
                    gkmod.dl_element(x, gkmod.dl_element(y, {v: one}, chi), chi),
                    gkmod.lc_scale(gkmod.dl_element(y, gkmod.dl_element(x, {v: one}, chi), chi),
                                   gkmod.RSum.of(-1)))
                rhs = gkmod.dl_element(br, {v: one}, chi)
                if gkmod.lc_add(lhs, gkmod.lc_scale(rhs, gkmod.RSum.of(-1))):
                    return False
        return True
    return [_seeded(seed, "bracket-pair-%d" % i, f) for i in range(npairs)]


def _cells_iwasawa(seed):
    cells = []
    for simple in ("a1", "a2"):
        def exact_cell(simple=simple):
            for t in (Fraction(0), Fraction(3, 4), Fraction(5, 12), Fraction(8, 15)):
                k, h, chi_n = sp4.iwasawa_sl2(simple, t)
                lhs = sp4.exp_nilpotent(sp4.chevalley("-" + simple).scale(sp4.Cyc8.of(t)))
                if not (k @ h @ chi_n == lhs):
                    return False
            return True
        cells.append(("iwasawa-exact-%s" % simple, exact_cell))

        def float_cell(rng, simple=simple):
            import numpy as np
            from scipy.linalg import expm
            for _ in range(10):
                t = rng.uniform(-2, 2)
                k, h, chi_n = sp4.iwasawa_sl2(simple, t)
                tgt = expm(t * sp4.chevalley("-" + simple).to_numpy().real)
                if np.abs(k @ h @ chi_n - tgt).max() > 1e-12:
                    return False
            return True
        cells.append(_seeded(seed, "iwasawa-float-%s" % simple, float_cell))
    cells.append(("cayley", sp4.cayley_check))
    return cells


# (z, m) points of the inverse-Mellin quadrature check
MELLIN_GRID = [(z, m) for z in (1.0, 1.5, 2.0, 2.5)
               for m in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))]


def _cells_mellin():
    def run(z, m):
        return lambda: intertwine.mellin_numeric_check(z, m)
    return [("mellin-z=%s-m=%s" % (z, m), run(z, m)) for z, m in MELLIN_GRID]


def cmd_verify(args) -> int:
    seed = _seed()
    print("sp4ps verify  (seed %d)" % seed)
    chi = Character(args.delta, args.lam)
    deep = args.deep
    suites = [
        ("wigner", _cells_wigner(seed, deep)),
        ("mn-inverse", _cells_mn(deep)),
        ("closed-form", _cells_closed_form(deep)),
        ("parity", _cells_parity(deep)),
        ("inversion", _cells_inversion(deep)),
        ("hg", _cells_hg(deep)),
        ("genfun", _cells_genfun(deep, chi)),
        ("casimir", _cells_casimir(deep, chi)),
        ("bracket", _cells_bracket(seed, deep, chi)),
        ("iwasawa", _cells_iwasawa(seed)),
        ("mellin", _cells_mellin()),
    ]
    t0 = time.time()
    failures = 0
    total = 0
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for name, cells in suites:
            if isinstance(cells, str):
                print("  %-12s skipped (%s)" % (name, cells))
                continue
            t_suite = time.time()
            total += len(cells)
            bad = [r for r in pool.map(lambda c: _run_cell(c), cells) if r is not None]
            failures += len(bad)
            status = "pass" if not bad else "FAIL(%s)" % ",".join(bad[:3])
            print("  %-12s %3d cells  %s  (%.1fs)" % (name, len(cells), status, time.time() - t_suite))
    print("%d/%d cells passed in %.1fs" % (total - failures, total, time.time() - t0))
    return 0 if failures == 0 else 1


def _run_cell(cell):
    """None if the cell passes; else its name, with the exception's type and
    message if it raised."""
    name, fn = cell
    try:
        return None if fn() else name
    except Exception as exc:
        return "%s: %s: %s" % (name, type(exc).__name__, exc)


def cmd_ktypes(args) -> int:
    rows = gkmod.ktypes(args.delta, args.jmax, args.nmax)
    print("j     n     multiplicity   m-set")
    for j, n, mult in rows:
        ms = gkmod.m_set(j, n, args.delta)
        print("%-5s %-5s %-13d %s" % (j, n, mult, "{" + ",".join(str(m) for m in ms) + "}"))
    return 0


def cmd_compute(args) -> int:
    chi = Character(args.delta, args.lam)
    kind = args.kind
    if kind not in intertwine.KINDS:
        raise ValueError("kind must be one of %s" % (intertwine.KINDS,))
    blocks = []
    for (j, n, _mult) in gkmod.ktypes(args.delta, args.jmax, args.nmax):
        if kind == "LONG":
            bm = intertwine.long_operator_product((j, n), chi)
        elif kind == "LONG_GENFUN":
            bm, _c = intertwine.genfun_vs_product((j, n), chi, order=args.trunc_order)
        else:
            bm = intertwine.simple_operator(kind, (j, n), chi)
        blocks.append(bm)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for bm in blocks:
        j, n = bm.ktype
        if args.format == "json":
            text = intertwine.block_to_json(bm, chi, kind)
            name = "block_%s_%s.json" % (str(j).replace("/", "o"), str(n).replace("/", "o"))
        else:
            text = intertwine.block_to_csv(bm)
            name = "block_%s_%s.csv" % (str(j).replace("/", "o"), str(n).replace("/", "o"))
        if args.out:
            with open(os.path.join(args.out, name), "w") as fh:
                fh.write(text)
        else:
            print(text)
    if args.out:
        print("wrote %d blocks to %s" % (len(blocks), args.out))
    return 0


def cmd_mellin(args) -> int:
    ok = True
    for z, m in MELLIN_GRID:
        good = intertwine.mellin_numeric_check(z, m)
        ok = ok and good
        print("z=%-4s m=%-4s %s" % (z, m, "ok" if good else "FAIL"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sp4ps", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, lam_default="9/2,5/2"):
        p.add_argument("--delta", type=_parse_delta, default=(0, 0),
                       help="discrete parameter, e.g. 0,0")
        p.add_argument("--lambda", dest="lam", type=_parse_lambda, default=_parse_lambda(lam_default),
                       help="continuous parameter: rationals p/q,p/q or complex re+imi")
        p.add_argument("--jmax", type=Fraction, default=Fraction(2))
        p.add_argument("--nmax", type=Fraction, default=Fraction(2))

    pv = sub.add_parser("verify", help="run the invariant suites")
    common(pv)
    pv.add_argument("--deep", action="store_true", help="raise bounds to j<=4/6 per suite")
    pv.add_argument("--jobs", type=int, default=4)
    pv.set_defaults(func=cmd_verify)

    pk = sub.add_parser("ktypes", help="K-type multiplicity table")
    common(pk)
    pk.set_defaults(func=cmd_ktypes)

    pc = sub.add_parser("compute", help="compute operator blocks")
    common(pc)
    pc.add_argument("--kind", default="LONG", help="|".join(intertwine.KINDS))
    pc.add_argument("--out", default=None, help="output directory")
    pc.add_argument("--format", choices=("json", "csv"), default="json")
    pc.add_argument("--trunc-order", dest="trunc_order", type=int, default=None)
    pc.set_defaults(func=cmd_compute)

    pm = sub.add_parser("mellin-check", help="quadrature vs Q on the grid")
    pm.set_defaults(func=cmd_mellin)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PoleError as exc:
        print("pole error: %s" % exc, file=sys.stderr)
        return 2
    except UnsupportedExactInput as exc:
        print("unsupported exact input: %s; pass lambda as complex numbers "
              "such as 4.5+0i to use the float path" % exc, file=sys.stderr)
        return 2
    except (ValueError, laurent.TruncationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
