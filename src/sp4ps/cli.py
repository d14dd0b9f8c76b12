"""Command-line front end.

Subcommands: ``compute`` (operator blocks to JSON/CSV), ``verify`` (the
invariant suites, independent cells run one at a time in this process),
``ktypes`` (multiplicity table) and ``mellin-check`` (quadrature grid).  A
``verify`` cell is a library ``*_check`` function with its inputs, the check
the acceptance criteria and unit tests also run, so its tolerance lives in
the check.  ``compute --out`` writes all of its blocks or none.  Exit
codes: 0 success, 1 failed invariant, 2 pole, unsupported exact input,
degenerate generating-function block or configuration error.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import random
import shutil
import sys
import tempfile
import time
from fractions import Fraction

from .exact import Character, HalfInt, PoleError, UnsupportedExactInput, half_range
from . import gkmod, intertwine, laurent, sp4, wigner


def _parse_lambda(text: str):
    """Two rationals p/q or complex numbers re+imi, in Character's arithmetic."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("lambda must be two comma-separated values")
    out = []
    for p in parts:
        p = p.strip()
        try:
            out.append(Fraction(p))
        except ZeroDivisionError:
            raise ValueError("zero denominator in lambda part %r" % p) from None
        except ValueError:
            out.append(complex(p[:-1] + "j" if p.endswith("i") else p))
    return Character((0, 0), tuple(out)).lam


def _parse_delta(text: str):
    a, b = text.split(",")
    d = (int(a), int(b))
    if d[0] not in (0, 1) or d[1] not in (0, 1):
        raise ValueError("delta components must be 0 or 1")
    return d


def _jobs(text: str) -> int:
    n = int(text) if text.isdecimal() else 0
    if n < 1:
        raise argparse.ArgumentTypeError("must be an integer of at least 1, got %r" % text)
    return n


def _window_bound(text: str) -> Fraction:
    try:
        v = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("must be a nonnegative rational, got %r" % text) from None
    if v < 0:
        raise argparse.ArgumentTypeError("must be at least 0, got %r" % text)
    return v


def _seed() -> int:
    env = os.environ.get("SP4_SEED")
    return int(env) if env else random.SystemRandom().randrange(2 ** 31)


# (z, m) points of the inverse-Mellin quadrature check
MELLIN_GRID = [(z, m) for z in (1.0, 1.5, 2.0, 2.5)
               for m in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))]

NEEDS_RATIONAL = "needs rational lambda"

# (delta, lambda) of the braid cells: exact at delta=(0,0) and (1,1), complex
# at every delta class that has half-integer spins or half-odd Pochhammer
# pairs, where rational lambda has no exact form
BRAID_CHARS = [((0, 0), "7/3,4/5"), ((1, 1), "6,4"), ((0, 1), "3.3+0.4i,0.7-0.2i"),
               ((1, 0), "1.7+0.3i,-0.4+1.1i"), ((1, 1), "2.3+0.7i,0.4-0.2i")]


def _little_d_grid(rng):
    """(j, m1, m2, theta) for every j <= 5, m1 and m2, theta drawn per entry."""
    return [(j, m1, m2, rng.uniform(0.2, math.pi - 0.2))
            for j in map(HalfInt, range(11)) for m1 in half_range(-j, j) for m2 in half_range(-j, j)]


def _cg_cases(rng, count):
    """(idx1, idx2, angles): idx1 of spin j <= 3, idx2 of spin 1, angles of
    a random U(2) element."""
    cases = []
    for _ in range(count):
        u = wigner.su2_matrix(*[rng.uniform(-3, 3) for _ in range(4)])
        ea = wigner.EulerAngles(*wigner.euler_from_u2(u))
        tj = rng.randrange(0, 7)
        idx1 = wigner.WignerIndex.of(HalfInt(tj), HalfInt(tj % 2), HalfInt(rng.randrange(-tj, tj + 1, 2)),
                                     HalfInt(rng.randrange(-tj, tj + 1, 2)))
        idx2 = wigner.WignerIndex.of(1, 1, rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1]))
        cases.append((idx1, idx2, ea))
    return cases


def _suites(seed, deep, chi):
    """The verify suites in order: (suite, cells), or (suite, reason) when
    the suite does not apply to chi.  A cell (name, check, args) passes when
    check(*args) is true.  A cell with random inputs draws them from its own
    generator, seeded from (seed, cell name), so the seed pins them at any
    number of jobs."""
    def seeded(name, check, draw):
        return name, check, draw(random.Random("%d:%s" % (seed, name)))

    jmax = 4 if deep else 3
    zs = [Fraction(3, 2), Fraction(5, 2), Fraction(7, 2), Fraction(9, 2), Fraction(11, 2)]
    inversion_zs = [Fraction(7, 2), Fraction(5, 2), Fraction(11, 3)]
    iwasawa_ts = [Fraction(0), Fraction(3, 4), Fraction(5, 12), Fraction(8, 15)]
    jmax_small = 3 if deep else 2         # the generating-function and braid suites
    rational = chi.exact
    # the K-types with j + n <= 2, 0 <= n <= 1 that delta allows; m1 is j//2
    # at integer j and 1/2 at j = 1/2, 3/2
    bracket_vectors = [wigner.WignerIndex.of(j, n, j.frac - (j.frac + 1) // 2, m2)
                       for j, n, _ in gkmod.ktypes(chi.delta, 2, 1)
                       if 0 <= n.frac and j.frac + n.frac <= 2
                       for m2 in gkmod.m_set(j, n, chi.delta)]
    return [
        ("wigner", [
            seeded("jacobi-sum-vs-hyp", wigner.jacobi_check, lambda rng: (rng, 50)),
            seeded("little-d-vs-jacobi", wigner.little_d_check, lambda rng: (_little_d_grid(rng),)),
            seeded("unitarity-multiplicativity", wigner.d_matrix_check, lambda rng: (rng, 6, 3)),
            seeded("cg-product-expansion", wigner.cg_product_check, lambda rng: (_cg_cases(rng, 20),)),
        ]),
        ("mn-inverse", [("mn-inverse-j=%s" % HalfInt(tj), intertwine.mn_inverse_check, (HalfInt(tj),))
                        for tj in range(0, 2 * (6 if deep else 3) + 1)]),
        ("closed-form", [("closed-form-j=%d" % j, intertwine.closed_form_check, (j, zs))
                         for j in range(0, jmax + 1)]),
        ("parity", [("parity-vanishing-j=%d" % j, intertwine.parity_check, (j, Fraction(5, 2)))
                    for j in range(1, jmax + 1)]),
        ("inversion", [("inversion-j=%d-delta=%d%d" % (j, d[0], d[1]), intertwine.inversion_check,
                        (j, j % 2 if d == (0, 0) else (j + 1) % 2, d, inversion_zs))
                       for d in ((0, 0), (1, 1)) for j in range(0, jmax + 1)]),
        ("braid", [("braid-delta=%d%d-lambda=%s" % (d[0], d[1], lam), intertwine.braid_check,
                    ([(j, n) for j, n, _ in gkmod.ktypes(d, jmax_small, jmax_small)],
                     Character(d, _parse_lambda(lam))))
                   for d, lam in BRAID_CHARS]),
        ("hg", [("hg-genfun-j=%d" % j, intertwine.hg_check, (j, zs)) for j in range(0, jmax_small + 1)]),
        ("genfun", NEEDS_RATIONAL if not rational else [
            ("genfun-product-j=%d-n=%d" % (j, n), intertwine.genfun_check, ((j, n), chi))
            for j in range(0, jmax_small + 1) if chi.delta in ((0, 0), (1, 1))
            for n in ((j % 2, (j + 1) % 2) if chi.delta == (0, 0) else ((j + 1) % 2, j % 2))
            if gkmod.m_set(j, n, chi.delta)]),
        ("casimir", [("casimir-j=%s-n=%s" % (j, n), gkmod.casimir_check,
                      (gkmod.ktype_basis(j, n, chi.delta), chi))
                     for j, n, _ in gkmod.ktypes(chi.delta, jmax, jmax)]),
        ("bracket", NEEDS_RATIONAL if not rational else [
            seeded("bracket-pair-%d" % i, gkmod.bracket_check,
                   lambda rng: (sp4.random_element(rng), sp4.random_element(rng), bracket_vectors, chi))
            for i in range(20 if deep else 8)]),
        ("iwasawa", [
            ("iwasawa-exact-a1", sp4.iwasawa_exact_check, ("a1", iwasawa_ts)),
            seeded("iwasawa-float-a1", sp4.iwasawa_float_check, lambda rng: ("a1", rng, 10)),
            ("iwasawa-exact-a2", sp4.iwasawa_exact_check, ("a2", iwasawa_ts)),
            seeded("iwasawa-float-a2", sp4.iwasawa_float_check, lambda rng: ("a2", rng, 10)),
            ("cayley", sp4.cayley_check, ()),
        ]),
        ("mellin", [("mellin-z=%s-m=%s" % (z, m), intertwine.mellin_numeric_check, (z, m))
                    for z, m in MELLIN_GRID]),
    ]


def cmd_verify(args) -> int:
    # the cells' numeric libraries, imported before the clock starts so that
    # a suite's time is its work
    import numpy, scipy.integrate, scipy.linalg, scipy.special  # noqa: F401
    seed = _seed()
    print("sp4ps verify  (seed %d)" % seed)
    suites = _suites(seed, args.deep, Character(args.delta, args.lam))
    t0 = time.perf_counter()
    failures = unsupported = total = 0
    for name, cells in suites:
        if not cells or isinstance(cells, str):
            print("  %-12s skipped (%s)" % (name, cells or "no cells at delta=%d,%d" % args.delta))
            continue
        t_suite = time.perf_counter()
        total += len(cells)
        results = [r for r in map(_run_cell, cells) if r is not None]
        bad = [text for is_unsup, text in results if not is_unsup]
        unsup = [text for is_unsup, text in results if is_unsup]
        failures += len(bad)
        unsupported += len(unsup)
        parts = []
        if bad:
            parts.append("FAIL(%s)" % ",".join(bad[:3]))
        if unsup:
            parts.append("unsupported(%s)" % ",".join(unsup[:3]))
        status = " ".join(parts) or "pass"
        print("  %-12s %3d cells  %s  (%.1fs)" % (name, len(cells), status, time.perf_counter() - t_suite))
    print("%d/%d cells passed in %.1fs" % (total - failures - unsupported, total, time.perf_counter() - t0)
          + ("; %d unsupported (exact input): pass lambda as complex numbers to use "
             "the float path" % unsupported if unsupported else ""))
    return 1 if failures else 2 if unsupported else 0


def _run_cell(cell):
    """None if the cell passes; else (unsupported, text).  unsupported is
    True when the cell raised UnsupportedExactInput, a value this input has
    no exact form for; text is the cell's name, with the exception's type
    and message if it raised."""
    name, check, args = cell
    try:
        return None if check(*args) else (False, name)
    except UnsupportedExactInput as exc:
        return True, "%s: %s" % (name, exc)
    except Exception as exc:
        return False, "%s: %s: %s" % (name, type(exc).__name__, exc)


def cmd_ktypes(args) -> int:
    rows = gkmod.ktypes(args.delta, args.jmax, args.nmax)
    print("j     n     multiplicity   m-set")
    for j, n, mult in rows:
        ms = gkmod.m_set(j, n, args.delta)
        print("%-5s %-5s %-13d %s" % (j, n, mult, "{" + ",".join(str(m) for m in ms) + "}"))
    return 0


def _cannot_write(out, exc: OSError) -> int:
    """A directory or block file that cannot be written is a usage error: exit 2."""
    print("error: cannot write to %s: %s" % (out, exc), file=sys.stderr)
    return 2


def _write_all(out: str, files: list) -> None:
    """Write each (name, text) of files into the directory out, all or
    nothing.  The texts go to a temporary directory inside out first; then
    each file is renamed into place, a file of the same name moved aside
    until all are in.  An OSError leaves out as it was (the new files
    removed, the old ones back) and is raised."""
    stage = tempfile.mkdtemp(prefix=".sp4ps-", dir=out)
    placed = []                 # (target, the old file's place in stage or None)
    try:
        for name, text in files:
            with open(os.path.join(stage, name), "w") as fh:
                fh.write(text)
        for name, _text in files:
            target, old = os.path.join(out, name), None
            if os.path.isdir(target):       # never moved aside: the stage is deleted
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
            if os.path.lexists(target):
                old = os.path.join(stage, name + ".old")
                os.replace(target, old)
            placed.append((target, old))
            os.replace(os.path.join(stage, name), target)
    except OSError:
        for target, old in reversed(placed):
            if old is not None:
                os.replace(old, target)
            elif os.path.lexists(target):
                os.remove(target)
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def cmd_compute(args) -> int:
    chi = Character(args.delta, args.lam)
    kind = args.kind
    if kind not in intertwine.KINDS:
        raise ValueError("kind must be one of %s" % (intertwine.KINDS,))
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            return _cannot_write(args.out, exc)
    blocks = []
    for (j, n, _mult) in gkmod.ktypes(args.delta, args.jmax, args.nmax):
        t = time.perf_counter()
        if kind == "LONG":
            bm = intertwine.long_operator_product((j, n), chi)
        elif kind == "LONG_GENFUN":
            bm, _c = intertwine.genfun_vs_product((j, n), chi)
        else:
            bm = intertwine.simple_operator(kind, (j, n), chi)
        blocks.append(bm)
        if args.verbose:
            print("block (%s,%s)  %dx%d  %.3fs" % (j, n, len(bm.row_index), len(bm.col_index),
                                                 time.perf_counter() - t), file=sys.stderr)
    files = []
    for bm in blocks:
        j, n = bm.ktype
        if args.format == "json":
            text = intertwine.block_to_json(bm, chi, kind)
        else:
            text = intertwine.block_to_csv(bm)
        files.append(("block_%s_%s.%s" % (str(j).replace("/", "o"), str(n).replace("/", "o"), args.format),
                      text))
    if not args.out:
        for _name, text in files:
            print(text)
        return 0
    try:
        _write_all(args.out, files)
    except OSError as exc:
        return _cannot_write(args.out, exc)
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

    def delta(p):
        p.add_argument("--delta", type=_parse_delta, default=(0, 0),
                       help="discrete parameter, e.g. 0,0")

    def lam(p):
        p.add_argument("--lambda", dest="lam", type=_parse_lambda, default=_parse_lambda("9/2,5/2"),
                       help="continuous parameter: rationals p/q,p/q or complex re+imi; "
                            "a value that starts with '-' needs the = form, --lambda=-7/2,1")

    def window(p):
        p.add_argument("--jmax", type=_window_bound, default=Fraction(2))
        p.add_argument("--nmax", type=_window_bound, default=Fraction(2))

    pv = sub.add_parser("verify", help="run the invariant suites")
    delta(pv)
    lam(pv)
    pv.add_argument("--deep", action="store_true", help="raise bounds to j<=4/6 per suite")
    pv.add_argument("--jobs", type=_jobs, default=1,
                    help="accepted for compatibility; the cells run one at a time in this process")
    pv.set_defaults(func=cmd_verify)

    pk = sub.add_parser("ktypes", help="K-type multiplicity table")
    delta(pk)
    window(pk)
    pk.set_defaults(func=cmd_ktypes)

    pc = sub.add_parser("compute", help="compute operator blocks")
    delta(pc)
    lam(pc)
    window(pc)
    pc.add_argument("--kind", default="LONG", help="|".join(intertwine.KINDS))
    pc.add_argument("--out", default=None, help="output directory")
    pc.add_argument("--format", choices=("json", "csv"), default="json")
    pc.add_argument("--verbose", action="store_true",
                    help="print each block's K-type, size and seconds to stderr")
    pc.set_defaults(func=cmd_compute)

    pm = sub.add_parser("mellin-check", help="quadrature vs Q on the grid")
    pm.set_defaults(func=cmd_mellin)
    return ap


# BLAS thread pools cost more than they save on 4x4 matrices: scipy's expm
# on one takes milliseconds with the default pool and microseconds with one
# thread.  Read by numpy's BLAS when numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:      # a value the user set is kept
        os.environ.setdefault(var, "1")
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
    except intertwine.DegenerateBlock as exc:
        print("%s; --kind LONG computes this block by the four-stage product" % exc,
              file=sys.stderr)
        return 2
    except AssertionError as exc:
        print("invariant failed: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, laurent.TruncationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
