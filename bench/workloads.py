"""The three workloads: inputs made from the seed, the timed items, and
the checks of their results.

Each workload runs in a fresh process with the program's caches cold, as
every ``sp4ps`` invocation starts.  Importing this module imports the
program, and ``preload`` the numeric libraries a workload's paths import
lazily, so that cost is part of set-up and not of the first item.  Items
run one at a time (closed loop); their results are kept and checked after
the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import time
from fractions import Fraction as F

from sp4ps import cli, gkmod, intertwine, sp4
from sp4ps.exact import Character, half_range
from sp4ps.wigner import WignerIndex

import checks

# -- module: Casimir on every basis vector of a K-type window, per character
# (delta, lambda, j_max, |n| max).  All three delta classes at generic
# rational lambda, and one complex lambda on the float path.
CASIMIR = (
    ((0, 0), (F(5, 2), F(1, 3)), 2, 1),
    ((1, 1), (F(9, 4), F(-5, 7)), 2, 1),
    ((0, 1), (F(11, 5), F(2, 9)), F(3, 2), F(3, 2)),
    ((0, 0), (complex(2.3, 0.7), complex(0.4, -0.2)), 2, 1),
)
# -- module: bracket homomorphism.  One vector per K-type of the window;
# pair i is checked on vector i mod len(window).  Dense X and Y (all ten
# Chevalley vectors, seeded nonzero coefficients) keep the cost of a pair
# nearly independent of the seed.  Bracket items take 2-5 times as long as
# Casimir items; with 42 of them (15 % of the items) the 90th percentile
# falls inside their cluster, not in the gap below it.
BRACKET_CHI = ((0, 0), (F(7, 3), F(4, 5)))
BRACKET_WINDOW = (2, 1)
BRACKET_PAIRS = 42
CHEVALLEY = ("H1", "H2") + sp4.ALL_ROOTS

# -- operators: every K-type block of the window on each route.
OPERATOR_WINDOW = (3, 3)
OPERATOR_CHARS = (
    ((0, 0), (F(7, 3), F(4, 5))),
    ((1, 1), (F(6), F(4))),
    ((1, 1), (F(7), F(2))),     # genfun fails on blocks where the product vanishes
)
# The product route at complex lambda is checked against the exact blocks of
# this character.  It is computed in the check phase, not timed: its blocks
# take under 5 ms and would put the median item between two clusters.
OPERATOR_COMPLEX = ((0, 0), (F(7, 3), F(4, 5)))
STAGES = ("A1", "A2", "A3", "A4")

# -- verify: one character through the command users run
VERIFY_ARGV = ("verify", "--delta", "0,0", "--lambda", "9/2,5/2", "--jobs", "1")

# Operations that fail every time because of a known fault of the program:
# (workload, route, delta, lambda) -> exception type and message prefix.
KNOWN_FAULTS = {
    ("operators", "genfun", (1, 1), (F(7), F(2))): (AssertionError, "degenerate block"),
}


class Outcome:
    __slots__ = ("spec", "value", "error")

    def __init__(self, spec, value, error):
        self.spec, self.value, self.error = spec, value, error


class ItemWorkload:
    """A list of (spec, thunk) items run one after another."""

    name = ""

    def __init__(self, seed: int):
        self.items = self.build(random.Random(seed))
        self.outcomes: list[Outcome] = []

    def build(self, rng) -> list:
        raise NotImplementedError

    def run(self) -> list[float]:
        """The timed phase: returns per-item latencies in seconds."""
        lat = []
        clock = time.perf_counter
        for spec, thunk in self.items:
            t = clock()
            try:
                out = Outcome(spec, thunk(), None)
            except Exception as exc:      # recorded and judged in check()
                out = Outcome(spec, None, exc)
            lat.append(clock() - t)
            self.outcomes.append(out)
        return lat

    def known_fault(self, spec, exc) -> bool:
        want = KNOWN_FAULTS.get((self.name,) + tuple(spec[:3]))
        return want is not None and isinstance(exc, want[0]) and str(exc).startswith(want[1])

    def check(self) -> tuple[int, int, list]:
        """(attempted, failed, errors); an unexpected exception is failed
        and an error."""
        errors, failed = [], 0
        for o in self.outcomes:
            if o.error is not None:
                failed += 1
                if not self.known_fault(o.spec, o.error):
                    errors.append("%s: %s: %s" % (o.spec, type(o.error).__name__, o.error))
        errors += self.check_values([o for o in self.outcomes if o.error is None])
        return len(self.outcomes), failed, errors

    def check_values(self, outcomes: list) -> list:
        raise NotImplementedError


def window_vectors(delta, j_max, n_max) -> list:
    return [WignerIndex.of(j, n, m1, m2)
            for (j, n, _mult) in gkmod.ktypes(delta, j_max, n_max)
            for m2 in gkmod.m_set(j, n, delta)
            for m1 in half_range(-j, j)]


class ModuleWorkload(ItemWorkload):
    name = "module"

    def build(self, rng) -> list:
        items = []
        for delta, lam, j_max, n_max in CASIMIR:
            chi = Character(delta, lam)
            for v in window_vectors(delta, j_max, n_max):
                items.append((("casimir", delta, lam, v),
                              lambda v=v, chi=chi: gkmod.omega2_action(v, chi)))
        chi = Character(*BRACKET_CHI)
        one = gkmod.RSum.of(1)
        vecs = [WignerIndex.of(j, n, -j, gkmod.m_set(j, n, chi.delta)[0])
                for (j, n, _mult) in gkmod.ktypes(chi.delta, *BRACKET_WINDOW)]
        for i in range(BRACKET_PAIRS):
            x = dense_element(rng)
            y = dense_element(rng)
            gx, gy, gb = (sp4.GMat.build(m) for m in (x, y, checks.commutator(x, y)))
            v = vecs[i % len(vecs)]

            def thunk(v=v, gx=gx, gy=gy, gb=gb):
                dl = gkmod.dl_element
                return (dl(gx, dl(gy, {v: one}, chi), chi),
                        dl(gy, dl(gx, {v: one}, chi), chi),
                        dl(gb, {v: one}, chi))
            items.append((("bracket", BRACKET_CHI[0], BRACKET_CHI[1], v, i), thunk))
        return items

    def check_values(self, outcomes: list) -> list:
        errors = []
        for o in outcomes:
            kind, _delta, lam, v = o.spec[:4]
            if kind == "casimir":
                scalar = checks.casimir_scalar(lam)
                if isinstance(scalar, complex):
                    errors += checks.check_casimir_float(v, o.value, scalar)
                else:
                    errors += checks.check_casimir_exact(v, o.value, scalar)
            else:
                errors += checks.check_bracket(v, *o.value)
        return errors


def dense_element(rng) -> list:
    """sum over the ten Chevalley vectors with coefficients in +-{1,2,3},
    as a 4x4 rational matrix."""
    out = [[F(0)] * 4 for _ in range(4)]
    for lab in CHEVALLEY:
        c = F(rng.choice((-3, -2, -1, 1, 2, 3)))
        basis = sp4.chevalley(lab)
        for i in range(4):
            for k in range(4):
                out[i][k] += c * basis.entry(i, k).real_rational()
    return out


class OperatorsWorkload(ItemWorkload):
    name = "operators"

    def build(self, rng) -> list:
        items = []
        for delta, lam in OPERATOR_CHARS:
            chi = Character(delta, lam)
            for (j, n, _mult) in gkmod.ktypes(delta, *OPERATOR_WINDOW):
                items.append((("product", delta, lam, (j, n)),
                              lambda kt=(j, n), chi=chi: export(
                                  intertwine.long_operator_product(kt, chi), None, chi, "LONG")))
                items.append((("genfun", delta, lam, (j, n)),
                              lambda kt=(j, n), chi=chi: export(
                                  *intertwine.genfun_vs_product(kt, chi), chi, "LONG_GENFUN")))
        rng.shuffle(items)
        return items

    def check_values(self, outcomes: list) -> list:
        errors = []
        by = {o.spec: o.value for o in outcomes}
        for o in outcomes:
            route, delta, lam, kt = o.spec
            bm, const, back = o.value
            errors += checks.check_json(bm, back)
            if route == "genfun":
                exact = by.get(("product", delta, lam, kt))
                errors += checks.check_constant(kt, const, lam)
                if exact is None:
                    errors.append("genfun block %s has no product block to compare" % (kt,))
                else:
                    errors += checks.check_same_block("genfun vs product", bm, exact[0])
            elif delta == (0, 0):
                errors += self.check_inverse(kt, Character(delta, lam), bm)
            if route == "product" and (delta, lam) == OPERATOR_COMPLEX:
                chi = Character(delta, tuple(complex(x) for x in lam))
                errors += checks.check_float_block(
                    intertwine.long_operator_product(kt, chi), bm)
        return errors

    @staticmethod
    def check_inverse(kt, chi, long_bm) -> list:
        """A1(-l) A2(-l) A3(-l) A4(-l) LONG(l) = 1, and each normalized stage
        at z is inverted by itself at 1-z (the stage at -lambda)."""
        neg = Character(chi.delta, tuple(-x for x in chi.lam))
        inv = [intertwine.simple_operator(k, kt, neg) for k in STAGES]
        errors = checks.check_identity("A1..A4(-lambda) LONG(lambda)", kt, inv + [long_bm])
        for k, a_neg in zip(STAGES, inv):
            errors += checks.check_identity("%s(-lambda) %s(lambda)" % (k, k), kt,
                                            [a_neg, intertwine.simple_operator(k, kt, chi)])
        return errors


def export(bm, const, chi, kind):
    """A computed block, exported to JSON as ``compute`` writes it, and
    parsed back."""
    back, _doc = intertwine.block_from_json(intertwine.block_to_json(bm, chi, kind))
    return bm, const, back


class VerifyWorkload:
    """``sp4ps verify`` through ``cli.main``; an item is one cell, timed
    where the runner calls it.  The cells draw their random inputs from
    ``SP4_SEED``, which the runner sets from the benchmark's seed."""

    name = "verify"

    def __init__(self, seed: int):
        self.argv = list(VERIFY_ARGV)
        self.code = None
        self.report = ""

    def run(self) -> list[float]:
        lat = []
        inner = cli._run_cell

        def timed_cell(cell):
            t = time.perf_counter()
            try:
                return inner(cell)
            finally:
                lat.append(time.perf_counter() - t)

        cli._run_cell = timed_cell
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                self.code = cli.main(self.argv)
        finally:
            cli._run_cell = inner
        self.report = out.getvalue()
        return lat

    def check(self) -> tuple[int, int, list]:
        m = re.search(r"^(\d+)/(\d+) cells passed", self.report, re.M)
        if not m:
            return 1, 1, ["verify printed no cell summary: %r" % self.report[-200:]]
        passed, total = int(m.group(1)), int(m.group(2))
        errors = []
        if self.code != 0:
            errors.append("verify exited %s" % self.code)
        if passed != total:
            bad = [line.strip() for line in self.report.splitlines() if "FAIL" in line]
            errors.append("verify: %d of %d cells failed: %s" % (total - passed, total, bad))
        return total, total - passed, errors


WORKLOADS = {w.name: w for w in (ModuleWorkload, OperatorsWorkload, VerifyWorkload)}


def preload(name: str) -> None:
    """Import the numeric libraries the workload's paths import lazily, so
    set-up and not the first item pays for them."""
    if name == "verify":
        import numpy  # noqa: F401
        import scipy.integrate  # noqa: F401
        import scipy.linalg  # noqa: F401
        import scipy.special  # noqa: F401
