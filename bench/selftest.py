"""Tests of the benchmark itself: every correctness check rejects a wrong
answer, the tracer's numbers are consistent, and a shortened run of each
workload completes.

    python3 -m pytest bench/selftest.py -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(ROOT / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from sp4ps import gkmod, intertwine, sp4  # noqa: E402
from sp4ps.exact import Character, ExactScalar  # noqa: E402
from sp4ps.wigner import WignerIndex  # noqa: E402

LAM = (F(7, 3), F(4, 5))
CHI = Character((0, 0), LAM)
KT = (2, 0)


def perturbed(bm, i=0, k=0):
    """The block with entry (i,k) changed: scaled by 8/7 if nonzero, else 1/7."""
    ent = [list(row) for row in bm.entries]
    e = ent[i][k]
    if isinstance(e, complex):
        ent[i][k] = e + 1e-6j
    else:
        ent[i][k] = e * ExactScalar(F(8, 7)) if not e.is_zero() else ExactScalar(F(1, 7))
    return intertwine.BlockMatrix(bm.ktype, list(bm.row_index), list(bm.col_index), ent)


# -- module checks -----------------------------------------------------------

def test_casimir_scalar_off_by_one_fails():
    v = WignerIndex.of(1, 1, 0, 1)
    out = gkmod.omega2_action(v, CHI)
    scalar = checks.casimir_scalar(LAM)
    assert checks.check_casimir_exact(v, out, scalar) == []
    wrong = {v: gkmod.RSum.of(ExactScalar(scalar + 1))}
    assert checks.check_casimir_exact(v, wrong, scalar)
    stray = dict(out)
    stray[WignerIndex.of(0, 0, 0, 0)] = gkmod.RSum.of(1)
    assert checks.check_casimir_exact(v, stray, scalar)


def test_casimir_float_off_by_one_fails():
    lam = (complex(2.3, 0.7), complex(0.4, -0.2))
    v = WignerIndex.of(1, 0, 1, 0)
    out = gkmod.omega2_action(v, Character((0, 0), lam))
    scalar = checks.casimir_scalar(lam)
    assert checks.check_casimir_float(v, out, scalar) == []
    assert checks.check_casimir_float(v, {v: scalar + 1}, scalar)


def test_bracket_with_one_wrong_term_fails():
    rng = random.Random(5)
    x, y = workloads.dense_element(rng), workloads.dense_element(rng)
    gx, gy, gb = (sp4.GMat.build(m) for m in (x, y, checks.commutator(x, y)))
    v = WignerIndex.of(1, 1, -1, -1)
    one = gkmod.RSum.of(1)
    dl = gkmod.dl_element
    xy = dl(gx, dl(gy, {v: one}, CHI), CHI)
    yx = dl(gy, dl(gx, {v: one}, CHI), CHI)
    br = dl(gb, {v: one}, CHI)
    assert checks.check_bracket(v, xy, yx, br) == []
    k = next(iter(br))
    assert checks.check_bracket(v, xy, yx, {**br, k: br[k] + gkmod.RSum.of(1)})
    # [X,Y] formed the wrong way round
    gwrong = sp4.GMat.build(checks.commutator(y, x))
    assert checks.check_bracket(v, xy, yx, dl(gwrong, {v: one}, CHI))


def test_coords_agree_across_scalar_types():
    z = sp4.Cyc8(F(1, 2), F(-3), F(5, 7), F(2))
    assert checks.coords(z) == checks.coords(gkmod.cyc8_to_rsum(z))
    a, b = ExactScalar(F(3, 5), 6, 1, True), ExactScalar(F(-2, 3), 10, 0, True)
    assert checks.c_mul(checks.coords(a), checks.coords(b)) == checks.coords(a * b)


# -- operator checks ---------------------------------------------------------

@pytest.fixture(scope="module")
def blocks():
    prod = intertwine.long_operator_product(KT, CHI)
    gen, const = intertwine.genfun_vs_product(KT, CHI)
    return prod, gen, const


def test_genfun_block_with_one_perturbed_entry_fails(blocks):
    prod, gen, _ = blocks
    assert checks.check_same_block("genfun", gen, prod) == []
    assert checks.check_same_block("genfun", perturbed(gen, 1, 0), prod)


def test_identity_with_one_perturbed_entry_fails(blocks):
    prod, _, _ = blocks
    assert workloads.OperatorsWorkload.check_inverse(KT, CHI, prod) == []
    assert workloads.OperatorsWorkload.check_inverse(KT, CHI, perturbed(prod, 2, 1))


def test_complex_block_with_one_perturbed_entry_fails(blocks):
    prod, _, _ = blocks
    fchi = Character((0, 0), tuple(complex(x) for x in LAM))
    fbm = intertwine.long_operator_product(KT, fchi)
    assert checks.check_float_block(fbm, prod) == []
    assert checks.check_float_block(perturbed(fbm, 0, 0), prod)


def test_wrong_per_block_constant_fails(blocks):
    _, _, const = blocks
    assert checks.check_constant(KT, const, LAM) == []
    assert checks.check_constant(KT, const * ExactScalar(2), LAM)
    # the constant of the next spin is wrong here
    assert checks.check_constant((3, 0), const, LAM)


def test_corrupted_json_entry_fails(blocks):
    prod, _, _ = blocks
    text = intertwine.block_to_json(prod, CHI, "LONG")
    back, _ = intertwine.block_from_json(text)
    assert checks.check_json(prod, back) == []
    doc = json.loads(text)
    e = doc["entries"][0][0]
    doc["entries"][0][0] = e.replace("/", "1/", 1)
    bad, _ = intertwine.block_from_json(json.dumps(doc))
    assert checks.check_json(prod, bad)


def test_long_constant_closed_form():
    # (z_A1)_j (z_A3)_j at lambda = (7,2): z_A1 = 3, z_A3 = 5
    assert checks.long_constant((7, 2), 2) == 3 * 4 * 5 * 6


def test_known_fault_is_only_the_degenerate_block():
    wl = workloads.OperatorsWorkload.__new__(workloads.OperatorsWorkload)
    spec = ("genfun", (1, 1), (F(7), F(2)), KT)
    assert wl.known_fault(spec, AssertionError("degenerate block (no nonzero product entries)"))
    assert not wl.known_fault(spec, AssertionError("per-block constant varies"))
    assert not wl.known_fault(("product",) + spec[1:], AssertionError("degenerate block"))


# -- tracer --------------------------------------------------------------------

def test_self_time_is_span_minus_children():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    leaf_w = t.timed_wrapper("leaf", lambda: 1)
    mid_w = t.timed_wrapper("mid", lambda: leaf_w() + leaf_w())
    assert mid_w() == 2
    stats = {n: (t.calls[i], t.self_time[i], t.total[i]) for i, n in enumerate(t.names)}
    assert stats["leaf"] == (2, 2.0, 2.0)
    assert stats["mid"] == (1, 3.0, 5.0)
    s = t.spans()
    assert tracer.self_times_from_spans(s["name"], s["start"], s["end"], s["parent"],
                                        len(s["names"])) == [2.0, 3.0]


def test_install_patches_every_binding_site_and_uninstall_restores():
    original = gkmod.m_set
    t = tracer.Tracer()
    t.install()
    try:
        assert intertwine.m_set is gkmod.m_set is not original
        intertwine.simple_operator("A1", KT, CHI)
        stats = t.stats()
        assert stats["gkmod.m_set"]["calls"] == 2
        assert stats["intertwine.simple_operator"]["calls"] == 1
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for m in spec["per_layer"]:
            key, field = m["name"].rsplit(".", 1)
            assert field in stats[key], m["name"]
    finally:
        t.uninstall()
    assert intertwine.m_set is gkmod.m_set is original


# -- shortened runs ---------------------------------------------------------------

@pytest.mark.parametrize("workload,trace", [("module", 0), ("operators", 0),
                                            ("verify", 0), ("operators", 1)])
def test_shortened_run_completes(workload, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    if workload == "operators":
        assert result["failed"] == 6          # degenerate genfun blocks at lambda = (7,2)
    else:
        assert result["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
