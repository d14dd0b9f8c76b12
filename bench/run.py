"""Benchmark of sp4ps: one workload, repeated in fresh processes.

    python3 bench/run.py --workload {module,operators,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Each round is a new process
(``bench/worker.py``) with cold caches, ``SP4_SEED`` set from ``--seed`` and
one BLAS/OpenMP thread.  Whole rounds repeat while the next one is expected
to end within ``--seconds``; there is always at least one.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json
(medians over rounds, item percentiles over all items), with ``--trace 1``
the per-layer metrics of a traced run.  The last line of output is one JSON
object; the rounds' records go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TIME_LIMIT_S = 170          # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["SP4_SEED"] = str(seed)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_round(workload: str, seed: int, trace: bool, span_file, timeout: float) -> dict:
    env = child_env(seed)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           repr(time.monotonic()), "1" if trace else "0"] + ([str(span_file)] if span_file else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("round exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rounds: list) -> dict:
    lat_ms = [x * 1e3 for r in rounds for x in r["latencies_s"]]
    med = {k: statistics.median(r[k] for r in rounds)
           for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
    med["item_p50_ms"] = statistics.median(lat_ms)
    med["item_p90_ms"] = percentile(lat_ms, 90)
    return med


def layer_value(rounds: list, metric: str) -> float:
    key, field = metric.rsplit(".", 1)
    return statistics.median(r["layers"].get(key, {}).get(field, 0) for r in rounds)


def self_time_shares(record: dict) -> dict:
    """Share of the traced timed phase spent in each module's own code."""
    shares = dict.fromkeys(MODULES, 0.0)
    for name, row in record["layers"].items():
        if "self_s" in row:
            shares[name.split(".", 1)[0]] += row["self_s"] / record["wall_s"]
    shares["outside"] = 1.0 - sum(shares.values())
    return shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("module", "operators", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sp4ps" / "__init__.py").is_file():
        print("error: no sp4ps sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # bytecode first, so no round pays for compiling
    if not (compileall.compile_dir(str(ROOT / "src" / "sp4ps"), quiet=1)
            and compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)):
        print("error: sp4ps does not compile", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = "%s_seed%d_trace%d" % (args.workload, args.seed, args.trace)

    rounds = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        span_file = OUT / ("spans_%s_seed%d.json" % (args.workload, args.seed)) \
            if args.trace and not rounds else None
        try:
            rounds.append(run_round(args.workload, args.seed, bool(args.trace), span_file,
                                    timeout=TIME_LIMIT_S - elapsed))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        # rounds are whole: stop before one expected to end past --seconds,
        # so the run length stays near --seconds on a slow machine too
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / len(rounds)
        if next_end > args.seconds or next_end > TIME_LIMIT_S:
            break

    errors = [e for r in rounds for e in r["errors"]]
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {},
    }
    if args.trace:
        for m in spec["per_layer"]:
            result["metrics"][m["name"]] = {"value": layer_value(rounds, m["name"]), "unit": m["unit"]}
        shares = {k: statistics.median(self_time_shares(r)[k] for r in rounds)
                  for k in MODULES + ("outside",)}
        traced_wall = statistics.median(r["wall_s"] for r in rounds)
    else:
        values = end_to_end(rounds)
        for m in spec["end_to_end"]:
            result["metrics"][m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    (OUT / ("result_%s.json" % tag)).write_text(json.dumps(
        {"args": vars(args), "rounds": rounds, "result": result}, indent=1))
    print("sp4ps bench  workload=%s seed=%d rounds=%d trace=%d"
          % (args.workload, args.seed, len(rounds), args.trace))
    print("  attempted %d  failed %d  correct %s"
          % (result["attempted"], result["failed"], result["correct"]))
    for e in errors[:10]:
        print("  CHECK FAILED: %s" % e)
    if args.trace:
        print("  traced wall_s %.4f s (median); self-time share by layer:" % traced_wall)
        for k, v in shares.items():
            print("    %-11s %6.1f%%" % (k, 100 * v))
    for name, m in result["metrics"].items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
