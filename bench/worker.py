"""One round of one workload, in a fresh process.

    python3 bench/worker.py WORKLOAD SEED SPAWN_TIME TRACE [SPAN_FILE]

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, imports and input
construction.  Prints one JSON record as its last line of output.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    name, seed, spawn, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    span_file = argv[4] if len(argv) > 4 else None

    import workloads                      # imports sp4ps
    workloads.preload(name)
    wl = workloads.WORKLOADS[name](seed)  # input construction

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cpu0, t0 = time.process_time(), time.monotonic()
    try:
        latencies = wl.run()
    finally:
        t1, cpu1 = time.monotonic(), time.process_time()
        if tracer is not None:
            tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = tracer.stats() if tracer is not None else None   # before the checks call the program

    attempted, failed, errors = wl.check()
    record = {
        "workload": name, "seed": seed,
        "setup_s": t0 - spawn, "wall_s": t1 - t0, "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_kb / 1024.0, "latencies_s": latencies,
        "attempted": attempted, "failed": failed, "errors": errors[:20],
    }
    if tracer is not None:
        record["layers"] = layers
        record["spans_recorded"] = len(tracer.span_name)
        record["spans_dropped"] = tracer.spans_dropped
        if span_file:
            with open(span_file, "w") as fh:
                json.dump(tracer.spans(), fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
