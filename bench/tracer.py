"""Layer tracing from outside the program.

``Tracer.install`` replaces the public functions of every ``sp4ps`` module,
and a few named class methods, with wrappers.  A timed wrapper records one
span (name, start, end, parent) per call; a counting wrapper only counts.
Every binding site of a wrapped object is patched, so a name imported with
``from .x import y`` is traced where it is called.  ``uninstall`` puts the
originals back.

Self time of a span is its duration minus the durations of its child spans;
it is accumulated as the spans close, and ``self_times_from_spans``
recomputes it from the stored spans.  A function that is only counted adds
its time to the self time of the span that called it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

MODULES = ("exact", "laurent", "wigner", "sp4", "gkmod", "intertwine", "cli")

# Scalar arithmetic runs millions of times per round; a span around each
# call would swamp the run, so these are counted only.
COUNTED_METHODS = {
    "exact.ExactScalar.mul": ("exact", "ExactScalar", ("__mul__", "__rmul__")),
    "exact.ExactScalar.add": ("exact", "ExactScalar", ("__add__", "__radd__")),
    "gkmod.RSum.mul": ("gkmod", "RSum", ("__mul__", "__rmul__")),
    "gkmod.RSum.add": ("gkmod", "RSum", ("__add__", "__radd__")),
    "sp4.Cyc8.mul": ("sp4", "Cyc8", ("__mul__", "__rmul__")),
}
COUNTED_FUNCTIONS = {"exact.gamma_half", "exact.pochhammer", "exact.half_range",
                     "exact.require_finite"}
TIMED_METHODS = {
    "intertwine.BlockMatrix.matmul": ("intertwine", "BlockMatrix", ("matmul",)),
    "laurent.LSeries1.mul": ("laurent", "LSeries1", ("__mul__", "__rmul__")),
}
# (metric prefix, module, lru_cache-wrapped function)
CACHES = (
    ("wigner.cg_cache", "wigner", "clebsch_gordan_j1"),
    ("gkmod.dl_p_cache", "gkmod", "_dl_p_cached"),
    ("gkmod.dl_k_cache", "gkmod", "_dl_k_cached"),
    ("intertwine.mn_cache", "intertwine", "mn_matrices"),
)

SPAN_CAP = 1_000_000         # spans kept per process; later calls are only aggregated


class Tracer:
    """Spans and counts for the wrapped calls of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.timed: list[bool] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self._active: list[int] = []
        # spans, one entry per timed call up to SPAN_CAP
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.spans_dropped = 0
        self._stack: list[list] = []     # [span index, child time] of open spans
        self._patches: list[tuple] = []
        self._caches: dict = {}

    # -- wrappers --------------------------------------------------------

    def _name_id(self, name: str, timed: bool) -> int:
        self.names.append(name)
        self.timed.append(timed)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        self._active.append(0)
        return len(self.names) - 1

    def timed_wrapper(self, name: str, fn):
        nid = self._name_id(name, True)
        clock, stack, calls, active = self.clock, self._stack, self.calls, self._active
        total, self_time = self.total, self.self_time
        s_name, s_start, s_end, s_parent = (self.span_name, self.span_start,
                                            self.span_end, self.span_parent)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            active[nid] += 1
            parent = stack[-1][0] if stack else -1
            idx = len(s_name)
            if idx < SPAN_CAP:
                s_name.append(nid)
                s_parent.append(parent)
                s_start.append(0.0)
                s_end.append(0.0)
            else:
                idx = -1
                tracer.spans_dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_time[nid] += dur - frame[1]
                active[nid] -= 1
                if not active[nid]:          # outermost activation only
                    total[nid] += dur
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    s_start[idx] = start
                    s_end[idx] = end

        return wrapper

    def counting_wrapper(self, name: str, fn):
        nid = self._name_id(name, False)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of each program module and the named
        class methods, at every binding site in the loaded ``sp4ps``
        modules."""
        mods = {m: sys.modules["sp4ps." + m] for m in MODULES}
        for prefix, mod_name, attr in CACHES:
            self._caches[prefix] = getattr(mods[mod_name], attr)
        sites = [m for name, m in sorted(sys.modules.items())
                 if m is not None and (name == "sp4ps" or name.startswith("sp4ps."))]
        for mod_name, mod in mods.items():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (mod_name, attr)
                if name in COUNTED_FUNCTIONS:
                    wrapped = self.counting_wrapper(name, obj)
                else:
                    wrapped = self.timed_wrapper(name, obj)
                for site in sites:
                    for site_attr, val in list(vars(site).items()):
                        if val is obj:
                            self._patch(site, site_attr, wrapped)
        for groups, make in ((COUNTED_METHODS, self.counting_wrapper),
                             (TIMED_METHODS, self.timed_wrapper)):
            for name, (mod_name, cls_name, attrs) in groups.items():
                cls = getattr(mods[mod_name], cls_name)
                method = vars(cls)[attrs[0]]
                if any(vars(cls)[attr] is not method for attr in attrs):
                    raise RuntimeError("%s: %s are not one method" % (cls_name, attrs))
                wrapped = make(name, method)
                for attr in attrs:
                    self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def stats(self) -> dict:
        """name -> {calls, self_s, total_s} (times only for timed names),
        plus cache counters read from ``cache_info()``."""
        out = {}
        for nid, name in enumerate(self.names):
            row = {"calls": self.calls[nid]}
            if self.timed[nid]:
                row["self_s"] = self.self_time[nid]
                row["total_s"] = self.total[nid]
            out[name] = row
        for prefix, fn in self._caches.items():
            info = fn.cache_info()
            out[prefix] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
        return out

    def spans(self) -> dict:
        return {"names": list(self.names),
                "name": self.span_name.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
                "parent": self.span_parent.tolist(),
                "dropped": self.spans_dropped}


def self_times_from_spans(name, start, end, parent, n_names: int) -> list[float]:
    """Per-name self time recomputed from stored spans: each span's
    duration minus the durations of the spans whose parent it is."""
    child = [0.0] * len(name)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    out = [0.0] * n_names
    for i, nid in enumerate(name):
        out[nid] += end[i] - start[i] - child[i]
    return out
