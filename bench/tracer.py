"""Outside-in layer trace: run one ``rieszlab`` command in this process
with timed spans around the calls into each module's public functions.

    python3 bench/tracer.py spans|plain STATS.json <rieszlab argv...>

The command's stdout, stderr and exit code pass through unchanged; the
aggregated spans and counters are written to STATS.json.  ``plain``
records only the ``cli.main`` span, so comparing the two modes gives
the tracing overhead on the same in-process work.  Nothing in
the program is edited: after import, every module-level binding of a
layer's public function is replaced by a timing wrapper, and the
thread pools in ``search`` and ``dirichlet`` by a subclass that parents
each task to the span that submitted it.

Spans are kept per thread.  A span's self time is its duration minus
the durations of its child spans on the same thread, in integer
nanoseconds, so it can never be negative.  Work a span hands to a pool
is not subtracted from it: the pool's busy time is reported next to
the pool's wall time instead.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

#: Modules whose public functions get spans (``cli.main`` gets one too).
LAYERS = ("fourier", "norms", "series", "kernels", "extremal", "homog2", "dirichlet", "search", "figures")
#: Modules that fan out on a thread pool.
POOLED = ("search", "dirichlet")


def _points(grid) -> int:
    return int(grid.samples.size)


#: Exact work counts taken from a call's arguments or result.
COUNTERS = {
    "fourier.grid_from_spectrum": lambda a, k, out: {"fourier.ifft_points": _points(out)},
    "fourier.grid_spectrum": lambda a, k, out: {"fourier.fft_points": _points(a[0] if a else k["grid"])},
    "norms.lp_norm": lambda a, k, out: {"norms.lp_norm.points": _points(a[0] if a else k["g"])},
    "series.sum_series": lambda a, k, out: {"series.terms": out.terms, "series.unconverged": int(not out.converged)},
    "extremal.minimize": lambda a, k, out: {"extremal.lbfgs_nit": int(out.nit), "extremal.lbfgs_nfev": int(out.nfev)},
    "extremal.dual_extremal_solve": lambda a, k, out: {"extremal.certified": 1},
    "search.violation_search": lambda a, k, out: {"search.evaluations": out.evaluations},
}


class Recorder:
    """Per-thread span stacks and tables, merged on demand."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.root_parent = None
            st.spans = {}  # name -> [calls, total_ns, self_ns]
            st.counts = Counter()
            with self._lock:
                self._tables.append({"spans": st.spans, "counts": st.counts})
        return st

    def current(self) -> str | None:
        st = self._state()
        return st.stack[-1][0] if st.stack else st.root_parent

    def enter(self, name: str, caller: str):
        st = self._state()
        parent = st.stack[-1][0] if st.stack else st.root_parent
        st.counts[f"edge:{parent}>{name}"] += 1
        st.counts[f"from:{caller}>{name}"] += 1
        frame = [name, time.perf_counter_ns(), 0]
        st.stack.append(frame)
        return frame

    def exit(self, frame) -> None:
        end = time.perf_counter_ns()
        st = self._state()
        st.stack.pop()
        dur = end - frame[1]
        if st.stack:
            st.stack[-1][2] += dur
        row = st.spans.setdefault(frame[0], [0, 0, 0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - frame[2]

    def count(self, values: dict) -> None:
        self._state().counts.update(values)

    def run_task(self, name: str, parent: str | None, fn, args, kwargs):
        """Run a pool task as a top-level span parented across threads."""
        st = self._state()
        st.root_parent = parent
        frame = self.enter(name, name.split(".")[0])
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame)
            st.root_parent = None

    def merged(self) -> dict:
        spans: dict[str, list[int]] = {}
        counts: Counter = Counter()
        with self._lock:
            for table in self._tables:
                for name, row in table["spans"].items():
                    acc = spans.setdefault(name, [0, 0, 0])
                    for i in range(3):
                        acc[i] += row[i]
                counts.update(table["counts"])
        return {"spans": spans, "counts": dict(counts)}


def _wrap(rec: Recorder, fn, name: str, caller: str):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = rec.enter(name, caller)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        if counter is not None:
            rec.count(counter(args, kwargs, out))
        return out

    return traced


def _pool_class(rec: Recorder, module: str):
    task_name = f"{module}.pool_task"

    class TracedThreadPoolExecutor(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._born = time.perf_counter_ns()

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(rec.run_task, task_name, rec.current(), fn, args, kwargs)

        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait, cancel_futures=cancel_futures)
            rec.count({f"{module}.pool_wall_ns": time.perf_counter_ns() - self._born})

    return TracedThreadPoolExecutor


def install(rec: Recorder) -> None:
    """Rebind every module-level reference to a layer's public functions."""
    modules = {
        name.split(".", 1)[1] if "." in name else name: mod
        for name, mod in list(sys.modules.items())
        if name == "rieszlab" or name.startswith("rieszlab.")
    }
    targets = {}
    for layer in LAYERS:
        mod = modules[layer]
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                targets[id(obj)] = (obj, f"{layer}.{attr}")
    for caller, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in targets and targets[id(obj)][0] is obj:
                setattr(mod, attr, _wrap(rec, obj, targets[id(obj)][1], caller))
    extremal = modules["extremal"]
    extremal.minimize = _wrap(rec, extremal.minimize, "extremal.minimize", "extremal")
    for layer in POOLED:
        modules[layer].ThreadPoolExecutor = _pool_class(rec, layer)


def main() -> int:
    mode, stats_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode not in ("spans", "plain"):
        raise SystemExit(f"unknown mode {mode!r}; expected spans or plain")
    from rieszlab import cli

    rec = Recorder()
    if mode == "spans":
        install(rec)
    frame = rec.enter("cli.main", "tracer")
    try:
        rc = cli.main(argv)
    finally:
        rec.exit(frame)
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(rec.merged(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
