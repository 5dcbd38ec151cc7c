"""rieszlab benchmark: closed-loop CLI workloads timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client runs the workload's
command list again and again, each command in a fresh interpreter, and
waits for every command before starting the next.  It stops starting
passes once at least two have run and the next one would end after S
seconds of pass time.  Every output is checked; a failed check or
unexpected exit code counts as a failure.

``--trace 0`` reports the end-to-end metrics; ``rieszlab --version``
probes run between the passes, outside the pass clock, for
``setup_s``.  ``--trace 1`` reports the per-layer metrics instead: each
round runs the commands in-process under ``bench/tracer.py`` once
without spans and once with them (the ratio is
``trace_overhead_frac``), and import times come from
``python -X importtime`` probes between the rounds.

The second-to-last line of stdout is a JSON report (environment,
sample counts, per-command medians, failures); the last line is the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

#: Every run makes at least this many passes (rounds when traced), so no
#: median rests on one pass and exact counts are compared between two.
MIN_PASSES = 2
#: ``--version`` probes before each pass and after the last; their median
#: is ``setup_s``.  One more runs first, untimed, so a fresh checkout
#: compiles its bytecode outside every measurement.
SETUP_PROBES_PER_GAP = 2
#: No run may take longer than this, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0

#: The first and second command of every workload, by role.
ROLE_METRICS = ("cmd1_s", "cmd2_s")
#: What ``cmd1_s`` and ``cmd2_s`` measure on each workload.
ALIASES = {
    "search-grid": ("search_d3_s", "search_d2_s"),
    "dual-solve": ("dual_escalate_s", "dual_direct_s"),
    "cli-short": ("dirichlet_d3_fit_s", "figures_d1_s"),
}

CLI = ("-m", "rieszlab")
VERSION = workloads.Command("version", ("--version",))


@dataclass
class Outcome:
    key: str
    rc: int
    seconds: float
    out: bytes
    err: bytes
    maxrss_kb: int


class Runner:
    """Spawns commands one at a time inside the checkout."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "RIESZ_LAB_THREADS"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def spawn(self, key: str, argv: list[str], stdin: bytes = b"") -> Outcome:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run exceeded its time limit")
        self.attempted += 1
        with tempfile.TemporaryFile(dir=self.work) as fin, tempfile.TemporaryFile(
            dir=self.work
        ) as fout, tempfile.TemporaryFile(dir=self.work) as ferr:
            fin.write(stdin)
            fin.seek(0)
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr, cwd=self.root, env=self.env)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
            fout.seek(0)
            ferr.seek(0)
            return Outcome(key, proc.returncode, seconds, fout.read(), ferr.read(), usage.ru_maxrss)

    def rieszlab(self, cmd: workloads.Command, launcher=CLI) -> Outcome:
        return self.spawn(cmd.key, [sys.executable, *launcher, *cmd.argv], cmd.stdin)

    def fail(self, message: str, command: bool = True) -> None:
        """Record a failure; ``command`` says whether one command caused it."""
        self.failed += command
        self.failures.append(message)
        print(f"FAIL {message}", file=sys.stderr, flush=True)


def probe_version(runner: Runner, version: str, samples: list[float]) -> None:
    """Time one ``rieszlab --version`` and append its seconds to ``samples``."""
    res = runner.rieszlab(VERSION)
    if res.rc != 0 or res.out.decode().strip() != f"rieszlab {version}":
        runner.fail(f"--version: exit {res.rc}, output {res.out[:80]!r}")
    else:
        samples.append(res.seconds)


TRACER = Path(__file__).resolve().parent / "tracer.py"


def run_pass(runner: Runner, commands, checker, trace_mode: str | None = None):
    """One closed-loop pass; returns outcomes, pass wall time and the
    tracer's stats when ``trace_mode`` ('spans' or 'plain') is given."""
    outcomes, stats = [], []
    start = time.perf_counter()
    for cmd in commands:
        if trace_mode is None:
            outcomes.append(runner.rieszlab(cmd))
        else:
            path = runner.work / f"{cmd.key}.stats.json"
            outcomes.append(runner.rieszlab(cmd, (str(TRACER), trace_mode, str(path))))
            if path.exists():
                stats.append(json.loads(path.read_text()))
                path.unlink()
    wall = time.perf_counter() - start
    for res in outcomes:
        reason = checker(res.key, res.rc, res.out, res.err)
        if reason:
            runner.fail(f"{res.key}: {reason}")
    return outcomes, wall, stats


def timed_passes(seconds: float, run_one, between) -> list:
    """Run passes until at least ``MIN_PASSES`` have run and the next one
    would end after ``seconds`` of pass time.  ``between`` runs before
    each pass and after the last, outside the pass clock."""
    results, clock = [], 0.0
    while True:
        between()
        t0 = time.perf_counter()
        results.append(run_one())
        last = time.perf_counter() - t0
        clock += last
        if len(results) >= MIN_PASSES and clock + last > seconds:
            between()
            return results


def median_metric(values, unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "n": len(values)}


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


def end_to_end(runner, commands, checker, seconds, version) -> tuple[dict, dict]:
    setup: list[float] = []

    def probes():
        for _ in range(SETUP_PROBES_PER_GAP):
            probe_version(runner, version, setup)

    passes = timed_passes(seconds, lambda: run_pass(runner, commands, checker), probes)
    per_cmd = {cmd.key: [p[0][i].seconds for p in passes] for i, cmd in enumerate(commands)}
    metrics = {
        "wall_s": median_metric([p[1] for p in passes], "s"),
        "setup_s": median_metric(setup or [0.0], "s"),
        "peak_rss_mb": {
            "value": max(res.maxrss_kb for p in passes for res in p[0]) / 1024.0,
            "unit": "MB",
            "n": sum(len(p[0]) for p in passes),
        },
    }
    for role, cmd in zip(ROLE_METRICS, commands):
        metrics[role] = median_metric(per_cmd[cmd.key], "s")
    detail = {
        "commands": {key: {"median_s": statistics.median(v), "samples_s": v} for key, v in per_cmd.items()},
        "pass_wall_samples_s": [p[1] for p in passes],
        "setup_samples_s": setup,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

#: Per-layer metrics: name -> (unit, better).  Names ending in ``.calls``
#: or ``.self_s`` are read from the span table; the rest are derived in
#: :func:`layer_metrics`.
LAYER_METRICS = {
    "import.rieszlab_s": ("s", "lower"),
    "import.scipy_optimize_s": ("s", "lower"),
    "import.scipy_fft_s": ("s", "lower"),
    "fourier.sample.calls": ("count", "lower"),
    "fourier.grid_from_spectrum.calls": ("count", "lower"),
    "fourier.grid_from_spectrum.self_s": ("s", "lower"),
    "fourier.ifft_points": ("count", "lower"),
    "fourier.grid_spectrum.calls": ("count", "lower"),
    "fourier.grid_spectrum.self_s": ("s", "lower"),
    "fourier.fft_points": ("count", "lower"),
    "fourier.riesz_project.self_s": ("s", "lower"),
    "fourier.coefficients.self_s": ("s", "lower"),
    "norms.lp_norm.calls": ("count", "lower"),
    "norms.lp_norm.self_s": ("s", "lower"),
    "norms.lp_norm.points": ("count", "lower"),
    "norms.nonlinear_map.self_s": ("s", "lower"),
    "search.projection_ratio.calls": ("count", "lower"),
    "search.projection_ratio.self_s": ("s", "lower"),
    "search.violation_search.self_s": ("s", "lower"),
    "search.evaluations": ("count", "higher"),
    "search.samples_per_ratio": ("ratio", "lower"),
    "search.pool_busy_s": ("s", "lower"),
    "search.pool_wall_s": ("s", "lower"),
    "search.verified": ("ratio", "higher"),
    "extremal.minimize.calls": ("count", "lower"),
    "extremal.lbfgs_nit": ("count", "lower"),
    "extremal.lbfgs_nfev": ("count", "lower"),
    "extremal.minimize.self_s": ("s", "lower"),
    "extremal.dual_extremal_solve.self_s": ("s", "lower"),
    "extremal.certified_per_attempt": ("ratio", "higher"),
    "series.sum_series.calls": ("count", "lower"),
    "series.terms": ("count", "lower"),
    "series.sum_series.self_s": ("s", "lower"),
    "series.unconverged": ("count", "lower"),
    "homog2.projection_norm_series.calls": ("count", "lower"),
    "homog2.quadrature_fallbacks": ("count", "lower"),
    "homog2.threshold_scan.self_s": ("s", "lower"),
    "kernels.szego_norm.calls": ("count", "lower"),
    "kernels.point_extremal_function.self_s": ("s", "lower"),
    "figures.figure_tables.self_s": ("s", "lower"),
    "dirichlet.dirichlet_norm.self_s": ("s", "lower"),
    "dirichlet.growth_fit.self_s": ("s", "lower"),
    "dirichlet.pool_busy_s": ("s", "lower"),
    "dirichlet.pool_wall_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}

#: Exact counts that must repeat between traced passes and traced runs.
EXACT_COUNTS = ("fourier.ifft_points", "search.projection_ratio.calls", "extremal.lbfgs_nit", "series.terms")

#: Per-layer metrics copied straight from the tracer's counters.
COUNT_NAMES = {
    "fourier.ifft_points",
    "fourier.fft_points",
    "norms.lp_norm.points",
    "search.evaluations",
    "extremal.lbfgs_nit",
    "extremal.lbfgs_nfev",
    "series.terms",
    "series.unconverged",
}


def merge_stats(stats: list[dict]) -> dict:
    spans: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    for st in stats:
        for name, row in st["spans"].items():
            acc = spans.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += row[i]
        for name, value in st["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}


def layer_metrics(stats: dict) -> dict[str, float]:
    """Per-layer values of one traced pass (import and overhead excluded)."""
    spans, counts = stats["spans"], stats["counts"]

    def calls(name):
        return spans.get(name, [0, 0, 0])[0]

    def total_s(name):
        return spans.get(name, [0, 0, 0])[1] / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in LAYER_METRICS:
        if name.endswith(".calls"):
            out[name] = calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            out[name] = spans.get(name[: -len(".self_s")], [0, 0, 0])[2] / 1e9
        elif name in COUNT_NAMES:
            out[name] = counts.get(name, 0)
    out["search.samples_per_ratio"] = ratio(
        counts.get("edge:search.projection_ratio>fourier.sample", 0), calls("search.projection_ratio")
    )
    out["homog2.quadrature_fallbacks"] = counts.get("from:homog2>fourier.sample", 0)
    out["extremal.certified_per_attempt"] = ratio(
        counts.get("extremal.certified", 0), calls("extremal.minimize")
    )
    for pool in ("search", "dirichlet"):
        out[f"{pool}.pool_busy_s"] = total_s(f"{pool}.pool_task")
        out[f"{pool}.pool_wall_s"] = counts.get(f"{pool}.pool_wall_ns", 0) / 1e9
    return out


#: Packages whose cumulative import time ``-X importtime`` reports.
IMPORTS = {"rieszlab": "import.rieszlab_s", "scipy.optimize": "import.scipy_optimize_s", "scipy.fft": "import.scipy_fft_s"}


def probe_imports(runner: Runner, samples: dict[str, list[float]]) -> None:
    """Append the cumulative import seconds of ``IMPORTS`` from one
    ``python -X importtime -m rieszlab --version``."""
    res = runner.rieszlab(VERSION, ("-X", "importtime", *CLI))
    if res.rc != 0:
        runner.fail(f"-X importtime --version: exit {res.rc}")
        return
    found = dict.fromkeys(IMPORTS.values(), 0.0)
    for line in res.err.decode().splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() in IMPORTS:
            found[IMPORTS[parts[2].strip()]] = int(parts[1]) / 1e6
    for name, value in found.items():
        samples.setdefault(name, []).append(value)


def traced(runner, commands, checker, seconds, version) -> tuple[dict, dict]:
    imports: dict[str, list[float]] = {}

    def one_round():
        merged = []
        for mode in ("plain", "spans"):
            _, _, stats = run_pass(runner, commands, checker, mode)
            if len(stats) != len(commands):
                runner.fail(f"{mode} pass lost the stats of a command", command=False)
            if any(row[2] < 0 for st in stats for row in st["spans"].values()):
                runner.fail("negative self time in a traced span", command=False)
            merged.append(merge_stats(stats))
        return merged

    rounds = timed_passes(seconds, one_round, lambda: probe_imports(runner, imports))
    per_pass = [layer_metrics(spans) for _plain, spans in rounds]
    in_process = {
        mode: statistics.median(r[i]["spans"]["cli.main"][1] / 1e9 for r in rounds)
        for i, mode in enumerate(("plain", "spans"))
    }
    for name in EXACT_COUNTS:
        if len({m[name] for m in per_pass}) > 1:
            runner.fail(f"count {name} differs between traced passes: {[m[name] for m in per_pass]}", False)
    values = {name: median_metric([m[name] for m in per_pass], LAYER_METRICS[name][0]) for name in per_pass[0]}
    values.update((name, median_metric(imports.get(name) or [0.0], "s")) for name in IMPORTS.values())
    values["search.verified"] = {
        "value": checker.verified / checker.certificates if checker.certificates else 0.0,
        "unit": "ratio",
        "n": checker.certificates,
    }
    values["trace_overhead_frac"] = {
        "value": in_process["spans"] / in_process["plain"] - 1.0,
        "unit": "ratio",
        "n": len(rounds),
    }
    metrics = {name: values[name] for name in LAYER_METRICS}
    detail = {
        "in_process_s": in_process,
        "exact_counts": {name: per_pass[0][name] for name in EXACT_COUNTS},
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------


def environment(root: Path, args) -> dict:
    import numpy
    import scipy
    from rieszlab.config import thread_count

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": thread_count(),
        "RIESZ_LAB_THREADS": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="rieszlab end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "rieszlab" / "__init__.py").is_file():
        print("error: run from a checkout of rieszlab (src/rieszlab is missing)", file=sys.stderr)
        return 2
    os.environ.pop("RIESZ_LAB_THREADS", None)
    sys.path.insert(0, str(src))
    import rieszlab

    if Path(rieszlab.__file__).resolve().parent != src / "rieszlab":
        print(f"error: rieszlab imported from {rieszlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import checks

    env = environment(root, args)
    if env["workers"] > env["nproc"]:
        print(f"error: rieszlab would run {env['workers']} workers on {env['nproc']} cpus", file=sys.stderr)
        return 2

    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    runner = Runner(root, work, time.monotonic() + HARD_LIMIT_S)
    commands = workloads.WORKLOADS[args.workload](args.seed)
    checker = checks.Checker(args.seed)
    try:
        probe_version(runner, rieszlab.__version__, [])
        mode = traced if args.trace else end_to_end
        metrics, detail = mode(runner, commands, checker, args.seconds, rieszlab.__version__)
    except TimeoutError as exc:
        runner.fail(str(exc), command=False)
        metrics, detail = {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace and metrics:
        detail["aliases"] = {alias: metrics[role] for alias, role in zip(ALIASES[args.workload], ROLE_METRICS)}
    report = {
        "env": env,
        "metrics": metrics,
        "detail": detail,
        "fail_frac": {"value": runner.failed / max(runner.attempted, 1), "unit": "ratio"},
        "failures": runner.failures[:20],
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": not runner.failures and bool(metrics),
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
