"""The benchmark's own tests.  They run the benchmark, so they are slow
(about four and a half minutes on 2 cores) and are not part of the
tier-1 suite:

    python3 -m pytest -q bench/test_bench.py

from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import EXACT_COUNTS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: A pinned seed, so the outputs are also checked against pinned values.
SEED = 3


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    report, last = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(last)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_across_runs(workload):
    first_report, first = result(bench(workload, trace=1))
    _, second = result(bench(workload, trace=1))
    assert first["correct"] and second["correct"], first_report["failures"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_end_to_end_run_reports_every_metric():
    report, last = result(bench("dual-solve", trace=0))
    assert last["correct"] and last["failed"] == 0
    assert report["fail_frac"]["value"] == 0.0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("cli-short", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
