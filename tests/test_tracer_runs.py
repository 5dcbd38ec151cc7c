"""The benchmark's layer tracer (``bench/tracer.py``) still runs the CLI:
its stdout is the plain command's, and the spans and counters that the
benchmark reads are recorded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_python(*argv):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=ENV, timeout=60)


@pytest.mark.parametrize(
    "argv,span,checks",
    [
        (["figures", "--d", "1"], "figures.figure_tables", {}),
        (
            ["dual-extremal", "--kernel", "0.9", "--q", "1.3333333333333333", "--degree", "80"],
            "extremal.minimize",
            {"extremal.lbfgs_nit": lambda n: n > 0},
        ),
        (
            ["search", "--d", "1", "--q", "1.3333333333333333", "--p", "1.2", "--budget", "40"],
            "search.projection_ratio",
            {"search.evaluations": lambda n: n == 40},
        ),
    ],
    ids=["figures", "dual-extremal", "search"],
)
def test_tracer_runs(tmp_path, argv, span, checks):
    stats = tmp_path / "stats.json"
    traced = run_python(str(ROOT / "bench" / "tracer.py"), "spans", str(stats), *argv)
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == run_python("-m", "rieszlab", *argv).stdout
    doc = json.loads(stats.read_text())
    assert span in doc["spans"]
    for name, ok in checks.items():
        assert ok(doc["counts"][name]), (name, doc["counts"].get(name))
