"""Every benchmark workload command passes the benchmark's own output
check (``bench/checks.Checker``) at seed 0.

The commands run in-process through ``cli.main`` with the stdin bytes
that ``bench/workloads`` gives them, so an output the benchmark would
count as incorrect fails here first.  Nothing under ``bench/`` is
written.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from rieszlab import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 0
COMMANDS = [cmd for make in workloads.WORKLOADS.values() for cmd in make(SEED)]


@pytest.fixture(scope="module")
def checker():
    return checks.Checker(SEED)


@pytest.mark.parametrize("cmd", COMMANDS, ids=[cmd.key for cmd in COMMANDS])
def test_workload_output_passes_the_bench_check(checker, monkeypatch, cmd):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(cmd.stdin), encoding="utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(cmd.argv))
    assert checker(cmd.key, rc, out.getvalue().encode(), err.getvalue().encode()) is None
