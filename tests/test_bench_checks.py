"""Every benchmark workload command passes the benchmark's own output
check (``bench/checks.Checker``) at seed 0, and the search-grid commands
match their pins at seeds 1, 2, 7, 11, 13, 23 and 49 as well.

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

#: More pinned seeds for the search-grid commands, whose best ratios move
#: with any change to the samples or the search.  At seed 13 the d = 3
#: winner has bandwidth 2, so its ascent scores on 48^3, not 32^3.
PIN_SEEDS = (1, 2, 7, 11, 13, 23, 49)
SEARCH_GRID = [(seed, cmd) for seed in PIN_SEEDS for cmd in workloads.search_grid(seed)]


@pytest.fixture(scope="module")
def checker():
    return checks.Checker(SEED)


def _check(checker, monkeypatch, cmd):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(cmd.stdin), encoding="utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(cmd.argv))
    return checker(cmd.key, rc, out.getvalue().encode(), err.getvalue().encode())


@pytest.mark.parametrize("cmd", COMMANDS, ids=[cmd.key for cmd in COMMANDS])
def test_workload_output_passes_the_bench_check(checker, monkeypatch, cmd):
    assert _check(checker, monkeypatch, cmd) is None


@pytest.mark.parametrize("seed,cmd", SEARCH_GRID, ids=[f"{cmd.key}-seed{seed}" for seed, cmd in SEARCH_GRID])
def test_search_grid_output_matches_its_pins_at_more_seeds(monkeypatch, seed, cmd):
    pinned = checks.Checker(seed)
    assert str(seed) in pinned.pins[cmd.key]  # a missing pin would check nothing
    assert _check(pinned, monkeypatch, cmd) is None
