"""Regenerate the reference outputs the benchmark checks against.

Run from the repository root:

    PYTHONPATH=src python3 bench/pin.py

It runs the CLI in-process and writes ``bench/pinned/``: the search
``best_family``/``best_ratio`` for seeds 0..PINNED_SEEDS-1, the two
dual-extremal values and the two figure CSVs.  Rerun it only when a
change is meant to alter these outputs, and say so in that change.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from rieszlab import cli

import workloads

PINNED = Path(__file__).resolve().parent / "pinned"
#: Seeds 0..PINNED_SEEDS-1 have pinned search outputs.
PINNED_SEEDS = 50


def cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return buf.getvalue()


def main() -> None:
    PINNED.mkdir(exist_ok=True)

    searches: dict[str, dict[str, dict]] = {"search_d3": {}, "search_d2": {}, "search_d1": {}}
    for seed in range(PINNED_SEEDS):
        cmds = [*workloads.search_grid(seed), *workloads.cli_short(seed)]
        for cmd in cmds:
            if cmd.key in searches:
                doc = json.loads(cli_stdout(cmd.argv))
                searches[cmd.key][str(seed)] = {
                    "best_family": doc["best_family"],
                    "best_ratio": doc["best_ratio"],
                    "found": doc["found"],
                }
        print(f"seed {seed}: {[searches[k][str(seed)]['best_family'] for k in searches]}", flush=True)
    (PINNED / "search.json").write_text(json.dumps(searches, indent=1, sort_keys=True) + "\n")

    dual = {cmd.key: json.loads(cli_stdout(cmd.argv))["value"] for cmd in workloads.dual_solve(0)}
    (PINNED / "dual.json").write_text(json.dumps(dual, indent=1, sort_keys=True) + "\n")

    for cmd in workloads.cli_short(0):
        if cmd.key.startswith("figures_"):
            (PINNED / f"{cmd.key}.csv").write_bytes(cli_stdout(cmd.argv).encode())


if __name__ == "__main__":
    main()
