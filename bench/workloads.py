"""The benchmark's workloads: fixed lists of ``rieszlab`` command lines.

Each workload is generated from the benchmark seed.  The program only
ever sees the resulting argv and stdin bytes; the seed itself never
reaches it except as the ``--seed`` flag of the search commands.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Arguments shared by the two search-grid commands (the seed is appended).
SEARCH_GRID_ARGS = ("--q", "3", "--p", "2.6", "--budget", "200")
SEARCH_D1_ARGS = ("search", "--d", "1", "--q", "1.3333333333333333", "--p", "1.2")

#: The dual-solve inputs do not depend on the seed: solve time depends
#: sharply on w, so a seeded w would measure the input, not the solver.
DUAL_ESCALATE = ("dual-extremal", "--kernel", "0.99", "--q", "1.05", "--degree", "200")
DUAL_DIRECT = ("dual-extremal", "--kernel", "0.9", "--q", "1.3333333333333333", "--degree", "80")

#: Shape of the random polynomial fed to ``project`` and ``norm``.
POLY_DIM = 2
POLY_DEGREE = 5


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``key`` names it in checks and metrics."""

    key: str
    argv: tuple[str, ...]
    stdin: bytes = b""


def program_seed(seed: int) -> int:
    """Fold any integer into the seed range numpy and the CLI accept."""
    return seed % 2**32


def random_poly_doc(seed: int) -> dict:
    """Seeded random TrigPoly JSON document with every term nonzero."""
    rng = np.random.default_rng(program_seed(seed))
    terms = []
    for alpha in np.ndindex(*([2 * POLY_DEGREE + 1] * POLY_DIM)):
        re, im = rng.standard_normal(2)
        terms.append({"alpha": [a - POLY_DEGREE for a in alpha], "re": float(re), "im": float(im)})
    return {"dim": POLY_DIM, "terms": terms}


def search_grid(seed: int) -> list[Command]:
    s = str(program_seed(seed))
    return [
        Command("search_d3", ("search", "--d", "3", *SEARCH_GRID_ARGS, "--seed", s)),
        Command("search_d2", ("search", "--d", "2", *SEARCH_GRID_ARGS, "--seed", s)),
    ]


def dual_solve(seed: int) -> list[Command]:
    return [Command("dual_escalate", DUAL_ESCALATE), Command("dual_direct", DUAL_DIRECT)]


def cli_short(seed: int) -> list[Command]:
    poly = json.dumps(random_poly_doc(seed)).encode()
    s = str(program_seed(seed))
    return [
        Command("dirichlet_d3", ("dirichlet", "--d", "3", "--p", "1", "--fit")),
        Command("figures_d1", ("figures", "--d", "1")),
        Command("figures_d2", ("figures", "--d", "2")),
        Command("scan", ("d2-scan", "--q", "1.5,2,3,4,inf")),
        Command("rpk", ("rpk-check", "--q", "4", "--r", "0.25,0.5", "--format", "json")),
        Command("dirichlet_d2", ("dirichlet", "--d", "2", "--p", "0.5,1", "--fit")),
        Command("search_d1", (*SEARCH_D1_ARGS, "--seed", s)),
        Command("project", ("project",), poly),
        Command("norm_p0", ("norm", "--p", "0"), poly),
        Command("norm_p2", ("norm", "--p", "2"), poly),
        Command("norm_pinf", ("norm", "--p", "inf"), poly),
        Command("selftest", ("selftest",)),
    ]


WORKLOADS = {"search-grid": search_grid, "dual-solve": dual_solve, "cli-short": cli_short}
