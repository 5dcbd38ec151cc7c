"""No command loads scipy.

``import rieszlab`` and every subcommand need numpy and the standard
library alone; the dual solver runs on the numpy L-BFGS of
``rieszlab.optimize``.  Each check runs in a fresh interpreter, because
this test process may already hold scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCIPY_LOADED = "json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def loaded_scipy(code: str) -> list[str]:
    """The scipy modules loaded after running ``code`` in a fresh interpreter."""
    script = f"import json, sys\n{code}\nprint({SCIPY_LOADED})\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "code",
    [
        "import rieszlab",
        "from rieszlab.cli import main\nassert main(['figures', '--d', '1']) == 0",
        "from rieszlab.cli import main\nassert main(['selftest']) == 0",
    ],
    ids=["import", "figures", "selftest"],
)
def test_no_scipy_without_the_dual_solver(code):
    assert loaded_scipy(code) == []


@pytest.mark.parametrize(
    "code",
    [
        "from rieszlab import dual_extremal_solve, truncated_szego_poly\n"
        "dual_extremal_solve(truncated_szego_poly(0.5, 8), q=1.5)",
        "from rieszlab.cli import main\n"
        "assert main(['dual-extremal', '--kernel', '0.5', '--q', '1.5', '--degree', '8']) == 0",
    ],
    ids=["solve", "dual-extremal"],
)
def test_dual_solver_loads_no_scipy(code):
    assert loaded_scipy(code) == []
