"""No command loads scipy, ``import rieszlab`` loads no submodule, and a
command executes only the layers it calls.

``import rieszlab`` and every subcommand need numpy and the standard
library alone; the dual solver runs on the numpy L-BFGS of
``rieszlab.optimize``.  The package exports its public names lazily
from one table, so a bare import does not even load numpy.  ``cli``
registers every layer in ``sys.modules`` unexecuted, so ``--version``,
``--help`` and ``figures`` start without numpy, while the layer tracer
of ``bench/tracer.py`` still finds each module it wraps.  Each check
runs in a fresh interpreter, because this test process may already hold
scipy and every rieszlab module.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rieszlab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def fresh(code: str, result: str):
    """Run ``code`` in a fresh interpreter, then return the JSON value of
    the expression ``result`` there."""
    script = f"import json, sys\n{code}\nprint(json.dumps({result}))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded_scipy(code: str) -> list[str]:
    """The scipy modules loaded after running ``code`` in a fresh interpreter."""
    return fresh(code, "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')")


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


def test_import_loads_neither_numpy_nor_a_submodule():
    loaded = fresh("import rieszlab", "sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'rieszlab'))")
    assert loaded == ["rieszlab"]


def test_star_import_binds_every_export():
    missing = fresh("from rieszlab import *\nimport rieszlab", "[n for n in rieszlab.__all__ if n not in globals()]")
    assert missing == []


def test_each_export_is_its_defining_module_object():
    for module, names in rieszlab._EXPORTS.items():
        home = importlib.import_module(f"rieszlab.{module}")
        for name in names:
            assert getattr(rieszlab, name) is getattr(home, name), name
            assert getattr(home, name).__module__ == home.__name__, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rieszlab.no_such_name


def test_export_table_names_each_export_once():
    names = [name for names in rieszlab._EXPORTS.values() for name in names]
    assert len(names) == len(set(names))
    assert rieszlab.__all__ == sorted(names)


@pytest.mark.parametrize(
    "argv",
    [["--version"], ["--help"], ["figures", "--d", "1"], ["figures", "--d", "2"]],
    ids=["version", "help", "figures-d1", "figures-d2"],
)
def test_command_starts_without_numpy(argv):
    code = f"from rieszlab.cli import main\ntry:\n    rc = main({argv!r})\nexcept SystemExit as exc:\n    rc = exc.code"
    assert fresh(code, "[rc, 'numpy' in sys.modules]") == [0, False]


def test_cli_import_registers_every_traced_layer_without_numpy():
    # bench/tracer.py wraps each layer it finds in sys.modules right after this import
    code = f"sys.path.insert(0, {str(ROOT / 'bench')!r})\nfrom tracer import LAYERS\nfrom rieszlab import cli"
    missing = "[m for m in LAYERS if 'rieszlab.' + m not in sys.modules]"
    assert fresh(code, f"[{missing}, 'numpy' in sys.modules]") == [[], False]
