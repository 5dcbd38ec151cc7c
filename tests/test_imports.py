"""Every module-level import in the library is used, and none is scipy.

An ``ast`` scan stands in for a linter: a name bound by a module-level
``import`` or ``from ... import`` must be read somewhere in the module.
``__init__`` is skipped, because its imports are the package's API.
scipy is imported only inside the function that runs it, so that
``import rieszlab`` does not pay for it.  Every norm series goes through
``series.hyp2f1``; only the p = 0 series of homog2 calls ``sum_series``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rieszlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_scanner_flags_unused_names():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\n\nprint(np.pi, tau)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def eager_scipy_imports(source: str) -> list[str]:
    """Imports of scipy that run at import time, outside any function body."""
    found = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, FUNCTIONS):
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] if not node.level else []
        else:
            modules = []
            pending.extend(ast.iter_child_nodes(node))
        found += [f"line {node.lineno}: {m}" for m in modules if m.split(".")[0] == "scipy"]
    return sorted(found)


def test_scanner_flags_eager_scipy():
    source = (
        "import os, scipy.fft\n"
        "from scipy.optimize import minimize\n"
        "try:\n"
        "    from scipy import special\n"
        "except ImportError:\n"
        "    pass\n"
        "class C:\n"
        "    import scipy\n"
        "def solve():\n"
        "    from scipy.optimize import minimize\n"
        "    return minimize\n"
    )
    assert eager_scipy_imports(source) == [
        "line 1: scipy.fft",
        "line 2: scipy.optimize",
        "line 4: scipy",
        "line 8: scipy",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_level_scipy_import(path):
    assert eager_scipy_imports(path.read_text()) == []


def sum_series_sites(source: str, module: str) -> list[str]:
    """Where ``sum_series`` is called: the innermost enclosing function, or the module."""
    sites = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{module}.{node.name}"
        if isinstance(node, ast.Call) and "sum_series" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return sites


def test_scanner_finds_sum_series_calls():
    source = (
        "from . import series\n"
        "x = series.sum_series(1.0, f, 0.5)\n"
        "def outer():\n"
        "    def inner():\n"
        "        return sum_series(1.0, f, 0.5)\n"
        "    return hyp2f1(1, 1, 1, 0.5)\n"
    )
    assert sum_series_sites(source, "m") == ["m", "m.inner"]


def test_one_sum_series_site_outside_series():
    sites = [
        site
        for path in MODULES
        if path.name != "series.py"
        for site in sum_series_sites(path.read_text(), path.stem)
    ]
    assert sites == ["homog2.projection_norm_series"]
