"""Every module-level import in the library is used, and no import anywhere is scipy.

An ``ast`` scan stands in for a linter: a name bound by a module-level
``import`` or ``from ... import`` must be read somewhere in the module,
in the library and in the tests alike.  ``__init__`` binds no export by
import; it names each one once in its table.
No module imports scipy anywhere, at module level or in a function body:
the library runs on numpy alone.  Nor does any import ``concurrent``,
``threading`` or ``multiprocessing``: the library runs on the calling
thread, so ``cli._lazy``'s ``LazyLoader``, which takes no lock before
Python 3.12, never runs a module's first use on a second thread.  The
exponent formulas, the series and the bound tables run without numpy: at
module level they import neither numpy nor a rieszlab module outside
that set.  A closed form is computed by its formula, and every series
goes through ``series.hyp2f1``: no module outside ``series`` calls
``sum_series``.
Every FFT goes through ``fourier``, and one function there computes the
grid-offset phase e^{2 pi i offset k / N}.  A public module-level function,
or a public method of a module-level class, that no library module
references is dead code unless ``KEPT`` names it with the reason it stays.
Likewise a defaulted parameter of such a function that no library call
passes is a knob only tests set, unless ``UNPASSED`` gives its reason.
"""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "rieszlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def imports_of(source: str, packages: set[str]) -> list[str]:
    """Absolute imports of ``packages`` or their submodules anywhere in the
    source, function bodies included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] if not node.level else []
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] in packages]
    return [f"line {line}: {m}" for line, m in sorted(found)]


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
    assert imports_of(source, {"scipy"}) == [
        "line 1: scipy.fft",
        "line 2: scipy.optimize",
        "line 4: scipy",
        "line 8: scipy",
        "line 10: scipy.optimize",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_level_scipy_import(path):
    # stricter than its name: a scipy import inside a function fails too
    assert imports_of(path.read_text(), {"scipy"}) == []


#: Packages that run code on a second thread or process.
CONCURRENCY = {"concurrent", "multiprocessing", "threading"}


def test_scanner_flags_thread_and_process_imports():
    source = (
        "import os, threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from concurrent import futures\n"
        "from . import config\n"
        "def scan():\n"
        "    import multiprocessing.pool\n"
        "    from .threading_notes import x\n"
        "    return multiprocessing.pool\n"
    )
    assert imports_of(source, CONCURRENCY) == [
        "line 1: threading",
        "line 2: concurrent.futures",
        "line 3: concurrent",
        "line 6: multiprocessing.pool",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_thread_or_process_import(path):
    assert imports_of(path.read_text(), CONCURRENCY) == []


#: Modules that run without numpy, so that ``figures`` and ``--version`` start without it.
NUMPY_FREE = {"exponents", "figures", "series"}


def numpy_free_violations(source: str, allowed: set[str]) -> list[str]:
    """Imports that run when the module executes (function bodies excluded)
    and load numpy or a rieszlab module outside ``allowed``."""
    found = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:  # from . import a, b
                found.extend((node.lineno, f"rieszlab.{alias.name}") for alias in node.names)
            else:
                found.append((node.lineno, f"rieszlab.{node.module}" if node.level else node.module))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))

    def reaches(name: str) -> bool:
        top, _, rest = name.partition(".")
        return top == "numpy" or (top == "rieszlab" and rest.split(".")[0] not in allowed)

    return [f"line {line}: {name}" for line, name in found if reaches(name)]


def test_scanner_flags_numpy_reaching_imports():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from numpy.fft import ifft\n"
        "from . import series, fourier\n"
        "from .norms import lp_norm\n"
        "from .exponents import conjugate\n"
        "from rieszlab.kernels import szego_norm\n"
        "try:\n"
        "    import numpy.linalg\n"
        "except ImportError:\n"
        "    pass\n"
        "class C:\n"
        "    from .homog2 import build_family\n"
        "def f():\n"
        "    import numpy\n"
        "    from .fourier import sample\n"
    )
    assert numpy_free_violations(source, {"exponents", "series"}) == [
        "line 2: numpy",
        "line 3: numpy.fft",
        "line 4: rieszlab.fourier",
        "line 5: rieszlab.norms",
        "line 7: rieszlab.kernels",
        "line 9: numpy.linalg",
        "line 13: rieszlab.homog2",
    ]


@pytest.mark.parametrize("name", sorted(NUMPY_FREE))
def test_numpy_free_modules_stay_numpy_free(name):
    assert numpy_free_violations((PACKAGE / f"{name}.py").read_text(), NUMPY_FREE) == []


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


def test_no_sum_series_site_outside_series():
    sites = [
        site
        for path in MODULES
        if path.name != "series.py"
        for site in sum_series_sites(path.read_text(), path.stem)
    ]
    assert sites == []


def fft_references(source: str) -> list[str]:
    """Lines that reach an FFT module: ``np.fft``-style attributes and imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "fft" and isinstance(node.value, ast.Name):
            found.append(f"line {node.lineno}: {node.value.id}.fft")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: {a.name}" for a in node.names if a.name.endswith(".fft")]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            found += [f"line {node.lineno}: {m}" for m in names if m.endswith(".fft")]
    return found


def test_scanner_finds_fft_references():
    source = (
        "import numpy as np\n"
        "import scipy.fft\n"
        "from numpy import fft\n"
        "x = np.fft.ifft(np.ones(4)) * 4\n"
        "y = np.fftn\n"
    )
    assert fft_references(source) == ["line 2: scipy.fft", "line 3: numpy.fft", "line 4: np.fft"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fourier.py"], ids=lambda p: p.stem)
def test_fft_only_in_fourier(path):
    assert fft_references(path.read_text()) == []


OFFSET_PHASE = re.compile(r"-?2j \* np\.pi \* [\w.]*offset")


def offset_phase_sites(source: str, module: str) -> list[str]:
    """Functions that spell out ``2j * np.pi * offset``, once per occurrence."""
    sites = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{module}.{node.name}"
        if isinstance(node, ast.BinOp) and OFFSET_PHASE.fullmatch(ast.unparse(node)):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return sites


def test_scanner_finds_offset_phases():
    source = (
        "def f(n, offset):\n"
        "    return np.exp(2j * np.pi * offset * k / n), np.exp(-2j * np.pi * offset * k / n)\n"
        "def g(grid):\n"
        "    return np.exp(2j * np.pi * grid.offset * k)\n"
        "h = 2j * np.pi * k\n"
    )
    assert offset_phase_sites(source, "m") == ["m.f", "m.f", "m.g"]


def test_one_offset_phase_site():
    sites = [site for path in MODULES for site in offset_phase_sites(path.read_text(), path.stem)]
    assert sites == ["fourier.offset_phase"]


#: Public functions and methods that no library module references, and why each stays.
KEPT = {
    "extremal.geometric_mean_l1_check": "acceptance criterion 2: exp(mean log |P+ psi|) <= ||psi||_1",
    "extremal.holder_equality_residual": "N_q* saturates Holder, as the dual witness needs (ROADMAP item 5)",
    "extremal.l1_equality_certificate": "the equality case q = 1 of the paper's L^1 bound",
    "extremal.outer_from_modulus": "the outer factor, whose value at 0 is an independent geometric mean",
    "fourier.TrigPoly.evaluate": "test_sample_matches_evaluate and the algebra tests compare against direct evaluation",
    "homog2.projection_polynomial": "a cross-check of the coefficients (a, b) of P+ psi",
    "kernels.poisson_kernel": "its mean 1 cross-checks ||k_w||_2^2 = 1/(1 - |w|^2) (ROADMAP item 5)",
    "exponents.riesz_projection_norm": "the classical constant (1/sin(pi/q))^d",
    "config.thread_count": "bench/run.py's environment() records it and refuses to run above nproc",
}


def unreferenced_functions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each public module-level function that no source
    reads as an attribute or loads by name, and ``module.Class.name`` of
    each public method of a module-level class that no source reads as an
    attribute; a use inside its own module counts."""
    defs, attributes, loaded = [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{module}.{node.name}", node.name, False))
            elif isinstance(node, ast.ClassDef):
                methods = [n.name for n in node.body if isinstance(n, ast.FunctionDef)]
                defs += [(f"{module}.{node.name}.{name}", name, True) for name in methods]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return sorted(
        qual
        for qual, name, method in defs
        if not name.startswith("_") and name not in attributes and (method or name not in loaded)
    )


def test_scanner_flags_unreferenced_functions():
    sources = {
        "a": (
            "def used():\n    pass\n"
            "def _private():\n    pass\n"
            "def dead():\n    pass\n"
            "class C:\n    def method(self):\n        pass\n"
            "    def called(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "b": (
            "from . import a\n"
            "def helper():\n    return a.used(a.C().called)\n"
            "def caller():\n    return helper()\n"
        ),
        # a local function called by a method's name, and a store to a
        # function's name, read neither
        "c": "def shadows():\n    def method():\n        pass\n    method()\n    dead = 1\n",
    }
    assert unreferenced_functions(sources) == ["a.C.method", "a.dead", "b.caller", "c.shadows"]


def test_every_unreferenced_function_is_kept_for_a_reason():
    # __init__ only re-exports, so its imports reach nothing
    found = unreferenced_functions({path.stem: path.read_text() for path in MODULES})
    assert found == sorted(KEPT)


#: Defaulted parameters that no library module passes, and why each stays.
UNPASSED = {
    "cli.main(argv)": "tests and bench/tracer.py drive the CLI in-process",
    "selftest.run_selftest(out)": "test_acceptance silences the report through it",
}


def unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """``function(param)`` for each defaulted parameter of a public
    module-level function, or of a public method of a module-level class,
    that no call in any source passes by position or by keyword.  Calls
    match by name alone; ``*args`` or ``**kwargs`` at a call site counts as
    passing every parameter."""
    params, calls = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        funcs = [(f"{module}.{n.name}", n, False) for n in tree.body if isinstance(n, ast.FunctionDef)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            funcs += [(f"{module}.{cls.name}.{n.name}", n, True) for n in cls.body if isinstance(n, ast.FunctionDef)]
        for qual, fn, is_method in funcs:
            if fn.name.startswith("_"):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            if is_method and "staticmethod" not in {getattr(d, "id", None) for d in fn.decorator_list}:
                positional = positional[1:]  # self or cls: bound at the call
            first = len(positional) - len(args.defaults)
            params += [(qual, fn.name, i, a.arg) for i, a in enumerate(positional) if i >= first]
            params += [(qual, fn.name, None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passed(call: ast.Call, index: int | None, name: str) -> bool:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            return True
        return (index is not None and index < len(call.args)) or name in {k.arg for k in call.keywords}

    return sorted(
        f"{qual}({name})"
        for qual, fn_name, index, name in params
        if not any(passed(call, index, name) for call in calls.get(fn_name, []))
    )


def test_scanner_flags_unpassed_defaults():
    sources = {
        "a": (
            "def f(x, y=1, *, z=2):\n    pass\n"
            "def _private(x=0):\n    pass\n"
            "def spread(x=0, y=0):\n    pass\n"
            "class C:\n"
            "    def m(self, x=0, y=0):\n        pass\n"
            "    @classmethod\n    def make(cls, x=0):\n        pass\n"
            "    @staticmethod\n    def s(x=0):\n        pass\n"
        ),
        "b": (
            "from . import a\n"
            "a.f(1, z=3)\n"
            "a.spread(*args)\n"
            "a.C().m(5)\n"
            "a.C.make()\n"
            "a.C.s(1)\n"
        ),
    }
    assert unpassed_defaults(sources) == ["a.C.m(y)", "a.C.make(x)", "a.f(y)"]


def test_every_unpassed_default_has_a_reason():
    # a knob that only tests set is a constant; KEPT functions have no library caller at all
    found = unpassed_defaults({path.stem: path.read_text() for path in MODULES})
    kept = tuple(f"{qual}(" for qual in KEPT)
    assert [entry for entry in found if not entry.startswith(kept)] == sorted(UNPASSED)
