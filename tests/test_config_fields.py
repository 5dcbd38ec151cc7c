"""Every ``RunConfig`` field is read by the program.

A field that is only validated and parsed is a setting the program
accepts and then ignores.  An ``ast`` scan stands in for a linter: each
field must appear as an attribute read ``cfg.<field>`` or
``config.<field>`` in some library module, or as ``self.<field>`` in a
``config.py`` function other than the validation and parsing ones.
"""

import ast
import dataclasses
from pathlib import Path

from rieszlab.config import RunConfig

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rieszlab"

#: Functions in config.py that check or parse a field without using it.
VALIDATION = {"__post_init__", "parse_config_file", "_coerce", "make_config"}

#: The names a RunConfig is bound to outside config.py.
RECEIVERS = {"cfg", "config"}


def field_reads(source: str, receivers: set[str], skip: set[str] = frozenset()) -> set[str]:
    tree = ast.parse(source)
    skipped = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in skip
        for inner in ast.walk(node)
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id in receivers
        and id(node) not in skipped
    }


def config_parameters(source: str) -> list[str]:
    """Names of the parameters annotated with RunConfig."""
    tree = ast.parse(source)
    return [
        arg.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for arg in node.args.args + node.args.kwonlyargs
        if arg.annotation is not None and "RunConfig" in ast.unparse(arg.annotation)
    ]


def test_scanner_skips_validation():
    source = (
        "class C:\n"
        "    def __post_init__(self):\n"
        "        assert self.tol > 0 and self.seed >= 0\n"
        "    def use(self):\n"
        "        return self.seed\n"
        "def run(cfg, args):\n"
        "    return cfg.budget, args.tol\n"
    )
    assert field_reads(source, {"self"}, VALIDATION) == {"seed"}
    assert field_reads(source, RECEIVERS) == {"budget"}


def test_run_config_is_bound_to_a_scanned_name():
    for path in PACKAGE.glob("*.py"):
        assert set(config_parameters(path.read_text())) <= RECEIVERS, path.name


def test_every_run_config_field_is_read():
    read = field_reads((PACKAGE / "config.py").read_text(), {"self"}, VALIDATION)
    for path in PACKAGE.glob("*.py"):
        if path.name != "config.py":
            read |= field_reads(path.read_text(), RECEIVERS)
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert sorted(fields - read) == []
