"""Run configuration shared by the CLI and the search drivers.

Precedence: built-in defaults < config file (key=value lines) < flags.
A subcommand refuses a config-file key that its handler never reads;
``fields_read`` finds those reads in the handler's source.
``RIESZ_LAB_THREADS`` caps the worker threads of the search candidate
scan, the one parallel loop.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import os
import textwrap
from dataclasses import dataclass


@dataclass
class RunConfig:
    grid_1d: int = 256
    grid_2d: int = 128
    grid_3d: int = 64
    offset: float = 0.5
    max_terms: int = 200
    rel_tol: float = 1e-16
    seed: int = 0
    budget: int = 200
    max_degree: int = 8
    threads: int | None = None
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self) -> None:
        for name in ("grid_1d", "grid_2d", "grid_3d"):
            n = getattr(self, name)
            if n < 2 or n % 2:
                raise ValueError(f"{name} must be even and >= 2")
        if self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")

    def grid_for(self, dim: int) -> int:
        try:
            return {1: self.grid_1d, 2: self.grid_2d, 3: self.grid_3d}[dim]
        except KeyError:
            raise ValueError(f"no default grid for dim={dim}") from None

    def series_control(self):
        from .series import SeriesControl

        return SeriesControl(max_terms=self.max_terms, rel_tol=self.rel_tol)


def thread_count(threads: int | None = None) -> int:
    """Worker count: explicit arg, else RIESZ_LAB_THREADS, else cpu count."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("RIESZ_LAB_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def parse_config_file(path) -> dict:
    """Parse `key = value` lines; '#' starts a comment; keys must be
    RunConfig fields."""
    out: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _coerce(key, value)
    return out


def _coerce(key: str, value: str):
    if key in ("fmt", "out"):
        return value
    if key in ("offset", "rel_tol"):
        return float(value)
    return int(value)


def fields_read(fn, receiver: str = "cfg") -> frozenset[str]:
    """The RunConfig fields that ``fn`` reads through its ``receiver`` parameter.

    Scans fn's source for ``receiver.<field>``, follows the RunConfig
    methods it calls on the receiver, and the functions it passes the
    receiver to.  A plain assignment or ``or`` of the receiver (``cfg =
    config or RunConfig()``) binds another name to it.
    """
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    names = {receiver}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _mentions(node.value, names):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _mentions(node.value, names):
            if node.attr in _FIELD_TYPES:
                read.add(node.attr)
            elif callable(getattr(RunConfig, node.attr, None)):
                read |= fields_read(getattr(RunConfig, node.attr), "self")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            callee = fn.__globals__.get(node.func.id)
            if not inspect.isfunction(callee):
                continue
            params = list(inspect.signature(callee).parameters)
            passed = [p for p, arg in zip(params, node.args) if _mentions(arg, names)]
            passed += [kw.arg for kw in node.keywords if _mentions(kw.value, names)]
            for param in passed:
                read |= fields_read(callee, param)
    return frozenset(read)


def _mentions(node: ast.AST, names: set[str]) -> bool:
    """``node`` is one of ``names``, or an ``or``/``and`` with one as an operand."""
    if isinstance(node, ast.BoolOp):
        return any(_mentions(v, names) for v in node.values)
    return isinstance(node, ast.Name) and node.id in names


def make_config(file_path=None, command: str | None = None, handler=None, **overrides) -> RunConfig:
    """Defaults < config file < the non-None ``overrides``.

    With a ``handler``, a file key that it never reads is refused with a
    message naming ``command``, as an unread flag is.
    """
    values: dict = {}
    if file_path is not None:
        values.update(parse_config_file(file_path))
        if handler is not None:
            read = fields_read(handler)
            unread = [key for key in values if key not in read]
            if unread:
                raise ValueError(f"{file_path}: {command} does not read config key {unread[0]!r}")
    values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)
