"""Every flag a subcommand defines is read by its handler.

A flag that is only parsed is a setting the program accepts and then
ignores.  An ``ast`` scan stands in for a linter: for each subparser,
every ``dest`` it defines must appear as an attribute read
``args.<dest>`` in the source of its handler, and every such read must
be a ``dest`` of that subparser.
"""

import argparse
import ast
import inspect
import textwrap

from rieszlab import cli


def args_reads(fn) -> set[str]:
    """The attributes ``fn`` reads from its ``args`` parameter."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_scanner_finds_args_reads():
    def handler(args):
        args.seen = args.out  # a store is not a read
        return other.fmt, args.grid

    other = None
    assert args_reads(handler) == {"out", "grid"}


def test_handlers_take_only_args():
    for name, sp in subparsers().items():
        assert list(inspect.signature(sp.get_default("fn")).parameters) == ["args"], name


def test_every_flag_is_read_by_its_handler():
    for name, sp in subparsers().items():
        dests = {a.dest for a in sp._actions if not isinstance(a, argparse._HelpAction)}
        assert args_reads(sp.get_default("fn")) == dests, name
