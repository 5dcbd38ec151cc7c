"""The command lines and the Quick tour in the README run as written, and
its flag list is the parser's.

Every line of a ```sh block that starts with ``rieszlab`` and is not
part of a pipe goes through ``cli.main`` in an empty directory and must
exit 0.  The ```python block runs in a fresh interpreter and must exit
0.  The per-subcommand list of shared flags ("- `norm`: `--grid`, ...")
names exactly the shared flags ``cli._build_parser`` accepts.
"""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from rieszlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def readme_commands() -> list[str]:
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    return [
        line.strip()
        for block in blocks
        for line in block.splitlines()
        if line.startswith("rieszlab ") and "|" not in line
    ]


def test_readme_commands_exit_zero(capsys, monkeypatch, tmp_path):
    commands = readme_commands()
    assert commands, "no rieszlab lines found in the README"
    monkeypatch.chdir(tmp_path)
    for line in commands:
        code = cli.main(shlex.split(line)[1:])
        capsys.readouterr()
        assert code == 0, line


def test_readme_quick_tour_runs():
    (tour,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    proc = subprocess.run(
        [sys.executable, "-c", tour],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr


def readme_flag_list() -> dict[str, set[str]]:
    lines = re.findall(r"^- `([a-z0-9-]+)`: (.*)$", README.read_text(), flags=re.M)
    return {cmd: set(re.findall(r"`(--[a-z-]+)`", rest)) for cmd, rest in lines}


def test_readme_flag_list_matches_parser():
    listed = readme_flag_list()
    shared = set(cli._SHARED_FLAGS).union(*listed.values())
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        name: {opt for action in sp._actions for opt in action.option_strings if opt in shared}
        for name, sp in sub.choices.items()
    }
    assert listed == accepted
