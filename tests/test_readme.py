"""The command lines in the README run as written.

Every line of a ```sh block that starts with ``rieszlab`` and is not
part of a pipe goes through ``cli.main`` in an empty directory and must
exit 0.
"""

import re
import shlex
from pathlib import Path

from rieszlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"


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
