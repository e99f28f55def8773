"""README.md's examples run as written."""

import pathlib
import re
import shlex

import pytest

from odekit.cli import run_cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


COMMANDS = [
    line
    for block in blocks("sh")
    for line in block.splitlines()
    if line.startswith("python3 -m odekit ")
]
assert COMMANDS, "README.md shows no odekit command"


def test_quickstart_runs(capsys):
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("line", COMMANDS, ids=lambda line: line.split()[3])
def test_command_line_example_runs(line, tmp_path, capsys):
    argv = shlex.split(line)[3:]
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    assert run_cli(argv) == 0
    if "--out" in argv:
        assert pathlib.Path(argv[argv.index("--out") + 1]).read_text()
    else:
        assert capsys.readouterr().out
