"""Every ``betadio`` command of the README's CLI block runs and prints what
its inline ``# value`` comment says."""

import re
import shlex
from pathlib import Path

import pytest

from betadio.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[tuple[list[str], str]]:
    """(argv, expected last stdout line or "") for each command, in order."""
    text = README.read_text()
    block = text[text.index("## CLI"):]
    block = block[block.index("```sh"):]
    block = block[:block.index("```", 5)]
    out = []
    for line in block.splitlines():
        if line.startswith("betadio "):
            comment = line.partition("#")[2].strip()
            value = comment if re.fullmatch(r"[0-9/ ]+", comment) else ""
            out.append((shlex.split(line, comments=True)[1:], value))
    return out


def _run_readme_commands(tmp_path, monkeypatch, capsys, precision: str) -> None:
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BETADIO_PRECISION", precision)
    commands = readme_commands()
    assert len(commands) >= 20
    assert [v for _argv, v in commands if v] == ["1/4", "11/36", "13", "2 2 2 2"]
    for argv, value in commands:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if value:
            assert out.strip().splitlines()[-1] == value, argv


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    _run_readme_commands(tmp_path, monkeypatch, capsys, "256")


@pytest.mark.parametrize("precision", ["8", "2"])
def test_readme_commands_run_at_low_precision(tmp_path, monkeypatch, capsys, precision):
    # every certificate starts this coarse and escalates; roots are refined
    # from an already narrow bracket, where Newton's guess is at its worst
    _run_readme_commands(tmp_path, monkeypatch, capsys, precision)
