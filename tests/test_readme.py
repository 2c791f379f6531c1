"""The README's command-line block, its JSON output and its Library
snippet run as printed, from the repository root."""

import json
import re
import shlex
from pathlib import Path

import pytest

from ppt.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str, after: str = "") -> str:
    """The first fenced `lang` block after `heading` (and `after`)."""
    start = README.index(heading)
    if after:
        start = README.index(after, start)
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.S | re.M).search(
        README, start)
    return match.group(1)


def _command_lines() -> list[tuple[list[str], int]]:
    """(argv, exit code) per line; a line's comment may say `exits 2`."""
    out = []
    for line in _block("## Command line", "sh").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "ppt", line
        out.append((argv[1:], 2 if "exits 2" in comment else 0))
    return out


COMMAND_LINES = _command_lines()


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("argv, code", COMMAND_LINES,
                         ids=[" ".join(argv) for argv, _ in COMMAND_LINES])
def test_command_line(capsys, at_root, argv, code):
    assert main(argv) == code
    assert capsys.readouterr().err == ""


def test_models_output(capsys, at_root):
    expected = _block("## Command line", "json",
                      after="`ppt models examples/p1.ppt --length 2` prints")
    assert main(["models", "examples/p1.ppt", "--length", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(expected)


def test_library_snippet(at_root):
    exec(compile(_block("## Library", "python"), "README.md", "exec"), {})
