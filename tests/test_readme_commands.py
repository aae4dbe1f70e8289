"""README's command-line block, pinned: every command in it, run through
``lttight.cli.run``, prints exactly the stdout and exits with exactly
the code recorded in ``readme_golden.json``.  ``ground`` and ``stable``
read the interpretation literal shown in README."""

import json
import shlex
from pathlib import Path

from lttight.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).with_name("readme_golden.json")


def _fenced_block(text: str, heading: str) -> str:
    """The first fenced code block after ``heading``."""
    after = text.split(heading, 1)[1]
    return after.split("```", 2)[1].split("\n", 1)[1]


def readme_commands() -> list:
    """The command lines of README's command block, comments stripped."""
    block = _fenced_block(README.read_text(encoding="utf-8"), "## Command line")
    lines = (line.split("#", 1)[0].strip() for line in block.splitlines())
    return [line for line in lines if line]


def readme_interpretation() -> str:
    block = _fenced_block(README.read_text(encoding="utf-8"),
                          "### Interpretation literals")
    return block.strip()


def run_readme_command(command: str, interp_path: str, capsys):
    argv = shlex.split(command)[1:]     # drop the program name
    argv = [interp_path if a == "i.txt" else a for a in argv]
    code = run(argv)
    return code, capsys.readouterr().out


def test_readme_commands_match_golden(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    commands = readme_commands()
    assert list(golden) == commands
    interp = tmp_path / "i.txt"
    interp.write_text(readme_interpretation() + "\n", encoding="utf-8")
    for command in commands:
        code, out = run_readme_command(command, str(interp), capsys)
        assert (code, out) == (golden[command]["exit"], golden[command]["stdout"]), command
