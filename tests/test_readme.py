"""The README's examples run as written: every command of the sh block
under `## Command line` exits 0, in order, in a fresh directory, and the
python block under `## Library` runs without error."""

import re
import shlex
from pathlib import Path

from polybound.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, language):
    """The first `language` code block after `heading`."""
    text = README.read_text(encoding="ascii")
    section = text[text.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def readme_commands():
    """The commands of the first sh block after `## Command line`, with
    continuation lines joined, as argument lists without `polybound`."""
    commands = []
    for line in readme_block("## Command line", "sh").replace("\\\n", " ").splitlines():
        program, *argv = shlex.split(line)
        assert program == "polybound", line
        commands.append(argv)
    return commands


def test_readme_command_line_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert any("vertices" in argv and "rs" in argv for argv in commands)
    for argv in commands:
        assert main(argv) == 0, shlex.join(argv)
    capsys.readouterr()


def test_readme_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(readme_block("## Library", "python"), namespace)
    assert namespace["v"].rays
