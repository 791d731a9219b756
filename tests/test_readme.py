"""The README's Python quickstart and CLI examples run against the library
as it stands."""

import re
import shlex
import shutil

from conftest import FIXTURES

from violator_spaces.cli import main

README = FIXTURES.parent / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE)


def test_readme_quickstart_runs_and_prints_what_it_says(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "[0, 2]"
    assert int(lines[1]) > 0
    assert lines[2] == "True"


def test_readme_cli_commands_exit_0(monkeypatch, tmp_path):
    # the commands read fixtures/ and write uso.json and table.json
    # relative to the working directory
    blocks = [b for b in _blocks("sh") if re.search(r"^vspace ", b, flags=re.MULTILINE)]
    assert len(blocks) == 1
    commands = [line for line in blocks[0].replace("\\\n", " ").splitlines()
                if line.startswith("vspace ")]
    assert len(commands) == 11
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
    assert (tmp_path / "table.json").exists()
