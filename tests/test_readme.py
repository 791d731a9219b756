"""The README's Python quickstart runs against the library as it stands."""

import re

from conftest import FIXTURES

README = FIXTURES.parent / "README.md"


def test_readme_quickstart_runs_and_prints_what_it_says(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "[0, 2]"
    assert int(lines[1]) > 0
    assert lines[2] == "True"
