"""Every name a library module imports is used in that module.

`__init__.py` imports to re-export, so it is left out, and so is the
documented re-export `instances.tabulate`, which `bench/` calls.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "violator_spaces"
REEXPORTED = {"instances.py": {"tabulate"}}


def _unused(source, exempt=()):
    """`line: name` for each name an import binds that no expression
    of the source reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [f"{node.lineno}: {name}" for name in bound
                   if name not in used and name not in exempt]
    return unused


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_every_imported_name_is_used(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert _unused(source, REEXPORTED.get(module, ())) == []


def test_an_unused_import_is_found():
    source = "from typing import List, Tuple\nimport os.path\nx: Tuple = ()\n"
    assert _unused(source) == ["1: List", "2: os"]
