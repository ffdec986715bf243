"""Checks on the package's source text."""

import ast
from pathlib import Path

import pytest

import hilbertorder

MODULES = sorted(Path(hilbertorder.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source``'s module-level imports bind that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_module_level_import(path):
    # A command line call loads, and where no bytecode is cached compiles,
    # what its modules import, so a leftover import costs every call.
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport os.path as p\n"
              "import sys\nfrom x import (a, b as c)\n\ndef f(y: p.Q):\n    sys.exit(c)\n")
    assert unused_imports(source) == ["os", "a"]
