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


def unused_definitions(source: str, package: list[str], exported: set[str]) -> list[str]:
    """The module-level functions, classes and assigned names of ``source``
    that no module of ``package`` uses in code (as a name it reads, an
    attribute or an imported name) and that ``exported`` does not name; dunder
    hooks such as a module's ``__getattr__``, which Python itself calls, count
    as used."""
    used = set(exported)
    for text in package:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name)]
    return [name for name in defined
            if name not in used and not (name.startswith("__") and name.endswith("__"))]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_definition(path):
    # A definition that no code of the package uses is code to delete: where
    # a command line call loads its module (cli, curve and pointio on every
    # call), it also costs each call a compile where no bytecode is cached.
    package = [module.read_text(encoding="utf-8") for module in MODULES]
    exported = {name for names in hilbertorder._EXPORTS.values() for name in names.split()}
    assert unused_definitions(path.read_text(encoding="utf-8"), package, exported) == []


def test_finds_an_unused_definition():
    source = ("import m\n\nclass A:\n    def b(self):\n        return m.c(d)\n\n"
              "def c():\n    pass\n\ndef d():\n    pass\n\ndef e():\n    pass\n\n"
              "def f():\n    pass\n\nclass G:\n    pass\n\ndef __getattr__(name):\n    pass\n\n"
              "H = 1\nI: int = H\n_J, K = L = (1, 2)\n__all__ = ['A']\nM = m.K\n")
    other = "from x import e as y\n"
    assert unused_definitions(source, [source, other], {"A"}) == ["f", "G", "I", "_J", "L", "M"]
