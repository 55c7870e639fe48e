"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

import infoplay

PACKAGE = Path(infoplay.__file__).parent
# a package's __init__ imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports, at any depth, and never reads.

    ``import a.b`` binds ``a``; a ``__future__`` import binds no name.  A
    name counts as read wherever it is loaded, in any scope, so an import
    whose only reads are of another binding of its name goes unnoticed."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
              "def f():\n    import mmap\n    return np.zeros(1), tau\n")
    assert unused_imports(source) == ["mmap", "os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
