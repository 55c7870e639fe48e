"""The oracles stay independent of the library they check.

``tests/oracles.py`` is the reference the library is tested against; an
oracle that imported a library function would share that function's
faults and pass with them.  This parses the file and rejects every import
from the ``infoplay`` package.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def _infoplay_imports(source):
    """The ``infoplay`` modules that ``source`` imports, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.partition(".")[0] == "infoplay"]
    return found


def test_the_guard_sees_library_imports():
    source = "import numpy\nimport infoplay.games\nfrom infoplay.entropy import j_function\n"
    assert _infoplay_imports(source) == [(2, "infoplay.games"), (3, "infoplay.entropy")]


def test_oracles_import_nothing_from_infoplay():
    assert _infoplay_imports(ORACLES.read_text()) == []
