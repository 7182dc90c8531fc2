"""Every exported name has a caller outside the tests.

A name in ``fractalhull.__all__`` counts as used when a Python file of the
package, the demos or the benchmarks refers to it: as a bare name, as an
attribute (``fh.name``) or in an import.  The package's ``__init__.py``
only re-exports, and a ``def``/``class`` statement is the name's own
definition, not a use, so neither counts.  No name is exported for the
tests alone: their helpers live in ``tests/conftest.py``.
"""

import ast
from pathlib import Path

import fractalhull as fh

ROOT = Path(__file__).resolve().parent.parent

# exported for the tests alone: none
TEST_ONLY: set[str] = set()


def referenced_names() -> set[str]:
    names = set()
    init = ROOT / "src" / "fractalhull" / "__init__.py"
    paths = [p for d in ("src", "demos", "bench", "perfbench")
             for p in (ROOT / d).rglob("*.py")]
    for path in paths:
        if path == init:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_caller():
    unused = set(fh.__all__) - referenced_names()
    assert unused == TEST_ONLY

