"""gqtvc runs on the standard library alone; third-party packages such
as networkx and hypothesis are for the tests."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "gqtvc").glob("*.py"))


def imported_modules(tree):
    """Top-level names of the absolute imports anywhere in ``tree``,
    those inside functions included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_are_stdlib_only():
    assert SOURCES
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        foreign = set(imported_modules(tree)) - sys.stdlib_module_names
        assert not foreign, f"{path.name} imports {sorted(foreign)}"
