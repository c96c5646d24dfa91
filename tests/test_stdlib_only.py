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


def unused_imports(tree):
    """Names bound by the imports of ``tree`` that no expression reads;
    ``from __future__`` imports bind no name the module means to read."""
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_modules_use_every_name_they_import():
    # __init__.py imports to re-export
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        unused = unused_imports(tree)
        assert not unused, f"{path.name} never uses {unused}"
