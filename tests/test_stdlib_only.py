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


def module_definitions(tree):
    """Names that the module body of ``tree`` defines: functions, classes
    and assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from names


def private_definitions(tree):
    """Private names (``_name``, not dunders) that the module body of
    ``tree`` defines."""
    return (name for name in module_definitions(tree)
            if name.startswith("_") and not name.endswith("__"))


def test_every_private_name_is_read():
    # code with no caller goes: each private module-level name is read
    # somewhere in the package, by name or as an attribute
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    defined = {(path.name, name) for path, tree in zip(SOURCES, trees)
               for name in private_definitions(tree)}
    assert len(defined) > 40
    unread = sorted(d for d in defined if d[1] not in read)
    assert not unread, f"defined but never read: {unread}"


def test_every_method_is_read():
    # code with no caller goes: each method and property that a class in
    # the package defines (dunders aside) is read as an attribute
    # somewhere in the package, its tests or its benchmark
    root = Path(__file__).parent.parent
    read = {node.attr for folder in ("src", "tests", "perfbench")
            for path in (root / folder).rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    defined = {(path.name, cls.name, node.name) for path in SOURCES
               for cls in ast.walk(ast.parse(path.read_text()))
               if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and not (node.name.startswith("__")
                        and node.name.endswith("__"))}
    assert len(defined) > 20
    unread = sorted(d for d in defined if d[2] not in read)
    assert not unread, f"methods never read: {unread}"


def test_every_public_name_is_read():
    # code with no caller goes: each public module-level function, class
    # and assigned name is read, by name or as an attribute, somewhere in
    # the package, its tests or its benchmark; an import is not a read
    root = Path(__file__).parent.parent
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for folder in ("src", "tests", "perfbench")
            for path in (root / folder).rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    defined = {(path.name, name) for path in SOURCES
               for name in module_definitions(ast.parse(path.read_text()))
               if not name.startswith("_")}
    assert len(defined) > 100
    unread = sorted(d for d in defined if d[1] not in read)
    assert not unread, f"defined but never read: {unread}"
