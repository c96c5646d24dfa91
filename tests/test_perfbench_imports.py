"""The benchmark harness imports gqtvc's public names; each must still
resolve, so that removing code cannot silently break the benchmark."""

import ast
import importlib.util
from pathlib import Path

HARNESS = Path(__file__).parent.parent / "perfbench" / "iteration.py"


def gqtvc_imports(tree):
    """(module, name) for each name imported from gqtvc or a submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "gqtvc":
            yield from ((node.module, alias.name) for alias in node.names)


def test_benchmark_imports_resolve():
    tree = ast.parse(HARNESS.read_text(), filename=str(HARNESS))
    names = list(gqtvc_imports(tree))
    assert ("gqtvc.formulas", "FormulaId") in names
    for module, name in names:
        mod = importlib.import_module(module)
        # a name is an attribute of its module, or one of its submodules
        assert hasattr(mod, name) or importlib.util.find_spec(
            f"{module}.{name}"), f"{HARNESS.name} imports {module}.{name}"
