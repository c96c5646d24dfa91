"""The benchmark harness imports gqtvc's public names and calls into
them; each must still resolve, and each job must still give its known
answer, so that changing code cannot silently break the benchmark."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
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



# each workload's inputs and set-up, then each of its jobs once with
# every gqtvc cache emptied, as the harness runs them, but untimed
JOBS = """
import sys
from pathlib import Path
import iteration
for name, workload in iteration.WORKLOADS.items():
    workdir = Path(sys.argv[1]) / name
    workdir.mkdir()
    iteration.make_inputs(name, 0, workdir)
    ctx, tracer = iteration.Context(workdir), iteration.Tracer(False)
    workload.setup(ctx, tracer)
    for job in workload.jobs:
        iteration.clear_caches()
        got = job.run(ctx, tracer)
        assert got == job.expect, (name, job.name, got)
"""


def test_benchmark_jobs_give_their_expected_answers(tmp_path):
    # in a fresh interpreter, as the harness runs them, so that emptying
    # the caches costs no later test its cached results
    root = HARNESS.parent.parent
    path = os.pathsep.join([str(root / "src"), str(HARNESS.parent)])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", JOBS, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def nested_caches(tree):
    """Functions decorated with ``lru_cache`` or ``cache`` inside a
    function or class body of ``tree``: caches no module attribute holds,
    so ``clear_caches`` cannot reach them."""
    for outer in ast.walk(tree):
        if isinstance(outer, (ast.FunctionDef, ast.ClassDef)):
            for node in ast.walk(outer):
                if node is not outer and isinstance(node, ast.FunctionDef) \
                        and any(decorator_name(d) in ("lru_cache", "cache")
                                for d in node.decorator_list):
                    yield f"{outer.name}.{node.name}"


# fills gqtvc's caches, empties them as the harness does before each job,
# and prints the module-level caches that held something before and after
CACHES = """
import json
import sys
import iteration
from gqtvc.formulas import FormulaId, verify_formula
from gqtvc.geometry import get_construction, point_graph
from gqtvc.tvc import check_tvc, count_k44_per_edge
pls = get_construction("w2", dual=True)
check_tvc(point_graph(pls), 5, "reduced")
verify_formula(get_construction("q5_2"), FormulaId("type0"))
count_k44_per_edge(point_graph(pls), max_edges=2)


def filled():
    return sorted(f"{name}.{key}" for name, module in list(sys.modules.items())
                  if name.startswith("gqtvc")
                  for key, obj in vars(module).items()
                  if hasattr(obj, "cache_info") and obj.cache_info().currsize)


before = filled()
iteration.clear_caches()
print(json.dumps([before, filled()]))
"""


def test_clear_caches_reaches_every_function_cache(tmp_path):
    # each benchmark job starts cold only if clear_caches empties every
    # cache in gqtvc; a call-local lru_cache(...)(f) lives for one call
    root = HARNESS.parent.parent
    for path in sorted((root / "src" / "gqtvc").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        assert not list(nested_caches(tree)), path.name
    path = os.pathsep.join([str(root / "src"), str(HARNESS.parent)])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", CACHES], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout.splitlines()[-1])
    assert any(name.startswith("gqtvc.geometry.") for name in before), before
    assert after == [], after
