"""The benchmark harness imports gqtvc's public names and calls into
them; each must still resolve, and each job must still give its known
answer, so that changing code cannot silently break the benchmark."""

import ast
import importlib.util
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
