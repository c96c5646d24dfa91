"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a gqtvc checkout; takes about half a minute.  It
checks that both modes of run.py print every metric BENCHMARK.json
names, each with its unit; that a deliberately wrong expected answer is
counted as a failed job and raises the error rate; and that run.py
fails, printing no result, where there are no gqtvc sources.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path.cwd()


def result_line(args: list[str], cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def check_metric_names(spec: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = result_line(["--workload", "exhaustive-g6", "--seed",
                                    "0", "--seconds", "1", "--trace",
                                    str(trace)])
        assert code == 0, f"run.py --trace {trace} exited with {code}"
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, f"--trace {trace}: {got} != {want}"
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())


def check_wrong_answer_counts(workdir: Path) -> None:
    import iteration

    iteration.make_inputs("exhaustive-g6", 0, workdir)
    right = iteration.srg_job("srg-w3", "w3", (40, 12, 2, 4))
    wrong = dataclasses.replace(right, name="srg-w3-wrong",
                                expect=(40, 12, 2, 5))
    workload = dataclasses.replace(iteration.WORKLOADS["exhaustive-g6"],
                                   jobs=(right, wrong))
    ctx = iteration.Context(workdir)
    tracer = iteration.Tracer(False)
    workload.setup(ctx, tracer)
    result = {"jobs": iteration.run_jobs(workload, ctx, tracer,
                                         random.Random(0))}
    attempted, failed, passed, errors = run.tally([result], 2)
    assert (attempted, failed, passed) == (2, 1, []), (attempted, failed)
    assert errors == ["srg-w3-wrong: expected (40, 12, 2, 5), "
                      "got (40, 12, 2, 4)"], errors
    attempted, failed, passed, _ = run.tally([result, None], 2)
    assert (attempted, failed) == (4, 3), "a lost iteration fails its jobs"


def check_fails_without_sources(empty: Path) -> None:
    shutil.copytree(run.HERE, empty / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", empty)
    code, result = result_line(["--workload", "exhaustive-g6", "--seed", "0",
                                "--seconds", "1", "--trace", "0"], cwd=empty)
    assert code != 0 and result is None, (code, result)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "empty").mkdir(parents=True)
    sys.path.insert(0, str(ROOT / "src"))
    check_metric_names(spec)
    check_wrong_answer_counts(scratch)
    check_fails_without_sources(scratch / "empty")
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
