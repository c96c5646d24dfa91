"""Time to verdict for gqtvc, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gqtvc checkout; it needs only the standard
library and the sources under ``src``.  It splits ``--seconds`` among
``ITERATIONS`` iterations of the workload, each in a fresh interpreter
(``iteration.py``) that sets up once and then runs rounds of the jobs
until its share of the time is used.  It checks every job's answer and
prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, taken over the iterations
whose jobs all gave the known answer: set-up time and memory are
medians, and so are job times (see ``job_seconds``); all times are
scaled to a fixed machine speed (see ``iteration.SpeedSampler``).  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
traced iterations (one round each) alternate with untraced ones and the
metrics are the per-layer ones, each layer's self time taken from the
spans.  Run records and spans are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
END_TO_END = {"setup_s": "s", "verdict_s": "s", "cli_s": "s",
              "peak_rss_mb": "MB"}
# Layer metrics ending in _s are the self time of the spans of that name.
PER_LAYER = {
    "graph.from_graph6_s": "s", "graph.validate_s": "s",
    "graph.canonical_code_s": "s", "algebra.qclan_s": "s",
    "geometry.build_s": "s", "geometry.dualize_s": "s",
    "geometry.point_graph_s": "s", "geometry.gq_axiom_s": "s",
    "regularity.srg_s": "s", "regularity.isoregular_s": "s",
    "gtypes.enumerate_types_s": "s", "gtypes.types": "count",
    "tvc.check_tvc_exhaustive_s": "s", "tvc.pair_fingerprint_s": "s",
    "tvc.ordered_pairs": "count", "tvc.subsets": "count",
    "tvc.check_tvc_reduced_s": "s", "tvc.count_type_anchored_s": "s",
    "tvc.k44_s": "s", "tvc.k44_edges": "count",
    "formulas.verify_formula_s": "s", "formulas.pairs_checked": "count",
    "cli.main_s": "s", "trace.overhead_s": "s",
}
ITERATIONS = 3  # fresh interpreters per run: three set-ups for the median
RUN_LIMIT_S = 170  # a run must end within 180 s


def run_iteration(workload: str, seed: int, workdir: Path, traced: bool,
                  deadline: float, timeout: float) -> dict | None:
    """One iteration in a fresh interpreter; None if it did not finish."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "iteration.py"), workload, str(seed),
            str(workdir), "1" if traced else "0", repr(deadline)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: iteration exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: iteration exited with {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def job_seconds(results: list[dict], cli: bool) -> float:
    """Each job's median time over all rounds of the run, summed over
    the library jobs (cli=False) or the CLI job (cli=True).  Job times
    are at reference speed (see ``iteration.SpeedSampler``)."""
    times: dict[str, list[float]] = {}
    for r in results:
        for j in r["jobs"]:
            if j["cli"] == cli:
                times.setdefault(j["job"], []).append(j["seconds"])
    return sum(statistics.median(t) for t in times.values())


def round_seconds(results: list[dict]) -> list[float]:
    """Summed time of the library jobs of each round."""
    rounds: dict[tuple[int, int], float] = {}
    for i, r in enumerate(results):
        for j in r["jobs"]:
            if not j["cli"]:
                key = (i, j["round"])
                rounds[key] = rounds.get(key, 0.0) + j["seconds"]
    return list(rounds.values())


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name, the summed duration not covered by child spans."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s, seconds in zip(spans, own):
        totals[s["name"]] = totals.get(s["name"], 0.0) + seconds
    return totals


def end_to_end_metrics(results: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "verdict_s": job_seconds(results, cli=False),
        "cli_s": job_seconds(results, cli=True),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_layer_metrics(results: list[dict]) -> dict[str, float]:
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    per_run = [self_times(r["spans"]) | r["counts"] for r in traced]
    out = {}
    for name in PER_LAYER:
        key = name[:-2] if name.endswith("_s") else name
        out[name] = statistics.median(m.get(key, 0) for m in per_run)
    # Traced iterations run one round each; untraced ones several.
    out["trace.overhead_s"] = (statistics.median(round_seconds(traced))
                               - statistics.median(round_seconds(plain)))
    return out


def tally(results: list[dict | None], jobs_per_round: int):
    """Jobs attempted and failed, the iterations whose jobs all passed,
    and the distinct errors.  An iteration that did not finish counts as
    one round of failed jobs."""
    attempted = failed = 0
    errors = set()
    passed = []
    for r in results:
        if r is None:
            attempted += jobs_per_round
            failed += jobs_per_round
            continue
        bad = [j for j in r["jobs"] if j["error"]]
        attempted += len(r["jobs"])
        failed += len(bad)
        errors.update(f"{j['job']}: {j['error']}" for j in bad)
        if not bad:
            passed.append(r)
    return attempted, failed, passed, sorted(errors)


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gqtvc" / "__init__.py").is_file():
        print("perfbench: src/gqtvc not found; run from the root of a gqtvc "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import iteration  # needs gqtvc on the path

    if args.workload not in iteration.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(iteration.WORKLOADS)}", file=sys.stderr)
        return 2
    jobs_per_round = len(iteration.WORKLOADS[args.workload].jobs)
    out = root / ".perfbench"
    workdir = out / f"work-{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    iteration.make_inputs(args.workload, args.seed, workdir)

    # Each iteration gets an equal share of --seconds; one that ran over
    # its share leaves the next one less.
    started = time.time()
    results: list[dict | None] = []
    for i in range(ITERATIONS):
        elapsed = time.time() - started
        if elapsed > RUN_LIMIT_S - 10:
            break
        traced = bool(args.trace) and i % 2 == 0
        deadline = started + args.seconds * (i + 1) / ITERATIONS
        results.append(run_iteration(args.workload, args.seed, workdir,
                                     traced, deadline, RUN_LIMIT_S - elapsed))

    attempted, failed, passed, errors = tally(results, jobs_per_round)
    for e in errors:
        print(f"perfbench: wrong answer: {e}", file=sys.stderr)

    # A wrong answer is never timed as a success; if no iteration passed,
    # the times of the failed ones are reported under correct=false.
    timed = passed or [r for r in results if r is not None]
    names = PER_LAYER if args.trace else END_TO_END
    if not timed or (args.trace and
                     {r["traced"] for r in timed} != {True, False}):
        metrics = {name: 0.0 for name in names}
    elif args.trace:
        metrics = per_layer_metrics(timed)
    else:
        metrics = end_to_end_metrics(timed)

    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": commit(root), "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": src_lines(root),
            "iterations": len(results), "iterations_passed": len(passed),
            "error_rate": failed / attempted}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "metrics": metrics,
              "iterations": [r and {k: v for k, v in r.items() if k != "spans"}
                             for r in results]}
    (out / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = [dict(s, iteration=i) for i, r in enumerate(results)
                 if r and r["traced"] for s in r["spans"]]
        (out / f"{tag}-spans.json").write_text(json.dumps(spans) + "\n")

    print("perfbench " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
