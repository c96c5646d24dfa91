"""One iteration of a perfbench workload, in a fresh interpreter.

    python3 perfbench/iteration.py WORKLOAD SEED WORKDIR TRACE DEADLINE

Run from the root of a gqtvc checkout with ``src`` on ``PYTHONPATH``;
``run.py`` starts one such process per iteration, so set-up starts
cold, as it does for a user of the command line.  The iteration builds
the workload's input graphs, then runs rounds of its jobs, each round
in an order the seed gives and each job with every gqtvc cache emptied
first, checks every answer against the known one and prints one JSON
object as the last line of its standard output.  It starts rounds while
at least half of one more fits before DEADLINE (a ``time.time()``
value).  With TRACE=1 it runs one round with spans recorded around each
call it makes into gqtvc, then the layer probes.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

REFERENCE_ROWS = tuple((0x9E3779B97F4A7C15 * (i + 1)) % (1 << 128)
                       for i in range(64))
# reference_seconds() when the machine runs it at full speed, on the
# 2-vCPU Intel Xeon (Python 3.11.7) this benchmark was tuned on.
REFERENCE_S = 0.0004


def reference_seconds() -> float:
    """Time of a fixed loop, under a millisecond, shaped like gqtvc's
    kernels (popcounts of bitmask intersections, tallies in a dict).  It
    shares no code with gqtvc, so it measures the speed the machine
    gives this process at the moment and nothing a change to gqtvc can
    move."""
    rows = REFERENCE_ROWS
    tally: dict[int, int] = {}
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for ri in rows:
        for rj in rows:
            c = (ri & rj).bit_count()
            tally[c] = tally.get(c, 0) + 1
    seconds = time.perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


class SpeedSampler:
    """Wall time of a stretch of code, and that time at reference speed.

    Other tenants of a shared machine slow it down by up to twice,
    changing within a second, so wall times of one job spread across
    runs by more than the regressions the benchmark must catch.  While
    the code runs, a SIGALRM timer runs the reference loop every
    ``INTERVAL_S``; ``seconds`` is the wall time less those samples,
    scaled by REFERENCE_S over their mean (three more samples are taken
    on either side, for code shorter than the interval)."""

    INTERVAL_S = 0.025

    def start(self) -> None:
        self.samples = [reference_seconds() for _ in range(3)]
        self.spent = 0.0
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self._start = time.perf_counter()

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.samples += [reference_seconds() for _ in range(3)]
        self.seconds = ((self.wall_s - self.spent) * REFERENCE_S
                        / statistics.mean(self.samples))

    def _sample(self, signum, frame) -> None:
        seconds = reference_seconds()
        self.samples.append(seconds)
        self.spent += seconds

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# Set-up is timed from here: importing gqtvc is part of what a user waits for.
SETUP = SpeedSampler()
if __name__ == "__main__":
    SETUP.start()

from gqtvc import (Graph, build_elliptic_gq, build_flock_gq,  # noqa: E402
                   build_symplectic_gq, build_t2star_gq, canonical_code,
                   check_gq_axiom, check_isoregular, check_tvc,
                   count_k44_per_edge, count_type_anchored, dualize,
                   enumerate_types, from_graph6, induced_subgraph,
                   pair_fingerprint, payne_qclan, point_graph,
                   srg_parameters, to_graph6, verify_formula)
from gqtvc import cli  # noqa: E402
from gqtvc.formulas import FormulaId  # noqa: E402


class Tracer:
    """Spans kept in memory, each with its name, start, end, the index of
    the span that encloses it and the job it belongs to; plus work
    counts read from return values or computed from input sizes."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else contextlib.nullcontext()

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._open[-1] if self._open else None
        job = self.spans[self._open[0]]["name"] if self._open else name
        index = len(self.spans)
        record = {"name": name, "job": job, "parent": parent,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


@dataclass
class Context:
    workdir: Path
    graphs: dict[str, Graph] = field(default_factory=dict)
    geometries: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[Context, Tracer], Any]  # returns the observed answer
    expect: Any  # the known answer
    cli: bool = False  # the workload's one in-process cli.main call


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Context, Tracer], None]  # makes every input graph
    jobs: tuple[Job, ...]
    probe_graph: str  # the input graph the layer probes run on
    probe_t: int  # subgraph order of the canonical-code and census probes
    probe_k44_edges: int


# -- jobs -------------------------------------------------------------------

def srg_job(name: str, graph: str, expect: tuple) -> Job:
    def run(ctx, tr):
        with tr.span("regularity.srg"):
            p = srg_parameters(ctx.graphs[graph])
        return (p.v, p.k, p.lam, p.mu)
    return Job(name, run, expect)


def count_exhaustive_scan(tr: Tracer, n: int, t: int) -> None:
    """Computed size of an exhaustive scan: every ordered pair, with every
    (t-2)-subset of the other vertices."""
    pairs = n * (n - 1)
    tr.count("tvc.ordered_pairs", pairs)
    tr.count("tvc.subsets", pairs * math.comb(n - 2, t - 2))


def tvc_exhaustive_job(name: str, graph: str, t: int) -> Job:
    def run(ctx, tr):
        g = ctx.graphs[graph]
        with tr.span("tvc.check_tvc_exhaustive"):
            verdict = check_tvc(g, t)
        count_exhaustive_scan(tr, g.n, t)
        return verdict.status
    return Job(name, run, "satisfied")


def tvc_reduced_job(name: str, graph: str, t: int, k: int) -> Job:
    def run(ctx, tr):
        with tr.span("tvc.check_tvc_reduced"):
            verdict = check_tvc(ctx.graphs[graph], t, mode="reduced", k=k)
        return verdict.status
    return Job(name, run, "satisfied")


def isoregular_job(name: str, graph: str, k: int) -> Job:
    def run(ctx, tr):
        with tr.span("regularity.isoregular"):
            report = check_isoregular(ctx.graphs[graph], k)
        return report.ok
    return Job(name, run, True)


def formula_job(name: str, geometry: str, fid: FormulaId, points: int) -> Job:
    def run(ctx, tr):
        with tr.span("formulas.verify_formula"):
            report = verify_formula(ctx.geometries[geometry], fid)
        tr.count("formulas.pairs_checked", report.pairs_checked)
        return report.ok, report.pairs_checked
    return Job(name, run, (True, points * (points - 1)))


def gq_axiom_job(name: str, geometry: str, order: tuple) -> Job:
    def run(ctx, tr):
        with tr.span("geometry.gq_axiom"):
            res = check_gq_axiom(ctx.geometries[geometry])
        return bool(res), res.order
    return Job(name, run, (True, order))


def cli_job(name: str, argv: Callable[[Context], list[str]], expect: dict,
            count: Callable[[Context, Tracer, dict], None]) -> Job:
    """The CLI job: exit code and the named fields of its --json-out
    report.  What it prints goes to a buffer, not to the result line."""
    def run(ctx, tr):
        report = ctx.workdir / f"{name}.json"
        with contextlib.redirect_stdout(io.StringIO()), tr.span("cli.main"):
            code = cli.main(argv(ctx) + ["--json-out", str(report)])
        data = json.loads(report.read_text())
        count(ctx, tr, data)
        return code, {key: data.get(key) for key in expect}
    return Job(name, run, (0, expect), cli=True)


# -- workloads --------------------------------------------------------------

EXHAUSTIVE_SOURCES = {"w3": lambda: build_symplectic_gq(3),
                      "gq24": lambda: build_elliptic_gq(2)}


def relabelled_graph6(g: Graph, rng: random.Random) -> str:
    """graph6 of g with its vertices renamed by a seeded permutation."""
    perm = rng.sample(range(g.n), g.n)
    rows = [0] * g.n
    for i, row in enumerate(g.rows):
        for j in range(g.n):
            if (row >> j) & 1:
                rows[perm[i]] |= 1 << perm[j]
    return to_graph6(Graph(g.n, tuple(rows)))


def make_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the input files a workload reads.  Only exhaustive-g6 has
    any: seeded relabellings of the W(3) and GQ(2,4) point graphs."""
    if workload != "exhaustive-g6":
        return
    rng = random.Random(seed)
    for name, build in EXHAUSTIVE_SOURCES.items():
        text = relabelled_graph6(point_graph(build()), rng)
        (workdir / f"{name}.g6").write_text(text + "\n")


def setup_exhaustive(ctx, tr):
    for name in EXHAUSTIVE_SOURCES:
        text = (ctx.workdir / f"{name}.g6").read_text()
        with tr.span("graph.from_graph6"):
            ctx.graphs[name] = from_graph6(text)


def setup_anchored(ctx, tr):
    with tr.span("geometry.build"):
        gq24 = build_elliptic_gq(2)
        ctx.geometries["gq39"] = build_elliptic_gq(3)
        t2star = build_t2star_gq()
    with tr.span("geometry.dualize"):
        ctx.geometries["t2star-dual"] = dualize(t2star)
    with tr.span("geometry.point_graph"):
        ctx.graphs["gq24"] = point_graph(gq24)


def setup_flock(ctx, tr):
    with tr.span("algebra.qclan"):
        clan = payne_qclan()
    with tr.span("geometry.build"):
        payne = build_flock_gq(clan)
    with tr.span("geometry.dualize"):
        dual = ctx.geometries["payne-dual"] = dualize(payne)
    with tr.span("geometry.point_graph"):
        ctx.graphs["payne"] = point_graph(payne)
        ctx.graphs["payne-dual"] = point_graph(dual)


def count_cli_exhaustive(ctx, tr, report):
    count_exhaustive_scan(tr, ctx.graphs["w3"].n, report["t"])


def count_cli_formula(ctx, tr, report):
    tr.count("formulas.pairs_checked", report["pairs_checked"])


def count_cli_k44(ctx, tr, report):
    tr.count("tvc.k44_edges", report["edges_scanned"])


# Job sizes keep one round to a few seconds on two shared cores, so a run
# holds several rounds of each job.
WORKLOADS = {
    "exhaustive-g6": Workload(
        setup_exhaustive,
        (
            cli_job("cli-check-tvc-w3",
                    lambda ctx: ["check-tvc", "--input",
                                 str(ctx.workdir / "w3.g6"), "--t", "4"],
                    {"status": "satisfied", "t": 4}, count_cli_exhaustive),
            tvc_exhaustive_job("tvc-gq24-t5", "gq24", 5),
            srg_job("srg-w3", "w3", (40, 12, 2, 4)),
            srg_job("srg-gq24", "gq24", (27, 10, 1, 5)),
        ),
        probe_graph="w3", probe_t=5, probe_k44_edges=40),
    "anchored-oracles": Workload(
        setup_anchored,
        (
            isoregular_job("isoregular-gq24", "gq24", 3),
            tvc_reduced_job("tvc-reduced-gq24-t6", "gq24", 6, 3),
            formula_job("type0-gq39", "gq39", FormulaId("type0"), 112),
            formula_job("type3a-t2star-dual", "t2star-dual",
                        FormulaId("type3a"), 96),
            formula_job("completeS-T2-0-gq39", "gq39",
                        FormulaId("completeS", ("T-2", 0), None, 3), 112),
            cli_job("cli-verify-formula",
                    lambda ctx: ["verify-formula", "--construct", "q5_3",
                                 "--family", "completeS", "--dx", "1",
                                 "--dy", "1", "--size", "2", "--zx-eq-zy"],
                    {"pairs_checked": 112 * 111, "mismatches": []},
                    count_cli_formula),
        ),
        probe_graph="gq24", probe_t=6, probe_k44_edges=40),
    "flock-k44": Workload(
        setup_flock,
        (
            gq_axiom_job("gq-axiom-payne-dual", "payne-dual", (5, 25)),
            srg_job("srg-payne", "payne", (3276, 150, 24, 6)),
            srg_job("srg-payne-dual", "payne-dual", (756, 130, 4, 26)),
            # The first 125 edges of the dual Payne point graph all lie in
            # 7896 induced K4,4 subgraphs; the 126th gives 8000.
            cli_job("cli-k44-census",
                    lambda ctx: ["k44-census", "--construct", "payne",
                                 "--dual", "--max-edges", "4"],
                    {"edges_scanned": 4, "distinct_values": [7896]},
                    count_cli_k44),
        ),
        probe_graph="payne-dual", probe_t=4, probe_k44_edges=2),
}


# -- running ------------------------------------------------------------------

def clear_caches() -> None:
    """Empty every functools cache in gqtvc, so each job starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "gqtvc" or name.startswith("gqtvc."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def run_jobs(workload: Workload, ctx: Context, tr: Tracer,
             rng: random.Random, round_index: int = 0) -> list[dict]:
    jobs = list(workload.jobs)
    rng.shuffle(jobs)
    results = []
    for job in jobs:
        clear_caches()
        with SpeedSampler() as timer:
            try:
                with tr.span(job.name):
                    got = job.run(ctx, tr)
                error = None if got == job.expect else \
                    f"expected {job.expect!r}, got {got!r}"
            except Exception as exc:  # a job that raises is a failed job
                error = f"{type(exc).__name__}: {exc}"
        results.append({"job": job.name, "cli": job.cli, "round": round_index,
                        "seconds": timer.seconds, "wall_s": timer.wall_s,
                        "error": error})
    return results


def run_probes(workload: Workload, ctx: Context, tr: Tracer,
               rng: random.Random) -> None:
    """Time single layers directly on the workload's own graphs: the calls
    its jobs make only from inside gqtvc."""
    clear_caches()
    for g in ctx.graphs.values():
        with tr.span("graph.validate"):
            Graph(g.n, g.rows)
    g = ctx.graphs[workload.probe_graph]
    t = workload.probe_t
    x, y = rng.sample(range(g.n), 2)
    rest = [v for v in range(g.n) if v not in (x, y)]
    subgraphs = [induced_subgraph(g, [x, y] + rng.sample(rest, t - 2))
                 for _ in range(200)]
    with tr.span("graph.canonical_code"):
        for h in subgraphs:
            canonical_code(h, (0, 1))
    with tr.span("tvc.pair_fingerprint"):
        pair_fingerprint(g, t, (x, y))
    with tr.span("gtypes.enumerate_types"):
        types = enumerate_types(7, 4)
    tr.count("gtypes.types", len(types))
    adjacent = g.has_edge(x, y)
    for ty in rng.sample(enumerate_types(t, 0), 3):
        with tr.span("tvc.count_type_anchored"):
            count_type_anchored(g, ty.concrete(adjacent), (x, y))
    with tr.span("tvc.k44"):
        counts = count_k44_per_edge(g, max_edges=workload.probe_k44_edges)
    tr.count("tvc.k44_edges", len(counts))


def main(argv: list[str]) -> int:
    name, seed, workdir, trace, deadline = argv
    workload = WORKLOADS[name]
    tr = Tracer(trace == "1")
    ctx = Context(Path(workdir))
    with tr.span("setup"):
        workload.setup(ctx, tr)
    SETUP.stop()
    rng = random.Random(int(seed))
    jobs = run_jobs(workload, ctx, tr, rng)
    if tr.enabled:
        with tr.span("probes"):
            run_probes(workload, ctx, tr, rng)
    else:
        # Jobs last up to a few seconds and the machine's speed changes
        # within seconds, so a run needs many samples of each job.
        rounds = 1
        round_s = sum(j["wall_s"] for j in jobs)
        while time.time() + round_s / 2 < float(deadline):
            begin = time.perf_counter()
            jobs += run_jobs(workload, ctx, tr, rng, rounds)
            round_s = time.perf_counter() - begin
            rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"traced": tr.enabled, "setup_s": SETUP.seconds,
                      "setup_wall_s": SETUP.wall_s, "jobs": jobs,
                      "peak_rss_mb": peak_rss_mb, "spans": tr.spans,
                      "counts": tr.counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
