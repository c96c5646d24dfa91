"""Command-line front end.

Each subcommand is one row of ``COMMANDS``: its name, the options it
reads, and a function that returns the exit code, the report fields and
the lines to print.  ``main`` prints the lines and writes the report,
with its provenance, for every subcommand alike.

Exit codes: 0 pass/satisfied, 1 fail/violated, 2 inconclusive (budget
exhausted), 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, NamedTuple

from .formulas import (FormulaError, FormulaId, ORDER5_FAMILIES,
                       verify_formula)
from .geometry import (CONSTRUCTIONS, GeometryError, check_gq_axiom,
                       export_incidence, get_construction, point_graph)
from .graph import (BudgetExceeded, Graph, GraphError, read_graph6_file,
                    write_graph6_file)
from .gtypes import ORDER5_COMPLEMENTS, order5_type
from .regularity import DEGENERATE, check_isoregular, srg_parameters
from .tvc import TvcVerdict, check_tvc, count_k44_per_edge, count_type_anchored

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

EXIT_BY_STATUS = {"satisfied": EXIT_PASS, "violated": EXIT_FAIL,
                  "inconclusive": EXIT_INCONCLUSIVE}

# exit code, report fields, printed lines
Result = tuple[int, dict, list[str]]


class UsageError(Exception):
    pass


def _exit(ok) -> int:
    return EXIT_PASS if ok else EXIT_FAIL


def _provenance(args) -> dict:
    out = {}
    if getattr(args, "construct", None):
        out["construction"] = args.construct
        out["dual"] = args.dual
        out["field_size"] = CONSTRUCTIONS[args.construct].field_size
    for key in ("input", "t", "k", "mode", "budget_seconds"):
        if getattr(args, key, None) is not None:
            out[key] = getattr(args, key)
    return out


def _load_graph(args) -> Graph:
    if args.input and args.construct:
        raise UsageError("give --construct or --input, not both")
    if args.input:
        try:
            graphs = read_graph6_file(args.input)
        except UnicodeDecodeError as exc:
            raise UsageError(f"{args.input} is not graph6 text") from exc
        if len(graphs) != 1:
            raise UsageError(f"{args.input} holds {len(graphs)} graphs; "
                             f"give a file with exactly one")
        return graphs[0]
    if args.construct:
        return point_graph(get_construction(args.construct, args.dual))
    raise UsageError("provide --construct or --input")


def _verdict_result(verdict: TvcVerdict) -> Result:
    report = {"t": verdict.t, "status": verdict.status,
              "representatives": verdict.representatives,
              "rank3": verdict.rank3, "generators": verdict.generators,
              "searched": verdict.searched, "k": verdict.k}
    lines = [f"{verdict.t}-vertex condition: {verdict.status} "
             f"({verdict.mode} mode{', rank 3' if verdict.rank3 else ''})"]
    w = verdict.witness
    if w is not None:
        ty = w.graph_type
        report["witness"] = {
            "type_order": ty.order, "type_rows": list(ty.rows),
            "pair_adjacent": ty.pair_adjacent,
            "pair_a": list(w.pair_a), "count_a": w.count_a,
            "pair_b": list(w.pair_b), "count_b": w.count_b,
        }
        lines.append(f"distinguishing type of order {ty.order}: rows "
                     f"{ty.rows}, pair adjacent: {ty.pair_adjacent}")
        lines.append(f"pair {w.pair_a} has count {w.count_a}, "
                     f"pair {w.pair_b} has count {w.count_b}")
    return EXIT_BY_STATUS[verdict.status], report, lines


# -- subcommands ----------------------------------------------------------

def run_construct(args) -> Result:
    pls = get_construction(args.construct, args.dual)
    gq = check_gq_axiom(pls)
    report = {
        "points": pls.num_points,
        "lines": len(pls.lines),
        # the axiom check reports an order once the PLS axioms hold
        "pls_valid": gq.order is not None,
        "gq_axiom": bool(gq),
        "order": list(gq.order) if gq.order else None,
    }
    lines = [f"points: {pls.num_points}  lines: {len(pls.lines)}"]
    if gq:
        lines.append(f"GQ of order {gq.order}: axiom holds")
    else:
        report["witness"] = repr(gq.witness)
        lines.append(f"axiom fails: {gq.witness!r}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(export_incidence(pls))
        lines.append(f"incidence written to {args.out}")
    return _exit(gq), report, lines


def run_check_srg(args) -> Result:
    params = srg_parameters(_load_graph(args))
    if params is None:
        return EXIT_FAIL, {"srg": False}, ["not strongly regular"]
    if params is DEGENERATE:
        return (EXIT_PASS, {"srg": "degenerate"},
                ["degenerate (complete or empty)"])
    feasible = params.feasible()
    report = {"srg": True, "feasible": feasible,
              "parameters": [params.v, params.k, params.lam, params.mu]}
    return EXIT_PASS, report, [
        f"SRG({params.v}, {params.k}, {params.lam}, {params.mu})",
        f"identity k(k-lam-1) = (v-k-1)mu: "
        f"{'holds' if feasible else 'FAILS'}",
    ]


def run_check_isoregular(args) -> Result:
    g = _load_graph(args)
    deadline = None if args.budget_seconds is None \
        else time.monotonic() + args.budget_seconds
    try:
        rep = check_isoregular(g, args.k, deadline)
    except BudgetExceeded:
        return (EXIT_INCONCLUSIVE, {"isoregular": None,
                                    "status": "inconclusive"},
                [f"{args.k}-isoregular: inconclusive (budget exhausted)"])
    report = {"isoregular": rep.ok,
              "status": "satisfied" if rep.ok else "violated",
              "representatives": rep.representatives,
              "table": {f"order{o}_edges{e}": v
                        for (o, e), v in sorted(rep.table.items())}}
    lines = [f"{args.k}-isoregular: {'yes' if rep.ok else 'no'}"]
    if not rep.ok:
        report["witness"] = [list(rep.witness[0]), list(rep.witness[1])]
        lines.append(f"witness sets: {rep.witness[0]} vs {rep.witness[1]}")
    return _exit(rep.ok), report, lines


def run_check_tvc(args) -> Result:
    """Also ``find-distinguisher``, which has no ``--mode``: reduced."""
    return _verdict_result(check_tvc(
        _load_graph(args), args.t, mode=getattr(args, "mode", "reduced"),
        budget_seconds=args.budget_seconds))


def run_count_type(args) -> Result:
    g = _load_graph(args)
    x, y = args.x, args.y
    # the kernel rejects a pair out of range before has_edge can fail
    count = count_type_anchored(g, order5_type(args.type), (x, y))
    adj = g.has_edge(x, y)
    report = {"type": args.type, "pair": [x, y], "pair_adjacent": adj,
              "count": count}
    return EXIT_PASS, report, [f"type {args.type} anchored at ({x}, {y}): "
                               f"{count}"]


def run_k44_census(args) -> Result:
    counts = count_k44_per_edge(_load_graph(args),
                                stop_after_values=args.stop_after_values,
                                max_edges=args.max_edges)
    values = sorted(set(counts.values()))
    report = {"edges_scanned": len(counts), "counts_made": counts.counts_made,
              "distinct_values": values}
    lines = [f"scanned {len(counts)} edges; distinct K4,4 counts: {values}"]
    if len(values) >= 2:
        by_val = {}
        for e, c in counts.items():
            by_val.setdefault(c, e)
        report["witness_edges"] = {str(v): list(by_val[v]) for v in values}
        lines.append("per-edge counts differ; the 8-vertex condition fails")
    return _exit(len(values) < 2), report, lines


def run_export_graph6(args) -> Result:
    g = _load_graph(args)
    write_graph6_file(args.out, [g])
    return (EXIT_PASS, {"out": args.out, "vertices": g.n},
            [f"wrote {g.n}-vertex graph to {args.out}"])


def _parse_formula(args) -> FormulaId:
    """Every option given goes to ``FormulaId``, which rejects those the
    family does not take."""
    if args.family == "completeS" and None in (args.dx, args.dy, args.size):
        raise UsageError("completeS needs --dx, --dy and --size")

    def side(v):
        return int(v) if v.isdecimal() else v
    case = tuple(side(v) for v in (args.dx, args.dy) if v is not None)
    return FormulaId(args.family, case or None, args.zx_eq_zy, args.size)


def run_verify_formula(args) -> Result:
    fid = _parse_formula(args)
    rep = verify_formula(get_construction(args.construct, args.dual), fid)
    report = {
        "formula": fid.label(),
        "order": list(rep.order),
        "pairs_checked": rep.pairs_checked,
        "representatives": rep.representatives,
        "mismatches": [[list(p), want, got] for p, want, got in
                       rep.mismatches[:10]],
    }
    outcome = (f"all {rep.pairs_checked} pairs match" if rep.ok
               else f"{len(rep.mismatches)} mismatches")
    return _exit(rep.ok), report, [f"{fid.label()} on GQ{rep.order}: "
                                   f"{outcome}"]


# -- the command table ----------------------------------------------------

def _opt(*flags, **kwargs):
    return flags, kwargs


def seconds(text: str) -> float:
    """A budget: a number of seconds, at least 0."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError("must be at least 0")
    return value


NAMES = sorted(CONSTRUCTIONS)
DUAL = _opt("--dual", action="store_true")
GEOMETRY = (_opt("--construct", required=True, choices=NAMES), DUAL)
GRAPH = (_opt("--construct", choices=NAMES), DUAL,
         _opt("--input", help="graph6 file"))
T = _opt("--t", type=int, required=True)
BUDGET = _opt("--budget-seconds", dest="budget_seconds", type=seconds)
JSON_OUT = _opt("--json-out", dest="json_out")


class Command(NamedTuple):
    name: str
    run: Callable[[argparse.Namespace], Result]
    options: tuple
    help: str | None = None


COMMANDS = (
    Command("construct", run_construct, GEOMETRY + (
        _opt("--out", help="write the incidence structure here"),),
        "build and validate a geometry"),
    Command("check-srg", run_check_srg, GRAPH),
    Command("check-isoregular", run_check_isoregular, GRAPH + (
        _opt("--k", type=int, default=3), BUDGET)),
    Command("check-tvc", run_check_tvc, GRAPH + (
        T, _opt("--mode", choices=["exhaustive", "reduced"],
                default="exhaustive"), BUDGET)),
    Command("find-distinguisher", run_check_tvc, GRAPH + (T, BUDGET)),
    Command("count-type", run_count_type, GRAPH + (
        _opt("--type", required=True, choices=list(ORDER5_COMPLEMENTS)),
        _opt("--x", type=int, required=True),
        _opt("--y", type=int, required=True))),
    Command("k44-census", run_k44_census, GRAPH + (
        _opt("--stop-after-values", dest="stop_after_values", type=int),
        _opt("--max-edges", dest="max_edges", type=int))),
    Command("export-graph6", run_export_graph6,
            GRAPH + (_opt("--out", required=True),)),
    Command("verify-formula", run_verify_formula, GEOMETRY + (
        _opt("--family", required=True,
             choices=sorted(ORDER5_FAMILIES) + ["completeS"]),
        _opt("--dx"), _opt("--dy"), _opt("--size", type=int),
        _opt("--zx-eq-zy", dest="zx_eq_zy",
             action=argparse.BooleanOptionalAction))),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gqtvc")
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        for flags, kwargs in cmd.options + (JSON_OUT,):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(run=cmd.run)
    return ap


PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        code, fields, lines = args.run(args)
        for line in lines:
            print(line)
        if args.json_out:
            report = _provenance(args) | fields
            report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
            with open(args.json_out, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except (UsageError, FormulaError, GeometryError, GraphError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
