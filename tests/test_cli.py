import argparse
import itertools
import json
import re
from pathlib import Path

import pytest

from gqtvc import formulas
from gqtvc.cli import PARSER, main
from gqtvc.geometry import PartialLinearSpace
from gqtvc.graph import graph_from_edges, write_graph6_file


def test_construct(capsys):
    assert main(["construct", "--construct", "w2"]) == 0
    out = capsys.readouterr().out
    assert "points: 15" in out and "axiom holds" in out


def test_construct_writes_incidence(tmp_path):
    out = tmp_path / "w2.txt"
    assert main(["construct", "--construct", "w2", "--out", str(out)]) == 0
    assert out.read_text().startswith("p 15 l 15")


def test_construct_reports_a_failing_axiom(monkeypatch, tmp_path, capsys):
    # a triangle is a partial linear space of order (1, 1), and the point
    # off each line is collinear with both of its points: point 0 with
    # line 2, (1, 2)
    triangle = PartialLinearSpace.make(3, [(0, 1), (1, 2), (0, 2)])
    monkeypatch.setattr("gqtvc.cli.get_construction",
                        lambda name, dual: triangle)
    report = tmp_path / "r.json"
    assert main(["construct", "--construct", "w2",
                 "--json-out", str(report)]) == 1
    doc = json.loads(report.read_text())
    assert (doc["pls_valid"], doc["gq_axiom"], doc["order"]) \
        == (True, False, [1, 1])
    assert doc["witness"] == "(0, 2, 2)"
    assert "axiom fails: (0, 2, 2)" in capsys.readouterr().out


def test_check_srg_json(tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main(["check-srg", "--construct", "t2star", "--dual",
                 "--json-out", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["parameters"] == [96, 20, 4, 4]
    assert doc["feasible"] is True
    assert doc["construction"] == "t2star" and doc["dual"] is True


def test_check_isoregular_exit_codes():
    assert main(["check-isoregular", "--construct", "q5_2", "--k", "3"]) == 0
    assert main(["check-isoregular", "--construct", "w2", "--k", "3"]) == 1


def test_check_isoregular_reports_its_table(tmp_path):
    # GQ(2,4) is SRG(27, 10, 1, 5); triads have s + 1 = 3 centres
    report = tmp_path / "r.json"
    assert main(["check-isoregular", "--construct", "q5_2", "--k", "3",
                 "--json-out", str(report)]) == 0
    assert json.loads(report.read_text())["table"] == {
        "order1_edges0": 10, "order2_edges0": 5, "order2_edges1": 1,
        "order3_edges0": 3, "order3_edges1": 1, "order3_edges2": 0,
        "order3_edges3": 0}


def test_check_isoregular_budget_inconclusive(tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main(["check-isoregular", "--construct", "payne", "--dual",
                 "--k", "3", "--budget-seconds", "0", "--json-out",
                 str(report)])
    assert code == 2
    assert "inconclusive" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["status"] == "inconclusive" and doc["budget_seconds"] == 0


def test_reports_count_representatives(tmp_path):
    # one anchor, one vertex orbit and two pair orbits: GQ(2,4) is rank 3
    report = tmp_path / "r.json"
    assert main(["check-isoregular", "--construct", "q5_2", "--k", "3",
                 "--json-out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert (doc["status"], doc["representatives"]) == ("satisfied", 4)
    assert main(["check-tvc", "--construct", "q5_2", "--t", "6", "--mode",
                 "reduced", "--json-out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert (doc["representatives"], doc["rank3"]) == (2, True)
    assert main(["check-tvc", "--construct", "q5_2", "--t", "4",
                 "--json-out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert (doc["representatives"], doc["rank3"]) == (2, True)
    assert main(["verify-formula", "--construct", "q5_3", "--family",
                 "type3a", "--json-out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert (doc["pairs_checked"], doc["representatives"]) == (112 * 111, 2)


def test_reports_count_searched_generators(tmp_path):
    # graph6 input carries no generators, so check-tvc searches for them
    g6, report = tmp_path / "q.g6", tmp_path / "r.json"
    assert main(["export-graph6", "--construct", "q5_2", "--out",
                 str(g6)]) == 0
    for argv in (["check-tvc", "--mode", "reduced"], ["find-distinguisher"]):
        assert main(argv + ["--input", str(g6), "--t", "6",
                            "--json-out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert (doc["searched"], doc["rank3"]) == (True, True)
        assert doc["generators"] > 0
    assert main(["check-tvc", "--construct", "q5_2", "--t", "4",
                 "--json-out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert (doc["searched"], doc["generators"]) == (False, 5)


def test_check_tvc(capsys):
    assert main(["check-tvc", "--construct", "w2", "--t", "5"]) == 0
    assert "satisfied" in capsys.readouterr().out
    assert main(["check-tvc", "--construct", "w2", "--t", "4",
                 "--budget-seconds", "30"]) == 0


def test_check_tvc_budget_inconclusive():
    # dual T2*(O) is not rank 3, so its exhaustive check makes censuses
    code = main(["check-tvc", "--construct", "t2star", "--dual", "--t", "7",
                 "--budget-seconds", "0.01"])
    assert code == 2


def test_check_tvc_budget_inconclusive_at_t3(tmp_path):
    # graph6 input carries no generators; t = 3 runs under the budget too
    g6 = tmp_path / "q.g6"
    assert main(["export-graph6", "--construct", "q5_2", "--out",
                 str(g6)]) == 0
    for t in ("2", "3"):  # t = 2 is level 1 of the isoregularity scan
        assert main(["check-tvc", "--input", str(g6), "--t", t,
                     "--budget-seconds", "0"]) == 2


def test_check_tvc_t3_reports_a_witness(tmp_path):
    # the 6-cycle is not strongly regular
    g6, report = tmp_path / "c6.g6", tmp_path / "r.json"
    write_graph6_file(g6, [graph_from_edges(
        6, [(i, (i + 1) % 6) for i in range(6)])])
    assert main(["check-tvc", "--input", str(g6), "--t", "3",
                 "--json-out", str(report)]) == 1
    doc = json.loads(report.read_text())
    assert doc["status"] == "violated"
    assert doc["witness"]["type_order"] == 3
    assert doc["witness"]["pair_adjacent"] is False
    assert doc["witness"]["count_a"] != doc["witness"]["count_b"]


def test_count_type(capsys, tmp_path):
    report = tmp_path / "c.json"
    code = main(["count-type", "--construct", "w3", "--type", "3a",
                 "--x", "0", "--y", "1", "--json-out", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    # w3 has (s, t) = (3, 3): type 3a counts t C(3,3) = 3 on edges and
    # (t+1) C(2,3) = 0 on non-edges
    assert doc["count"] == (3 if doc["pair_adjacent"] else 0)


def test_k44_census_constant(capsys):
    assert main(["k44-census", "--construct", "w2"]) == 0


def test_k44_census_counts_one_edge_per_orbit(tmp_path):
    # the first 4 edges of the dual Payne graph lie in 2 edge orbits
    report = tmp_path / "k.json"
    assert main(["k44-census", "--construct", "payne", "--dual",
                 "--max-edges", "4", "--json-out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert (doc["edges_scanned"], doc["counts_made"],
            doc["distinct_values"]) == (4, 2, [7896])


def test_k44_census_differs_on_dual_payne(tmp_path, capsys):
    # the paper's 8-vertex failure: two K4,4 counts on the edges at 0
    report = tmp_path / "k.json"
    assert main(["k44-census", "--construct", "payne", "--dual",
                 "--stop-after-values", "2", "--json-out", str(report)]) == 1
    assert "the 8-vertex condition fails" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert (doc["edges_scanned"], doc["counts_made"],
            doc["distinct_values"]) == (126, 3, [7896, 8000])
    assert doc["witness_edges"] == {"7896": [0, 1], "8000": [0, 126]}


def test_find_distinguisher_reports_its_type(tmp_path, capsys):
    report = tmp_path / "d.json"
    assert main(["find-distinguisher", "--construct", "t2star", "--dual",
                 "--t", "6", "--json-out", str(report)]) == 1
    assert "distinguishing type of order 6" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    ty = doc["witness"]
    assert (doc["status"], ty["type_order"], ty["pair_adjacent"]) \
        == ("violated", 6, False)


@pytest.mark.parametrize("construct, status", [
    ("t2star", "violated"), ("payne", "satisfied")])
def test_find_distinguisher_is_reduced_check_tvc(construct, status, tmp_path):
    docs = []
    for command, mode in (("find-distinguisher", []),
                          ("check-tvc", ["--mode", "reduced"])):
        report = tmp_path / f"{command}.json"
        assert main([command, "--construct", construct, "--dual", "--t", "6",
                     "--json-out", str(report)] + mode) \
            == (status == "violated")
        docs.append(json.loads(report.read_text()))
    for doc in docs:
        del doc["timestamp"]
    assert docs[1].pop("mode") == "reduced"
    assert docs[0] == docs[1] and docs[0]["status"] == status


def test_reduced_reports_give_the_level_they_counted_by(tmp_path):
    # dual Payne is 3-isoregular: 14 order-6 types where level 2 needs 91
    report = tmp_path / "d.json"
    assert main(["find-distinguisher", "--construct", "payne", "--dual",
                 "--t", "6", "--json-out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert (doc["status"], doc["k"], doc.get("witness")) \
        == ("satisfied", 3, None)
    # W(3) is rank 3 but not 3-isoregular, and no level is used
    assert main(["check-tvc", "--construct", "w3", "--t", "6", "--mode",
                 "reduced", "--json-out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert (doc["rank3"], doc["k"]) == (True, None)
    # exhaustive mode reduces by no level
    assert main(["check-tvc", "--construct", "w2", "--t", "4",
                 "--json-out", str(report)]) == 0
    assert json.loads(report.read_text())["k"] is None


@pytest.mark.parametrize("n, edges, code, srg", [
    (6, [(i, (i + 1) % 6) for i in range(6)], 1, False),
    (4, list(itertools.combinations(range(4), 2)), 0, "degenerate")],
    ids=["6-cycle", "K4"])
def test_check_srg_graph6_verdicts(n, edges, code, srg, tmp_path):
    g6, report = tmp_path / "g.g6", tmp_path / "r.json"
    write_graph6_file(g6, [graph_from_edges(n, edges)])
    assert main(["check-srg", "--input", str(g6), "--json-out",
                 str(report)]) == code
    assert json.loads(report.read_text())["srg"] == srg


def test_export_and_read_back(tmp_path):
    g6 = tmp_path / "g.g6"
    assert main(["export-graph6", "--construct", "w2", "--out", str(g6)]) == 0
    assert main(["check-srg", "--input", str(g6)]) == 0


def test_input_with_graph6_header(tmp_path):
    # networkx.write_graph6 starts its files with this header by default
    g6 = tmp_path / "g.g6"
    assert main(["export-graph6", "--construct", "w2", "--out", str(g6)]) == 0
    g6.write_text(">>graph6<<" + g6.read_text())
    assert main(["check-srg", "--input", str(g6)]) == 0


def test_verify_formula_cli():
    assert main(["verify-formula", "--construct", "w3",
                 "--family", "type2a"]) == 0
    assert main(["verify-formula", "--construct", "q5_2",
                 "--family", "completeS", "--dx", "T-2", "--dy", "0",
                 "--size", "3"]) == 0


def test_verify_formula_reports_mismatches(monkeypatch, tmp_path, capsys):
    # a closed form one too high: all 15 * 14 ordered pairs of W(2)
    # mismatch, and the report lists the first 10
    right = formulas.expected_count
    monkeypatch.setattr(formulas, "expected_count",
                        lambda fid, s, t, adj: right(fid, s, t, adj) + 1)
    report = tmp_path / "r.json"
    assert main(["verify-formula", "--construct", "w2", "--family", "type0",
                 "--json-out", str(report)]) == 1
    assert "type0 on GQ(2, 2): 210 mismatches" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["pairs_checked"] == 210 and len(doc["mismatches"]) == 10
    assert all(got + 1 == want for _, want, got in doc["mismatches"])


@pytest.mark.parametrize("flag, label", [("--zx-eq-zy", "z_x=z_y"),
                                         ("--no-zx-eq-zy", "z_x!=z_y")])
def test_verify_formula_complete_s_1_1_either_flag(flag, label, tmp_path):
    report = tmp_path / "r.json"
    assert main(["verify-formula", "--construct", "q5_2", "--family",
                 "completeS", "--dx", "1", "--dy", "1", "--size", "2", flag,
                 "--json-out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["formula"] == f"completeS (1, 1) |S|=2 {label}"
    assert (doc["pairs_checked"], doc["mismatches"]) == (27 * 26, [])


def test_usage_errors():
    assert main(["no-such-command"]) == 3
    assert main(["check-srg"]) == 3  # no input source
    assert main(["count-type", "--construct", "w2", "--type", "zz",
                 "--x", "0", "--y", "1"]) == 3
    assert main(["verify-formula", "--construct", "w2",
                 "--family", "completeS", "--dx", "1", "--dy", "1",
                 "--size", "3"]) == 3  # missing z flag context is fine; t != s^2


@pytest.mark.parametrize("argv, message", [
    (["count-type", "--construct", "w2", "--type", "3a", "--x", "99",
      "--y", "1"], "distinct vertices in 0..14"),
    (["count-type", "--construct", "w2", "--type", "3a", "--x", "1",
      "--y", "1"], "distinct vertices in 0..14"),
    (["check-tvc", "--construct", "w2", "--t", "0"], "2 <= t <= 7"),
    (["check-tvc", "--construct", "w2", "--t", "9", "--budget-seconds", "1"],
     "2 <= t <= 7"),
    (["check-tvc", "--construct", "w2", "--t", "9", "--mode", "reduced",
      "--budget-seconds", "1"], "2 <= t <= 8"),
    (["k44-census", "--construct", "w2", "--threads", "2"],
     "unrecognized arguments"),
    (["check-tvc", "--construct", "w2", "--t", "4", "--threads", "2"],
     "unrecognized arguments"),
    (["count-type", "--construct", "w2", "--type", "3a", "--x", "0",
      "--y", "1", "--budget-seconds", "1"], "unrecognized arguments"),
    (["check-isoregular", "--construct", "w2", "--k", "5"],
     "isoregularity level must be 1..3"),
    (["check-tvc", "--construct", "w2", "--t", "4", "--mode", "reduced",
      "--k", "3"], "unrecognized arguments"),
    (["find-distinguisher", "--construct", "w2", "--t", "4", "--k", "2"],
     "unrecognized arguments"),
    (["verify-formula", "--construct", "q5_2", "--family", "completeS",
      "--dx", "one", "--dy", "0", "--size", "3"], "unknown completeS case"),
    (["k44-census", "--construct", "w2", "--max-edges", "-1"],
     "max_edges must be at least 1, got -1"),
    (["k44-census", "--construct", "w2", "--max-edges", "0"],
     "max_edges must be at least 1, got 0"),
    (["k44-census", "--construct", "w2", "--stop-after-values", "0"],
     "stop_after_values must be at least 1, got 0"),
    (["k44-census", "--construct", "w2", "--stop-after-values", "-3"],
     "stop_after_values must be at least 1, got -3"),
    (["check-srg", "--construct", "w3", "--input", "w2.g6"],
     "give --construct or --input, not both"),
    (["verify-formula", "--construct", "q5_2", "--family", "type0",
      "--size", "3"], "order-5 families take no parameters"),
    (["verify-formula", "--construct", "q5_2", "--family", "type0",
      "--dx", "1"], "order-5 families take no parameters"),
    (["verify-formula", "--construct", "q5_2", "--family", "type0",
      "--no-zx-eq-zy"], "order-5 families take no parameters"),
    (["verify-formula", "--construct", "q5_2", "--family", "completeS",
      "--dx", "T-2", "--dy", "0", "--size", "3", "--zx-eq-zy"],
     "z_x = z_y applies to case (1, 1) only"),
    (["verify-formula", "--construct", "q5_2", "--family", "completeS",
      "--dx", "1", "--dy", "1", "--size", "2"],
     "case (1, 1) needs the z_x = z_y flag"),
    (["check-tvc", "--construct", "w2", "--t", "4", "--budget-seconds",
      "-1"], "--budget-seconds: must be at least 0"),
    (["find-distinguisher", "--construct", "w2", "--t", "4",
      "--budget-seconds", "-0.5"], "--budget-seconds: must be at least 0"),
    (["check-isoregular", "--construct", "w2", "--budget-seconds", "-1"],
     "--budget-seconds: must be at least 0"),
    (["check-tvc", "--construct", "w2", "--t", "4", "--budget-seconds",
      "nan"], "--budget-seconds: must be at least 0"),
    (["verify-formula", "--construct", "q5_2", "--family", "completeS",
      "--dy", "0", "--size", "3"], "completeS needs --dx, --dy and --size"),
    (["check-srg", "--input", "sparse6.g6"], "sparse6 input is not supported"),
    (["check-srg", "--input", "digraph6.g6"],
     "digraph6 input is not supported"),
    (["check-srg", "--input", "headed.g6"], "sparse6 input is not supported"),
    (["check-srg", "--input", "huge.g6"],
     "graph6 input of 258048 or more vertices is not supported"),
], ids=["vertex-out-of-range", "vertex-repeated", "t-zero",
        "t-nine-exhaustive", "t-nine-reduced", "k44-threads", "tvc-threads",
        "count-type-budget", "isoregular-k-five", "tvc-k",
        "distinguisher-k", "dx-not-a-number",
        "k44-negative-max-edges", "k44-zero-max-edges",
        "k44-zero-stop-after-values",
        "k44-negative-stop-after-values", "construct-and-input",
        "order5-with-size", "order5-with-dx", "order5-with-zx-flag",
        "zx-flag-off-case-1-1", "case-1-1-without-zx-flag",
        "tvc-negative-budget", "distinguisher-negative-budget",
        "isoregular-negative-budget", "tvc-nan-budget",
        "complete-s-without-dx", "sparse6-input", "digraph6-input",
        "sparse6-header", "graph6-of-258048-vertices"])
def test_bad_input_exits_3_with_message(argv, message, capsys, tmp_path,
                                        monkeypatch):
    # the formats that from_graph6 names and does not read: sparse6 (also
    # behind its header) and digraph6, McKay's examples of each, and an
    # 8-byte size, n = 63 * 2^12
    monkeypatch.chdir(tmp_path)
    for name, text in (("sparse6.g6", ":Fa@x^"), ("digraph6.g6", "&DI?AO?"),
                       ("headed.g6", ">>sparse6<<:Fa@x^"),
                       ("huge.g6", "~~???~??")):
        (tmp_path / name).write_text(text + "\n")
    assert main(argv) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"Bw\nBw\n", "holds 2 graphs"),
    (b"", "holds 0 graphs"),
    (b"\xd0\xd0\n", "is not graph6 text"),
], ids=["two-graphs", "no-graph", "not-text"])
def test_input_must_hold_one_graph(content, message, tmp_path, capsys):
    g6 = tmp_path / "in.g6"
    g6.write_bytes(content)
    assert main(["check-srg", "--input", str(g6)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("content, n", [(b"?\n", 0), (b"@\n", 1)],
                         ids=["empty", "one-vertex"])
def test_count_type_needs_two_vertices(content, n, tmp_path, capsys):
    g6 = tmp_path / "small.g6"
    g6.write_bytes(content)
    assert main(["count-type", "--input", str(g6), "--type", "0",
                 "--x", "0", "--y", "1"]) == 3
    assert f"graph has {n} vertices, fewer than a pair" \
        in capsys.readouterr().err


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    # a ValueError from inside gqtvc is a bug, not a caller's mistake
    def broken(g):
        raise ValueError("internal failure")

    monkeypatch.setattr("gqtvc.cli.srg_parameters", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["check-srg", "--construct", "w2"])


def test_readme_lists_each_subcommands_options():
    # "graph source" stands for --construct, --dual and --input; every
    # subcommand also takes --json-out
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    cli = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    documented = {}
    for name, cell in re.findall(r"^\| `([\w-]+)` \| (.*) \|$", cli, re.M):
        options = set(re.findall(r"--[\w-]+", cell))
        if "graph source" in cell:
            options |= {"--construct", "--dual", "--input"}
        documented[name] = options
    (sub,) = [a for a in PARSER._actions
              if isinstance(a, argparse._SubParsersAction)]
    parsed = {name: {flag for action in p._actions
                     for flag in action.option_strings} - {"-h", "--help",
                                                           "--json-out"}
              for name, p in sub.choices.items()}
    assert documented == parsed


def test_readme_cli_examples_run():
    # each command of the README's example block, a backslash joining a
    # line to the next; "# exit N" gives the code it must return
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    cli = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    (block,) = re.findall(r"^```\n(gqtvc .*?)^```$", cli, re.M | re.S)
    examples = block.replace("\\\n", " ").splitlines()
    assert examples
    for line in examples:
        command, _, comment = line.partition("#")
        program, *argv = command.split()
        assert program == "gqtvc"
        want = re.fullmatch(r" exit (\d)\s*", comment)
        code = main(argv)
        assert code == int(want[1]) if want else code in (0, 1, 2), line
