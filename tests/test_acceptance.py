"""End-to-end acceptance checks, one test per criterion.

Each test ends with a single PASS line (visible with -s or in captured
output); an assertion failure marks the criterion failed.
"""

import random
from collections import Counter
from math import comb

from gqtvc.formulas import COMPLETE_S_CASES, FormulaId, verify_formula
from gqtvc.geometry import check_gq_axiom, dualize, point_graph
from gqtvc.graph import (from_graph6, graph_from_edges, induced_subgraph,
                         to_graph6)
from gqtvc.gtypes import (GraphType, enumerate_order5_complements,
                          enumerate_s_candidates, enumerate_types)
from gqtvc.regularity import SrgParams, check_isoregular, srg_parameters
from gqtvc.tvc import (check_tvc, count_k44_per_edge, count_type_anchored,
                       pair_fingerprint)

from conftest import geometry, graph_of, unreduced


def report(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


CONSTRUCTIONS = [
    ("w2", False, (2, 2), 15),
    ("w3", False, (3, 3), 40),
    ("q5_2", False, (2, 4), 27),
    ("q5_3", False, (3, 9), 112),
    ("t2star", False, (3, 5), 64),
    ("t2star", True, (5, 3), 96),
    ("payne", False, (25, 5), 3276),
    ("payne", True, (5, 25), 756),
]


def test_criterion_1_constructions_validate():
    for name, dual, order, points in CONSTRUCTIONS:
        pls = geometry(name, dual)
        assert pls.num_points == points, (name, dual)
        res = check_gq_axiom(pls)
        assert res and res.order == order, (name, dual, res)
    report(1, "8 constructions pass PLS validation and the GQ axiom")


def test_criterion_2_srg_parameters():
    expected = {
        ("w2", False): SrgParams(15, 6, 1, 3),
        ("w3", False): SrgParams(40, 12, 2, 4),
        ("q5_2", False): SrgParams(27, 10, 1, 5),
        ("q5_3", False): SrgParams(112, 30, 2, 10),
        ("t2star", True): SrgParams(96, 20, 4, 4),
        ("payne", True): SrgParams(756, 130, 4, 26),
    }
    for key, params in expected.items():
        got = srg_parameters(graph_of(*key))
        assert got == params, (key, got)
        assert got.feasible()
    # k = (s - 1) t instead of s (t + 1) breaks the identity at (2, 2)
    assert not SrgParams(15, (2 - 1) * 2, 1, 3).feasible()
    report(2, "6 point graphs match brute-force SRG parameters; "
              "the identity rejects k = (s-1)t")


def test_criterion_3_isoregularity():
    for name in ("q5_2", "q5_3"):
        g = graph_of(name)
        s = {27: 2, 112: 3}[g.n]
        rep = check_isoregular(g, 3)
        assert rep.ok, name
        vals = {e: val for (o, e), val in rep.table.items() if o == 3}
        assert vals == {0: s + 1, 1: 1, 2: 0, 3: s - 2}, (name, vals)
    for key in (("w2", False), ("t2star", True)):
        g = graph_of(*key)
        rep = check_isoregular(g, 3)
        assert not rep.ok, key
        a, b = rep.witness
        assert len(a) == 3 and len(b) == 3
        # the failing class is the triad class
        assert induced_subgraph(g, a).edge_count() == 0
        assert induced_subgraph(g, b).edge_count() == 0
    report(3, "GQ(2,4), GQ(3,9) are 3-isoregular with the expected table; "
              "GQ(2,2), GQ(5,3) fail with triad witnesses")


def test_criterion_4_five_vertex_condition():
    for name in ("w2", "w3", "q5_2"):
        verdict = check_tvc(graph_of(name), 5)
        assert verdict.status == "satisfied", name
    verdict = check_tvc(graph_of("t2star", True), 5, mode="reduced", k=2)
    assert verdict.status == "satisfied"
    report(4, "5-vertex condition holds for GQ(2,2), GQ(3,3), GQ(2,4) "
              "(exhaustive) and GQ(5,3) (reduced over the 8 types)")


def test_criterion_5_six_and_seven_vertex_condition():
    g = graph_of("q5_2")
    for t in (6, 7):
        verdict = check_tvc(g, t, mode="reduced", k=3)
        assert verdict.status == "satisfied", t
    # cross-check the 6 level exhaustively
    assert check_tvc(g, 6).status == "satisfied"
    # stretch goal: GQ(3,9) under an explicit budget
    stretch = check_tvc(graph_of("q5_3"), 6, mode="reduced", k=3,
                        budget_seconds=300)
    assert stretch.status in ("satisfied", "inconclusive")
    report(5, "6- and 7-vertex conditions hold for GQ(2,4); "
              f"GQ(3,9) at 6 (budgeted): {stretch.status}")


def test_criterion_5_exhaustive_cross_check_compares_counts(unsearched_tvc):
    # with its generators GQ(2,4) is rank 3: one representative per
    # class and no census.  Without them every unordered pair is counted
    g = graph_of("q5_2")
    assert check_tvc(g, 6).representatives == 2
    verdict = unsearched_tvc(unreduced(g), 6)
    assert (verdict.status, verdict.representatives, verdict.generators) \
        == ("satisfied", 27 * 26 // 2, 0)
    report(5, "GQ(2,4) at 6: 351 exhaustive censuses agree")


def test_criterion_6_distinguisher_at_six():
    g = graph_of("t2star", True)
    ty = check_tvc(g, 6, mode="reduced", k=2).witness.graph_type
    assert ty is not None and ty.order == 6
    # confirm two pairs of the same adjacency class with unequal counts
    pairs = g.edges() if ty.pair_adjacent else g.non_edges()
    counts = set()
    witness = []
    for pair in pairs:
        c = count_type_anchored(g, ty, pair)
        if c not in counts:
            counts.add(c)
            witness.append((pair, c))
        if len(counts) == 2:
            break
    assert len(counts) == 2, "distinguisher did not separate any pairs"
    report(6, f"GQ(5,3) fails the 6-vertex condition: type rows {ty.rows} "
              f"gives counts {witness}")


def test_criterion_7_k44_counts_differ():
    g = graph_of("payne", True)
    counts = count_k44_per_edge(g, stop_after_values=2)
    values = sorted(set(counts.values()))
    assert len(values) >= 2, values
    report(7, f"dual Payne GQ(5,25): per-edge K4,4 counts differ "
              f"({values}); the 8-vertex condition fails")


def test_criterion_7_full_k44_distribution():
    # every edge of the dual Payne graph, counted once per edge orbit
    counts = count_k44_per_edge(graph_of("payne", True))
    tally = Counter(counts.values())
    assert tally == {7896: 46875, 8000: 1500, 23000: 750, 75000: 15}
    assert sum(tally.values()) == len(counts) == 49140
    assert counts.counts_made == 17
    report(7, f"dual Payne GQ(5,25): K4,4 counts over all 49140 edges "
              f"{dict(sorted(tally.items()))}, from {counts.counts_made} "
              f"counts")


def test_criterion_8_enumeration_checksums():
    tab = enumerate_order5_complements(3)
    assert tab.class_counts() == {0: 1, 1: 2, 2: 6, 3: 12}
    assert tab.orbit_sums() == {0: 1, 1: 9, 2: 36, 3: 84}
    assert len(enumerate_types(5, 3)) == 8
    assert enumerate_s_candidates(7) == ()
    assert len(enumerate_s_candidates(8)) == 5
    report(8, "complement census 2/6/12 classes with orbit sums 9/36/84; "
              "8 types at (5,3); no cores at 7, five at 8")


def test_criterion_9_formula_oracles():
    order5 = [FormulaId(f) for f in ("type0", "type2a", "type3a")]
    for name, dual in (("w2", False), ("q5_2", False), ("w3", False),
                       ("q5_3", False), ("t2star", True)):
        for fid in order5:
            rep = verify_formula(geometry(name, dual), fid)
            assert rep.ok, (name, dual, fid.label(), rep.mismatches[:3])
    complete = []
    for case in COMPLETE_S_CASES:
        flags = (True, False) if case == (1, 1) else (None,)
        for z in flags:
            for m in (3, 4, 5):
                complete.append(FormulaId("completeS", case, z, m))
    for name in ("q5_2", "q5_3"):
        for fid in complete:
            rep = verify_formula(geometry(name), fid)
            assert rep.ok, (name, fid.label(), rep.mismatches[:3])
    report(9, "order-5 formulas match brute force on 5 quadrangles; all "
              "completeS cases match on GQ(2,4) and GQ(3,9), |S| in 3..5")


def test_criterion_10_property_suites():
    rng = random.Random(97)

    # t-vertex monotonicity on the rank 3 graph
    g = graph_of("w2")
    statuses = [check_tvc(g, t).status for t in (3, 4, 5, 6)]
    assert statuses == ["satisfied"] * 4

    # isoregularity monotonicity and complement closure
    from gqtvc.graph import complement
    q = graph_of("q5_2")
    for k in (1, 2, 3):
        assert check_isoregular(q, k).ok
        assert check_isoregular(complement(q), k).ok

    # fingerprint conservation
    for t in (4, 5):
        x, y = rng.sample(range(g.n), 2)
        fp = pair_fingerprint(g, t, (x, y))
        assert sum(c for _, c in fp.counts) == comb(g.n - 2, t - 2)

    # exhaustive vs anchored agreement on random instances
    checked = 0
    while checked < 100:
        n = rng.randrange(6, 21)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < rng.uniform(0.2, 0.8)]
        h = graph_from_edges(n, edges)
        x, y = rng.sample(range(n), 2)
        fp = pair_fingerprint(h, 4, (x, y))
        adj = h.has_edge(x, y)
        for code, cnt in fp.counts:
            from gqtvc.graph import rows_from_bits
            ty = GraphType(4, rows_from_bits(code.bits, 4), adj)
            assert count_type_anchored(h, ty, (x, y)) == cnt
            checked += 1

    # graph6 round trip
    for _ in range(1000):
        n = rng.randrange(0, 25)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        h = graph_from_edges(n, edges)
        assert from_graph6(to_graph6(h)) == h

    # double dual is the identity
    for name, dual, _, _ in CONSTRUCTIONS:
        if dual:
            continue
        pls = geometry(name)
        assert dualize(dualize(pls)) == pls

    report(10, "monotonicity, complement closure, conservation, census "
               "agreement, graph6 round trips, and double duals all hold")


def test_criterion_11_theorem_on_its_own_example():
    # the paper's example is not rank 3: the dual Payne GQ(5, 25) is
    # 3-isoregular, the level reduced mode finds and counts by, and it
    # satisfies the 7-vertex condition at every one of its 74 ordered
    # pair orbits
    g = graph_of("payne", True)
    iso = check_isoregular(g, 3)
    assert (iso.ok, iso.representatives) == (True, 1 + 6 + 47)
    verdict = check_tvc(g, 7, mode="reduced")
    assert (verdict.status, verdict.representatives, verdict.generators,
            verdict.rank3, verdict.k) == ("satisfied", 74, 7, False, 3)
    report(11, "dual Payne GQ(5,25) is 3-isoregular and satisfies the "
               "7-vertex condition over all 74 pair orbits")
