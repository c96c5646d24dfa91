import itertools
import random
import re
import time
from collections import Counter
from math import comb

import pytest

from gqtvc.cli import main
from gqtvc.graph import (BudgetExceeded, CanonicalCode, Graph, ParameterError,
                         bits_of, canonical_code, graph_from_edges,
                         induced_subgraph, pair_codes, rows_from_bits,
                         write_graph6_file)
from gqtvc import tvc
from gqtvc.gtypes import K44_TYPE, GraphType, enumerate_types, order5_type
from gqtvc.regularity import check_isoregular
from gqtvc.symmetry import check_automorphisms, vertex_orbits
from gqtvc.tvc import (_pair_census, check_tvc, count_k44_per_edge,
                       count_type_anchored, pair_fingerprint)

from conftest import (fresh, graph_of, permuted, random_graph, shrikhande,
                      unreduced)


def test_fingerprint_conservation(w2_graph):
    for t in (4, 5):
        fp = pair_fingerprint(w2_graph, t, (0, 1))
        assert sum(c for _, c in fp.counts) == comb(w2_graph.n - 2, t - 2)


def test_fingerprint_pair_class(w2_graph):
    x, y = next(iter(w2_graph.edges()))
    assert pair_fingerprint(w2_graph, 4, (x, y)).pair_class == "edge"
    x, y = next(iter(w2_graph.non_edges()))
    assert pair_fingerprint(w2_graph, 4, (x, y)).pair_class == "non-edge"


@pytest.mark.parametrize("pair", [(-1, 1), (40, 1), (3, 3)])
def test_fingerprint_pair_guard(pair):
    with pytest.raises(ParameterError, match=r"distinct vertices in 0\.\.39"):
        pair_fingerprint(graph_of("w3"), 4, pair)


def test_fingerprint_matches_brute_force():
    # the census against canonical codes of every induced subgraph through
    # the pair, in both orientations; the exhaustive scan reads both from
    # one call of _pair_census
    rng = random.Random(1971)
    for t in (3, 4, 5, 6, 7) * 10:
        n = rng.randrange(t, 13)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        x, y = rng.sample(range(n), 2)
        brute = []
        for pair in ((x, y), (y, x)):
            counts = Counter(
                canonical_code(induced_subgraph(g, [*pair, *rest]), (0, 1))
                for rest in itertools.combinations(
                    [v for v in range(n) if v not in pair], t - 2))
            assert dict(pair_fingerprint(g, t, pair).counts) == counts
            brute.append({code.bits: c for code, c in counts.items()})
        assert list(_pair_census(g, t, x, y, {}, None)) == brute


def test_exhaustive_vs_anchored_agreement():
    # every class count in a fingerprint equals the anchored backtrack
    # count of the corresponding type; t = 7 has twin classes of up to
    # five slots
    rng = random.Random(20240823)
    for t in (4, 5, 6, 7) * 25:
        n = rng.randrange(t + 2, 15)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        x, y = rng.sample(range(n), 2)
        fp = pair_fingerprint(g, t, (x, y))
        adj = g.has_edge(x, y)
        for code, cnt in fp.counts:
            rows = rows_from_bits(code.bits, t)
            ty = GraphType(t, rows, adj)
            assert count_type_anchored(g, ty, (x, y)) == cnt


def random_twin_type(t, p, rng):
    """A type of order t whose additional slots fall into at most three
    classes of twins: one adjacency per pair of classes, the fixed slots
    being classes of their own, each present with probability p."""
    labels = ["x", "y"] + [rng.randrange(3) for _ in range(t - 2)]
    adjacent = {}
    rows = [0] * t
    for i, j in itertools.combinations(range(t), 2):
        key = tuple(sorted(map(str, (labels[i], labels[j]))))
        if key != ("x", "y") and adjacent.setdefault(key, rng.random() < p):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return GraphType(t, tuple(rows))


def test_neighbour_filter_on_off(monkeypatch):
    # the kernel drops a new class's candidates that are short of
    # neighbours in a later class before testing them one by one; with
    # that filter off (every candidate kept) every count is the same
    rng = random.Random(2014)
    cases = []
    for n in range(12, 41, 2):
        for p in (0.3, 0.5, 0.7):
            g = random_graph(n, p, rng)
            pairs = list(itertools.permutations(range(n), 2))
            for _ in range(16):
                x, y = rng.choice(pairs)
                ty = random_twin_type(rng.randint(5, 8), p, rng)
                cases.append((g, ty.concrete(g.has_edge(x, y)), (x, y)))
            # K4,4 through edges of a near-complete-bipartite graph: a
            # pair across its parts is an edge with probability (1 + p) / 2,
            # a pair inside a part with probability 0.05
            side = set(rng.sample(range(n), n // 2))
            h = graph_from_edges(n, [
                (i, j) for i, j in itertools.combinations(range(n), 2)
                if rng.random() < ((p + 1) / 2 if (i in side) != (j in side)
                                   else 0.05)])
            cases += [(h, K44_TYPE, e) for e in rng.sample(list(h.edges()), 8)]
    real = tvc._enough_neighbours
    seen = Counter()

    def spy(m0, constraints):
        out = real(m0, constraints)
        seen["ran"] += 1
        seen["pruned"] += out != m0
        seen["emptied"] += not out
        return out

    monkeypatch.setattr(tvc, "_enough_neighbours", spy)
    on = [count_type_anchored(g, ty, pair) for g, ty, pair in cases]
    monkeypatch.setattr(tvc, "_enough_neighbours", lambda m0, constraints: m0)
    off = [count_type_anchored(g, ty, pair) for g, ty, pair in cases]
    assert on == off
    assert seen["pruned"] > 0 and seen["emptied"] > 0, seen
    assert sum(map(bool, on)) > len(on) // 2


def test_enough_neighbours_is_its_definition():
    # the members of m0 with at least k neighbours in m, for every k the
    # kernel asks (1 to 6), where m is small beside m0
    rng = random.Random(27)
    for _ in range(300):
        g = random_graph(40, rng.random(), rng)
        m = sum(1 << v for v in rng.sample(range(40), rng.randint(0, 6)))
        k = rng.randint(1, 6)
        m0 = sum(1 << v for v in range(40) if v not in bits_of(m)
                 and rng.random() < 0.9)
        if m.bit_count() * k >= m0.bit_count():
            continue
        want = sum(1 << v for v in bits_of(m0)
                   if (g.rows[v] & m).bit_count() >= k)
        assert tvc._enough_neighbours(m0, ((m, g.rows, k),)) == want


def pair_fixing_graph(n, keep, rng):
    """A seeded graph on n vertices with a pair (x, y) and hand-made
    automorphisms that fix it: rotations of shuffled blocks of 2 to 4 of
    the other vertices, each block inside one side of a split with x on
    one side and y on the other.  Whole orbits of pairs are kept, a pair
    across the split with probability keep(True), inside one side with
    probability keep(False)."""
    x, y, *rest = rng.sample(range(n), n)
    side = set(rest[:len(rest) // 2]) | {x}
    perms = []
    for part in (sorted(side - {x}), sorted(set(rest) - side)):
        rng.shuffle(part)
        while len(part) >= 2:
            k = rng.randint(2, 4)
            block, part = part[:k], part[k:]
            perm = list(range(n))
            for a, b in zip(block, block[1:] + block[:1]):
                perm[a] = b
            perms.append(tuple(perm))
    edges, seen = set(), set()
    for pair in itertools.combinations(range(n), 2):
        if pair in seen:
            continue
        orbit, queue = {pair}, [pair]
        for u, v in queue:
            for perm in perms:
                e = tuple(sorted((perm[u], perm[v])))
                if e not in orbit:
                    orbit.add(e)
                    queue.append(e)
        seen |= orbit
        if rng.random() < keep((pair[0] in side) != (pair[1] in side)):
            edges |= orbit
    return Graph(n, graph_from_edges(n, edges).rows, tuple(perms)), (x, y)


def test_fixer_orbits_on_off():
    # counting the first placed slot at one vertex per orbit of hand-made
    # automorphisms fixing the pair, weighted by the orbit's size, gives
    # the plain count: on random twin types and on K4,4 through the pair
    # of near-complete-bipartite graphs, as in test_neighbour_filter_on_off
    rng = random.Random(1970)
    cases = []
    for n in range(12, 41, 2):
        for p in (0.3, 0.5, 0.7):
            g, pair = pair_fixing_graph(n, lambda across: p, rng)
            for _ in range(8):
                ty = random_twin_type(rng.randint(5, 8), p, rng)
                for x, y in (pair, pair[::-1]):
                    cases.append((g, ty.concrete(g.has_edge(x, y)), (x, y)))
            h, pair = pair_fixing_graph(
                n, lambda across: (1 + p) / 2 if across else 0.05, rng)
            if h.has_edge(*pair):
                cases += [(h, K44_TYPE, pair), (h, K44_TYPE, pair[::-1])]
    twins = Counter()
    for g, ty, (x, y) in cases:
        check_automorphisms(g.rows, g.generators)
        assert all(s[x] == x and s[y] == y for s in g.generators)
        orbits = dict(vertex_orbits(g.n, g.generators))
        plain = count_type_anchored(g, ty, (x, y))
        assert count_type_anchored(g, ty, (x, y), None, orbits) == plain
        first_class_twins = not tvc._placement(ty.order, ty.rows)[1][0][0]
        twins[first_class_twins, ty == K44_TYPE] += plain > 0
    # first placed classes with and without twins, and K4,4, counted
    assert min(twins.values()) > 10 and len(twins) == 3, twins


def test_last_class_counted_as_a_set(monkeypatch):
    # types whose last placed class is a coclique of 2 or 3 twins after
    # another class, counted as a set at the step that starts it when its
    # candidates span no edge, else slot by slot.  Every such type met in
    # a seeded random graph or a graph with automorphisms fixing the pair,
    # with and without their orbits, against the count of its code over
    # every subset through the pair
    real = tvc._coclique_sets
    seen = Counter()

    def spy(m0, m1, s1, k, rows):
        sets = real(m0, m1, s1, k, rows)
        seen[sets is None, k] += 1
        return sets

    monkeypatch.setattr(tvc, "_coclique_sets", spy)
    rng = random.Random(27)
    tails = Counter()
    for n in (10, 11, 12):
        for p in (0.15, 0.5, 0.85):
            fixed, pair = pair_fixing_graph(n, lambda across: p, rng)
            orbits = dict(vertex_orbits(n, fixed.generators))
            for g in (random_graph(n, p, rng), fixed):
                x, y = pair if g is fixed else rng.sample(range(n), 2)
                adj = g.has_edge(x, y)
                rest = [v for v in range(n) if v not in (x, y)]
                for t in (5, 6, 7, 8):
                    census = Counter(
                        canonical_code(induced_subgraph(g, [x, y, *more]),
                                       (0, 1)).bits
                        for more in itertools.combinations(rest, t - 2))
                    for bits, want in census.items():
                        ty = GraphType(t, rows_from_bits(bits, t), adj)
                        if not tvc._placement(t, ty.rows)[3]:
                            continue
                        tails[g is fixed] += 1
                        assert count_type_anchored(g, ty, (x, y)) == want
                        if g is fixed:
                            assert count_type_anchored(
                                g, ty, (x, y), None, orbits) == want
    assert min(tails.values()) > 10 and len(tails) == 2, tails
    assert set(seen) == {(False, 2), (False, 3), (True, 2), (True, 3)}, seen


def test_check_tvc_small_levels():
    irregular = graph_from_edges(3, [(0, 1)])
    assert check_tvc(irregular, 2).status == "violated"
    c6 = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert check_tvc(c6, 2).status == "satisfied"
    assert check_tvc(c6, 3).status == "violated"  # not an SRG


C6 = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])


@pytest.mark.parametrize("g", [
    C6, graph_from_edges(4, [(0, 1), (1, 2)]),
    random_graph(12, 0.5, random.Random(1))],
    ids=["6-cycle", "path-and-point", "random"])
@pytest.mark.parametrize("mode", ["exhaustive", "reduced"])
def test_t3_violation_carries_a_witness(g, mode):
    # a graph that is not strongly regular is scanned for its witness, an
    # order-3 type counted differently at two pairs of one class
    verdict = check_tvc(g, 3, mode=mode)
    assert verdict.status == "violated"
    w = verdict.witness
    assert w.graph_type.order == 3 and w.count_a != w.count_b
    assert g.has_edge(*w.pair_a) == g.has_edge(*w.pair_b) \
        == w.graph_type.pair_adjacent
    assert count_type_anchored(g, w.graph_type, w.pair_a) == w.count_a
    assert count_type_anchored(g, w.graph_type, w.pair_b) == w.count_b


@pytest.mark.parametrize("mode, representatives", [
    ("exhaustive", 8), ("reduced", 15)])
def test_t3_witness_on_the_6_cycle(mode, representatives):
    # (0, 2) has one common neighbour, (0, 3) none; reduced mode reads the
    # 12 ordered edges, then (0, 2), (2, 0) and (0, 3)
    verdict = check_tvc(C6, 3, mode=mode)
    w = verdict.witness
    assert (w.pair_a, w.count_a, w.pair_b, w.count_b) == ((0, 2), 1, (0, 3), 0)
    assert verdict.representatives == representatives


def test_reduced_reads_pairs_only_up_to_its_witness():
    # a graph without generators has all n(n - 1) ordered pairs as
    # representatives; the first type's counts differ at the third
    g = random_graph(300, 0.05, random.Random(1))
    verdict = check_tvc(g, 4, mode="reduced")
    assert (verdict.status, verdict.k, verdict.representatives) \
        == ("violated", 0, 3)
    w = verdict.witness
    assert w.graph_type.order == 3
    assert (w.pair_a, w.pair_b) == ((0, 10), (0, 14))
    assert count_type_anchored(g, w.graph_type, w.pair_a) == w.count_a
    assert count_type_anchored(g, w.graph_type, w.pair_b) == w.count_b


def test_t3_exhaustive_witness_on_a_path():
    # the ends of edge (0, 1) have degrees 1 and 2
    g = graph_from_edges(4, [(0, 1), (1, 2)])
    w = check_tvc(g, 3).witness
    assert (w.pair_a, w.pair_b) == ((0, 1), (1, 0))


@pytest.mark.parametrize("mode", ["exhaustive", "reduced"])
def test_t3_strongly_regular_is_satisfied_without_a_scan(w2_graph, mode):
    verdict = check_tvc(w2_graph, 3, mode=mode)
    assert (verdict.status, verdict.witness, verdict.representatives) \
        == ("satisfied", None, None)


def test_check_tvc_monotone_on_w2(w2_graph):
    # rank 3 graph: every level holds
    for t in (4, 5, 6):
        assert check_tvc(w2_graph, t).status == "satisfied"


def test_check_tvc_violation_witness():
    # C5 plus a chord is an SRG failure at t=3; take a graph regular and
    # strongly regular but failing at 4: the 6-cycle is not SRG, use the
    # cube graph instead (distance-regular, vertex-transitive, not SRG)
    cube = graph_from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3),
                                (4, 5), (5, 6), (6, 7), (4, 7),
                                (0, 4), (1, 5), (2, 6), (3, 7)])
    assert check_tvc(cube, 3).status == "violated"


def test_tvc_witness_counts_differ():
    # a random graph is not even regular, and the exhaustive scan finds
    # two pairs of one class whose counts differ
    rng = random.Random(5)
    g = random_graph(10, 0.5, rng)
    verdict = check_tvc(g, 4)
    assert verdict.status == "violated"
    w = verdict.witness
    assert w.count_a != w.count_b
    adj = g.has_edge(*w.pair_a)
    assert adj == g.has_edge(*w.pair_b) == w.graph_type.pair_adjacent
    assert count_type_anchored(g, w.graph_type, w.pair_a) == w.count_a
    assert count_type_anchored(g, w.graph_type, w.pair_b) == w.count_b


def test_exhaustive_honours_budget(unsearched_tvc):
    # the deadline is checked at every internal node of the census, so the
    # scan ends near the budget
    start = time.monotonic()
    verdict = unsearched_tvc(unreduced(graph_of("w3")), 6, budget_seconds=2)
    assert verdict.status == "inconclusive"
    assert time.monotonic() - start < 4


def test_budget_inconclusive(q5_2_graph, unsearched_tvc):
    verdict = unsearched_tvc(unreduced(q5_2_graph), 7, budget_seconds=0.01)
    assert verdict.status == "inconclusive"


def test_budget_holds_at_t3():
    # t = 3 is strong regularity, which on the 3,276 vertices of the
    # primal Payne graph without generators takes about 20 times the budget
    g = unreduced(graph_of("payne"))
    start = time.monotonic()
    assert check_tvc(g, 3, budget_seconds=0.05).status == "inconclusive"
    assert time.monotonic() - start < 0.5


def test_budget_holds_in_a_last_class_counted_as_a_set(monkeypatch):
    # the induced K3,3s away from a non-adjacent pair of the primal Payne
    # graph, whose last class, a coclique of 3, is counted as a set:
    # unbudgeted, more than 600 times the budget
    real = tvc._coclique_sets
    seen = Counter()

    def spy(*args):
        sets = real(*args)
        seen[sets is None] += 1
        return sets

    monkeypatch.setattr(tvc, "_coclique_sets", spy)
    g = graph_of("payne")
    y = next(v for v in range(1, g.n) if not g.has_edge(0, v))
    ty = GraphType(8, (0, 0, 224, 224, 224, 28, 28, 28), False)
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        count_type_anchored(g, ty, (0, y), start + 0.05)
    assert time.monotonic() - start < 0.5
    assert seen[False] > 0, seen


def test_reduced_budget_covers_isoregularity(unsearched_tvc):
    # 3-isoregularity of GQ(3,9) alone takes about a second
    g = unreduced(graph_of("q5_3"))
    start = time.monotonic()
    verdict = unsearched_tvc(g, 6, mode="reduced", k=3, budget_seconds=0.05)
    assert verdict.status == "inconclusive"
    assert time.monotonic() - start < 0.5


def test_reduced_budget_checked_per_pair(q5_2_graph, unsearched_tvc):
    # each anchored count on GQ(2,4) visits fewer search nodes than the
    # interval at which count_type_anchored looks at the clock
    start = time.monotonic()
    verdict = unsearched_tvc(unreduced(q5_2_graph), 7, mode="reduced", k=3,
                             budget_seconds=0.05)
    assert verdict.status == "inconclusive"
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("mode", ["exhaustive", "reduced"])
@pytest.mark.parametrize("budget", [-1, -0.5, float("nan")])
def test_negative_budget_is_a_parameter_error(mode, budget):
    with pytest.raises(ParameterError, match="budget_seconds must be at"):
        check_tvc(graph_of("w2"), 4, mode=mode, k=2, budget_seconds=budget)


@pytest.mark.parametrize("mode", ["exhaustive", "reduced"])
@pytest.mark.parametrize("budget", ["1", True, [1]])
def test_budget_that_is_not_a_number_is_a_parameter_error(mode, budget):
    # checked before any work: no orbit is searched
    g = fresh(graph_of("w2"))
    message = re.escape(f"budget_seconds must be a number, got {budget!r}")
    with pytest.raises(ParameterError, match=message):
        check_tvc(g, 4, mode=mode, k=2, budget_seconds=budget)
    assert not g.stabilisers


@pytest.mark.parametrize("call, message", [
    (lambda: check_tvc(graph_of("w2"), 4, mode="fast"), "unknown mode 'fast'"),
    (lambda: pair_fingerprint(graph_of("w2"), 8, (0, 1)),
     "exhaustive fingerprints support 3 <= t <= 7"),
    (lambda: count_type_anchored(graph_of("w3"), order5_type("0", False),
                                 (0.0, 1.0)),
     re.escape("pair must be two ints, got (0.0, 1.0)")),
    (lambda: count_type_anchored(graph_of("w3"), order5_type("0", True),
                                 (True, 2)),
     re.escape("pair must be two ints, got (True, 2)")),
    (lambda: pair_fingerprint(graph_of("w2"), 4, ("0", "1")),
     re.escape("pair must be two ints, got ('0', '1')")),
    (lambda: pair_fingerprint(graph_of("w2"), 4, (0, 1, 2)),
     re.escape("pair must be two ints, got (0, 1, 2)")),
], ids=["unknown-mode", "fingerprint-order-8", "anchored-pair-float",
        "anchored-pair-bool", "fingerprint-pair-str", "fingerprint-pair-long"])
def test_bad_arguments_raise_with_message(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


@pytest.mark.parametrize("call, name, value", [
    (lambda g: check_tvc(g, 5.0, "reduced"), "t", 5.0),
    (lambda g: check_tvc(g, 4, "reduced", k=2.0), "k", 2.0),
    (lambda g: check_tvc(g, True), "t", True),
    (lambda g: check_tvc(fresh(graph_of("w2")), 4.0), "t", 4.0),
    (lambda g: check_isoregular(g, 2.5), "k", 2.5),
    (lambda g: pair_fingerprint(g, 4.0, (0, 1)), "t", 4.0),
    (lambda g: enumerate_types(5.0, 3), "t", 5.0),
    (lambda g: enumerate_types(5, False), "min_add_valency", False),
    (lambda g: count_k44_per_edge(g, max_edges=2.5), "max_edges", 2.5),
    (lambda g: count_k44_per_edge(g, stop_after_values="2"),
     "stop_after_values", "2"),
], ids=["tvc-t-float", "tvc-k-float", "tvc-t-bool", "rank-three-t-float",
        "isoregular-k-float", "fingerprint-t-float", "types-t-float",
        "types-valency-bool", "k44-max-edges-float",
        "k44-stop-after-values-str"])
def test_integer_parameters_must_be_ints(call, name, value):
    # checked before any work: no orbit is searched, and a cached
    # enumerate_types(5, 3) does not answer for 5.0
    enumerate_types(5, 3)
    g = fresh(graph_of("t2star", True))
    message = re.escape(f"{name} must be an int, got {value!r}")
    with pytest.raises(ParameterError, match=message):
        call(g)
    assert not g.stabilisers


@pytest.mark.parametrize("t", [3, 4])
@pytest.mark.parametrize("k", [1, 4, 7, None])
def test_reduced_level_cap_out_of_range_is_a_parameter_error(t, k):
    # checked before any scan, at every t
    with pytest.raises(ParameterError, match=f"needs k = 2 or 3, got {k}"):
        check_tvc(graph_of("w2"), t, mode="reduced", k=k)


def test_lower_level_failure_is_violated(tmp_path):
    g = shrikhande()
    verdict = check_tvc(g, 5)
    assert verdict.status == "violated"
    w = verdict.witness
    assert count_type_anchored(g, w.graph_type, w.pair_a) == w.count_a
    assert count_type_anchored(g, w.graph_type, w.pair_b) == w.count_b
    assert w.count_a != w.count_b
    verdict = check_tvc(g, 5, mode="reduced", k=2)
    assert verdict.status == "violated" and verdict.t == 5
    w = verdict.witness
    assert w.graph_type.order == 4
    assert count_type_anchored(g, w.graph_type, w.pair_a) == w.count_a
    assert count_type_anchored(g, w.graph_type, w.pair_b) == w.count_b
    assert w.count_a != w.count_b
    g6 = tmp_path / "shrikhande.g6"
    write_graph6_file(g6, [g])
    for mode in ("exhaustive", "reduced"):
        assert main(["check-tvc", "--input", str(g6), "--t", "5",
                     "--mode", mode]) == 1


def test_reduced_mode_matches_exhaustive(q5_2_graph):
    w3 = graph_of("w3")
    assert check_tvc(w3, 5, mode="reduced", k=2).status == "satisfied"
    assert check_tvc(w3, 5).status == "satisfied"
    assert check_tvc(q5_2_graph, 6, mode="reduced", k=3).status == "satisfied"
    assert check_tvc(q5_2_graph, 6).status == "satisfied"


def test_rank3_graphs_make_no_census(monkeypatch, q5_2_graph,
                                     unsearched_tvc):
    # one orbit of ordered edges and one of ordered non-edges decide the
    # condition in both modes; a relabelled copy gets its orbits from the
    # automorphism search.  Without any, every unordered pair is censused
    censuses = []
    census = tvc._pair_census
    monkeypatch.setattr(tvc, "_pair_census",
                        lambda *args: censuses.append(args) or census(*args))
    perm = list(range(q5_2_graph.n))
    random.Random(26).shuffle(perm)
    for g, t in ((q5_2_graph, 6), (permuted(q5_2_graph, perm), 5)):
        for mode in ("exhaustive", "reduced"):
            verdict = check_tvc(g, t, mode=mode)
            assert (verdict.status, verdict.rank3, verdict.representatives,
                    verdict.k) == ("satisfied", True, 2, None)
    assert not censuses
    verdict = unsearched_tvc(unreduced(graph_of("w2")), 4)
    assert (verdict.status, verdict.rank3) == ("satisfied", False)
    assert len(censuses) == 15 * 14 // 2


@pytest.mark.parametrize("g, level", [
    (random_graph(12, 0.5, random.Random(1)), 0),
    (graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)]), 1)],
    ids=["random", "6-cycle"])
@pytest.mark.parametrize("t", [4, 8])
def test_reduced_mode_on_a_graph_that_is_not_strongly_regular(g, level, t):
    # a graph that is not 2-isoregular fails the 3-vertex condition: an
    # order-3 type, recounted, tells two pairs of one class apart
    verdict = check_tvc(g, t, mode="reduced")
    assert (verdict.status, verdict.t, verdict.k) == ("violated", t, level)
    w = verdict.witness
    assert w.graph_type.order == 3 and w.count_a != w.count_b
    assert g.has_edge(*w.pair_a) == g.has_edge(*w.pair_b)
    assert count_type_anchored(g, w.graph_type, w.pair_a) == w.count_a
    assert count_type_anchored(g, w.graph_type, w.pair_b) == w.count_b


SMALL_GRAPHS = {
    "P3": graph_from_edges(3, [(0, 1), (1, 2)]),
    "K1,3": graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    "P5": graph_from_edges(5, [(i, i + 1) for i in range(4)]),
    "random": random_graph(6, 0.5, random.Random(3))}


@pytest.mark.parametrize("name", SMALL_GRAPHS)
@pytest.mark.parametrize("above", [1, 2])
def test_modes_agree_above_the_order_of_the_graph(name, above):
    # no type with more than n vertices embeds, so at t > n both modes
    # decide the n-vertex condition and report the t asked for
    g = SMALL_GRAPHS[name]
    t = g.n + above
    modes = ("exhaustive", "reduced") if t <= 7 else ("reduced",)
    verdicts = {mode: check_tvc(g, t, mode=mode) for mode in modes}
    assert {(v.t, v.status) for v in verdicts.values()} == {(t, "violated")}
    for v in verdicts.values():
        w = v.witness
        assert count_type_anchored(g, w.graph_type, w.pair_a) == w.count_a
        assert count_type_anchored(g, w.graph_type, w.pair_b) == w.count_b
    if "exhaustive" in verdicts:
        assert verdicts["exhaustive"].witness.graph_type.order == g.n


@pytest.mark.parametrize("name, dual, level", [
    ("t2star", False, 2), ("t2star", True, 2), ("payne", True, 3)])
def test_reduced_mode_finds_its_isoregularity_level(name, dual, level):
    g = graph_of(name, dual)
    verdict = check_tvc(g, 5, mode="reduced")
    assert (verdict.status, verdict.k, verdict.rank3) \
        == ("satisfied", level, False)
    # a cap of 2 gives the same verdict, on dual Payne from more types
    capped = check_tvc(g, 5, mode="reduced", k=2)
    assert (capped.status, capped.k) == (verdict.status, 2)


def test_count_type_anchored_formula_values(w2_graph):
    # type 0 through an edge counts collinear triples: C(s-1, 3) = 0 at s=2
    x, y = next(iter(w2_graph.edges()))
    assert count_type_anchored(w2_graph, order5_type("0", True), (x, y)) == 0
    # type 2a through a non-edge: (t+1) C(s-1, 2) = 0 at s=2
    u, v = next(iter(w2_graph.non_edges()))
    assert count_type_anchored(w2_graph, order5_type("2a", False), (u, v)) == 0


def test_count_type_anchored_adjacency_guard(w2_graph):
    x, y = next(iter(w2_graph.edges()))
    with pytest.raises(ParameterError, match="pair adjacency does not match"):
        count_type_anchored(w2_graph, order5_type("2a", False), (x, y))
    w3 = graph_of("w3")
    # a negative vertex would otherwise index from the end of the rows
    for pair in ((3, 3), (-1, 1), (w3.n, 1)):
        with pytest.raises(ParameterError, match=r"distinct vertices in 0\.\.39"):
            count_type_anchored(w3, order5_type("0", False), pair)


@pytest.mark.parametrize("seed", range(4))
def test_types_of_order_two_and_three_count_without_placement(seed):
    # an order-3 type places its one slot by a popcount and an order-2
    # type places none: 3 types at each of 50 seeded pairs
    rng = random.Random(seed)
    (pair_type,) = enumerate_types(2, 0)
    for _ in range(50):
        g = random_graph(rng.randrange(3, 16), rng.random(), rng)
        x, y = rng.sample(range(g.n), 2)
        adj = g.has_edge(x, y)
        census = dict(pair_fingerprint(g, 3, (x, y)).counts)
        for ty in enumerate_types(3, 0):
            code = CanonicalCode(3, pair_codes(ty.rows, 3)[0], adj)
            assert count_type_anchored(g, ty.concrete(adj), (x, y)) \
                == census.get(code, 0)
        assert count_type_anchored(g, pair_type.concrete(adj), (x, y)) == 1


def test_find_distinguisher_none_for_rank3(w2_graph):
    assert check_tvc(w2_graph, 5, mode="reduced", k=2).witness is None


def test_count_k44_per_edge_known_graphs():
    k44 = graph_from_edges(8, [(i, j + 4) for i in range(4) for j in range(4)])
    counts = count_k44_per_edge(k44)
    assert set(counts.values()) == {1}
    assert len(counts) == 16
    k5 = graph_from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert set(count_k44_per_edge(k5).values()) == {0}


def test_count_k44_matches_brute_force():
    # near-complete-bipartite graphs with a few flipped pairs have many
    # induced K4,4 through some edges and none through others
    rng = random.Random(44)
    seen = set()
    for _ in range(6):
        n = rng.randrange(8, 13)
        side = set(rng.sample(range(n), n // 2))
        g = graph_from_edges(n, [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if ((i in side) != (j in side)) != (rng.random() < 0.05)])
        counts = count_k44_per_edge(g)
        seen.update(counts.values())
        assert len(counts) == g.edge_count()
        for (x, y), count in counts.items():
            brute = 0
            for rest in itertools.combinations(
                    [v for v in range(n) if v not in (x, y)], 6):
                a = [x] + [v for v in rest if not g.has_edge(x, v)]
                b = [y] + [v for v in rest if g.has_edge(x, v)]
                brute += (len(a) == 4
                          and all(g.has_edge(u, v) for u in a for v in b)
                          and not any(g.has_edge(u, v) for part in (a, b)
                                      for u, v in itertools.combinations(
                                          part, 2)))
            assert count == brute, (x, y)
    assert len(seen) >= 4, seen


def direct_k44(g, x, y):
    """Induced K4,4 through the edge (x, y), x and y on opposite sides,
    counted directly: a1 < a2 < a3 pairwise non-adjacent in N(y) \\ N[x],
    then b1 < b2 < b3 pairwise non-adjacent in
    N(x) & N(a1) & N(a2) & N(a3) \\ N[y]."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    side = sorted(nbrs[y] - nbrs[x] - {x})
    total = 0
    for i, a1 in enumerate(side):
        common = nbrs[x] & nbrs[a1] - nbrs[y] - {y}
        for j in range(i + 1, len(side)):
            a2 = side[j]
            if a2 in nbrs[a1] or len(common & nbrs[a2]) < 3:
                continue
            for a3 in side[j + 1:]:
                if a3 in nbrs[a1] or a3 in nbrs[a2]:
                    continue
                total += sum(
                    not (b2 in nbrs[b1] or b3 in nbrs[b1] or b3 in nbrs[b2])
                    for b1, b2, b3 in itertools.combinations(
                        sorted(common & nbrs[a2] & nbrs[a3]), 3))
    return total


def test_k44_census_matches_direct_count_on_dual_payne():
    # the paper's four values, each recounted where it first appears by
    # a biclique search that shares no code with count_type_anchored
    g = graph_of("payne", dual=True)
    counts = count_k44_per_edge(g, stop_after_values=4)
    first = {}
    for edge, count in counts.items():
        first.setdefault(count, edge)
    assert first == {7896: (0, 1), 8000: (0, 126), 23000: (0, 755),
                     75000: (750, 751)}
    assert counts.counts_made == 13
    for count, edge in first.items():
        assert direct_k44(g, *edge) == count


def test_count_k44_early_stop():
    # a lone edge before a K4,4: two distinct per-edge values early
    edges = [(0, 1)] + [(i + 2, j + 6) for i in range(4) for j in range(4)]
    g = graph_from_edges(10, edges)
    counts = count_k44_per_edge(g, stop_after_values=2)
    assert len(set(counts.values())) == 2
    assert len(counts) < g.edge_count()
    capped = count_k44_per_edge(g, max_edges=3)
    assert len(capped) == 3


@pytest.mark.parametrize("name, value", [
    ("max_edges", 0), ("max_edges", -1), ("stop_after_values", 0),
    ("stop_after_values", -2)])
def test_count_k44_rejects_a_cap_below_one(name, value):
    with pytest.raises(ParameterError,
                       match=f"{name} must be at least 1, got {value}"):
        count_k44_per_edge(graph_of("w2"), **{name: value})
