"""Orbit reduction: the checks on candidate generators, the orbits, and
scans that must give what the same scans give without generators."""

import gc
import itertools
import random
import time
import weakref

import pytest

import gqtvc.geometry
import gqtvc.symmetry
import gqtvc.tvc
from gqtvc.formulas import FormulaId, verify_formula
from gqtvc.geometry import (CONSTRUCTIONS as REGISTERED, GeometryError,
                            PartialLinearSpace, build_t2star_gq,
                            check_gq_axiom, dualize, point_graph,
                            validate_pls)
from gqtvc.graph import (BudgetExceeded, Graph, GraphError, from_graph6,
                         graph_from_edges, to_graph6)
from gqtvc.regularity import check_isoregular, srg_parameters
from gqtvc.gtypes import K44_TYPE, enumerate_types
from gqtvc.symmetry import (automorphisms, check_automorphisms, line_action,
                            pair_orbits, scan_pairs, vertex_orbits)
from gqtvc.tvc import check_tvc, count_k44_per_edge, count_type_anchored

from conftest import (chang, fresh, geometry, graph_of, permuted,
                      random_graph, shrikhande, unreduced)

CONSTRUCTIONS = [("w2", False), ("w3", False), ("q5_2", False),
                 ("q5_3", False), ("t2star", False), ("t2star", True),
                 ("payne", False), ("payne", True)]


def unreduced_geometry(pls):
    return PartialLinearSpace(pls.num_points, pls.lines, pls.order)


@pytest.mark.parametrize("name, dual", CONSTRUCTIONS)
def test_orbit_sizes_cover_every_vertex_and_pair(name, dual):
    g = graph_of(name, dual)
    assert g.generators
    assert sum(size for _, size in vertex_orbits(g.n, g.generators)) == g.n
    ordered = list(pair_orbits(g))
    assert sum(size for _, size in ordered) == g.n * (g.n - 1)
    # each representative is the least member of its orbit in scan order
    x, y = ordered[-1][0]
    orbit = orbit_by_key(g, (x, y))
    assert len(orbit) == len(set(orbit)) == ordered[-1][1]
    assert all(g.has_edge(*p) == g.has_edge(x, y) for p in orbit)
    assert min(orbit, key=scan_position(g)) == (x, y)


def scan_position(g):
    """The key that sorts ordered pairs into scan order."""
    return lambda p: (not g.has_edge(*p), min(p), max(p), p[0] > p[1])


def orbit_by_key(g, pair):
    """The ordered pairs with the ``Stabilisers.key`` of ``pair``; a key
    names the root of its first vertex's orbit, so they start there."""
    key = g.stabilisers.key
    want = key(*pair)
    starts = gqtvc.symmetry._orbit([pair[0]], g.generators, bytearray(g.n))
    return [(u, v) for u in starts for v in range(g.n)
            if u != v and key(u, v) == want]


def orbits_by_key(g):
    """The ordered pairs grouped by ``Stabilisers.key``, each group in
    scan order, the groups in the order of their first pairs."""
    groups = {}
    for p in scan_pairs(g):
        groups.setdefault(g.stabilisers.key(*p), []).append(p)
    return list(groups.values())


def search_over_pairs(g):
    """The orbits of the generators on ordered pairs, found by closing
    each pair under them in scan order (an n^2-byte table of the pairs
    seen): the search that the stabiliser orbits replaced."""
    n, seen = g.n, bytearray(g.n * g.n)
    for x, y in scan_pairs(g):
        if seen[x * n + y]:
            continue
        seen[x * n + y] = 1
        members = [x * n + y]
        for code in members:
            u, v = divmod(code, n)
            for s in g.generators:
                if not seen[s[u] * n + s[v]]:
                    seen[s[u] * n + s[v]] = 1
                    members.append(s[u] * n + s[v])
        yield (x, y), len(members)


def unordered_reps(g):
    """The least members of the orbits on unordered pairs: the ordered
    orbits' least members (a, b) with a < b (see ``pair_orbits``)."""
    return [(x, y) for (x, y), _ in pair_orbits(g) if x < y]


def unordered_search(g):
    """The least members of the orbits on unordered pairs, found by the
    search that reading them off the ordered orbits replaced: each orbit
    closed under the generators and under reversal, with both
    orientations marked."""
    n, seen = g.n, bytearray(g.n * g.n)
    for x, y in itertools.chain(g.edges(), g.non_edges()):
        if seen[x * n + y]:
            continue
        seen[x * n + y] = 1
        members = [x * n + y]
        for code in members:
            u, v = divmod(code, n)
            for image in [s[u] * n + s[v] for s in g.generators] + [v * n + u]:
                if not seen[image]:
                    seen[image] = 1
                    members.append(image)
        yield x, y


@pytest.mark.parametrize("name, dual", [(name, dual) for name in REGISTERED
                                        for dual in (False, True)])
def test_unordered_orbits_come_from_the_ordered_search(name, dual):
    g = graph_of(name, dual)
    # the Payne graph's 10.7 million ordered pairs: its first 50 orbits
    limit = 50 if g.n > 1000 else None
    assert unordered_reps(g)[:limit] \
        == list(itertools.islice(unordered_search(g), limit))
    if g.n < 100:
        assert unordered_reps(unreduced(g)) \
            == list(itertools.chain(g.edges(), g.non_edges()))


@pytest.mark.parametrize("name, dual", [
    c for c in CONSTRUCTIONS if c != ("payne", False)] + [("q5_5", False)])
def test_stabiliser_orbits_match_the_search_over_pairs(name, dual):
    g = graph_of(name, dual)
    want = list(search_over_pairs(g))
    assert list(pair_orbits(g)) == want
    assert unordered_reps(g) == list(unordered_search(g))


def test_payne_stabiliser_orbits_start_like_the_search_over_pairs():
    # 10.7 million ordered pairs: the search over them is checked on the
    # orbits it meets first
    g = graph_of("payne")
    assert list(itertools.islice(pair_orbits(g), 50)) \
        == list(itertools.islice(search_over_pairs(g), 50))


def random_generated(n, seed):
    """A seeded graph on n >= 3 vertices with hand-made generators:
    rotations and reflections of blocks of 1, 2, 3, ... shuffled
    vertices, one of them the product of two, and the closure of random
    edges under them.  The last whole block is always rotated (a
    generator replaced by its product with another leaves the group as
    it was), so it is an orbit, and the vertex orbits differ in size."""
    rng = random.Random(seed)
    order = rng.sample(range(n), n)
    blocks = [order[i * (i + 1) // 2:(i + 1) * (i + 2) // 2]
              for i in range(n) if i * (i + 1) // 2 < n]
    whole = blocks[-1] if len(blocks[-1]) == len(blocks) else blocks[-2]
    perms = []
    for block in blocks:
        for image in (block[1:] + block[:1], block[::-1]):
            if (block is whole and image[0] == block[1]) \
                    or rng.random() < 0.5:
                perm = list(range(n))
                for a, b in zip(block, image):
                    perm[a] = b
                perms.append(tuple(perm))
    if len(perms) > 1:
        a, b = rng.sample(range(len(perms)), 2)
        perms[a] = tuple(perms[a][v] for v in perms[b])
    edges = set(rng.sample(list(itertools.combinations(range(n), 2)), n))
    queue = list(edges)
    for u, v in queue:
        for perm in perms:
            e = tuple(sorted((perm[u], perm[v])))
            if e not in edges:
                edges.add(e)
                queue.append(e)
    return Graph(n, graph_from_edges(n, edges).rows, tuple(perms))


@pytest.mark.parametrize("seed", range(12))
def test_stabiliser_orbits_of_hand_made_generators(seed):
    g = random_generated(6 + seed, seed)
    assert len({size for _, size in vertex_orbits(g.n, g.generators)}) > 1
    assert list(pair_orbits(g)) == list(search_over_pairs(g))
    assert unordered_reps(g) == list(unordered_search(g))
    # the pairs of a key are each orbit whole: its least member, its
    # size, and together every pair once
    orbits = [orbit_by_key(g, pair) for pair, _ in pair_orbits(g)]
    assert [(min(o, key=scan_position(g)), len(o)) for o in orbits] \
        == list(pair_orbits(g))
    assert sorted(p for o in orbits for p in o) == sorted(scan_pairs(g))


SMALL_GRAPHS = [
    Graph(1, (0,), ((0,),)),
    Graph(2, (2, 1), ((1, 0),)),
    Graph(2, (0, 0), ((1, 0),)),
    Graph(2, (0, 0), ((0, 1),)),
]


@pytest.mark.parametrize("seed", range(12))
def test_pair_orbits_read_stabilisers_at_any_root(seed):
    # a graph whose orbits were searched from their last vertex gives the
    # same orbits, and the same members of each
    g = random_generated(6 + seed, seed)
    h = fresh(g)
    for x in reversed(range(h.n)):
        h.stabilisers.search(x)
    assert list(pair_orbits(h)) == list(pair_orbits(g))
    assert unordered_reps(h) == list(unordered_search(g))
    assert orbits_by_key(h) == orbits_by_key(g)


@pytest.mark.parametrize("g", SMALL_GRAPHS, ids=[
    "K1-identity", "K2-swap", "empty-2-swap", "empty-2-identity"])
def test_stabiliser_orbits_of_small_graphs(g):
    assert list(pair_orbits(g)) == list(search_over_pairs(g))
    assert unordered_reps(g) == list(unordered_search(g))


@pytest.mark.parametrize("g", [random_generated(6 + seed, seed)
                               for seed in range(12)] + SMALL_GRAPHS
                         + [graph_of("t2star", True)])
def test_stabiliser_keys_are_the_pair_orbits(g):
    # a key is kept by the generators, so its pairs are a union of orbits,
    # and the keys' least members and sizes are those of the orbits, so
    # there are as many keys as orbits.  Dual T2*(O)'s searches merge
    # labels after rows were made
    g = fresh(g)
    keys = {p: g.stabilisers.key(*p) for p in scan_pairs(g)}
    assert all(keys[s[x], s[y]] == key for (x, y), key in keys.items()
               for s in g.generators)
    assert [(ps[0], len(ps)) for ps in orbits_by_key(g)] \
        == list(search_over_pairs(g))


@pytest.mark.parametrize("name", ["w2", "w3", "q5_2", "q5_3"])
def test_rank_three_constructions_have_two_pair_orbits(name):
    orbits = list(pair_orbits(graph_of(name)))
    assert [graph_of(name).has_edge(*pair) for pair, _ in orbits] \
        == [True, False]


def test_orbit_counts():
    assert len(vertex_orbits(3276, graph_of("payne").generators)) == 5
    assert len(vertex_orbits(756, graph_of("payne", True).generators)) == 6
    assert len(list(pair_orbits(graph_of("t2star")))) == 21
    assert len(list(pair_orbits(graph_of("t2star", True)))) == 90


def test_generator_that_is_not_a_collineation_raises():
    pls = geometry("w2")
    swap = list(range(pls.num_points))
    swap[0], swap[1] = 1, 0
    bad = PartialLinearSpace(pls.num_points, pls.lines, pls.order,
                             pls.generators + (tuple(swap),))
    with pytest.raises(GraphError, match="generator 5 maps line"):
        point_graph(bad)
    with pytest.raises(GraphError):
        check_gq_axiom(bad)
    with pytest.raises(GraphError, match="not a permutation"):
        point_graph(PartialLinearSpace(pls.num_points, pls.lines, pls.order,
                                       ((0,) * pls.num_points,)))


def test_line_action_on_lines_of_fewer_than_two_points():
    # a one-point itemgetter returns the point itself, not a 1-tuple
    assert line_action(2, [(), (0,), (1,), (0, 1)], [(1, 0)]) == ((0, 2, 1, 3),)
    with pytest.raises(GraphError, match="generator 0 maps line 1"):
        line_action(3, [(0,), (1,), (0, 1)], [(0, 2, 1)])


def test_generator_that_is_not_an_automorphism_raises():
    g = graph_of("w2")
    swap = list(range(g.n))
    swap[0], swap[1] = 1, 0
    with pytest.raises(GraphError, match="generator 0 maps the neighbours"):
        Graph(g.n, g.rows, (tuple(swap),))
    # the generators a construction emits pass the row check too
    for name, dual in CONSTRUCTIONS[:6]:
        h = graph_of(name, dual)
        Graph(h.n, h.rows, h.generators)


def axiom_verdicts(pls):
    """``validate_pls``, ``check_gq_axiom`` and the dual's points, lines
    and order, or the error ``dualize`` raises."""
    try:
        dual = dualize(pls)
    except GeometryError as exc:
        return validate_pls(pls), check_gq_axiom(pls), str(exc)
    return validate_pls(pls), check_gq_axiom(pls), dual


@pytest.mark.parametrize("name, dual", CONSTRUCTIONS)
def test_regularity_scans_match_unreduced(name, dual):
    g = graph_of(name, dual)
    h = unreduced(g)
    assert srg_parameters(g) == srg_parameters(h)
    # the Payne graph has 5.4 million unordered pairs
    for k in (1, 2) if g.n > 1000 else (1, 2, 3):
        a, b = check_isoregular(g, k), check_isoregular(h, k)
        assert (a.ok, a.table, a.witness) == (b.ok, b.table, b.witness), k
        assert a.representatives <= b.representatives
    # the geometry's checks too, at one point per orbit against all
    pls = geometry(name, dual)
    assert axiom_verdicts(pls) == axiom_verdicts(unreduced_geometry(pls))


def test_gq_axiom_witness_matches_unreduced():
    # the Fano plane with the rotation i -> i + 1: not a quadrangle
    fano = PartialLinearSpace.make(
        7, [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)],
        generators=[tuple((i + 1) % 7 for i in range(7))])
    res = check_gq_axiom(fano)
    assert not res and res == check_gq_axiom(unreduced_geometry(fano))


def rotation(n, k=1):
    return tuple((i + k) % n for i in range(n))


Z6_LINES = [(i, (i + 1) % 6, (i + 2) % 6) for i in range(6)]


@pytest.mark.parametrize("pls, witness", [
    # consecutive triples of Z6: lines 0 and 1 share 0 and 1
    (PartialLinearSpace.make(6, Z6_LINES, generators=[rotation(6)]),
     ("lines share two points", 0, 1, (0, 1))),
    # a valid partial linear space: 0 sees both points of line (1, 2)
    (PartialLinearSpace.make(3, [(0, 1), (1, 2), (0, 2)],
                             generators=[rotation(3)]), (0, 2, 2)),
    # a hexagon with (2, 3) and (4, 5) listed twice: i -> i + 2 maps
    # each line onto a line, but (4, 5) onto (0, 1), listed once
    (PartialLinearSpace(6, ((0, 1), (0, 5), (1, 2), (2, 3), (2, 3), (3, 4),
                            (4, 5), (4, 5)), None, (rotation(6, 2),)),
     ("lines share two points", 3, 4, (2, 3))),
    # ... and with the second copies in reverse
    (PartialLinearSpace(6, ((0, 1), (0, 5), (1, 2), (2, 3), (3, 2), (3, 4),
                            (4, 5), (5, 4)), None, (rotation(6, 2),)),
     ("lines share two points", 3, 4, (3, 2))),
], ids=["z6-triples", "triangle", "lines-listed-twice", "reversed-copies"])
def test_broken_geometry_with_a_collineation_matches_unreduced(pls, witness):
    assert pls.collineations[1]
    got = axiom_verdicts(pls)
    assert got == axiom_verdicts(unreduced_geometry(pls))
    assert got[1].witness == witness


@pytest.mark.parametrize("generator", [
    lambda n: (0,) * n, lambda n: (1, 0) + tuple(range(2, n))],
    ids=["not-a-permutation", "maps-a-line-off"])
def test_bad_generator_on_an_invalid_geometry_gives_its_witness(generator):
    pls = PartialLinearSpace.make(6, Z6_LINES, generators=[generator(6)])
    with pytest.raises(GraphError):
        pls.collineations
    res = validate_pls(pls)
    assert res.witness == ("lines share two points", 0, 1, (0, 1))
    assert check_gq_axiom(pls) == res
    with pytest.raises(GeometryError, match="lines share two points"):
        dualize(pls)
    # on a valid geometry the generator is what fails
    w2 = geometry("w2")
    bad = PartialLinearSpace(w2.num_points, w2.lines, w2.order,
                             (generator(w2.num_points),))
    assert validate_pls(bad)
    with pytest.raises(GraphError):
        check_gq_axiom(bad)
    with pytest.raises(GraphError):
        dualize(bad)


def test_collinearity_rows_only_without_collineations(monkeypatch):
    calls = []
    rows = gqtvc.geometry._collinearity
    monkeypatch.setattr(gqtvc.geometry, "_collinearity",
                        lambda *args: calls.append(1) or rows(*args))
    for dual in (False, True):
        pls = geometry("payne", dual)
        assert validate_pls(pls) and check_gq_axiom(pls) and dualize(pls)
    assert not calls
    assert validate_pls(unreduced_geometry(pls)) and len(calls) == 1


def test_isoregularity_representatives():
    g = graph_of("q5_2")
    # one empty anchor, one vertex orbit, two unordered pair orbits
    assert check_isoregular(g, 3).representatives == 1 + 1 + 2
    assert check_isoregular(unreduced(g), 3).representatives \
        == 1 + 27 + 27 * 26 // 2


@pytest.mark.parametrize("g, t, mode, k", [
    (graph_of("w2"), 6, "exhaustive", None),
    (graph_of("w3"), 5, "exhaustive", None),
    (graph_of("q5_2"), 5, "exhaustive", None),
    (shrikhande(generators=True), 5, "exhaustive", None),
    (shrikhande(generators=True), 5, "reduced", 2),
    (graph_of("t2star", True), 6, "reduced", 2),
    (graph_of("q5_2"), 7, "reduced", 3),
    (graph_of("q5_3"), 5, "reduced", 3),
    (graph_of("w3"), 5, "reduced", 2),
], ids=["w2-6", "w3-5", "q5_2-5", "shrikhande-5", "shrikhande-5-reduced",
        "t2star-dual-6-reduced", "q5_2-7-reduced", "q5_3-5-reduced",
        "w3-5-reduced"])
def test_tvc_matches_unreduced(g, t, mode, k, unsearched_tvc):
    a = check_tvc(g, t, mode=mode, k=k)
    b = unsearched_tvc(unreduced(g), t, mode=mode, k=k)
    assert (a.status, a.witness) == (b.status, b.witness)
    assert a.representatives < b.representatives
    # both modes take the rank-3 short-cut exactly on the rank-3 graphs
    # with generators; without them they count
    assert a.rank3 == (len(list(pair_orbits(g))) == 2)
    assert not b.rank3


def same_census(g, **cap):
    """The K4,4 census of ``g`` equals that without its generators, the
    same counts in the same order, from at most as many counts."""
    a, b = count_k44_per_edge(g, **cap), count_k44_per_edge(unreduced(g), **cap)
    assert list(a.items()) == list(b.items())
    assert a.counts_made <= b.counts_made == len(b)
    return a


def test_a_census_without_generators_searches_no_orbit():
    # each pair is its own orbit and its own key, so every edge is
    # counted plainly and no stabiliser is searched
    g = unreduced(graph_of("q5_3"))
    census = count_k44_per_edge(g, max_edges=20)
    assert dict(census) == {e: count_type_anchored(g, K44_TYPE, e)
                            for e in itertools.islice(g.edges(), 20)}
    assert census.counts_made == 20
    assert not g.stabilisers and not g.stabilisers.moves


@pytest.mark.parametrize("name, dual", CONSTRUCTIONS)
def test_k44_census_matches_unreduced(name, dual):
    # the Payne graphs: their first 10 edges
    cap = {"max_edges": 10} if name == "payne" else {}
    a = same_census(graph_of(name, dual), **cap)
    assert a.counts_made < len(a)


@pytest.mark.parametrize("name, dual", CONSTRUCTIONS)
def test_fixers_fix_the_pair_and_keep_counts(name, dual):
    # the automorphisms Stabilisers.fixers draws for a pair fix it, and
    # counting with their orbits gives the plain count, on sampled types
    # of order 4 to 8 at the first edge and non-edge, a seeded random edge
    # and non-edge, and their reverses; the draws depend on the roots of
    # the searches, so no earlier test may have searched
    g = fresh(graph_of(name, dual))
    rng = random.Random(16)
    moved = 0
    pairs = [next(g.edges()), next(g.non_edges())]
    while len(pairs) < 4:
        x, y = rng.sample(range(g.n), 2)
        if g.has_edge(x, y) == (len(pairs) == 2):
            pairs.append((x, y))
    for x, y in pairs + [p[::-1] for p in pairs]:
        fixers = g.stabilisers.fixers(x, y)
        check_automorphisms(g.rows, fixers)
        assert all(s[x] == x and s[y] == y for s in fixers)
        orbits = dict(vertex_orbits(g.n, fixers))
        moved += len(orbits) < g.n
        for t in range(4, 9):
            for ty in rng.sample(enumerate_types(t, t - 3), 2):
                ty = ty.concrete(g.has_edge(x, y))
                assert count_type_anchored(g, ty, (x, y), None, orbits) \
                    == count_type_anchored(g, ty, (x, y)), (x, y, ty)
    # the generators of T2*(O) fix no pair: the stabiliser of a point has
    # order 3 and moves every other point
    assert moved >= (0 if (name, dual) == ("t2star", False) else 4)


def stored_fixers(g, x, y):
    """What ``Stabilisers.fixers`` draws, from transversals that store a
    permutation per orbit point: w[u] for each u of x's orbit that a
    draw reaches, and t[z] for every z of c's orbit."""
    n, bases = g.n, g.stabilisers
    one = tuple(range(n))
    r, rows, via = bases.search(x)
    w = {r: one}

    def walk(u):
        if u not in w:
            parent, undo = via[u]
            w[u] = undo(walk(parent))
        return w[u]

    def draws(points, table, gens, seed):
        rng = random.Random(seed)
        out = []
        for _ in range(gqtvc.symmetry.FIXERS):
            u, s = rng.choice(points), rng.choice(gens)
            inverse = gqtvc.symmetry._inverse(table(u))
            out.append(tuple(table(s[u])[s[v]] for v in inverse))
        return out

    moves = draws(list(rows), walk, bases.generators, 0)
    wx = walk(x)
    t, order = {wx[y]: one}, [wx[y]]
    for z in order:
        for s in moves:
            if s[z] not in t:
                t[s[z]] = tuple(t[z][v] for v in gqtvc.symmetry._inverse(s))
                order.append(s[z])
    back = gqtvc.symmetry._inverse(wx)
    return tuple({tuple(back[h[wx[i]]] for i in range(n))
                  for h in draws(order, t.__getitem__, moves, 1)} - {one})


@pytest.mark.parametrize("name, dual", [(name, dual) for name in REGISTERED
                                        for dual in (False, True)])
def test_fixers_equal_those_of_stored_transversals(name, dual):
    # walking the Schreier vectors draws the automorphisms that stored
    # transversals give, at seeded edges and non-edges and their reverses;
    # one of each class on more than 1,000 vertices, where a table of c's
    # orbit takes up to a second
    g = fresh(graph_of(name, dual))
    rng = random.Random(28)
    pairs = [(0, 1), (0, 2), (0, 126), (0, 755), (750, 751)] \
        if (name, dual) == ("payne", True) else []
    per_class = 1 if g.n > 1000 else 4
    for adjacent in (True, False):
        while sum(g.has_edge(*p) == adjacent for p in pairs) < per_class:
            x, y = rng.sample(range(g.n), 2)
            if g.has_edge(x, y) == adjacent:
                pairs.append((x, y))
    for x, y in pairs + [p[::-1] for p in pairs]:
        # compared outside the assert, so a failure prints no n-long tuples
        same = g.stabilisers.fixers(x, y) == stored_fixers(g, x, y)
        assert same, (x, y)


def test_fixers_walk_a_vector_deeper_than_the_recursion_limit():
    # C_1500 with its rotation alone: the Schreier vector of 0 is a path
    # 1,499 deep, and only the identity fixes 0 and 1
    n = 1500
    g = Graph(n, tuple(1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n)),
              (tuple((v + 1) % n for v in range(n)),))
    assert g.stabilisers.fixers(0, 1) == ()


def bipartite_generated(seed):
    """A seeded graph on two sides of m vertices, i and m + i, with
    hand-made generators: two rotations of complementary blocks of a
    shuffled side, each applied to both sides, and sometimes the swap
    of the sides.  Whole edge orbits are kept, with probability 0.8
    across the sides and 0.15 inside one, so that many edges lie in an
    induced K4,4 and their counts differ."""
    rng = random.Random(seed)
    m = rng.randrange(6, 10)
    n = 2 * m
    order = rng.sample(range(m), m)
    cut = rng.randrange(2, m - 2)
    perms = []
    for block in (order[:cut], order[cut:]):
        perm = list(range(n))
        for a, b in zip(block, block[1:] + block[:1]):
            perm[a], perm[a + m] = b, b + m
        perms.append(tuple(perm))
    if rng.random() < 0.5:
        perms.append(tuple((v + m) % n for v in range(n)))
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
        if rng.random() < (0.8 if (pair[0] < m) != (pair[1] < m) else 0.15):
            edges |= orbit
    return Graph(n, graph_from_edges(n, edges).rows, tuple(perms))


def test_k44_census_of_hand_made_generators_matches_unreduced():
    spread = set()
    for seed in range(12):
        g = bipartite_generated(seed)
        a = same_census(g)
        spread.add(len(set(a.values())))
        for cap in ({"max_edges": 5}, {"stop_after_values": 2},
                    {"max_edges": 20, "stop_after_values": 3}):
            same_census(g, **cap)
    assert max(spread) >= 4, spread


def test_k44_census_cut_short_matches_unreduced():
    # a lone edge before a K4,4 (as in test_tvc), with its automorphisms
    # turning either side of the K4,4 and swapping the sides
    edges = [(0, 1)] + [(i + 2, j + 6) for i in range(4) for j in range(4)]
    g = Graph(10, graph_from_edges(10, edges).rows, (
        (1, 0, 3, 4, 5, 2, 6, 7, 8, 9), (0, 1, 2, 3, 4, 5, 7, 8, 9, 6),
        (0, 1, 6, 7, 8, 9, 2, 3, 4, 5)))
    assert same_census(g).counts_made == 2
    counts = same_census(g, stop_after_values=2)
    assert len(set(counts.values())) == 2 and len(counts) < g.edge_count()
    assert len(same_census(g, max_edges=3)) == 3


@pytest.fixture
def searched_roots(monkeypatch):
    """The roots ``symmetry._stabiliser`` searches from, as it runs."""
    searched, search = [], gqtvc.symmetry._stabiliser
    monkeypatch.setattr(gqtvc.symmetry, "_stabiliser",
                        lambda n, gens, r, *rest: searched.append(r)
                        or search(n, gens, r, *rest))
    return searched


def test_reduced_check_searches_the_pair_orbits_once(searched_roots):
    # Q-(5,2) is rank 3: its pair orbits are read off the one search for
    # the stabiliser of its one vertex orbit
    assert check_tvc(fresh(graph_of("q5_2")), 6, mode="reduced").rank3
    assert searched_roots == [0]


def test_each_vertex_orbit_is_searched_once(searched_roots, monkeypatch):
    # the pair orbits, the pair fixers of the counts and the orbits of
    # mismatching pairs all read one search per vertex orbit
    g = fresh(graph_of("t2star", True))
    roots = [r for r, _ in vertex_orbits(g.n, g.generators)]
    assert len(roots) == 6
    check_tvc(g, 5, mode="reduced", k=2)
    assert searched_roots == roots
    import gqtvc.formulas as formulas
    right = formulas.expected_count
    monkeypatch.setattr(formulas, "expected_count",
                        lambda fid, s, t, adj: right(fid, s, t, adj) + adj)
    searched_roots.clear()
    # a geometry keeps its point graph, so take one no test has searched
    report = verify_formula(dualize(build_t2star_gq()), FormulaId("type3a"))
    assert len(report.mismatches) == 2 * g.edge_count()
    assert searched_roots == roots


def test_a_geometry_keeps_its_point_graph(searched_roots):
    # a second verify_formula reads the searches of the first
    pls = dualize(build_t2star_gq())
    g = point_graph(pls)
    first = verify_formula(pls, FormulaId("type3a"))
    assert searched_roots
    searched_roots.clear()
    assert verify_formula(pls, FormulaId("type3a")) == first
    assert point_graph(pls) is g and not searched_roots


def test_a_dropped_geometry_frees_its_point_graph():
    # the graph holds no reference to its geometry, so no cycle keeps it
    pls = dualize(build_t2star_gq())
    verify_formula(pls, FormulaId("type0"))
    g = point_graph(pls)
    assert g.stabilisers
    refs = [weakref.ref(x) for x in (pls, g, g.stabilisers)]
    del g
    gc.disable()
    try:
        del pls
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()


def test_a_second_orbit_question_makes_no_search(searched_roots):
    # the graph keeps its searches: the orbits, isoregularity, a reduced
    # check, the pair fixers and the K4,4 census search each vertex orbit
    # once in all
    g = fresh(graph_of("t2star", True))
    want = check_tvc(fresh(g), 5, mode="reduced", k=2)
    searched_roots.clear()
    list(pair_orbits(g))
    check_isoregular(g, 3)
    assert check_tvc(g, 5, mode="reduced", k=2) == want
    count_k44_per_edge(g, max_edges=3)
    assert searched_roots == [r for r, _ in vertex_orbits(g.n, g.generators)]


def test_a_searched_graph_is_freed_when_dropped():
    # the searches hold no reference to their graph, so no cycle keeps it
    g = fresh(graph_of("t2star", True))
    check_tvc(g, 5, mode="reduced", k=2)
    count_k44_per_edge(g, max_edges=3)
    assert len(g.stabilisers) == g.n and g.stabilisers.moves
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_rank_three_short_cut_makes_no_count(monkeypatch):
    def no_count(*args):
        raise AssertionError("counted a type")

    monkeypatch.setattr(gqtvc.tvc, "count_type_anchored", no_count)
    verdict = check_tvc(graph_of("q5_2"), 8, mode="reduced", k=3)
    assert (verdict.status, verdict.rank3, verdict.representatives) \
        == ("satisfied", True, 2)
    with pytest.raises(AssertionError, match="counted a type"):
        check_tvc(graph_of("t2star", True), 4, mode="reduced", k=2)


@pytest.mark.parametrize("name, dual", [
    ("w2", False), ("w3", False), ("q5_2", True), ("q5_3", True)])
def test_rank_three_short_cut_scans_no_isoregularity(name, dual,
                                                     monkeypatch):
    # these rank-3 graphs are not 3-isoregular, and the condition holds
    # on them for every t all the same (Hestenes & Higman, 1971)
    g = graph_of(name, dual)
    assert not check_isoregular(g, 3).ok
    calls = []
    monkeypatch.setattr(gqtvc.tvc, "check_isoregular",
                        lambda *args: calls.append(args)
                        or check_isoregular(*args))
    verdict = check_tvc(g, 8, mode="reduced")
    assert (verdict.status, verdict.rank3, verdict.k, calls) \
        == ("satisfied", True, None, [])


def test_tvc_representatives(unsearched_tvc):
    w2 = graph_of("w2")
    assert check_tvc(w2, 5).representatives == 2
    assert unsearched_tvc(unreduced(w2), 5).representatives == 15 * 14 // 2
    q = graph_of("q5_2")
    assert check_tvc(q, 6, mode="reduced", k=3).representatives == 2
    assert unsearched_tvc(unreduced(q), 6, mode="reduced",
                          k=3).representatives == 27 * 26
    assert check_tvc(q, 3).representatives is None


def circulant(n, seed):
    """A Cayley graph of Z_n on a seeded random connection set."""
    rng = random.Random(seed)
    steps = [d for d in range(1, n // 2 + 1) if rng.random() < 0.5]
    return graph_from_edges(n, {tuple(sorted((i, (i + d) % n)))
                                for i in range(n) for d in steps})


@pytest.mark.parametrize("g, t, k", [
    (permuted(graph_of("w2"), random.Random(1).sample(range(15), 15)), 6, 2),
    (permuted(graph_of("w3"), random.Random(2).sample(range(40), 40)), 5, 2),
    (permuted(graph_of("q5_2"), random.Random(3).sample(range(27), 27)), 6, 3),
    (shrikhande(), 5, 2),
    (chang(), 5, 2),
    (circulant(17, 4), 5, 2),
    (random_graph(12, 0.5, random.Random(5)), 5, 2),
], ids=["w2", "w3", "q5_2", "shrikhande", "chang", "circulant", "random"])
@pytest.mark.parametrize("mode", ["exhaustive", "reduced"])
def test_search_matches_no_search(g, t, k, mode, unsearched_tvc):
    # the searched generators change which pairs are counted, never the
    # verdict or the witness
    assert not g.generators
    off = unsearched_tvc(g, t, mode=mode, k=k)
    on = check_tvc(g, t, mode=mode, k=k)
    assert (on.status, on.witness) == (off.status, off.witness)
    srg = srg_parameters(g) is not None
    assert on.searched == off.searched == srg and off.generators == 0
    assert on.generators == (len(automorphisms(g)) if srg else 0)
    assert on.representatives <= off.representatives
    if on.status == "satisfied" and on.generators:
        assert on.representatives < off.representatives
    assert on.rank3 == (len(list(pair_orbits(
        Graph(g.n, g.rows, automorphisms(g))))) == 2)


def test_search_result_is_verified(monkeypatch):
    # a permutation the search returns is checked like any generator
    g = unreduced(graph_of("w2"))
    swap = list(range(g.n))
    swap[0], swap[1] = 1, 0
    monkeypatch.setattr(gqtvc.tvc, "automorphisms",
                        lambda g, deadline=None: (tuple(swap),))
    with pytest.raises(GraphError, match="generator 0 maps the neighbours"):
        check_tvc(g, 4)


def test_search_runs_only_without_generators(monkeypatch):
    def no_search(g, deadline=None):
        raise AssertionError("searched")

    monkeypatch.setattr(gqtvc.tvc, "automorphisms", no_search)
    verdict = check_tvc(graph_of("w2"), 4)
    assert (verdict.generators, verdict.searched) \
        == (len(graph_of("w2").generators), False)
    verdict = check_tvc(unreduced(graph_of("w2")), 3)
    assert (verdict.generators, verdict.searched) == (0, False)
    # a graph that is not strongly regular fails the condition, and the
    # search could only delay the witness of the scan
    for g in (circulant(17, 4), random_graph(12, 0.5, random.Random(5))):
        verdict = check_tvc(g, 4)
        assert (verdict.status, verdict.searched) == ("violated", False)


def test_a_graph_keeps_its_searched_automorphisms(monkeypatch):
    # a second check of graph6 input makes no search and scans the same
    # searched copy
    g = from_graph6(to_graph6(permuted(
        graph_of("w3"), random.Random(2).sample(range(40), 40))))
    refined, refine = [], gqtvc.symmetry._refine
    monkeypatch.setattr(gqtvc.symmetry, "_refine",
                        lambda *args: refined.append(1) or refine(*args))
    first = check_tvc(g, 4)
    assert first.searched and first.generators and refined
    copy = g.searched["graph"]
    refined.clear()
    assert check_tvc(g, 4) == first and not refined
    assert g.searched["graph"] is copy


def test_the_search_keeps_nothing_on_its_graph():
    # check_tvc alone keeps the copy it scans
    g = chang()
    assert automorphisms(g) and "searched" not in vars(g)


def test_a_search_cut_at_its_deadline_is_not_kept(monkeypatch):
    g = unreduced(graph_of("w3"))
    reads = []

    def passed_at_third_read(deadline):
        reads.append(deadline)
        if len(reads) == 3:
            raise BudgetExceeded()

    with monkeypatch.context() as m:
        m.setattr(gqtvc.symmetry, "_check_deadline", passed_at_third_read)
        cut = check_tvc(g, 4, budget_seconds=60)
    assert len(reads) == 3
    # no scan ran, so none used a generator
    assert (cut.status, cut.searched, cut.generators) \
        == ("inconclusive", True, 0)
    assert not g.searched
    full = check_tvc(g, 4)
    assert full.generators == len(automorphisms(unreduced(g))) > 0
    assert (full.status, full.rank3) == ("satisfied", True)


@pytest.mark.parametrize("cut", [1, 2, 10, 40])
def test_a_deadline_ends_the_search(monkeypatch, cut):
    # at whichever read of the clock the deadline passes, the search
    # raises and keeps nothing, and a later search finds the whole group
    g = chang()
    reads = []

    def passed_at_read(deadline):
        reads.append(deadline)
        if len(reads) == cut:
            raise BudgetExceeded()

    with monkeypatch.context() as m:
        m.setattr(gqtvc.symmetry, "_check_deadline", passed_at_read)
        with pytest.raises(BudgetExceeded):
            automorphisms(g, 60)
    assert len(reads) == cut and not g.searched
    assert automorphisms(g) == automorphisms(chang())


def test_search_work_is_bounded(monkeypatch):
    # a search cut short by its work bound returns a subgroup, whose
    # orbits are finer than the full group's and coarser than single
    # pairs, and the verdict does not change
    g = chang()
    full = list(pair_orbits(Graph(g.n, g.rows, automorphisms(g))))
    want = check_tvc(g, 5)
    monkeypatch.setattr(gqtvc.symmetry, "SEARCH_WORK", 2)
    cut = automorphisms(g)
    some = list(pair_orbits(Graph(g.n, g.rows, cut)))
    assert len(full) < len(some) < g.n * (g.n - 1)
    # on a new graph: g keeps the copy with the full group it was checked by
    got = check_tvc(chang(), 5)
    assert (got.status, got.witness, got.generators) \
        == (want.status, want.witness, len(cut))
    monkeypatch.setattr(gqtvc.symmetry, "SEARCH_WORK", 0)
    assert automorphisms(g) == ()


def test_reduced_check_of_graph6_input_is_rank_three():
    g = from_graph6(to_graph6(permuted(
        graph_of("q5_2"), random.Random(5).sample(range(27), 27))))
    verdict = check_tvc(g, 8, mode="reduced", k=3)
    assert (verdict.status, verdict.rank3, verdict.representatives) \
        == ("satisfied", True, 2)
    assert verdict.searched and verdict.generators > 0


def test_search_stops_at_deadline():
    # the dual Payne graph without generators: a full search would take
    # minutes; what it returns at its deadline is verified before use
    g = unreduced(graph_of("payne", dual=True))
    start = time.monotonic()
    verdict = check_tvc(g, 4, mode="reduced", k=3, budget_seconds=0.2)
    assert verdict.status == "inconclusive" and verdict.searched
    assert time.monotonic() - start < 1.5
    with pytest.raises(BudgetExceeded):
        automorphisms(g, time.monotonic() - 1)


@pytest.mark.parametrize("name, dual", CONSTRUCTIONS[:6])
def test_formula_reports_match_unreduced(name, dual):
    pls = geometry(name, dual)
    fids = [FormulaId("type0"), FormulaId("type3a")]
    if name == "q5_3":
        fids.append(FormulaId("completeS", (1, 1), True, 3))
    for fid in fids:
        a = verify_formula(pls, fid)
        b = verify_formula(unreduced_geometry(pls), fid)
        assert (a.order, a.pairs_checked, a.mismatches) \
            == (b.order, b.pairs_checked, b.mismatches)
        assert a.pairs_checked == pls.num_points * (pls.num_points - 1)
        assert b.representatives == a.pairs_checked


def test_formula_mismatch_is_listed_for_its_whole_orbit(monkeypatch):
    # a closed form one too high on edges: every ordered edge mismatches
    import gqtvc.formulas as formulas
    right = formulas.expected_count
    monkeypatch.setattr(formulas, "expected_count",
                        lambda fid, s, t, adj: right(fid, s, t, adj) + adj)
    pls = geometry("t2star", True)
    a = verify_formula(pls, FormulaId("type3a"))
    b = verify_formula(unreduced_geometry(pls), FormulaId("type3a"))
    g = graph_of("t2star", True)
    assert a.mismatches == b.mismatches
    assert [p for p, _, _ in a.mismatches] \
        == [p for e in g.edges() for p in (e, e[::-1])]
    assert a.representatives < b.representatives


def test_reduced_path_stops_at_deadline_in_orbit_search(monkeypatch):
    # the search for the pair orbits comes first, and reads the deadline
    # at each vertex it reaches, not only before it starts: on the Payne
    # graph its first vertex orbit takes seconds, on dual Payne (74
    # ordered pair orbits, 756 vertices) the reads are counted
    payne = fresh(graph_of("payne"))
    start = time.monotonic()
    verdict = check_tvc(payne, 4, mode="reduced", k=3, budget_seconds=0.1)
    assert verdict.status == "inconclusive"
    assert time.monotonic() - start < 0.6
    g = fresh(graph_of("payne", dual=True))
    with pytest.raises(BudgetExceeded):
        next(pair_orbits(g, deadline=time.monotonic() - 1))
    reads = []

    def passed_at_read(last):
        def check(deadline):
            reads.append(deadline)
            if len(reads) == last:
                raise BudgetExceeded()
        return check

    with monkeypatch.context() as m:
        m.setattr(gqtvc.symmetry, "_check_deadline", passed_at_read(100))
        verdict = check_tvc(g, 4, mode="reduced", k=3, budget_seconds=60)
    assert verdict.status == "inconclusive" and len(reads) == 100
    # a search cut short stores nothing; one run in full is kept (the
    # first vertex orbit has 125 vertices, one read each)
    assert not g.stabilisers
    reads.clear()
    with monkeypatch.context() as m:
        m.setattr(gqtvc.symmetry, "_check_deadline", passed_at_read(130))
        check_tvc(g, 4, mode="reduced", k=3, budget_seconds=60)
    assert len(g.stabilisers) == 125
    # and the verdict after either is that of a graph never searched
    assert check_tvc(g, 4, mode="reduced", k=3) \
        == check_tvc(fresh(g), 4, mode="reduced", k=3)
