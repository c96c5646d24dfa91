"""Property tests against networkx, an independent implementation of
graph isomorphism, strong regularity and graph6.  networkx is needed by
these tests only; gqtvc itself uses the standard library alone."""

import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqtvc.graph import (Graph, canonical_code, from_graph6,
                         graph_from_edges, min_bits_free, to_graph6)
from gqtvc.gtypes import (K44_TYPE, _grow, enumerate_order5_complements,
                          enumerate_types, pair_fixing_aut_order)
from gqtvc.regularity import srg_parameters
from gqtvc.symmetry import automorphisms, pair_orbits

from conftest import chang, graph_of, permuted, random_graph, shrikhande

nx = pytest.importorskip("networkx")


def to_nx(g, pair=()):
    """The networkx graph of g; the vertices of ``pair`` carry their slot
    (0 or 1) as a node attribute, every other vertex carries 2."""
    h = nx.Graph()
    h.add_nodes_from((v, {"slot": pair.index(v) if v in pair else 2})
                     for v in range(g.n))
    h.add_edges_from(g.edges())
    return h


def from_nx(h):
    index = {v: i for i, v in enumerate(h)}
    return graph_from_edges(len(index),
                            [(index[u], index[v]) for u, v in h.edges()])


def same_slots(a, b):
    return a["slot"] == b["slot"]


def automorphism_count(h, node_match):
    matcher = nx.algorithms.isomorphism.GraphMatcher(h, h,
                                                     node_match=node_match)
    return sum(1 for _ in matcher.isomorphisms_iter())


@given(st.integers(0, 2 ** 20), st.integers(2, 7))
@settings(max_examples=300, deadline=None)
def test_canonical_code_equality_is_isomorphism(seed, n):
    rng = random.Random(seed)
    g = random_graph(n, rng.random(), rng)
    # a relabelled copy, with one vertex pair flipped half the time, so
    # that both answers occur
    perm = rng.sample(range(n), n)
    flip = {tuple(sorted(rng.sample(range(n), 2)))} if rng.random() < 0.5 \
        else set()
    h = graph_from_edges(n, [
        (a, b) for a, b in itertools.combinations(range(n), 2)
        if g.has_edge(perm[a], perm[b]) != ((a, b) in flip)])
    assert (canonical_code(g) == canonical_code(h)) \
        == nx.is_isomorphic(to_nx(g), to_nx(h))
    # with a marked pair: the image of g's pair in h, or any pair of h
    p = tuple(rng.sample(range(n), 2))
    q = tuple(perm.index(v) for v in p) if rng.random() < 0.5 \
        else tuple(rng.sample(range(n), 2))
    assert (canonical_code(g, p) == canonical_code(h, q)) \
        == nx.is_isomorphic(to_nx(g, p), to_nx(h, q), node_match=same_slots)


def srg_candidates():
    rng = random.Random(3)
    yield from (nx.petersen_graph(), nx.cycle_graph(5), nx.cycle_graph(6),
                nx.complete_bipartite_graph(3, 3), nx.complete_graph(5),
                nx.empty_graph(4), nx.path_graph(4),
                nx.line_graph(nx.complete_graph(6)),
                nx.cartesian_product(nx.complete_graph(4),
                                     nx.complete_graph(4)),
                nx.Graph(nx.paley_graph(13)),
                nx.disjoint_union(nx.complete_graph(3), nx.complete_graph(3)),
                nx.hypercube_graph(3), nx.circulant_graph(10, [1, 2]))
    for name in ("w2", "q5_2", "w3"):
        yield to_nx(graph_of(name))
    for seed in range(12):
        h = nx.random_regular_graph(rng.randrange(3, 7), 2 * rng.randrange(5, 9),
                                    seed=seed)
        yield h
        yield nx.complement(h)
        yield to_nx(random_graph(rng.randrange(4, 12), rng.random(), rng))


def test_strong_regularity_matches_networkx():
    both = 0
    for h in srg_candidates():
        g = from_nx(h)
        ours = srg_parameters(g) is not None
        if nx.is_connected(h) and g.edge_count() < comb(g.n, 2):
            assert ours == nx.is_strongly_regular(h), nx.to_graph6_bytes(h)
            both += ours
        else:
            # networkx asks for a connected graph of diameter 2; gqtvc
            # also calls complete and edgeless graphs (degenerate) and
            # disjoint equal cliques (mu = 0) strongly regular
            assert not nx.is_strongly_regular(h)
    assert both >= 9


@given(st.integers(0, 2 ** 20), st.integers(1, 80))
@settings(max_examples=200, deadline=None)
def test_graph6_matches_networkx(seed, n):
    rng = random.Random(seed)
    g = random_graph(n, rng.random(), rng)
    expected = nx.to_graph6_bytes(to_nx(g), header=False).decode().rstrip("\n")
    assert to_graph6(g) == expected
    # with the ">>graph6<<" header that networkx writes by default
    assert from_graph6(nx.to_graph6_bytes(to_nx(g)).decode()) == g


def test_pair_fixing_aut_order_matches_networkx():
    types = [ty for t in range(2, 7) for ty in enumerate_types(t, 0)]
    for ty in types + [K44_TYPE]:
        h = to_nx(Graph(ty.order, ty.rows), (0, 1))
        assert pair_fixing_aut_order(ty.order, ty.rows) \
            == automorphism_count(h, same_slots), ty
    assert pair_fixing_aut_order(K44_TYPE.order, K44_TYPE.rows) == 36


def test_free_graph_grower_finds_each_class_once():
    # graphs on 1..6 vertices up to isomorphism (OEIS A000088), each
    # matched against networkx's atlas of all graphs on up to 7 vertices
    def degrees(h):
        return tuple(sorted(d for _, d in h.degree()))

    atlas = {}
    for h in nx.graph_atlas_g():
        atlas.setdefault(degrees(h), []).append(h)
    for n, count in zip(range(1, 7), (1, 2, 4, 11, 34, 156)):
        grown = _grow((0,), n, 0, 0, min_bits_free)
        assert len(grown) == count
        matched = set()
        for rows in grown:
            g = to_nx(Graph(n, rows))
            same = [id(h) for h in atlas[degrees(g)] if nx.is_isomorphic(g, h)]
            assert len(same) == 1, rows
            matched.add(same[0])
        assert len(matched) == count


def test_complement_aut_orders_match_networkx():
    # the automorphisms that preserve {x, y} = {0, 1} setwise
    def same_side(a, b):
        return (a["slot"] < 2) == (b["slot"] < 2)

    for classes in enumerate_order5_complements(3).by_size.values():
        for cl in classes:
            h = to_nx(graph_from_edges(5, cl.edges), (0, 1))
            assert cl.aut_order == automorphism_count(h, same_side), cl


@pytest.mark.parametrize("name, dual", [
    ("w2", False), ("w3", False), ("q5_2", False), ("q5_3", False),
    ("t2star", False), ("t2star", True), ("payne", False), ("payne", True)])
def test_generators_map_edges_to_edges(name, dual):
    g = graph_of(name, dual)
    h = to_nx(g)
    assert len(g.generators) >= 4
    for perm in g.generators:
        assert sorted(perm) == list(range(g.n))
        assert all(h.has_edge(perm[u], perm[v]) for u, v in h.edges)


@pytest.mark.parametrize("name, order", [
    ("petersen", 120), ("shrikhande", 192), ("chang", 384),
    ("rook", 1152), ("paley13", 78)])
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_searched_orbits_are_those_of_the_full_group(name, order, seed):
    g = {"petersen": lambda: from_nx(nx.petersen_graph()),
         "shrikhande": shrikhande, "chang": chang,
         "rook": lambda: from_nx(nx.cartesian_product(
             nx.complete_graph(4), nx.complete_graph(4))),
         "paley13": lambda: from_nx(nx.Graph(nx.paley_graph(13)))}[name]()
    if seed is not None:
        g = permuted(g, random.Random(seed).sample(range(g.n), g.n))
    matcher = nx.algorithms.isomorphism.GraphMatcher(to_nx(g), to_nx(g))
    group = [tuple(m[v] for v in range(g.n))
             for m in matcher.isomorphisms_iter()]
    assert len(group) == order
    # the searched generators are automorphisms (Graph checks them), so
    # their orbits refine the group's; equal representatives and sizes
    # make them the same orbits
    found = Graph(g.n, g.rows, automorphisms(g))
    assert list(pair_orbits(found)) \
        == list(pair_orbits(Graph(g.n, g.rows, tuple(group))))
