import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqtvc.graph import (Graph, GraphError, canonical_code, complement,
                         from_graph6, graph_from_edges, induced_subgraph,
                         read_graph6_file, to_graph6, write_graph6_file)

from conftest import permuted, random_graph


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(2, (1, 0))  # loop on vertex 0
    with pytest.raises(GraphError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(GraphError):
        Graph(2, (0, 1))  # asymmetric, the other way round
    with pytest.raises(GraphError):
        Graph(1, (0, 0))  # row count mismatch


def test_basics():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.edge_count() == 3
    assert g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert g.rows[1].bit_count() == 2
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert sorted(g.non_edges()) == [(0, 2), (0, 3), (1, 3)]
    h = complement(g)
    assert h.edge_count() == 3 and not h.has_edge(0, 1)
    sub = induced_subgraph(g, [1, 2, 3])
    assert sub.n == 3 and sub.edge_count() == 2


def test_induced_subgraph_relabels_in_order():
    g = graph_from_edges(4, [(0, 3)])
    sub = induced_subgraph(g, [3, 0])
    # vertex order given is preserved
    assert sub.has_edge(0, 1)


@pytest.mark.parametrize("pair", [(0, 9), (-1, 2), (2, 2), (4, 0)])
def test_canonical_code_rejects_bad_pair(pair):
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(GraphError):
        canonical_code(g, pair)


def test_canonical_code_fixed_values():
    # path and star on 4 vertices are distinguishable, K4 is minimal
    p4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    k4 = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert canonical_code(p4) != canonical_code(star)
    assert canonical_code(k4).bits == (1 << 6) - 1


@given(st.integers(0, 2 ** 20), st.integers(4, 8), st.randoms())
@settings(max_examples=200, deadline=None)
def test_canonical_code_is_isomorphism_invariant(seed, n, rnd):
    rng = random.Random(seed)
    g = random_graph(n, 0.5, rng)
    perm = list(range(n))
    rnd.shuffle(perm)
    assert canonical_code(g) == canonical_code(permuted(g, perm))


def test_canonical_code_pair_distinguishes_orientation():
    # path a-b-c anchored at (a, b) vs (b, a)
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert canonical_code(g, (0, 1)) != canonical_code(g, (1, 0))
    assert canonical_code(g, (0, 1)).pair_flag is True


@given(st.integers(0, 2 ** 20), st.integers(1, 30))
@settings(max_examples=300, deadline=None)
def test_graph6_roundtrip(seed, n):
    rng = random.Random(seed)
    g = random_graph(n, rng.random(), rng)
    assert from_graph6(to_graph6(g)) == g


def test_graph6_known_encodings():
    # 5-cycle and empty graphs, byte-for-byte
    c5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert to_graph6(c5) == "Dhc"
    assert to_graph6(graph_from_edges(0, [])) == "?"
    assert from_graph6("Dhc") == c5


def test_graph6_file_roundtrip(tmp_path):
    rng = random.Random(7)
    graphs = [random_graph(rng.randrange(1, 12), 0.4, rng) for _ in range(20)]
    path = tmp_path / "batch.g6"
    write_graph6_file(path, graphs)
    assert read_graph6_file(path) == graphs


def test_graph6_rejects_garbage():
    with pytest.raises(GraphError):
        from_graph6("\x01\x02")
    with pytest.raises(GraphError):
        from_graph6("D")  # truncated


@pytest.mark.parametrize("call, message", [
    (lambda: from_graph6(">>graph6<<\n"), "empty graph6 string"),
    (lambda: from_graph6("~AB"), "truncated graph6 header"),
    (lambda: graph_from_edges(3, [(1, 1)]), r"loop pair \(1,1\)"),
    (lambda: graph_from_edges(3, [(0, 3)]), r"endpoint out of range in \(0,3\)"),
    (lambda: induced_subgraph(graph_from_edges(3, [(0, 1)]), [0, 1, 0]),
     "duplicate vertex in induced subgraph"),
    (lambda: canonical_code(graph_from_edges(11, [])),
     "canonical form limited to order 10"),
    (lambda: canonical_code(graph_from_edges(3, [(0, 1)]), (0,)),
     re.escape("pair must be two ints, got (0,)")),
    (lambda: canonical_code(graph_from_edges(3, [(0, 1)]), (0, 1.0)),
     re.escape("pair must be two ints, got (0, 1.0)")),
], ids=["graph6-header-only", "graph6-truncated-header", "loop",
        "endpoint-out-of-range", "duplicate-vertex", "canonical-order-11",
        "canonical-pair-short", "canonical-pair-float"])
def test_bad_arguments_raise_with_message(call, message):
    with pytest.raises(GraphError, match=message):
        call()
