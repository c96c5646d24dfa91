from functools import lru_cache

import pytest

from gqtvc.geometry import get_construction, point_graph
from gqtvc.graph import Graph, graph_from_edges

geometry = get_construction


@lru_cache(maxsize=None)
def graph_of(name: str, dual: bool = False):
    return point_graph(geometry(name, dual))


def unreduced(g):
    """``g`` without its generators: every pair is its own orbit."""
    return Graph(g.n, g.rows)


def shrikhande(generators=False):
    """Cayley graph of Z4 x Z4 on {+-(1,0), +-(0,1), +-(1,1)}: an
    SRG(16,6,2,2) that is 2-isoregular but fails the 4-vertex
    condition; with ``generators``, the two unit translations."""
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    v = [(a, b) for a in range(4) for b in range(4)]
    g = graph_from_edges(16, [
        (i, j) for i in range(16) for j in range(i + 1, 16)
        if ((v[j][0] - v[i][0]) % 4, (v[j][1] - v[i][1]) % 4) in conn])
    if not generators:
        return g
    return Graph(g.n, g.rows, tuple(
        tuple(v.index(((a + da) % 4, (b + db) % 4)) for a, b in v)
        for da, db in ((1, 0), (0, 1))))


@pytest.fixture
def w2_graph():
    return graph_of("w2")


@pytest.fixture
def q5_2_graph():
    return graph_of("q5_2")


@pytest.fixture
def gq53_graph():
    return graph_of("t2star", dual=True)
