import itertools

import pytest

import gqtvc.tvc
from gqtvc.geometry import get_construction, point_graph
from gqtvc.graph import Graph, graph_from_edges

geometry = get_construction


def graph_of(name: str, dual: bool = False):
    """The point graph the cached geometry keeps."""
    return point_graph(geometry(name, dual))


def unreduced(g):
    """``g`` without its generators: every pair is its own orbit, and
    ``check_tvc`` searches for automorphisms (see ``unsearched_tvc``)."""
    return Graph(g.n, g.rows)


def fresh(g):
    """A copy of ``g`` whose orbits no search has reached yet."""
    return Graph(g.n, g.rows, g.generators, checked=True)


def random_graph(n, p, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return graph_from_edges(n, edges)


def permuted(g, perm):
    """``g`` with each vertex v renamed ``perm[v]``, without generators."""
    edges = [(perm[i], perm[j]) for i, j in g.edges()]
    return graph_from_edges(g.n, edges)


def chang():
    """A Chang graph, SRG(28,12,6,4): the line graph of K8 (vertices the
    pairs from 0..7, adjacent when they meet) switched with respect to a
    perfect matching of K8; its automorphism group has order 384."""
    pairs = list(itertools.combinations(range(8), 2))
    matching = {(0, 1), (2, 3), (4, 5), (6, 7)}
    return graph_from_edges(28, [
        (i, j) for (i, a), (j, b) in itertools.combinations(enumerate(pairs), 2)
        if bool(set(a) & set(b)) != ((a in matching) != (b in matching))])


@pytest.fixture
def unsearched_tvc(monkeypatch):
    """``check_tvc`` with its automorphism search switched off, so that a
    graph without generators is scanned one pair at a time; it checks a
    ``fresh`` copy, so that the copy without generators that it keeps is
    not the one a later ``check_tvc`` of the same graph scans."""
    def check(g, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(gqtvc.tvc, "automorphisms", lambda g, deadline=None: ())
            return gqtvc.tvc.check_tvc(fresh(g), *args, **kwargs)
    return check


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
