import itertools
import random
import time

import pytest

from gqtvc.graph import (BudgetExceeded, canonical_code, complement,
                         graph_from_edges, induced_subgraph)
from gqtvc.regularity import (DEGENERATE, SrgParams, check_isoregular,
                              srg_parameters)

from conftest import graph_of, unreduced


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)


def test_regularity_is_level_1():
    rep = check_isoregular(petersen(), 1)
    assert rep.ok and rep.table == {(1, 0): 3}
    assert not check_isoregular(graph_from_edges(3, [(0, 1)]), 1).ok
    assert check_isoregular(graph_from_edges(0, []), 1).ok


def test_srg_parameters_petersen():
    assert srg_parameters(petersen()) == SrgParams(10, 3, 0, 1)


def test_srg_parameters_degenerate_and_negative():
    k3 = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert srg_parameters(k3) is DEGENERATE
    assert srg_parameters(graph_from_edges(4, [])) is DEGENERATE
    c6 = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert srg_parameters(c6) is None  # mu is not constant


def test_srg_feasibility_identity():
    assert SrgParams(15, 6, 1, 3).feasible()
    # the same graph with k = (s - 1) t = 2 fails the identity
    assert not SrgParams(15, 2, 1, 3).feasible()


def test_point_graph_srg_parameters(w2_graph, q5_2_graph, gq53_graph):
    assert srg_parameters(w2_graph) == SrgParams(15, 6, 1, 3)
    assert srg_parameters(q5_2_graph) == SrgParams(27, 10, 1, 5)
    assert srg_parameters(gq53_graph) == SrgParams(96, 20, 4, 4)


def test_isoregular_levels():
    g = petersen()
    assert check_isoregular(g, 1).ok
    assert check_isoregular(g, 2).ok  # SRG
    rep = check_isoregular(g, 3)
    assert not rep.ok and rep.witness is not None


def test_isoregular_witness_is_concrete(w2_graph):
    rep = check_isoregular(w2_graph, 3)
    assert not rep.ok
    a, b = rep.witness
    assert len(a) == len(b) == 3
    # GQ(2, 2) has centric and acentric triads: 3 and 1 centres
    assert induced_subgraph(w2_graph, a).edge_count() == 0
    assert induced_subgraph(w2_graph, b).edge_count() == 0
    assert {common_count(w2_graph, a), common_count(w2_graph, b)} == {1, 3}


def test_isoregular_complement_closure(q5_2_graph):
    # 3-isoregularity is preserved under complement
    assert check_isoregular(q5_2_graph, 3).ok
    assert check_isoregular(complement(q5_2_graph), 3).ok


def test_isoregular_table_values(q5_2_graph):
    # GQ(2, 4): triads have s + 1 = 3 centres, collinear triples s - 2 = 0
    rep = check_isoregular(q5_2_graph, 3)
    by_edges = {e: val for (o, e), val in rep.table.items() if o == 3}
    assert by_edges == {0: 3, 1: 1, 2: 0, 3: 0}


def test_isoregular_report_states_its_level(q5_2_graph, w2_graph):
    # the greatest level that passed: all of k, or one below the witness
    c6 = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert [check_isoregular(g, 3).level for g in (q5_2_graph, w2_graph, c6)] \
        == [3, 2, 1]


# -- oracle: the scans before the counter-row kernel ---------------------
#
# The reference is the direct pair loop for strong regularity and the
# direct subset loop for isoregularity: one common-neighbour popcount
# per pair or subset.

def reference_srg_parameters(g):
    degrees = {r.bit_count() for r in g.rows} or {0}
    if len(degrees) != 1:
        return None
    k = degrees.pop()
    if k == 0 or k == g.n - 1:
        return DEGENERATE
    lam = mu = None
    for i in range(g.n):
        ri = g.rows[i]
        for j in range(i + 1, g.n):
            c = (ri & g.rows[j]).bit_count()
            if (ri >> j) & 1:
                if lam is None:
                    lam = c
                elif lam != c:
                    return None
            else:
                if mu is None:
                    mu = c
                elif mu != c:
                    return None
    return SrgParams(g.n, k, lam, mu)


def common_count(g, subset):
    m = g.full_mask
    for v in subset:
        m &= g.rows[v]
    return m.bit_count()


def subset_class(g, subset):
    """(order, edges) of the subset's canonical code: the kernel's key,
    reached through the canonical-code search instead of an edge count."""
    code = canonical_code(induced_subgraph(g, subset))
    return code.order, code.bits.bit_count()


def reference_isoregular(g, k):
    table, rep = {}, {}
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(g.n), size):
            val = common_count(g, subset)
            code = subset_class(g, subset)
            if code in table:
                if table[code] != val:
                    return False, table, (rep[code], subset)
            else:
                table[code] = val
                rep[code] = subset
    return True, table, None


def assert_matches_reference(g, levels=(1, 2, 3)):
    assert srg_parameters(g) == reference_srg_parameters(g)
    for k in levels:
        got = check_isoregular(g, k)
        ok, table, witness = reference_isoregular(g, k)
        assert got.ok == ok, k
        if ok:
            assert got.table == table
            continue
        a, b = got.witness
        # both scans stop at the first level that fails
        assert len(a) == len(b) == len(witness[0])
        assert subset_class(g, a) == subset_class(g, b)
        assert common_count(g, a) != common_count(g, b)


def cayley(n, conn):
    """Cayley graph of Z_n on the symmetric connection set ``conn``."""
    return graph_from_edges(n, [(i, j) for i, j in
                                itertools.combinations(range(n), 2)
                                if (j - i) % n in conn])


def paley(p):
    return cayley(p, {x * x % p for x in range(1, p)})


def rook(m):
    """K_m x K_m: an SRG(m^2, 2(m - 1), m - 2, 2)."""
    return graph_from_edges(m * m, [
        (i, j) for i in range(m * m) for j in range(i + 1, m * m)
        if i // m == j // m or i % m == j % m])


def triangular(m):
    """The line graph of K_m: an SRG(C(m, 2), 2(m - 2), m - 2, 4)."""
    pairs = list(itertools.combinations(range(m), 2))
    return graph_from_edges(len(pairs), [
        (i, j) for i, j in itertools.combinations(range(len(pairs)), 2)
        if set(pairs[i]) & set(pairs[j])])


def multipartite(parts, size):
    """K_{parts x size}; its complement is ``parts`` disjoint cliques."""
    n = parts * size
    return graph_from_edges(n, [(i, j) for i in range(n)
                                for j in range(i + 1, n)
                                if i % parts != j % parts])


def switched(g, rng, times=1):
    """``g`` after ``times`` random switches of two edges a-b, c-d into
    a-c, b-d; every degree stays the same."""
    edges = set(g.edges())
    while times:
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = {tuple(sorted(e)) for e in ((a, c), (b, d))}
        if a == c or b == d or len(new) < 2 or new & edges:
            continue
        edges = (edges - {(a, b), tuple(sorted((c, d)))}) | new
        times -= 1
    return graph_from_edges(g.n, edges)


def random_regular(n, d, rng):
    """A circulant of degree d on n vertices, randomised by switches."""
    offsets = rng.sample(range(1, (n + 1) // 2), d // 2)
    conn = {x % n for o in offsets for x in (o, -o)} | (
        {n // 2} if d % 2 else set())
    return switched(cayley(n, conn), rng, 3 * n)


SRGS = [petersen(), paley(13), paley(17), rook(4), triangular(6),
        graph_of("w2"), graph_of("q5_2"), graph_of("w3")]


@pytest.mark.parametrize("n", range(4))
def test_kernel_matches_reference_on_all_tiny_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        g = graph_from_edges(n, [p for i, p in enumerate(pairs)
                                 if (mask >> i) & 1])
        assert_matches_reference(g)


def test_kernel_matches_reference_on_degenerate_graphs():
    for n in (1, 2, 5, 9):
        edgeless = graph_from_edges(n, [])
        assert_matches_reference(edgeless)
        assert_matches_reference(complement(edgeless))
    # degree 255, the largest count a one-byte field holds
    assert_matches_reference(complement(graph_from_edges(256, [])),
                             levels=(1, 2))
    for parts, size in ((2, 3), (3, 4), (4, 2), (5, 1)):
        cliques = complement(multipartite(parts, size))  # mu = 0
        assert_matches_reference(cliques)
        assert_matches_reference(complement(cliques))


def test_kernel_matches_reference_on_srgs_and_switched_srgs():
    rng = random.Random(2014)
    for g in SRGS:
        assert_matches_reference(g)
        assert_matches_reference(complement(g))
        assert_matches_reference(switched(g, rng))


def test_kernel_matches_reference_on_random_regular_graphs():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randrange(7, 17)
        d = rng.randrange(2, n - 2)
        if d % 2 and n % 2:
            d -= 1
        assert_matches_reference(random_regular(n, d, rng))


def test_kernel_two_byte_fields():
    # K_{3 x 130} has degree 260, more than one byte holds
    rng = random.Random(390)
    for g in (multipartite(3, 130), complement(multipartite(3, 130))):
        assert_matches_reference(g, levels=(1, 2))
        # a switch breaks 2-isoregularity, so the reference stops at level 2
        assert_matches_reference(switched(g, rng), levels=(3,))
        # level 3 on the unswitched graphs: the reference takes a minute,
        # so one direct count per triple class stands in for it; both
        # graphs are homogeneous, hence 3-isoregular
        same, two, three = (0, 3, 6), (0, 3, 1), (0, 1, 2)
        rep = check_isoregular(g, 3)
        assert rep.ok
        by_class = {subset_class(g, s): common_count(g, s)
                    for s in (same, two, three)}
        assert {c: v for c, v in rep.table.items() if c[0] == 3} == by_class


def test_dual_payne_is_3_isoregular():
    # GQ(5, 25), the paper's non-rank-3 example: triads have s + 1 = 6
    # centres, collinear triples s - 2 = 3 common neighbours
    rep = check_isoregular(graph_of("payne", dual=True), 3)
    assert rep.ok
    by_edges = {e: val for (o, e), val in rep.table.items() if o == 3}
    assert by_edges == {0: 6, 1: 1, 2: 0, 3: 3}


def test_dual_payne_isoregularity_honours_deadline():
    # without its generators: one sum per pair
    g = unreduced(graph_of("payne", dual=True))
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        check_isoregular(g, 3, deadline=start + 0.2)
    assert time.monotonic() - start < 1
