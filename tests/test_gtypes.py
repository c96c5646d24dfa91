import hashlib
import re
from math import comb

import pytest

from gqtvc.graph import (GraphError, canonical_code, graph_from_edges,
                         pair_codes)
from gqtvc.gtypes import (GraphType, ORDER5_COMPLEMENTS, ORDER5_DISCARDED,
                          enumerate_order5_complements,
                          enumerate_s_candidates, enumerate_types,
                          order5_type, pair_fixing_aut_order,
                          type_from_graph)

# sha256 of the representatives test_enumerate_types_digest lists,
# recorded from the enumeration before it was rewritten, and again when
# (2, 2) gained its one type; every other case kept its digest
TYPES_DIGEST = \
    "45d6e0822f8831e13d66994be4146d1ac81e9a254a8b45c5ed39b693f11a52b9"


def test_graph_type_basics():
    # pair plus one vertex adjacent to both; pair edge optional
    ty = GraphType(3, (4, 4, 3), None)
    assert [r.bit_count() for r in ty.rows[2:]] == [2]
    assert sum(r.bit_count() for r in ty.rows) // 2 == 2


def test_graph_type_rejects_pair_bit_in_rows():
    with pytest.raises(GraphError):
        GraphType(3, (6, 5, 3), None)  # rows contain the 0-1 edge


def test_graph_type_rejects_missing_rows():
    with pytest.raises(GraphError):
        GraphType(4, (0, 0))


@pytest.mark.parametrize("pair", [(0, 9), (-1, 2), (2, 2)])
def test_type_from_graph_rejects_bad_pair(pair):
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(GraphError):
        type_from_graph(g, pair)


def test_type_from_graph_roundtrip():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ty = type_from_graph(g, (0, 2))
    assert ty.order == 4 and ty.pair_adjacent is False
    assert [r.bit_count() for r in ty.rows[2:]] == [2, 2]


def test_order5_complement_checksums():
    tab = enumerate_order5_complements(3)
    assert tab.class_counts() == {0: 1, 1: 2, 2: 6, 3: 12}
    assert tab.orbit_sums() == {0: 1, 1: 9, 2: 36, 3: 84}
    # orbit-stabilizer: |Aut| * orbit = 12 for every class
    for classes in tab.by_size.values():
        for cl in classes:
            assert cl.aut_order * cl.orbit_length == 12


def test_order5_complements_cover_every_size():
    tab = enumerate_order5_complements(9)
    assert tab.orbit_sums() == {s: comb(9, s) for s in range(10)}
    assert tab.class_counts()[9] == 1


@pytest.mark.parametrize("max_size", [-1, 10])
def test_order5_complements_reject_size_out_of_range(max_size):
    with pytest.raises(GraphError):
        enumerate_order5_complements(max_size)


def test_order5_aut_orders_by_size():
    tab = enumerate_order5_complements(3)
    assert sorted(c.aut_order for c in tab.by_size[1]) == [2, 4]
    assert sorted(c.aut_order for c in tab.by_size[2]) == [1, 2, 2, 2, 4, 4]
    assert sorted(c.aut_order for c in tab.by_size[3]) == \
        [1, 1, 1, 1, 2, 2, 2, 2, 2, 4, 6, 12]


def test_enumerate_types_counts():
    assert len(enumerate_types(2, 0)) == 1
    # an order-2 type has no additional vertex, so it meets every bound
    assert enumerate_types(2, 2) == enumerate_types(2, 0)
    assert len(enumerate_types(5, 3)) == 8
    assert enumerate_types(4, 4) == ()  # bound exceeds possible valency
    # order 4, every additional vertex adjacent to the 3 others
    assert len(enumerate_types(4, 3)) == 1


def test_enumerate_types_digest():
    # every representative's rows, order and pair flag, in output order;
    # a rewrite of the enumeration must not change any of them
    cases = [(t, v) for t in range(2, 7) for v in range(t + 1)]
    text = repr([(t, v, [(ty.rows, ty.order, ty.pair_adjacent)
                         for ty in enumerate_types(t, v)])
                 for t, v in cases + [(7, 3), (7, 4)]])
    assert hashlib.sha256(text.encode()).hexdigest() == TYPES_DIGEST


def test_enumerate_types_valency_bound_holds():
    for ty in enumerate_types(5, 3):
        assert min(r.bit_count() for r in ty.rows[2:]) >= 3
    for ty in enumerate_types(6, 4):
        assert min(r.bit_count() for r in ty.rows[2:]) >= 4


def test_named_types_match_enumeration():
    enum_codes = {min(pair_codes(ty.rows, ty.order))
                  for ty in enumerate_types(5, 3)}
    named_codes = {min(pair_codes(ty.rows, ty.order))
                   for ty in map(order5_type, ORDER5_COMPLEMENTS)}
    assert enum_codes == named_codes
    assert len(named_codes) == 8
    assert set(ORDER5_DISCARDED) < set(ORDER5_COMPLEMENTS)


def test_order5_type_structures():
    # type 0 is complete apart from the optional pair edge
    assert sum(r.bit_count() for r in order5_type("0").rows) // 2 == 9
    # type 3a: x isolated from the additional triangle around y
    ty = order5_type("3a")
    assert sorted([r.bit_count() for r in ty.rows[2:]]) == [3, 3, 3]
    assert ty.rows[0] == 0


def test_pair_fixing_aut_order():
    # complete structure: S3 on the additional vertices
    assert pair_fixing_aut_order(5, order5_type("0").rows) == 6
    # type 2a (x misses a and b): swapping a, b
    assert pair_fixing_aut_order(5, order5_type("2a").rows) == 2
    assert pair_fixing_aut_order(5, order5_type("3a").rows) == 6


def test_s_candidates_empty_below_eight():
    assert enumerate_s_candidates(6) == ()
    assert enumerate_s_candidates(7) == ()


def test_s_candidates_at_eight():
    cands = enumerate_s_candidates(8)
    assert len(cands) == 5
    k33 = graph_from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)])
    k33_e = graph_from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)
                                 if (i, j) != (2, 2)])
    k42 = graph_from_edges(6, [(i, j) for i in range(4) for j in (4, 5)])
    prism = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                 (3, 5), (0, 3), (1, 4), (2, 5)])
    prism_e = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                   (3, 5), (0, 3), (1, 4)])
    want = {canonical_code(g) for g in (k33, k33_e, k42, prism, prism_e)}
    got = {canonical_code(g) for g in cands}
    assert got == want


@pytest.mark.parametrize("call, message", [
    (lambda: GraphType(9, (0,) * 9), "type order must be between 2 and 8"),
    (lambda: enumerate_types(9, 0), "type order must be between 2 and 8"),
    (lambda: enumerate_types(5, -1), "valency bound out of range"),
    (lambda: enumerate_s_candidates(5), "supported core searches: 6 <= t0 <= 8"),
    (lambda: type_from_graph(graph_from_edges(3, [(0, 1)]), (True, 2)),
     re.escape("pair must be two ints, got (True, 2)")),
    (lambda: type_from_graph(graph_from_edges(3, [(0, 1)]), ("0", "1")),
     re.escape("pair must be two ints, got ('0', '1')")),
], ids=["type-order-9", "enumerate-order-9", "enumerate-valency-below-0",
        "s-candidates-order-5", "type-pair-bool", "type-pair-str"])
def test_bad_arguments_raise_with_message(call, message):
    with pytest.raises(GraphError, match=message):
        call()
