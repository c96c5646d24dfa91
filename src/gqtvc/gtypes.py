"""Graph types: small graphs with two distinguished (fixed) vertices.

A type stores its adjacency without the edge between the fixed
vertices; that edge is optional and is resolved against the anchoring
pair at counting time.  Types are identified up to isomorphisms that
preserve the fixed pair setwise, so a type and its mirror count as one
class (counting scans both orientations of each anchored pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import (Graph, GraphError, bits_of, check_ints, check_pair,
                    graph_from_edges, min_bits_free, pair_codes,
                    pair_relabellings)

MIN_TYPE_ORDER = 2
MAX_TYPE_ORDER = 8


@dataclass(frozen=True)
class GraphType:
    """(T, x0, y0): slots 0 and 1 are the fixed vertices.

    ``rows`` never contains the 0-1 bit.  ``pair_adjacent`` is True or
    False for a concrete type, or None when the pair edge is left to the
    anchoring pair's adjacency class.
    """

    order: int
    rows: tuple[int, ...]
    pair_adjacent: bool | None = None

    def __post_init__(self):
        if not MIN_TYPE_ORDER <= self.order <= MAX_TYPE_ORDER:
            raise GraphError("type order must be between 2 and 8")
        if len(self.rows) != self.order:
            raise GraphError("type needs one row per vertex")
        if (self.rows[0] >> 1) & 1:
            raise GraphError("pair edge must not appear in type rows")

    def concrete(self, adjacent: bool) -> "GraphType":
        return GraphType(self.order, self.rows, adjacent)


def type_from_graph(g: Graph, pair: tuple[int, int],
                    pair_adjacent: bool | None = "auto") -> GraphType:
    """Build a type from a small graph with a chosen fixed pair; the
    other vertices follow the pair in increasing order."""
    u, v = check_pair(g.n, pair)
    perm = [u, v] + [w for w in range(g.n) if w != u and w != v]
    rows = [sum(1 << j for j, w in enumerate(perm) if g.rows[x] >> w & 1)
            for x in perm]
    rows[0] &= ~2
    rows[1] &= ~1
    if pair_adjacent == "auto":
        pair_adjacent = g.has_edge(u, v)
    return GraphType(g.n, tuple(rows), pair_adjacent)


@lru_cache(maxsize=None)
def pair_fixing_aut_order(order: int, rows: tuple[int, ...]) -> int:
    """Number of automorphisms fixing slots 0 and 1 pointwise.  The
    optional pair edge is irrelevant here.

    The orderings of ``pair_relabellings`` that give the same bits as
    one of them are its images under exactly these automorphisms, so
    the least code occurs once per automorphism."""
    codes = list(pair_relabellings(rows, order))
    return codes.count(min(codes))


def _grow(start: tuple[int, ...], order: int, first: int, min_valency: int,
          key) -> list[tuple[int, ...]]:
    """Graphs of ``order`` vertices grown from the rows ``start`` one
    vertex at a time, each new vertex joined to any subset of the earlier
    ones.  A shape is dropped once a vertex from index ``first`` on cannot
    reach ``min_valency`` with the vertices still to come; each level
    keeps the first graph of each ``key(rows, size)`` class, and the
    last level's are returned in the order of their keys.  Deleting the
    last vertex of a graph that meets the bound leaves one that passes
    the level before, so every class is found (McKay, 1998)."""
    current = {key(start, len(start)): start}
    for size in range(len(start), order):  # grow from size to size + 1
        seen = {}
        need = min_valency - (order - size - 1)
        for rows in current.values():
            for attach in range(1 << size):
                new_rows = [r | (attach >> v & 1) << size
                            for v, r in enumerate(rows)]
                new_rows.append(attach)
                if min(map(int.bit_count, new_rows[first:])) < need:
                    continue
                seen.setdefault(key(new_rows, size + 1), tuple(new_rows))
        current = seen
    return [current[k] for k in sorted(current)]


@lru_cache(maxsize=None, typed=True)  # 5.0 is not a cached 5
def enumerate_types(t: int, min_add_valency: int) -> tuple[GraphType, ...]:
    """All type classes of order t in which every additional vertex has
    valency at least ``min_add_valency``.  The pair edge is optional and
    excluded from both the valency count's edge set and class identity.
    Deterministic order: ascending structure edge count, then canonical
    bits.
    """
    check_ints(t=t, min_add_valency=min_add_valency)
    if not MIN_TYPE_ORDER <= t <= MAX_TYPE_ORDER:
        raise GraphError("type order must be between 2 and 8")
    if min_add_valency < 0:
        raise GraphError("valency bound out of range")
    # at order t the growth bound is the valency bound itself
    grown = _grow((0, 0), t, 2, min_add_valency,
                  lambda rows, size: min(pair_codes(rows, size)))
    # a stable sort keeps the code order within each edge count
    grown.sort(key=lambda rows: sum(map(int.bit_count, rows)))
    return tuple(GraphType(t, rows, None) for rows in grown)


# -- order-5 complement census --------------------------------------------

# vertex labels: 0 = x, 1 = y, 2..4 = a, b, c; the pair {x, y} is not a
# usable edge, leaving 9 slots
_EDGE_SLOTS = [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 1)]


@dataclass(frozen=True)
class ComplementClass:
    edges: tuple[tuple[int, int], ...]
    aut_order: int
    orbit_length: int


@dataclass(frozen=True)
class ComplementTable:
    by_size: dict  # size -> tuple of ComplementClass

    def class_counts(self) -> dict[int, int]:
        return {s: len(cs) for s, cs in self.by_size.items()}

    def orbit_sums(self) -> dict[int, int]:
        return {s: sum(c.orbit_length for c in cs) for s, cs in self.by_size.items()}


def enumerate_order5_complements(max_size: int = 3) -> ComplementTable:
    """Orbits of small edge sets on {x, y, a, b, c} (pair edge excluded)
    under S({x,y}) x S({a,b,c}), with stabilizer orders and orbit
    lengths.  Orbit lengths per size must sum to C(9, size).

    Each orbit is the complement of an order-5 type class, and shares
    its automorphisms."""
    if not 0 <= max_size <= len(_EDGE_SLOTS):
        raise GraphError("complement size must be between 0 and 9")
    by_size = {size: [] for size in range(max_size + 1)}
    for ty in enumerate_types(5, 0):
        edges = tuple((i, j) for i, j in _EDGE_SLOTS if not ty.rows[i] >> j & 1)
        if len(edges) <= max_size:
            fwd, bwd = pair_codes(ty.rows, 5)
            # an automorphism swapping x and y exists iff fwd == bwd
            stab = pair_fixing_aut_order(5, ty.rows) * (2 if fwd == bwd else 1)
            by_size[len(edges)].append(ComplementClass(edges, stab, 12 // stab))
    return ComplementTable({s: tuple(cs) for s, cs in by_size.items()})


# the eight order-5 types surviving the valency-3 reduction, named by
# their complements within the 9 non-pair edge slots
ORDER5_COMPLEMENTS = {
    "0": (),
    "1a": ((0, 2),),
    "1b": ((2, 3),),
    "2a": ((0, 2), (0, 3)),
    "2b": ((0, 2), (1, 3)),
    "2c": ((0, 2), (3, 4)),
    "3a": ((0, 2), (0, 3), (0, 4)),
    "3b": ((0, 2), (0, 3), (1, 4)),
}

# types whose every occurrence contains an induced K4-e, hence absent
# from generalised quadrangle point graphs
ORDER5_DISCARDED = ("1a", "1b", "2b", "2c", "3b")


def order5_type(name: str, pair_adjacent: bool | None = None) -> GraphType:
    """One of the named order-5 types (complete graph minus the named
    complement edges, pair edge optional)."""
    comp = ORDER5_COMPLEMENTS[name]
    edges = [e for e in _EDGE_SLOTS if e not in comp]
    g = graph_from_edges(5, edges)
    return type_from_graph(g, (0, 1), pair_adjacent)


# K4,4 with the pair on opposite sides: slots 0, 2, 3, 4 | 1, 5, 6, 7
K44_TYPE = type_from_graph(graph_from_edges(
    8, [(a, b) for a in (0, 2, 3, 4) for b in (1, 5, 6, 7)]), (0, 1))


# -- candidate cores for high-order type searches -------------------------

def enumerate_s_candidates(t0: int) -> tuple[Graph, ...]:
    """Cores S of order t0-2 that could distinguish pairs at level t0 in
    a point graph of a generalised quadrangle of order (s, s^2).

    A candidate must have minimal valency >= 2, contain no (t0-4)-clique,
    not be complete, admit no vertex with two neighbours in a maximal
    clique it does not belong to, and be realizable with the fixed pair
    in at least one adjacency class:
      * pair adjacent: the valency-2 vertices induce a complete graph;
      * pair non-adjacent: the valency-2 vertices induce an empty graph
        and no valency-3 vertex has two valency-2 neighbours.
    """
    if not 6 <= t0 <= 8:
        raise GraphError("supported core searches: 6 <= t0 <= 8")
    n = t0 - 2
    forbidden_clique = t0 - 4
    out = []
    for rows in _grow((0,), n, 0, 2, min_bits_free):
        degs = [r.bit_count() for r in rows]
        # cliques: each member sees the others; maximal: no vertex outside
        # sees all of them.  A complete S fails the clique bound (n > t0 - 4)
        cliques = [c for c in range(1, 1 << n)
                   if all(c & ~rows[v] == 1 << v for v in bits_of(c))
                   and all(c & ~rows[z] for z in range(n) if not c >> z & 1)]
        if max(c.bit_count() for c in cliques) >= forbidden_clique:
            continue
        # maximal clique attachment
        if any((rows[z] & c).bit_count() > 1
               for c in cliques for z in range(n) if not (c >> z) & 1):
            continue
        # branch realizability
        val2 = sum(1 << v for v, d in enumerate(degs) if d == 2)
        edge_branch = all(val2 & ~rows[v] == 1 << v for v in bits_of(val2))
        nonedge_branch = not any(rows[v] & val2 for v in bits_of(val2)) \
            and not any(d == 3 and (rows[v] & val2).bit_count() > 1
                        for v, d in enumerate(degs))
        if not (edge_branch or nonedge_branch):
            continue
        out.append(Graph(n, rows))
    out.sort(key=lambda g: (g.edge_count(), min_bits_free(g.rows, g.n)))
    return tuple(out)
