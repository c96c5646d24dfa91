"""Graph types: small graphs with two distinguished (fixed) vertices.

A type stores its adjacency without the edge between the fixed
vertices; that edge is optional and is resolved against the anchoring
pair at counting time.  Types are identified up to isomorphisms that
preserve the fixed pair setwise, so a type and its mirror count as one
class (counting scans both orientations of each anchored pair).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .graph import (CanonicalCode, Graph, GraphError, bits_of,
                    graph_from_edges, min_bits_free, pair_codes, pair_first,
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
        if (self.rows[0] >> 1) & 1:
            raise GraphError("pair edge must not appear in type rows")

    @property
    def code(self) -> CanonicalCode:
        bits = min(pair_codes(self.rows, self.order))
        return CanonicalCode(self.order, bits, self.pair_adjacent)

    def concrete(self, adjacent: bool) -> "GraphType":
        return GraphType(self.order, self.rows, adjacent)

    def effective_rows(self, adjacent: bool | None = None) -> tuple[int, ...]:
        """Adjacency rows with the pair edge resolved."""
        adj = self.pair_adjacent if adjacent is None else adjacent
        if adj is None:
            raise GraphError("pair adjacency unresolved")
        rows = list(self.rows)
        if adj:
            rows[0] |= 2
            rows[1] |= 1
        return tuple(rows)

    def graph(self, adjacent: bool | None = None) -> Graph:
        return Graph(self.order, self.effective_rows(adjacent))

    def additional_valencies(self) -> list[int]:
        return [self.rows[v].bit_count() for v in range(2, self.order)]

    def edge_count_structure(self) -> int:
        """Edges excluding the optional pair edge."""
        return sum(r.bit_count() for r in self.rows) // 2


def type_from_graph(g: Graph, pair: tuple[int, int],
                    pair_adjacent: bool | None = "auto") -> GraphType:
    """Build a type from a small graph with a chosen fixed pair."""
    h = pair_first(g, pair)
    rows = list(h.rows)
    rows[0] &= ~2
    rows[1] &= ~1
    if pair_adjacent == "auto":
        pair_adjacent = h.has_edge(0, 1)
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


@lru_cache(maxsize=None)
def enumerate_types(t: int, min_add_valency: int) -> tuple[GraphType, ...]:
    """All type classes of order t in which every additional vertex has
    valency at least ``min_add_valency``.  The pair edge is optional and
    excluded from both the valency count's edge set and class identity.
    Deterministic order: ascending structure edge count, then canonical
    bits.
    """
    if not MIN_TYPE_ORDER <= t <= MAX_TYPE_ORDER:
        raise GraphError("type order must be between 2 and 8")
    if min_add_valency < 0:
        raise GraphError("valency bound out of range")
    if min_add_valency > t - 1:
        return ()  # no order-t type can meet the bound

    # level-wise extension: add one additional vertex at a time, pruning
    # shapes whose vertices can no longer reach the valency bound, and
    # deduplicating by canonical bits at each level
    current: list[tuple[int, ...]] = [(0, 0)]
    for size in range(3, t + 1):
        seen = {}
        for rows in current:
            prev = size - 1
            for attach in range(1 << prev):
                new_rows = []
                for v in range(prev):
                    r = rows[v]
                    if (attach >> v) & 1:
                        r |= 1 << prev
                    new_rows.append(r)
                new_rows.append(attach)
                # prune: remaining extensions add at most t - size neighbours
                ok = True
                for v in range(2, size):
                    if new_rows[v].bit_count() + (t - size) < min_add_valency:
                        ok = False
                        break
                if not ok:
                    continue
                key = min(pair_codes(new_rows, size))
                if key not in seen:
                    seen[key] = tuple(new_rows)
        current = list(seen.values())
    out = []
    for rows in current:
        ty = GraphType(t, rows, None)
        if all(v >= min_add_valency for v in ty.additional_valencies()):
            out.append(ty)
    out.sort(key=lambda ty: (ty.edge_count_structure(), ty.code.bits))
    return tuple(out)


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
    lengths.  Orbit lengths per size must sum to C(9, size)."""
    by_size = {}
    for size in range(0, max_size + 1):
        classes = {}
        for edges in itertools.combinations(_EDGE_SLOTS, size):
            rows = graph_from_edges(5, edges).rows
            fwd, bwd = pair_codes(rows, 5)
            key = min(fwd, bwd)
            if key not in classes:
                # an automorphism swapping x and y exists iff fwd == bwd
                stab = pair_fixing_aut_order(5, rows) * (2 if fwd == bwd else 1)
                classes[key] = ComplementClass(edges, stab, 12 // stab)
        by_size[size] = tuple(classes.values())
    return ComplementTable(by_size)


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

def _all_graphs_of_order(n: int):
    """All graphs on n labelled vertices as row tuples (not deduped)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for b, (i, j) in enumerate(pairs):
            if (mask >> b) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield tuple(rows)


def _maximal_cliques(rows: tuple[int, ...], n: int):
    full = (1 << n) - 1
    out = []

    def bk(r, p, x):
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot_candidates = p | x
        u = (pivot_candidates & -pivot_candidates).bit_length() - 1
        ext = p & ~rows[u]
        m = ext
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            bk(r | low, p & rows[v], x & rows[v])
            p &= ~low
            x |= low
    bk(0, full, 0)
    return out


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
    seen = set()
    out = []
    for rows in _all_graphs_of_order(n):
        degs = [r.bit_count() for r in rows]
        if min(degs) < 2:
            continue
        if all(d == n - 1 for d in degs):
            continue
        cliques = _maximal_cliques(rows, n)
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
        key = min_bits_free(rows, n)
        if key in seen:
            continue
        seen.add(key)
        out.append(Graph(n, rows))
    out.sort(key=lambda g: (g.edge_count(), min_bits_free(g.rows, g.n)))
    return tuple(out)
