"""Regularity hierarchy checks: regular, strongly regular,
subconstituents, k-isoregularity, and quadrangle-specific scans
(K4-e freeness, triad center profiles).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graph import (CanonicalCode, Graph, ParameterError, _check_deadline,
                    bits_of, canonical_code, common_neighbors_mask,
                    graph_from_edges, induced_subgraph)


class Degenerate:
    """Marker for complete/empty graphs, which have no well-defined
    (lambda, mu) pair but are degenerate strongly regular graphs."""

    def __repr__(self):
        return "DEGENERATE"


DEGENERATE = Degenerate()


@dataclass(frozen=True)
class SrgParams:
    v: int
    k: int
    lam: int
    mu: int

    def feasible(self) -> bool:
        """The basic counting identity k(k - lam - 1) = (v - k - 1) mu."""
        return self.k * (self.k - self.lam - 1) == (self.v - self.k - 1) * self.mu


def check_regular(g: Graph) -> int | None:
    if g.n == 0:
        return 0
    degs = {r.bit_count() for r in g.rows}
    return degs.pop() if len(degs) == 1 else None


def srg_parameters(g: Graph):
    """SrgParams if the graph is strongly regular, None if not,
    DEGENERATE for complete or empty graphs."""
    k = check_regular(g)
    if k is None:
        return None
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


def subconstituent(g: Graph, x: int, i: int) -> Graph:
    """Induced subgraph on the vertices at distance exactly i from x."""
    if not 0 <= x < g.n:
        raise ParameterError("vertex out of range")
    dist = [-1] * g.n
    dist[x] = 0
    frontier = [x]
    d = 0
    while frontier:
        nxt = []
        d += 1
        for u in frontier:
            for v in bits_of(g.rows[u]):
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return induced_subgraph(g, [v for v in range(g.n) if dist[v] == i])


# canonical codes of the order-<=3 classes; for these sizes the edge
# count determines the isomorphism class
_SMALL_CODES = {(n, e): canonical_code(graph_from_edges(
    n, [(0, 1), (1, 2), (0, 2)][:e])) for n in range(1, 4)
    for e in range(n * (n - 1) // 2 + 1)}


@dataclass
class IsoregularityReport:
    k: int
    table: dict[CanonicalCode, int]
    ok: bool
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def check_isoregular(g: Graph, k: int,
                     deadline: float | None = None) -> IsoregularityReport:
    """Exhaustively check that val(S) depends only on the isomorphism
    class of the induced subgraph, over all vertex sets of size <= k.
    Raises BudgetExceeded once ``deadline`` (``time.monotonic()``) has
    passed."""
    if not 1 <= k <= 3:
        raise ParameterError("isoregularity level must be 1..3")
    table: dict[CanonicalCode, int] = {}
    rep: dict[CanonicalCode, tuple[int, ...]] = {}
    for size in range(1, k + 1):
        for index, subset in enumerate(
                itertools.combinations(range(g.n), size)):
            if index & 0xFFF == 0:
                _check_deadline(deadline)
            val = common_neighbors_mask(g, subset).bit_count()
            ec = 0
            for a in range(size):
                for b in range(a + 1, size):
                    if g.has_edge(subset[a], subset[b]):
                        ec += 1
            code = _SMALL_CODES[(size, ec)]
            if code in table:
                if table[code] != val:
                    return IsoregularityReport(k, table, False,
                                               (rep[code], subset))
            else:
                table[code] = val
                rep[code] = subset
    return IsoregularityReport(k, table, True)


def check_k4e_free(g: Graph) -> tuple[int, int, int, int] | None:
    """None if no induced K4-e; otherwise a witness quadruple
    (a, b, c, d) where a~b are the degree-3 vertices of the pattern."""
    for i in range(g.n):
        ri = g.rows[i]
        for j in bits_of(ri):
            if j <= i:
                continue
            # common neighbours of the edge (i, j): any non-adjacent pair
            # among them completes an induced or non-induced K4-e
            comm = list(bits_of(ri & g.rows[j]))
            for a in range(len(comm)):
                for b in range(a + 1, len(comm)):
                    if not g.has_edge(comm[a], comm[b]):
                        return (i, j, comm[a], comm[b])
    return None


def triad_center_profile(g: Graph) -> dict[int, int]:
    """Histogram mapping center count -> number of triads (pairwise
    non-adjacent triples)."""
    hist: dict[int, int] = {}
    for x in range(g.n):
        nx = g.non_rows[x]
        for y in bits_of(nx):
            if y <= x:
                continue
            rest = nx & g.non_rows[y]
            common_xy = g.rows[x] & g.rows[y]
            for z in bits_of(rest):
                if z <= y:
                    continue
                c = (common_xy & g.rows[z]).bit_count()
                hist[c] = hist.get(c, 0) + 1
    return hist
