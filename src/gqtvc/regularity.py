"""Regularity hierarchy checks: k-isoregularity, whose levels 1 and 2
are regularity and strong regularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .graph import (Graph, ParameterError, _check_deadline, bits_of,
                    check_ints, counter_row, counter_spreader)
from .symmetry import pair_orbits, vertex_orbits


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


def srg_parameters(g: Graph):
    """SrgParams if strongly regular, None if not, DEGENERATE for
    complete or empty graphs: level 2 of ``check_isoregular``."""
    rep = check_isoregular(g, 2)
    if not rep.ok:
        return None
    k = rep.table.get((1, 0), 0)
    if k in (0, g.n - 1):
        return DEGENERATE
    return SrgParams(g.n, k, rep.table[2, 1], rep.table[2, 0])


@dataclass
class IsoregularityReport:
    level: int  # the greatest level that passed
    table: dict[tuple[int, int], int]  # val by (order, edges)
    ok: bool
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    representatives: int = 0  # anchors summed


def check_isoregular(g: Graph, k: int,
                     deadline: float | None = None) -> IsoregularityReport:
    """Exhaustively check that val(S) depends only on the isomorphism
    class of the induced subgraph, over all vertex sets of size <= k.
    A set of at most three vertices is classified by its size and edge
    count, so ``table`` maps (order, edges) to val.  ``level`` is k if
    the check passes, else one less than the size of the witness sets.
    Raises BudgetExceeded once ``deadline`` (``time.monotonic()``) has
    passed.

    Level ``size`` sums the counter rows of the common neighbours of
    each (size - 1)-set A: field c is val(A + {c}), expected to be T(m)
    off A, m the neighbours of c in A (differences over the rows 1, m,
    C(m, 2)), and val(A) on A.  An unseen class expects the all-ones
    field, which no count reaches, so its first member is read off.
    Each A is the representative of an orbit of the generators of ``g``
    (``symmetry``): the sets A + {c} of one orbit have the same values.
    Counter rows are spread when a sum first needs them."""
    check_ints(k=k)
    if not 1 <= k <= 3:
        raise ParameterError("isoregularity level must be 1..3")
    table: dict[tuple[int, int], int] = {}
    rep: dict[tuple[int, int], tuple[int, ...]] = {}
    # spare field n (set in the anchor row, taken back by ``marker``) keeps
    # every temporary row-long, so the freed rows go back to the system
    degrees = list(map(int.bit_count, g.rows))
    spread, width = counter_spreader(g.n + 1, max(degrees, default=0) + 1)
    unseen = (1 << width) - 1
    counter = cache(lambda u: spread(g.rows[u]))
    ones = spread(g.full_mask)
    marker = spread(1 << g.n)
    total = counter_row(degrees, width)  # the sum of every counter row
    anchors = ([()], ((v,) for v, _ in vertex_orbits(g.n, g.generators)),
               ((x, y) for (x, y), _ in pair_orbits(g, deadline=deadline)
                if x < y))
    summed = 0
    for size in range(1, k + 1):
        vals = [unseen] * 4  # value of each class by its edge count
        for anchor in anchors[size - 1]:
            _check_deadline(deadline)
            summed += 1
            common = g.full_mask
            for u in anchor:
                common &= g.rows[u]
            # a dense set costs its complement: the sum over V less the rest
            if 2 * common.bit_count() > g.n:
                got = total - sum(map(counter, bits_of(g.full_mask ^ common)))
            else:
                got = sum(map(counter, bits_of(common)))
            inner = size == 3 and g.has_edge(*anchor)
            near = sum(map(counter, anchor))
            pairs = spread(common) if size == 3 else 0
            at_anchor = spread(sum(1 << u for u in anchor) | 1 << g.n)
            while True:
                t0, t1, t2 = vals[inner:inner + 3]
                corr = common.bit_count() - t0 - (t1 - t0) * inner
                diff = got ^ (t0 * ones + (t1 - t0) * near
                              + (t2 - 2 * t1 + t0) * pairs
                              + corr * at_anchor - corr * marker)
                if not diff:
                    break
                c = ((diff & -diff).bit_length() - 1) // width
                subset = tuple(sorted(anchor + (c,)))
                edges = inner + (near >> width * c & unseen)
                if (size, edges) in table:
                    return IsoregularityReport(size - 1, table, False, (
                        rep[size, edges], subset), summed)
                table[size, edges] = vals[edges] = (got >> width * c) & unseen
                rep[size, edges] = subset
    return IsoregularityReport(k, table, True, representatives=summed)
