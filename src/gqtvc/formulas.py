"""Closed-form counts for anchored graph types in quadrangle point
graphs, and a harness comparing them with brute force on constructed
geometries.

The order-5 families (type0, type2a, type3a and the discarded ones)
hold for any order (s, t).  The completeS families describe a fixed
pair together with a clique S; their derivations use mu = s^2 + 1, so
they apply to GQ(s, s^2) only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .geometry import PartialLinearSpace, check_gq_axiom, point_graph
from .graph import graph_from_edges
from .gtypes import (GraphType, ORDER5_COMPLEMENTS, ORDER5_DISCARDED,
                     order5_type, type_from_graph)
from .symmetry import pair_orbits, scan_pairs
from .tvc import count_type_anchored


class FormulaError(ValueError):
    pass


ORDER5_FAMILIES = tuple("type" + name for name in ORDER5_COMPLEMENTS)
ZERO_FAMILIES = frozenset("type" + name for name in ORDER5_DISCARDED)

# completeS case keys (d_x, d_y); "T-2" means adjacent to all of S
COMPLETE_S_CASES = (("T-2", "T-2"), ("T-2", 1), ("T-2", 0),
                    (1, 1), (1, 0), (0, 0))


@dataclass(frozen=True)
class FormulaId:
    family: str
    case: tuple | None = None  # completeS only
    zx_eq_zy: bool | None = None  # completeS (1, 1) only
    size: int | None = None  # |S|, completeS only

    def __post_init__(self):
        if self.family == "completeS":
            if self.case not in COMPLETE_S_CASES:
                raise FormulaError(f"unknown completeS case {self.case!r}")
            if self.size is None or self.size < 2:
                raise FormulaError("completeS needs a clique size >= 2")
            if self.case == (1, 1):
                if self.zx_eq_zy is None:
                    raise FormulaError("case (1, 1) needs the z_x = z_y flag")
            elif self.zx_eq_zy is not None:
                raise FormulaError("z_x = z_y applies to case (1, 1) only")
        elif self.family in ORDER5_FAMILIES:
            if self.case is not None or self.size is not None \
                    or self.zx_eq_zy is not None:
                raise FormulaError("order-5 families take no parameters")
        else:
            raise FormulaError(f"unknown formula family {self.family!r}")

    def label(self) -> str:
        if self.family != "completeS":
            return self.family
        out = f"completeS {self.case} |S|={self.size}"
        if self.zx_eq_zy is not None:
            out += " z_x=z_y" if self.zx_eq_zy else " z_x!=z_y"
        return out


def expected_count(fid: FormulaId, s: int, t: int, adjacent: bool) -> int:
    if s < 1 or t < 1:
        raise FormulaError("orders must be at least 1")
    fam = fid.family
    if fam in ZERO_FAMILIES:
        return 0
    if fam == "type0":
        return comb(s - 1, 3) if adjacent else 0
    if fam == "type2a":
        return 0 if adjacent else (t + 1) * comb(s - 1, 2)
    if fam == "type3a":
        return t * comb(s, 3) if adjacent else (t + 1) * comb(s - 1, 3)
    # FormulaId admits no other family
    return _complete_s_count(fid, s, t, adjacent)


def _complete_s_count(fid: FormulaId, s: int, t: int, adjacent: bool) -> int:
    if t != s * s:
        raise FormulaError("completeS formulas require t = s^2")
    m = fid.size
    mu = s * s + 1  # t + 1
    l = (s * s + 1) * (s ** 3 + 1)  # (t + 1)(st + 1) lines in total
    case = fid.case
    if case == ("T-2", "T-2"):
        # S and both fixed vertices share a line
        return comb(s - 1, m) if adjacent else 0
    if case == ("T-2", 1):
        if adjacent:
            return 0
        return mu * comb(s - 1, m - 1)
    if case == ("T-2", 0):
        if adjacent:
            return s * s * comb(s, m)
        return mu * comb(s - 1, m)
    if case == (1, 1):
        if fid.zx_eq_zy:
            if adjacent:
                return s * s * (s - 1) * comb(s, m - 1)
            return mu * (s * s - 1) * comb(s, m - 1)
        if adjacent:
            return s ** 5 * comb(s - 1, m - 2)
        return s * s * mu * (s - 1) * comb(s - 1, m - 2)
    if case == (1, 0):
        if adjacent:
            return s ** 5 * comb(s - 1, m - 1)
        return mu * (s - 1) * s * s * comb(s - 1, m - 1)
    # (0, 0), the last case: split the lines missing x and y by traces
    if adjacent:
        l2p = s * s * (s - 1)
        l3 = l - 1 - 2 * s * s - l2p
        return l2p * comb(s, m) + l3 * comb(s - 1, m)
    l1 = mu * (s * s - 1)
    l2 = l - l1 - 2 * (s * s + 1)
    return l1 * comb(s, m) + l2 * comb(s - 1, m)


def graph_type_for(fid: FormulaId, adjacent: bool | None = None) -> GraphType:
    """The anchored type the formula counts; for completeS a fixed pair
    plus a clique S with the prescribed attachments."""
    if fid.family != "completeS":
        return order5_type(fid.family[len("type"):], adjacent)
    order = fid.size + 2
    edges = list(itertools.combinations(range(2, order), 2))
    dx, dy = fid.case
    x_nbrs = list(range(2, order)) if dx == "T-2" else [2] if dx == 1 else []
    if dy == "T-2":
        y_nbrs = list(range(2, order))
    elif dy == 1:
        y_nbrs = [2] if (fid.case != (1, 1) or fid.zx_eq_zy) else [3]
    else:
        y_nbrs = []
    edges += [(0, v) for v in x_nbrs] + [(1, v) for v in y_nbrs]
    return type_from_graph(graph_from_edges(order, edges), (0, 1), adjacent)


@dataclass
class FormulaReport:
    formula: FormulaId
    order: tuple[int, int]
    pairs_checked: int  # ordered pairs covered
    mismatches: list  # ((x, y), expected, actual), in scan order
    representatives: int = 0  # ordered pairs counted, one per orbit

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_formula(gq: PartialLinearSpace, fid: FormulaId) -> FormulaReport:
    """Compare the closed form against anchored brute-force counts on
    every ordered pair of the point graph: one count per orbit of the
    checked generators, a mismatch listed for every pair of its
    orbit."""
    res = check_gq_axiom(gq)
    if not res:
        raise FormulaError(f"not a generalised quadrangle: {res.witness!r}")
    s, t = res.order
    if fid.family == "completeS" and t != s * s:
        raise FormulaError("completeS formulas require a GQ(s, s^2)")
    g = point_graph(gq)
    expect = {adj: (graph_type_for(fid, adj), expected_count(fid, s, t, adj))
              for adj in (True, False)}
    found, key = {}, g.stabilisers.key  # by the key of a mismatching orbit
    checked = counted = 0
    for pair, size in pair_orbits(g):
        ty, want = expect[g.has_edge(*pair)]
        got = count_type_anchored(g, ty, pair)
        checked += size
        counted += 1
        if got != want:
            found[key(*pair)] = want, got
    mismatches = []
    if found:  # every pair of a mismatching orbit, in scan order
        mismatches = [(p, *found[k]) for p in scan_pairs(g)
                      if (k := key(*p)) in found]
    return FormulaReport(fid, (s, t), checked, mismatches, counted)
