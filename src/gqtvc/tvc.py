"""The t-vertex condition: exhaustive pair fingerprinting, anchored
type counting with backtracking, reduced-mode checking, distinguisher
search, and the K4,4 per-edge invariant.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

from .graph import (BudgetExceeded, CanonicalCode, Graph, ParameterError,
                    _check_deadline, bits_of, min_bits_pair_fixed,
                    rows_from_bits)
from .gtypes import (K44_TYPE, MAX_TYPE_ORDER, GraphType, enumerate_types,
                     pair_fixing_aut_order)
from .regularity import check_isoregular, srg_parameters


# largest t of the exhaustive scan and of pair_fingerprint
MAX_EXHAUSTIVE_ORDER = 7


class PreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class Fingerprint:
    """Census of the induced order-t subgraphs through one ordered pair,
    keyed by canonical type code."""

    pair_class: str  # "edge" or "non-edge"
    counts: tuple  # sorted ((CanonicalCode, count), ...)

    def total(self) -> int:
        return sum(c for _, c in self.counts)


@dataclass
class TvcWitness:
    graph_type: GraphType
    pair_a: tuple[int, int]
    count_a: int
    pair_b: tuple[int, int]
    count_b: int


@dataclass
class TvcVerdict:
    t: int
    status: str  # "satisfied" | "violated" | "inconclusive"
    witness: TvcWitness | None = None
    mode: str = "exhaustive"


# -- exhaustive fingerprinting --------------------------------------------

class _CodeMemo:
    """Maps labelled non-pair adjacency bits of an order-t subgraph with
    its pair in slots 0,1 to the canonical code bits, both for the given
    orientation and for the swapped one."""

    def __init__(self, t: int):
        self.t = t
        self.table: dict[int, tuple[int, int]] = {}
        # positions of the non-pair upper-triangle bits under slot swap
        from .graph import _bit_positions
        pos = _bit_positions(t, True)
        swap_map = {}
        for (i, j), p in pos.items():
            si = 1 if i == 0 else 0 if i == 1 else i
            sj = 1 if j == 0 else 0 if j == 1 else j
            a, b = min(si, sj), max(si, sj)
            swap_map[p] = pos[(a, b)]
        self.swap_map = swap_map

    def swap_bits(self, bits: int) -> int:
        out = 0
        for p, sp in self.swap_map.items():
            if (bits >> p) & 1:
                out |= 1 << sp
        return out

    def canon(self, bits: int) -> tuple[int, int]:
        got = self.table.get(bits)
        if got is None:
            rows = rows_from_bits(bits, self.t, skip01=True)
            fwd = min_bits_pair_fixed(rows, self.t)
            swapped = self.swap_bits(bits)
            rows_sw = rows_from_bits(swapped, self.t, skip01=True)
            bwd = min_bits_pair_fixed(rows_sw, self.t)
            got = (fwd, bwd)
            self.table[bits] = got
            if swapped != bits:
                self.table[swapped] = (bwd, fwd)
        return got


def _labelled_tallies(g: Graph, t: int, x: int, y: int,
                      deadline=None) -> dict[int, int]:
    """Tallies of labelled non-pair adjacency patterns over all
    (t-2)-subsets of V minus {x, y}, with x, y in slots 0, 1."""
    rest = [v for v in range(g.n) if v not in (x, y)]
    rows = g.rows
    tallies: dict[int, int] = {}
    k = t - 2
    # bit position layout for skip01: first the (0, j) bits j >= 2, then
    # (1, j), then pairs among the added vertices
    from .graph import _bit_positions
    pos = _bit_positions(t, True)
    xpos = [pos[(0, j)] for j in range(2, t)]
    ypos = [pos[(1, j)] for j in range(2, t)]
    ppos = [[pos[(i + 2, j + 2)] for j in range(i + 1, k)] for i in range(k)]
    rx = rows[x]
    ry = rows[y]
    counter = 0
    for subset in itertools.combinations(rest, k):
        bits = 0
        for a in range(k):
            va = subset[a]
            if (rx >> va) & 1:
                bits |= 1 << xpos[a]
            if (ry >> va) & 1:
                bits |= 1 << ypos[a]
            ra = rows[va]
            pa = ppos[a]
            for b in range(a + 1, k):
                if (ra >> subset[b]) & 1:
                    bits |= 1 << pa[b - a - 1]
        tallies[bits] = tallies.get(bits, 0) + 1
        counter += 1
        if counter & 0x3FFF == 0:
            _check_deadline(deadline)
    return tallies


def pair_fingerprint(g: Graph, t: int, pair: tuple[int, int],
                     deadline=None, memo: _CodeMemo | None = None) -> Fingerprint:
    """Exhaustive census of induced order-t subgraphs containing the
    ordered pair, classified by type."""
    x, y = pair
    if x == y:
        raise ParameterError("pair must consist of distinct vertices")
    if not 3 <= t <= MAX_EXHAUSTIVE_ORDER:
        raise ParameterError("exhaustive fingerprints support "
                             f"3 <= t <= {MAX_EXHAUSTIVE_ORDER}")
    memo = memo or _CodeMemo(t)
    adj = g.has_edge(x, y)
    tallies = _labelled_tallies(g, t, x, y, deadline)
    counts: dict[CanonicalCode, int] = {}
    for bits, cnt in tallies.items():
        fwd, _ = memo.canon(bits)
        code = CanonicalCode(t, fwd, adj)
        counts[code] = counts.get(code, 0) + cnt
    return Fingerprint("edge" if adj else "non-edge",
                       tuple(sorted(counts.items())))


def _canonical_counts(tallies: dict[int, int], memo: _CodeMemo):
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    for bits, cnt in tallies.items():
        f, b = memo.canon(bits)
        fwd[f] = fwd.get(f, 0) + cnt
        bwd[b] = bwd.get(b, 0) + cnt
    return fwd, bwd


def _exhaustive_scan_chunk(g: Graph, t: int, pairs, refs, memo, deadline):
    """Compare the fingerprints of the given unordered pairs against the
    per-class references.  Returns None or a mismatch description."""
    for x, y in pairs:
        _check_deadline(deadline)
        adj = g.has_edge(x, y)
        tallies = _labelled_tallies(g, t, x, y, deadline)
        fwd, bwd = _canonical_counts(tallies, memo)
        ref = refs[adj]
        for counts, pair in ((fwd, (x, y)), (bwd, (y, x))):
            if counts != ref[0]:
                return (pair, ref[1], counts)
    return None


def _mismatch_witness(t, ref_counts, counts):
    """Pick one differing code and build a concrete witness."""
    keys = set(ref_counts) | set(counts)
    for key in sorted(keys):
        a = ref_counts.get(key, 0)
        b = counts.get(key, 0)
        if a != b:
            rows = rows_from_bits(key, t, skip01=True)
            return key, a, b, rows
    raise AssertionError("mismatching fingerprints without differing code")


def check_tvc(g: Graph, t: int, mode: str = "exhaustive", k: int | None = None,
              budget_seconds: float | None = None, threads: int = 1,
              deadline: float | None = None) -> TvcVerdict:
    """Decide the t-vertex condition.

    ``mode='exhaustive'`` scans every (t-2)-subset through every pair,
    for 2 <= t <= 7.  ``mode='reduced'`` requires the graph to be
    k-isoregular and uses only types whose additional vertices have
    valency >= k+1, for 2 <= t <= 8; the levels below t are checked
    first, and a failure there is reported as the violation, since the
    t-vertex condition implies the (t-1)-vertex condition.
    """
    top = {"exhaustive": MAX_EXHAUSTIVE_ORDER, "reduced": MAX_TYPE_ORDER}
    if mode not in top:
        raise ParameterError(f"unknown mode {mode!r}")
    if not 2 <= t <= top[mode]:
        raise ParameterError(f"{mode} mode needs 2 <= t <= {top[mode]}, got {t}")
    if deadline is None and budget_seconds is not None:
        deadline = time.monotonic() + budget_seconds
    if t == 2:
        from .regularity import check_regular
        ok = check_regular(g) is not None
        return TvcVerdict(2, "satisfied" if ok else "violated", mode=mode)
    if t == 3:
        params = srg_parameters(g)
        ok = params is not None
        return TvcVerdict(3, "satisfied" if ok else "violated", mode=mode)
    try:
        if mode == "exhaustive":
            return _check_tvc_exhaustive(g, t, deadline, threads)
        if k is None:
            raise PreconditionError("reduced mode needs an isoregularity level")
        return _check_tvc_reduced(g, t, k, deadline)
    except BudgetExceeded:
        return TvcVerdict(t, "inconclusive", mode=mode)


def _check_tvc_exhaustive(g: Graph, t: int, deadline, threads=1) -> TvcVerdict:
    edges, non_edges = list(g.edges()), list(g.non_edges())
    memo = _CodeMemo(t)
    refs = {}
    for adj, pairs in ((True, edges), (False, non_edges)):
        if not pairs:
            refs[adj] = ({}, None)
            continue
        x, y = pairs[0]
        tallies = _labelled_tallies(g, t, x, y, deadline)
        fwd, bwd = _canonical_counts(tallies, memo)
        if fwd != bwd:
            # the reference pair itself is orientation-asymmetric
            key, a, b, rows = _mismatch_witness(t, fwd, bwd)
            ty = GraphType(t, rows, g.has_edge(x, y))
            return TvcVerdict(t, "violated",
                              TvcWitness(ty, (x, y), a, (y, x), b))
        refs[adj] = (fwd, (x, y))

    all_pairs = edges + non_edges
    if threads > 1:
        result = _parallel_scan(g, t, all_pairs, refs, deadline, threads)
    else:
        result = _exhaustive_scan_chunk(g, t, all_pairs, refs, memo, deadline)
    if result is None:
        return TvcVerdict(t, "satisfied")
    pair, ref_pair, counts = result
    ref_counts = refs[g.has_edge(*pair)][0]
    key, a, b, rows = _mismatch_witness(t, ref_counts, counts)
    ty = GraphType(t, rows, g.has_edge(*pair))
    return TvcVerdict(t, "violated", TvcWitness(ty, ref_pair, a, pair, b))


# -- process-pool support for the exhaustive scan -------------------------

_WORKER_STATE: dict = {}


def _worker_init(g, t, refs, deadline):
    _WORKER_STATE["g"] = g
    _WORKER_STATE["t"] = t
    _WORKER_STATE["refs"] = refs
    _WORKER_STATE["memo"] = _CodeMemo(t)
    # time.monotonic() is system-wide, so the parent's deadline holds here
    _WORKER_STATE["deadline"] = deadline


def _worker_scan(pairs):
    return _exhaustive_scan_chunk(_WORKER_STATE["g"], _WORKER_STATE["t"],
                                  pairs, _WORKER_STATE["refs"],
                                  _WORKER_STATE["memo"],
                                  _WORKER_STATE["deadline"])


def _parallel_scan(g, t, pairs, refs, deadline, threads):
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(pairs) // (threads * 8))
    chunks = [pairs[i:i + chunk] for i in range(0, len(pairs), chunk)]
    pool = ProcessPoolExecutor(max_workers=threads, initializer=_worker_init,
                               initargs=(g, t, refs, deadline))
    try:
        # results consumed in submission order keeps the verdict
        # independent of scheduling; a BudgetExceeded raised in a worker
        # is raised again here
        for result in pool.map(_worker_scan, chunks):
            if result is not None:
                return result
    finally:
        pool.shutdown(cancel_futures=True)
    return None


# -- anchored counting and reduced mode -----------------------------------

@lru_cache(maxsize=None)
def _placement(order: int, rows: tuple[int, ...]):
    """Twin classes of a type's additional slots (same adjacency to every
    other slot), placed in greedy order: each class's adjacency to slots
    0 and 1; per slot but the last, where the next slot's candidates come
    from (see ``count_type_anchored``); the automorphism order left when
    twins take increasing images."""
    classes: list[list[int]] = []
    for v in range(2, order):
        for cls in classes:
            others = ~((1 << cls[0]) | (1 << v))
            if rows[cls[0]] & others == rows[v] & others:
                cls.append(v)
                break
        else:
            classes.append([v])
    # greedy: next the class most adjacent to the slots already placed
    placed, ordered = 0b11, []
    while classes:
        cls = min(classes, key=lambda c: (-(rows[c[0]] & placed).bit_count(),
                                          -rows[c[0]].bit_count(), c[0]))
        classes.remove(cls)
        ordered.append(cls)
        placed |= sum(1 << v for v in cls)
    steps = []
    for i, cls in enumerate(ordered):
        r, later = rows[cls[0]], ordered[i + 1:]
        adjs = tuple(r >> c[0] & 1 for c in later)
        sizes = tuple(len(c) for c in later)
        # a twin comes next (its images rise: selector 2 or 3), then the
        # first slot of the next class
        steps += [(0, 2 + (r >> cls[-1] & 1), left, adjs, sizes)
                  for left in range(len(cls) - 1, 0, -1)]
        if later:
            steps.append((1, adjs[0], sizes[0], adjs[1:], sizes[1:]))
    starts = tuple((rows[c[0]] & 1, rows[c[0]] >> 1 & 1) for c in ordered)
    twins = prod(factorial(len(c)) for c in ordered)
    return starts, tuple(steps), pair_fixing_aut_order(order, rows) // twins


def count_type_anchored(g: Graph, ty: GraphType, pair: tuple[int, int],
                        deadline=None) -> int:
    """Number of vertex subsets containing the ordered pair whose
    induced subgraph is of the given type (fixed vertices mapped to the
    pair in order)."""
    x, y = pair
    adj = g.has_edge(x, y)
    if ty.pair_adjacent is not None and ty.pair_adjacent != adj:
        raise PreconditionError("pair adjacency does not match the type")
    _check_deadline(deadline)
    starts, plan, residual = _placement(ty.order, ty.rows)
    # sel[a][v]: the vertices not adjacent (a = 0) or adjacent (a = 1) to
    # v, and those of them above v (a = 2, 3)
    sel = (g.non_rows, g.rows) + g.upper_rows
    # per step: where the next slot's candidate mask sits among the
    # current masks, how it narrows and how many slots it must still
    # fill; then the same for each class after it
    steps = [(skip, sel[a1], k1, [sel[a] for a in adjs], sizes)
             for skip, a1, k1, adjs, sizes in plan]
    masks = [sel[a0][x] & sel[a1][y] for a0, a1 in starts]
    final = len(steps) - 1
    total = 0

    def rec(d, masks):
        # masks: candidates of the current class, then of each later class
        nonlocal total
        skip, s1, k1, later, needs = steps[d]
        m0, m1 = masks[0], masks[skip]
        if d == final:
            # the last slot is counted here, by popcount
            for v in bits_of(m0):
                total += (m1 & s1[v]).bit_count()
            return
        _check_deadline(deadline)
        more = tuple(zip(masks[skip + 1:], later, needs))
        for v in bits_of(m0):
            n1 = m1 & s1[v]
            if n1.bit_count() < k1:
                continue
            child = [n1]
            for m, s, k in more:
                m &= s[v]
                if m.bit_count() < k:
                    break
                child.append(m)
            else:
                rec(d + 1, child)

    if steps:
        rec(0, masks)
    else:
        total = masks[0].bit_count() if masks else 1
    if total % residual:
        raise AssertionError(f"{total} embeddings, {residual} per subset")
    return total // residual


def _scan_types_for_mismatch(g: Graph, types, deadline) -> TvcWitness | None:
    edges, non_edges = list(g.edges()), list(g.non_edges())
    for ty in types:
        for adj, pairs in ((True, edges), (False, non_edges)):
            cty = ty.concrete(adj)
            ref = None
            ref_pair = None
            for x, y in pairs:
                for pair in ((x, y), (y, x)):
                    c = count_type_anchored(g, cty, pair, deadline)
                    if ref is None:
                        ref = c
                        ref_pair = pair
                    elif c != ref:
                        return TvcWitness(cty, ref_pair, ref, pair, c)
    return None


def _check_tvc_reduced(g: Graph, t: int, k: int, deadline) -> TvcVerdict:
    if not check_isoregular(g, k, deadline).ok:
        raise PreconditionError(f"graph is not {k}-isoregular")
    # each level assumes the one below it holds; below level 4 the
    # condition is strong regularity, which k-isoregularity covers
    for level in range(4, t + 1):
        witness = _scan_types_for_mismatch(g, enumerate_types(level, k + 1),
                                           deadline)
        if witness is not None:
            return TvcVerdict(t, "violated", witness, mode="reduced")
    return TvcVerdict(t, "satisfied", mode="reduced")


def find_distinguisher(g: Graph, t: int, k: int) -> GraphType | None:
    """The witness type of reduced ``check_tvc``: the first type (in
    enumeration order, lowest order first) with additional valency
    >= k+1 whose anchored counts are non-constant on edges or
    non-edges.  Its order is below t when a lower level already fails.
    None if the t-vertex condition holds; for t <= 3, where the
    condition is (strong) regularity and has no witness type, always
    None."""
    witness = check_tvc(g, t, mode="reduced", k=k).witness
    return None if witness is None else witness.graph_type


# -- the K4,4 edge invariant ----------------------------------------------

def count_k44_per_edge(g: Graph, stop_after_values: int | None = None,
                       max_edges: int | None = None,
                       deadline=None) -> dict[tuple[int, int], int]:
    """For each edge (x, y), the number of induced K4,4 subgraphs with x
    and y on opposite sides.

    ``stop_after_values`` ends the scan once that many distinct counts
    have been seen; ``max_edges`` caps the number of edges scanned.
    """
    out: dict[tuple[int, int], int] = {}
    values: set[int] = set()
    for edge in itertools.islice(g.edges(), max_edges):
        out[edge] = count = count_type_anchored(g, K44_TYPE, edge, deadline)
        values.add(count)
        if stop_after_values is not None and len(values) >= stop_after_values:
            break
    return out
