"""The t-vertex condition: exhaustive pair fingerprinting, anchored
type counting with backtracking, reduced-mode checking with its
distinguishing type as the witness, and the K4,4 per-edge invariant.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb, factorial, prod
from numbers import Real

from .graph import (BudgetExceeded, CanonicalCode, Graph, ParameterError,
                    _bit_positions, _check_deadline, bits_of, check_ints,
                    check_pair, pair_codes, rows_from_bits)
from .gtypes import (K44_TYPE, MAX_TYPE_ORDER, GraphType, enumerate_types,
                     pair_fixing_aut_order)
from .regularity import check_isoregular
from .symmetry import automorphisms, pair_orbits, vertex_orbits


# largest t of the exhaustive scan and of pair_fingerprint
MAX_EXHAUSTIVE_ORDER = 7


@dataclass(frozen=True)
class Fingerprint:
    """Census of the induced order-t subgraphs through one ordered pair,
    keyed by canonical type code."""

    pair_class: str  # "edge" or "non-edge"
    counts: tuple  # sorted ((CanonicalCode, count), ...)


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
    # pairs counted at before the verdict, one per orbit: unordered in
    # exhaustive mode (one census covers both orientations), ordered in
    # reduced mode; None when no pair scan ran
    representatives: int | None = None
    # rank 3 (see ``check_tvc``), so no count was made
    rank3: bool = False
    # verified automorphisms the scan reduced by, and whether they came
    # from ``symmetry.automorphisms`` (the graph had none of its own)
    generators: int = 0
    searched: bool = False
    k: int | None = None  # isoregularity level reduced mode counted by


# -- exhaustive fingerprinting --------------------------------------------

@lru_cache(maxsize=None)
def _slot_bits(t: int) -> tuple[tuple[int, ...], ...]:
    """``_slot_bits(t)[a][adj]``: the labelled non-pair bits a vertex sets
    when placed in slot a + 2, where bit s of ``adj`` is its adjacency to
    slot s (x, y, then the vertices placed before it)."""
    pos = _bit_positions(t, True)
    return tuple(
        tuple(sum(1 << pos[(s, a + 2)] for s in range(a + 2) if adj >> s & 1)
              for adj in range(1 << (a + 2)))
        for a in range(t - 2))


def _labelled_tallies(g: Graph, t: int, x: int, y: int,
                      deadline) -> dict[int, int]:
    """Tallies of labelled non-pair adjacency patterns over all
    (t-2)-subsets of V minus {x, y}, with x, y in slots 0, 1 and the
    subset in increasing order in slots 2..t-1.

    The candidates for the next slot are kept in cells of equal
    adjacency to x, y and the vertices placed so far, so a whole cell
    sets the same bits.  Placing a vertex splits every cell, cut to the
    vertices above it, by adjacency to it; the last slot tallies each
    cell by popcount.
    """
    rows = g.rows
    table = _slot_bits(t)
    last = t - 3
    rest = g.full_mask & ~(1 << x | 1 << y)
    rx, ry = rows[x], rows[y]
    cells = [(adj, m) for adj, m in enumerate((
        rest & ~rx & ~ry, rest & rx & ~ry, rest & ~rx & ry, rest & rx & ry)) if m]
    tallies: dict[int, int] = {}

    def rec(a, cells, bits):
        sets = table[a]
        if a == last:
            for adj, m in cells:
                key = bits | sets[adj]
                tallies[key] = tallies.get(key, 0) + m.bit_count()
            return
        _check_deadline(deadline)
        flag = 1 << (a + 2)
        for adj, m in cells:
            placed = bits | sets[adj]
            for v in bits_of(m):
                above, r = -(2 << v), rows[v]
                child = []
                for adj2, m2 in cells:
                    m2 &= above
                    if m2:
                        inside = m2 & r
                        if inside:
                            child.append((adj2 | flag, inside))
                        if inside != m2:
                            child.append((adj2, m2 ^ inside))
                if child:
                    rec(a + 1, child, placed)

    rec(0, cells, 0)
    return tallies


def _pair_census(g: Graph, t: int, x: int, y: int, codes: dict,
                 deadline) -> tuple[dict[int, int], dict[int, int]]:
    """Counts of the order-t subgraphs through (x, y) and through (y, x)
    by canonical code bits.  ``codes`` memoises ``pair_codes`` by
    labelled bits for the length of one scan."""
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    for bits, cnt in _labelled_tallies(g, t, x, y, deadline).items():
        got = codes.get(bits)
        if got is None:
            got = codes[bits] = pair_codes(
                rows_from_bits(bits, t), t)
        f, b = got
        fwd[f] = fwd.get(f, 0) + cnt
        bwd[b] = bwd.get(b, 0) + cnt
    return fwd, bwd


def pair_fingerprint(g: Graph, t: int, pair: tuple[int, int]) -> Fingerprint:
    """Exhaustive census of induced order-t subgraphs containing the
    ordered pair, classified by type."""
    check_ints(t=t)
    x, y = check_pair(g.n, pair)
    if not 3 <= t <= MAX_EXHAUSTIVE_ORDER:
        raise ParameterError("exhaustive fingerprints support "
                             f"3 <= t <= {MAX_EXHAUSTIVE_ORDER}")
    adj = g.has_edge(x, y)
    fwd, _ = _pair_census(g, t, x, y, {}, None)
    return Fingerprint("edge" if adj else "non-edge",
                       tuple(sorted((CanonicalCode(t, bits, adj), cnt)
                                    for bits, cnt in fwd.items())))


def _mismatch_witness(t, adj, ref_counts, ref_pair, counts, pair):
    """Witness for the least code counted differently through two pairs."""
    key = min(c for c in ref_counts.keys() | counts.keys()
              if ref_counts.get(c, 0) != counts.get(c, 0))
    return TvcWitness(GraphType(t, rows_from_bits(key, t), adj),
                      ref_pair, ref_counts.get(key, 0), pair, counts.get(key, 0))


def check_tvc(g: Graph, t: int, mode: str = "exhaustive", k: int = 3,
              budget_seconds: float | None = None) -> TvcVerdict:
    """Decide the t-vertex condition.

    On n < t vertices no order-t type embeds, so the condition is
    decided at order min(t, n) (2 below two vertices) and reported for
    the t asked for.  Order 2 is regularity, level 1 of
    ``check_isoregular``, whose failure names no pair and so carries no
    witness.  Order 3 is strong regularity (Hestenes & Higman, 1971): a
    graph that passes level 2 is satisfied, and any other graph is
    scanned as at order 4 and above for its witness.

    ``mode='exhaustive'`` scans every (t-2)-subset through every pair,
    for 2 <= t <= 7, in one process.  ``mode='reduced'`` finds the
    greatest j <= k (2 or 3) with ``g`` j-isoregular, records it as the
    verdict's ``k``, and uses only types whose additional vertices have
    valency >= j+1, for 2 <= t <= 8; the levels below t are checked
    first (order 3 if j < 2), and a failure there is reported as the
    violation, since the t-vertex condition implies the (t-1)-vertex
    condition.  Both modes count at one pair per orbit of the generators
    of ``g`` (see ``symmetry``), and neither counts on a rank-3 graph,
    with one orbit of ordered edges and one of ordered non-edges: the
    condition holds for every t (Hestenes & Higman, 1971), and the
    verdict sets ``rank3``.  For t >= 4 a strongly regular graph without
    generators gets those that ``symmetry.automorphisms`` finds, each
    checked by ``Graph`` to map every row onto a row before the scan
    uses it; the copy of ``g`` with them is kept in ``g.searched`` on
    first use and scanned by every later check, so the search and its
    orbits are made once.  Any other graph without generators fails the
    condition for every t >= 3 and is scanned pair by pair, as the search
    could only delay its witness: in both modes some count differs at the
    first pair whose degrees or common neighbours differ from those of
    the first pair of its class.
    """
    check_ints(t=t)
    top = {"exhaustive": MAX_EXHAUSTIVE_ORDER, "reduced": MAX_TYPE_ORDER}
    if mode not in top:
        raise ParameterError(f"unknown mode {mode!r}")
    if not 2 <= t <= top[mode]:
        raise ParameterError(f"{mode} mode needs 2 <= t <= {top[mode]}, got {t}")
    if mode == "reduced":
        if k not in (2, 3):
            raise ParameterError(f"reduced mode needs k = 2 or 3, got {k}")
        check_ints(k=k)
    if budget_seconds is not None:
        if isinstance(budget_seconds, bool) \
                or not isinstance(budget_seconds, Real):
            raise ParameterError(
                f"budget_seconds must be a number, got {budget_seconds!r}")
        if not budget_seconds >= 0:
            raise ParameterError(
                f"budget_seconds must be at least 0, got {budget_seconds}")
    deadline = None if budget_seconds is None \
        else time.monotonic() + budget_seconds
    order = min(t, max(g.n, 2))
    searched = False
    try:
        if order <= 3 and check_isoregular(g, order - 1, deadline).ok:
            verdict = TvcVerdict(t, "satisfied")
        elif order == 2:
            verdict = TvcVerdict(t, "violated")
        else:  # at order 3 the graph is not strongly regular: no search
            searched = order > 3 and not g.generators \
                and check_isoregular(g, 2, deadline).ok
            if searched:
                if "graph" not in g.searched:
                    g.searched["graph"] = Graph(g.n, g.rows,
                                                automorphisms(g, deadline))
                g = g.searched["graph"]
            orbits = pair_orbits(g, deadline=deadline)
            head = list(itertools.islice(orbits, 3))
            # edges come first: a class seen twice among three has two orbits
            if len({g.has_edge(*pair) for pair, _ in head}) == len(head):
                verdict = TvcVerdict(t, "satisfied", representatives=len(head),
                                     rank3=True)
            else:
                orbits = itertools.chain(head, orbits)
                verdict = _check_tvc_exhaustive(g, order, orbits, deadline) \
                    if mode == "exhaustive" else _check_tvc_reduced(
                        g, order, k, orbits, deadline)
    except BudgetExceeded:
        verdict = TvcVerdict(t, "inconclusive")
    return replace(verdict, t=t, mode=mode, generators=len(g.generators),
                   searched=searched)


def _check_tvc_exhaustive(g: Graph, t: int, orbits, deadline) -> TvcVerdict:
    """Compare both orientations of each representative in ``orbits``
    with the forward census of the first pair of its adjacency class."""
    codes: dict = {}
    refs: dict = {}
    scanned = 0
    for (x, y), _ in orbits:
        if x > y:  # the census of (y, x) gave both orientations
            continue
        scanned += 1
        adj = g.has_edge(x, y)
        fwd, bwd = _pair_census(g, t, x, y, codes, deadline)
        ref_counts, ref_pair = refs.setdefault(adj, (fwd, (x, y)))
        for counts, pair in ((fwd, (x, y)), (bwd, (y, x))):
            if counts != ref_counts:
                return TvcVerdict(t, "violated", _mismatch_witness(
                    t, adj, ref_counts, ref_pair, counts, pair),
                    representatives=scanned)
    return TvcVerdict(t, "satisfied", representatives=scanned)


# -- anchored counting and reduced mode -----------------------------------

@lru_cache(maxsize=None)
def _placement(order: int, rows: tuple[int, ...]):
    """Twin classes of a type's additional slots (same adjacency to every
    other slot), placed in greedy order: each class's adjacency to slots
    0 and 1; per slot but the last, where the next slot's candidates come
    from (see ``count_type_anchored``); the automorphism order left when
    twins take increasing images; and whether the last class is a
    coclique of 2 or 3 twins after another class, counted as a set."""
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
    last = ordered[-1] if len(ordered) > 1 else ()
    tail = len(last) in (2, 3) and not rows[last[0]] >> last[1] & 1
    return (starts, tuple(steps), pair_fixing_aut_order(order, rows) // twins,
            tail)


def _enough_neighbours(m0: int, constraints) -> int:
    """The members of ``m0`` that have, for each constraint (m, s, k) whose
    ``m`` is small beside ``m0``, at least k members of ``m`` in their
    row of ``s``.  ``s`` must be symmetric (u in s[v] iff v in s[u]), so
    the rows of ``m``'s members are counted instead, by a saturating
    bit-sliced counter: ``atj`` holds the members of ``m0`` seen in at
    least j of them (``levels[j]`` where k > 3)."""
    for m, s, k in constraints:
        if m.bit_count() * k >= m0.bit_count():
            continue
        if k > 3:
            levels = [m0] + [0] * k
            while m:
                low = m & -m
                r = s[low.bit_length() - 1]
                m ^= low
                for j in range(k, 0, -1):
                    levels[j] |= levels[j - 1] & r
            m0 = levels[k]
        else:
            at1 = at2 = at3 = 0
            while m:
                low = m & -m
                r = s[low.bit_length() - 1]
                m ^= low
                at3 |= at2 & r
                at2 |= at1 & r
                at1 |= m0 & r
            m0 = at3 if k == 3 else at2 if k == 2 else at1
        if not m0:
            break
    return m0


def _coclique_sets(m0: int, m1: int, s1, k: int, rows) -> int | None:
    """The k-subsets of ``m1 & s1[v]`` summed over v in ``m0``, when
    ``m1`` spans no edge of ``rows`` (each is then a coclique); else
    None."""
    rest = m1
    while rest:
        low = rest & -rest
        if m1 & rows[low.bit_length() - 1]:
            return None
        rest ^= low
    total = 0
    while m0:
        low = m0 & -m0
        total += comb((m1 & s1[low.bit_length() - 1]).bit_count(), k)
        m0 ^= low
    return total


def count_type_anchored(g: Graph, ty: GraphType, pair: tuple[int, int],
                        deadline=None, _orbits=None) -> int:
    """Number of vertex subsets containing the ordered pair whose
    induced subgraph is of the given type (fixed vertices mapped to the
    pair in order).

    Slots are placed one at a time, twins in increasing order (see
    ``_placement``).  A last class that is a coclique of k = 2 or 3
    twins after another class is counted as a set at the step that
    starts it, when its candidates span no edge: each candidate adds
    C(n, k) for its n neighbours among them (see ``_coclique_sets``).
    Any other last class is placed slot by slot.

    ``_orbits`` maps the least member of each orbit of automorphisms
    fixing x and y to its size.  The first placed slot is then tried at
    those members only, each weighted by its orbit's size; the other
    twins of its class do not rise above it, so completions are counted
    as sets, which the automorphisms permute."""
    x, y = check_pair(g.n, pair)
    adj = g.has_edge(x, y)
    if ty.pair_adjacent is not None and ty.pair_adjacent != adj:
        raise ParameterError("pair adjacency does not match the type")
    _check_deadline(deadline)
    starts, plan, residual, tail = _placement(ty.order, ty.rows)
    # sel[a][v]: the vertices not adjacent (a = 0) or adjacent (a = 1) to
    # v, and those of them above v (a = 2, 3)
    sel = (g.non_rows, g.rows) + g.upper_rows
    tail = g.rows if tail else None  # _coclique_sets' rows
    # per step: where the next slot's candidate mask sits among the
    # current masks, how it narrows and how many slots it must still
    # fill; then the same for each class after it
    steps = [(skip, sel[a1], k1, [sel[a] for a in adjs], sizes)
             for skip, a1, k1, adjs, sizes in plan]
    if _orbits and plan and not plan[0][0]:  # twins in the first class
        steps[0] = (0, sel[plan[0][1] - 2]) + steps[0][2:]
        residual *= plan[0][2] + 1
    masks = [sel[a0][x] & sel[a1][y] for a0, a1 in starts]
    final = len(steps) - 1
    total = 0

    def rec(d, masks, m0):
        # m0: candidates for slot d; masks: those of the current class,
        # then of each later class
        nonlocal total
        skip, s1, k1, later, needs = steps[d]
        m1 = masks[skip]
        if d == final:
            # the last slot is counted here, by popcount
            while m0:
                low = m0 & -m0
                total += (m1 & s1[low.bit_length() - 1]).bit_count()
                m0 ^= low
            return
        _check_deadline(deadline)
        more = tuple(zip(masks[skip + 1:], later, needs))
        if skip:
            # the next slot starts a new class: the selectors towards
            # later classes are symmetric, so a candidate short of
            # neighbours in one of them is dropped by whole-row counts
            # before the test below
            m0 = _enough_neighbours(m0, ((m1, s1, k1),) + more)
            if tail is not None and not later:  # it starts the last class
                sets = _coclique_sets(m0, m1, s1, k1, tail)
                if sets is not None:
                    total += sets
                    return
        while m0:
            low = m0 & -m0
            v = low.bit_length() - 1
            m0 ^= low
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
                rec(d + 1, child, n1)

    if not steps:
        total = masks[0].bit_count() if masks else 1
    elif _orbits:
        for v in bits_of(masks[0]):
            if v in _orbits:
                before = total
                rec(0, masks, 1 << v)
                total += (_orbits[v] - 1) * (total - before)
    else:
        rec(0, masks, masks[0])
    if total % residual:
        raise AssertionError(f"{total} embeddings, {residual} per subset")
    return total // residual


def _fixer_orbits(g: Graph, x: int, y: int):
    """``count_type_anchored``'s orbits for the pair (x, y), or None."""
    fixers = g.stabilisers.fixers(x, y)
    return dict(vertex_orbits(g.n, fixers)) if fixers else None


def _check_tvc_reduced(g: Graph, t: int, k: int, orbits,
                       deadline) -> TvcVerdict:
    """Compare each type's count at each representative in ``orbits``
    with its count at the first pair of its adjacency class.  ``orbits``
    yields every edge before any non-edge and is read only as far as a
    comparison needs it."""
    # each order assumes the one below it holds; below order 4 that is
    # strong regularity, which level 2 gives
    k = check_isoregular(g, k, deadline).level
    orders = [(3, 0)] if k < 2 else [(n, k + 1) for n in range(4, t + 1)]
    fixers = lru_cache(maxsize=None)(lambda pair: _fixer_orbits(g, *pair))
    reps: list = []  # the representatives read so far; unread adds each
    unread = (reps.append(pair) or pair for pair, _ in orbits)
    for order, valency in orders:
        for ty in enumerate_types(order, valency):
            refs: dict = {}
            for pair in itertools.chain(reps, unread):
                cty = ty.concrete(g.has_edge(*pair))
                c = count_type_anchored(g, cty, pair, deadline, fixers(pair))
                ref, ref_pair = refs.setdefault(cty.pair_adjacent, (c, pair))
                if c != ref:
                    return TvcVerdict(t, "violated", TvcWitness(
                        cty, ref_pair, ref, pair, c),
                        representatives=len(reps), k=k)
    return TvcVerdict(t, "satisfied", representatives=len(reps), k=k)


# -- the K4,4 edge invariant ----------------------------------------------

class K44Census(dict):
    """Counts by edge in scan order, from ``counts_made`` anchored counts."""
    counts_made = 0


def count_k44_per_edge(g: Graph, stop_after_values: int | None = None,
                       max_edges: int | None = None) -> K44Census:
    """For each edge (x, y), the number of induced K4,4 subgraphs with x
    and y on opposite sides.

    ``stop_after_values`` ends the scan once that many distinct counts
    have been seen; ``max_edges`` caps the number of edges scanned.  An
    unordered edge orbit of the generators of ``g`` is counted once, at
    its first scanned member, with the orbits of automorphisms fixing it.
    It is keyed by the orbit of (x, y) or of (y, x); no pair starting in
    an orbit not yet searched has been keyed.  ParameterError for a cap
    that is not an int or is below 1.
    """
    for name, cap in (("stop_after_values", stop_after_values),
                      ("max_edges", max_edges)):
        if cap is not None:
            check_ints(**{name: cap})
            if cap < 1:
                raise ParameterError(f"{name} must be at least 1, got {cap}")
    out, values = K44Census(), set()
    made, bases = {}, g.stabilisers  # count by key
    for x, y in itertools.islice(g.edges(), max_edges):
        key = bases.key(x, y)
        if key not in made:
            back = bases.key(y, x) if y in bases else None
            if back in made:
                made[key] = made[back]
            else:
                made[key] = count_type_anchored(
                    g, K44_TYPE, (x, y), None, _fixer_orbits(g, x, y))
                out.counts_made += 1
        out[x, y] = count = made[key]
        values.add(count)
        if stop_after_values is not None and len(values) >= stop_after_values:
            break
    return out
