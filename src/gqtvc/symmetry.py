"""Verified automorphisms and the orbits the scans visit.

The scans compare counts that automorphisms preserve, so they need one
representative per orbit of any group of automorphisms; a subgroup
only makes the orbits finer.  Candidate permutations come from the
constructions, or, for a graph without any (graph6 input, a graph built
by hand), from ``automorphisms``, a bounded search that ``check_tvc``
runs; a search cut short by its work bound has found a subgroup, so
its orbits are still sound.  Every candidate is checked against the
object it acts on before a scan uses it: a geometry's must map every
line onto a line (``line_action``, O(incidences)), a bare graph's
every row onto a row (``check_automorphisms``, O(edges)).

An orbit is given by its least member in scan order and its size.
Pairs are scanned edges first, then non-edges, each (a, b) with a < b
in increasing order, for ordered pairs followed by (b, a).  The orbits
on ordered pairs (x, y) with x in a vertex orbit O are those of the
stabiliser of a root r in O on y (Seress, *Permutation Group
Algorithms*, 2003): one search per vertex orbit keeps a Schreier
vector of O and a label row per x in O, each step a permutation of a
row, with no table of the n^2 pairs.  ``Stabilisers`` holds the
searches, one per graph (``Graph.stabilisers``), and every orbit
question reads from it: the pair orbits, the key of a pair's orbit, and
the automorphisms fixing a pair, Schreier generators drawn at those two
levels from fixed seeds; a count that weights by their orbits holds for
any subgroup of the pair stabiliser.  The orbits on unordered pairs are
read off the ordered ones, at their members (a, b) with a < b.  Without
generators every pair is its own orbit.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from operator import itemgetter

from .graph import BudgetExceeded, Graph, GraphError, _check_deadline, bits_of


def _check_permutation(i: int, perm, n: int) -> None:
    if sorted(perm) != list(range(n)):
        raise GraphError(f"generator {i} is not a permutation of 0..{n - 1}")


def line_action(num_points: int, lines, perms) -> tuple[tuple[int, ...], ...]:
    """Each point permutation's action on ``lines``, by line index;
    GraphError for one that maps a line onto a point set that is not a
    line."""
    index = {tuple(sorted(line)): li for li, line in enumerate(lines)}
    # itemgetter of one point returns the point, not a 1-tuple
    getters = [itemgetter(*line) if len(line) > 1
               else lambda perm, line=line: [perm[p] for p in line]
               for line in lines]
    out = []
    for i, perm in enumerate(perms):
        _check_permutation(i, perm, num_points)
        image = tuple(index.get(tuple(sorted(get(perm)))) for get in getters)
        if None in image:
            raise GraphError(f"generator {i} maps line {image.index(None)} "
                             f"off the lines")
        out.append(image)
    return tuple(out)


def _moved_row(rows, perm) -> int | None:
    """The first vertex whose neighbours ``perm`` maps off those of its
    image, or None."""
    moved = [1 << v for v in perm]
    return next((v for v, row in enumerate(rows)
                 if sum(map(moved.__getitem__, bits_of(row)))
                 != rows[perm[v]]), None)


def check_automorphisms(rows, perms) -> None:
    """GraphError unless each permutation maps every row onto a row."""
    for i, perm in enumerate(perms):
        _check_permutation(i, perm, len(rows))
        v = _moved_row(rows, perm)
        if v is not None:
            raise GraphError(f"generator {i} maps the neighbours of {v} "
                             f"off those of {perm[v]}")


def _orbit(vs, gens, seen: bytearray) -> list[int]:
    """The union of the orbits of ``vs``, marked in ``seen``."""
    members = [v for v in vs if not seen[v]]
    for v in members:
        seen[v] = 1
    for u in members:
        for s in gens:
            if not seen[s[u]]:
                seen[s[u]] = 1
                members.append(s[u])
    return members


def vertex_orbits(n: int, gens) -> list[tuple[int, int]]:
    """(least member, size) of each orbit on 0..n-1, in vertex order."""
    seen = bytearray(n)
    return [(v, len(_orbit([v], gens, seen))) for v in range(n)
            if not seen[v]]


def scan_pairs(g: Graph):
    """The ordered pairs of ``g`` in scan order."""
    for a, b in itertools.chain(g.edges(), g.non_edges()):
        yield a, b
        yield b, a


def _root(up: list[int], a: int) -> int:
    """The root of ``a`` in the forest ``up``, halving the path to it."""
    while up[a] != a:
        up[a] = up[up[a]]
        a = up[a]
    return a


def _inverse(perm) -> list[int]:
    inverse = [0] * len(perm)
    for i, v in enumerate(perm):
        inverse[v] = i
    return inverse


def _stabiliser(n: int, gens, r: int, deadline=None):
    """``(rows, via)`` for the orbit O of ``r`` under the permutations
    ``gens`` of 0..n-1.  ``via``, a Schreier vector, gives each x in O
    (in search order) the u and the inverse of the generator s with
    s(u) = x that first reached it, and so a product w[x] = w[u] s^-1
    mapping x to ``r``.  ``rows[x]`` is lab w[x], the labels of the
    pairs (x, .), where ``lab = rows[r]`` labels each v by the least
    vertex of its orbit under the stabiliser of ``r``.  The stabiliser is generated by the Schreier generators
    w[s(x)] s w[x]^-1 (Sims, 1970), which fix ``lab`` exactly when
    rows[s(x)] s = rows[x].  ``lab`` starts discrete; where the two rows
    differ, their labels are merged and every row is relabelled.
    Merging keeps every generator checked before fixed, so one pass over
    the (x, s) suffices, and the pairs of the spanning tree, whose
    generator is the identity, are skipped."""
    moves = [(s, itemgetter(*s), itemgetter(*_inverse(s))) for s in gens]
    up = list(range(n))
    rows, via, order = {r: tuple(up)}, {r: None}, [r]
    for x in order:
        _check_deadline(deadline)
        for s, move, inverse in moves:
            y = s[x]
            if y not in rows:
                rows[y], via[y] = inverse(rows[x]), (x, inverse)
                order.append(y)
                continue
            other = move(rows[y])
            if other != rows[x]:
                for a, b in zip(other, rows[x]):
                    if a != b:
                        a, b = _root(up, a), _root(up, b)
                        up[max(a, b)] = min(a, b)
                # a label is a member of its class, so its root relabels it
                lab = [_root(up, c) for c in range(n)]
                rows = {z: itemgetter(*row)(lab) for z, row in rows.items()}
    return rows, via


def pair_orbits(g: Graph, deadline=None):
    """Yield ``(pair, size)`` for each orbit of the generators of ``g``
    on its ordered pairs, at the orbit's least member in scan order, from
    ``g.stabilisers``.  Raises BudgetExceeded once ``deadline``
    (``time.monotonic()``) has passed.

    The members (a, b) with a < b are the least members of the orbits on
    unordered pairs, in scan order.  An orbit O and its reverse hold the
    same unordered pairs; their least, {a, b}, is (a, b) in one of them
    and (b, a) in the other, and (a, b), scanned first, is the least
    member of its orbit.  The other orbit's least member is (b, a), as
    each of its other members has a larger {min, max}; when O is its own
    reverse, its least member is (a, b)."""
    if not g.generators or g.n < 2:
        for pair in scan_pairs(g):
            yield pair, 1
        return

    def key(pair):
        x, y = pair
        return not g.has_edge(x, y), min(pair), max(pair), x > y

    reps = [r for r, _ in vertex_orbits(g.n, g.generators)]
    found = []
    for r in reps:
        _, rows, _ = g.stabilisers.search(r, deadline)
        # the least vertex of an orbit's least member is the least of a
        # vertex orbit: the member is (r, c), c the least of its class, or
        # (x, r2), r2 in reps and x least; a class's vertices are in the
        # orbit of one r2
        firsts = {}
        for x in sorted(rows):
            for r2 in reps:
                firsts.setdefault(rows[x][r2], (x, r2))
        least = {c: v for v, c in reversed(list(enumerate(rows[r])))}
        sizes = Counter(rows[r])
        del sizes[rows[r][r]]  # the pair (r, r)
        for label, size in sizes.items():
            pair = min((r, least[label]), firsts[label], key=key)
            found.append((key(pair), pair, len(rows) * size))
    for _, pair, size in sorted(found):
        yield pair, size


# Schreier generators drawn at each level of ``Stabilisers.fixers``.  On
# dual Payne's 74 pair representatives, 16 leave 3 % more vertex
# orbits than 64 at a quarter of the cost, and 8 leave twice as many.
FIXERS = 16


def _walker(via, n: int):
    """x -> w[x], mapping x to the root of the Schreier vector ``via`` on
    0..n-1 (its first point), w[x] = undo(w[u]) for via[x] = (u, undo):
    each built once, by a loop (a vector can be n - 1 deep) from the
    nearest one built before."""
    ws = {next(iter(via)): tuple(range(n))}

    def walk(x):
        path = []
        while x not in ws:
            path.append(x)
            x = via[x][0]
        w = ws[x]
        for y in reversed(path):
            w = ws[y] = via[y][1](w)
        return w
    return walk


def _schreier(via, walk, gens, seed: int) -> list[tuple[int, ...]]:
    """``FIXERS`` Schreier generators w[s(u)] s w[u]^-1 of the stabiliser
    of the root of the Schreier vector ``via`` (Sims, 1970), u drawn from
    its points in search order and s from ``gens`` by ``seed``; ``walk``
    is a ``_walker`` of ``via``."""
    rng, points = random.Random(seed), list(via)
    draws = [(rng.choice(points), rng.choice(gens)) for _ in range(FIXERS)]
    return [itemgetter(*itemgetter(*_inverse(walk(u)))(s))(walk(s[u]))
            for u, s in draws]


class Stabilisers(dict):
    """``self[x]``: ``(r, rows, via)`` from ``_stabiliser`` on the
    permutations ``generators`` of 0..n-1, r the first vertex of x's
    orbit searched; each orbit is searched once, and every orbit
    question reads from it.  It keeps no graph, so a graph holding one
    is freed as soon as it is dropped."""

    def __init__(self, n: int, generators):
        super().__init__()
        self.n, self.generators = n, generators
        self.moves = {}  # by r: Schreier generators of its stabiliser

    def search(self, x, deadline=None):
        """``self[x]``, searching x's orbit if no search has reached it;
        a search cut short at ``deadline`` stores nothing."""
        if x not in self:
            rows, via = _stabiliser(self.n, self.generators, x, deadline)
            self.update(dict.fromkeys(rows, (x, rows, via)))
        return self[x]

    def key(self, x, y):
        """The same for two ordered pairs exactly when they share an orbit;
        ``(x, y)`` without generators, each pair its own orbit."""
        if not self.generators:
            return x, y
        r, rows, _ = self.search(x)
        return r, rows[x][y]

    def fixers(self, x, y) -> tuple[tuple[int, ...], ...]:
        """Automorphisms fixing x and y, products of the generators:
        Schreier generators of G_r (drawn once per r), then of their
        stabiliser of c = w[x](y), conjugated by w[x]; each w is walked
        once per vector and call, none kept.  They generate a subgroup
        of the pair's stabiliser, as large as fixed seeds make it."""
        if not self.generators:
            return ()
        r, _, via = self.search(x)
        walk = _walker(via, self.n)
        if r not in self.moves:
            self.moves[r] = [(s, itemgetter(*_inverse(s))) for s in
                             _schreier(via, walk, self.generators, 0)]
        wx = walk(x)
        tree, order = {wx[y]: None}, [wx[y]]  # c's orbit, as in _stabiliser
        for z in order:
            for s, inverse in self.moves[r]:
                if s[z] not in tree:
                    tree[s[z]] = z, inverse
                    order.append(s[z])
        into, back = itemgetter(*wx), _inverse(wx)
        found = _schreier(tree, _walker(tree, self.n),
                          [s for s, _ in self.moves[r]], 1)
        return tuple({itemgetter(*into(h))(back) for h in found}
                     - {tuple(range(self.n))})


def _refine(rows, cells: dict[int, int], queue: list[int],
            charge) -> dict[int, int]:
    """``cells`` (each cell's vertex bitmask by its first position)
    refined until no splitter in ``queue`` splits a cell.  A cell splits
    by its members' numbers of neighbours in the splitter (in binary, one
    bitmask per digit), the parts in order of that number; all but the
    first largest are queued (Hopcroft).  No step depends on labels, so
    an automorphism maps a refinement onto that of the image.  Each
    splitter's work goes to ``charge``: a unit per row it adds to the
    counts and per cell it splits by a digit.  Digits split a cell by mask
    operations, measured 1.2-1.5 times as fast as grouping its members one
    by one by ``(rows[v] & splitter).bit_count()``."""
    cells = dict(cells)
    wide = sorted(p for p, c in cells.items() if c & (c - 1))
    while queue and wide:
        digits: list[int] = []
        splitter = queue.pop()
        for u in bits_of(splitter):
            carry = rows[u]
            for j, d in enumerate(digits):
                digits[j] = d ^ carry
                carry &= d
                if not carry:
                    break
            if carry:
                digits.append(carry)
        charge(splitter.bit_count() + len(wide) * len(digits))
        still = []
        for p in wide:
            parts = [cells[p]]
            for d in reversed(digits):
                parts = [q for c in parts for q in (c & ~d, c & d) if q]
            big = parts.index(max(parts, key=int.bit_count))
            queue += parts[:big] + parts[big + 1:]
            for c in parts:
                cells[p] = c
                if c & (c - 1):
                    still.append(p)
                p += c.bit_count()
        wide = still
    return cells


def _individualise(rows, cells: dict[int, int], p: int, v: int,
                   charge) -> dict[int, int]:
    """``cells`` with ``v`` split off in front of the cell at ``p``."""
    return _refine(rows, cells | {p: 1 << v, p + 1: cells[p] ^ 1 << v},
                   [1 << v], charge)


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


# refinement work units per n^2 that one search may spend.  A unit takes
# 2-5 us and an order-4 census the time of 0.7n-2.4n units, so a search
# costs at most 3n-11n such censuses.  The graphs in the tests need at
# most 6.2 n^2 (a Chang graph); a rigid graph spends it all.
SEARCH_WORK = 8


def automorphisms(g: Graph, deadline=None) -> tuple[tuple[int, ...], ...]:
    """Generators of the automorphism group of ``g``, by individualisation
    and refinement (McKay & Piperno, 2014).  The first path splits off
    the least vertex of the first non-singleton cell until the partition
    is discrete.  Deepest level first, each vertex of a level's target
    cell is then tried for its base point, unless the automorphisms found
    so far (which fix the base points above) map the base point or a
    vertex tried in vain onto it.  Below, the search follows the first
    path's target cells, drops partitions whose cells start elsewhere,
    and keeps the first leaf that the first leaf maps onto by an
    automorphism.  After ``SEARCH_WORK * n * n`` units of refinement
    work (see ``_refine``) it returns what it has, a subgroup, whose
    finer orbits are still sound.  Raises BudgetExceeded once
    ``deadline`` has passed."""
    rows, n = g.rows, g.n
    found: list[tuple[int, ...]] = []
    work = [SEARCH_WORK * n * n]

    def charge(units):
        work[0] -= units
        if work[0] < 0:
            raise BudgetExceeded()
        _check_deadline(deadline)

    def leaf(cells, level):
        """The automorphism from the first leaf to a leaf below ``cells``,
        or None."""
        if cells.keys() != path[level][0].keys():
            return None
        if level == len(path) - 1:
            perm = [0] * n
            for p, c in cells.items():
                perm[_low(path[-1][0][p])] = _low(c)
            return None if _moved_row(rows, perm) is not None else tuple(perm)
        p = path[level][1]
        for v in bits_of(cells[p]):
            perm = leaf(_individualise(rows, cells, p, v, charge), level + 1)
            if perm is not None:
                return perm
        return None

    try:
        # per level: the partition and the position of its target cell
        path = [(_refine(rows, {0: g.full_mask}, [g.full_mask], charge), 0)]
        while len(path[-1][0]) < n:
            cells = path[-1][0]
            p = min(p for p, c in cells.items() if c & (c - 1))
            path[-1] = cells, p
            path.append((_individualise(rows, cells, p, _low(cells[p]),
                                        charge), 0))
        for level in reversed(range(len(path) - 1)):
            cells, p = path[level]
            tried = [_low(cells[p])]  # the base point, then the failures
            _orbit(tried, found, seen := bytearray(n))
            for v in bits_of(cells[p]):
                if not seen[v]:
                    perm = leaf(_individualise(rows, cells, p, v, charge),
                                level + 1)
                    if perm is None:
                        tried.append(v)
                    else:
                        found.append(perm)
                    _orbit(tried, found, seen := bytearray(n))
    except BudgetExceeded:
        if work[0] >= 0:  # the deadline, not the work bound
            raise
    return tuple(found)
