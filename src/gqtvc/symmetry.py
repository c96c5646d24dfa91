"""Verified automorphisms and the orbits the scans visit.

The scans compare counts that automorphisms preserve, so they need one
representative per orbit of any group of automorphisms; a subgroup
only makes the orbits finer.  Candidate permutations come from the
constructions and are checked against the object they act on before a
scan uses them: a geometry's must map every line onto a line
(``line_action``, O(incidences)), a bare graph's every row onto a row
(``check_automorphisms``, O(edges)).

An orbit is given by its least member in scan order and its size.
Pairs are scanned edges first, then non-edges, each (a, b) with a < b
in increasing order, for ordered pairs followed by (b, a).  The search
runs on ordered pairs; the unordered orbits are read off it.  Without
generators every pair is its own orbit, produced as it is scanned.
"""

from __future__ import annotations

import itertools

from .graph import Graph, GraphError, _check_deadline, bits_of


def _check_permutation(i: int, perm, n: int) -> None:
    if sorted(perm) != list(range(n)):
        raise GraphError(f"generator {i} is not a permutation of 0..{n - 1}")


def line_action(num_points: int, lines, perms) -> tuple[tuple[int, ...], ...]:
    """Each point permutation's action on ``lines``, by line index;
    GraphError for one that maps a line onto a point set that is not a
    line."""
    index = {tuple(sorted(line)): li for li, line in enumerate(lines)}
    out = []
    for i, perm in enumerate(perms):
        _check_permutation(i, perm, num_points)
        image = tuple(index.get(tuple(sorted(map(perm.__getitem__, line))))
                      for line in lines)
        if None in image:
            raise GraphError(f"generator {i} maps line {image.index(None)} "
                             f"off the lines")
        out.append(image)
    return tuple(out)


def check_automorphisms(rows, perms) -> None:
    """GraphError unless each permutation maps every row onto a row."""
    for i, perm in enumerate(perms):
        _check_permutation(i, perm, len(rows))
        moved = [1 << v for v in perm]
        for v, row in enumerate(rows):
            if sum(map(moved.__getitem__, bits_of(row))) != rows[perm[v]]:
                raise GraphError(f"generator {i} maps the neighbours of {v} "
                                 f"off those of {perm[v]}")


def vertex_orbits(n: int, gens) -> list[tuple[int, int]]:
    """(least member, size) of each orbit on 0..n-1, in vertex order."""
    if not gens:
        return [(v, 1) for v in range(n)]
    seen = bytearray(n)
    out = []
    for v in range(n):
        if seen[v]:
            continue
        seen[v] = 1
        members = [v]
        for u in members:
            for s in gens:
                w = s[u]
                if not seen[w]:
                    seen[w] = 1
                    members.append(w)
        out.append((v, len(members)))
    return out


def scan_pairs(g: Graph):
    """The ordered pairs of ``g`` in scan order."""
    for a, b in itertools.chain(g.edges(), g.non_edges()):
        yield a, b
        yield b, a


def _pair_orbit(g: Graph, pair, seen: bytearray, deadline=None) -> list[int]:
    """The orbit of the ordered ``pair`` as codes x * n + y, marked in
    ``seen``."""
    n, gens = g.n, g.generators
    x, y = pair
    seen[x * n + y] = 1
    members = [x * n + y]
    for i, code in enumerate(members):
        if not i & 4095:
            _check_deadline(deadline)
        u, v = divmod(code, n)
        for s in gens:
            image = s[u] * n + s[v]
            if not seen[image]:
                seen[image] = 1
                members.append(image)
    return members


def unordered_orbits(ordered):
    """``(pair, size)`` for the orbits on unordered pairs (a, b), a < b,
    from the orbits on ordered pairs in scan order.  The reverses of an
    orbit O are an orbit with the same unordered pairs; it is O itself,
    or the orbit whose least member (b, a) is scanned right after O's
    (a, b).  Either way the unordered orbit holds half the ordered pairs
    of the orbits it merges."""
    pair = size = None
    for (x, y), count in ordered:
        if x > y:  # the reverses of the orbit before
            size += count
            continue
        if pair is not None:
            yield pair, size // 2
        pair, size = (x, y), count
    if pair is not None:
        yield pair, size // 2


def pair_orbits(g: Graph, ordered: bool = True, deadline=None):
    """Yield ``(pair, size)`` for each orbit of the generators of ``g``
    on its ordered pairs, or on its unordered pairs (a, b) with a < b,
    at the orbit's least member in scan order.  Raises BudgetExceeded
    once ``deadline`` (``time.monotonic()``) has passed."""
    if not ordered:
        yield from unordered_orbits(pair_orbits(g, True, deadline))
        return
    if not g.generators:
        for pair in scan_pairs(g):
            yield pair, 1
        return
    seen = bytearray(g.n * g.n)
    for x, y in scan_pairs(g):
        if not seen[x * g.n + y]:
            yield (x, y), len(_pair_orbit(g, (x, y), seen, deadline))


def orbit_of(g: Graph, pair) -> list[tuple[int, int]]:
    """The ordered pairs in the orbit of ``pair``."""
    if not g.generators:
        return [tuple(pair)]
    members = _pair_orbit(g, pair, bytearray(g.n * g.n))
    return [divmod(code, g.n) for code in members]
