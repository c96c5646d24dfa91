"""Graph and geometry validation against the per-edge and per-pair
checks they replaced, kept here as oracles: the same inputs must be
accepted, and the same ones rejected with the same message or witness."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqtvc.geometry import PartialLinearSpace, PlsResult, point_graph, validate_pls
from gqtvc.graph import Graph, GraphError, bits_of

from conftest import geometry


def per_edge_graph_check(n, rows):
    """``Graph``'s checks one row at a time: range, loop, then each edge
    of the row for its reverse."""
    if n < 0 or len(rows) != n:
        raise GraphError("row count must equal vertex count")
    mask = (1 << n) - 1
    for i, r in enumerate(rows):
        if r & ~mask:
            raise GraphError(f"row {i} has bits outside 0..{n - 1}")
        if (r >> i) & 1:
            raise GraphError(f"loop at vertex {i}")
        for j in bits_of(r):
            if not (rows[j] >> i) & 1:
                raise GraphError(f"adjacency not symmetric at ({i},{j})")


def pair_dict_validate_pls(pls):
    """``validate_pls`` with a dict of every collinear pair."""
    if pls.num_points < 1:
        return PlsResult(False, witness=("no points",))
    line_sizes = set()
    pair_seen = {}
    point_deg = [0] * pls.num_points
    for li, line in enumerate(pls.lines):
        if len(line) < 2:
            return PlsResult(False, witness=("short line", li, line))
        if len(set(line)) != len(line):
            return PlsResult(False, witness=("repeated point", li, line))
        for p in line:
            if not 0 <= p < pls.num_points:
                return PlsResult(False, witness=("point out of range", li, p))
            point_deg[p] += 1
        line_sizes.add(len(line))
        for a in range(len(line)):
            for b in range(a + 1, len(line)):
                key = (line[a], line[b])
                if key in pair_seen:
                    return PlsResult(False, witness=("lines share two points",
                                                     pair_seen[key], li, key))
                pair_seen[key] = li
    if len(line_sizes) != 1:
        return PlsResult(False, witness=("line sizes differ", sorted(line_sizes)))
    if len(set(point_deg)) != 1:
        lo = point_deg.index(min(point_deg))
        hi = point_deg.index(max(point_deg))
        return PlsResult(False, witness=("point degrees differ", lo, hi))
    s = line_sizes.pop() - 1
    t = point_deg[0] - 1
    if t < 0:
        return PlsResult(False, witness=("isolated points",))
    if pls.order is not None and pls.order != (s, t):
        return PlsResult(False, witness=("declared order mismatch", pls.order, (s, t)))
    return PlsResult(True, order=(s, t))


def outcome(check, *args):
    try:
        check(*args)
    except GraphError as exc:
        return str(exc)
    return None


SEEDS = st.integers(0, 2 ** 32 - 1)


def random_rows(n, rng):
    rows = [0] * n
    p = rng.random()
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < p:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 70), SEEDS)
def test_one_flipped_bit_gets_the_same_verdict(n, seed):
    rng = random.Random(seed)
    rows = random_rows(n, rng)
    if n:
        # bits up to n + 2 of a row: an edge made or lost, a loop, or a
        # bit out of range
        rows[rng.randrange(n)] ^= 1 << rng.randrange(n + 3)
    rows = tuple(rows)
    assert outcome(Graph, n, rows) == outcome(per_edge_graph_check, n, rows)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 70), SEEDS)
def test_several_faults_name_the_same_first_one(n, seed):
    rng = random.Random(seed)
    rows = random_rows(n, rng)
    for _ in range(rng.randrange(2, 5)):
        rows[rng.randrange(n)] ^= 1 << rng.randrange(n + 3)
    if rng.random() < 0.2:
        rows[rng.randrange(n)] = -rng.randrange(1, 1 << n)
    rows = tuple(rows)
    assert outcome(Graph, n, rows) == outcome(per_edge_graph_check, n, rows)


@pytest.mark.parametrize("n", [7, 8, 9, 63, 64, 65, 71, 72, 73, 80])
def test_asymmetry_at_every_corner(n):
    # each (i, j) alone, near the block boundaries of the transpose
    full = (1 << n) - 1
    rows = [full ^ 1 << i for i in range(n)]
    assert outcome(Graph, n, tuple(rows)) is None
    for i, j in itertools.permutations({0, 1, n // 2, n - 2, n - 1}, 2):
        cut = list(rows)
        cut[j] ^= 1 << i
        assert outcome(Graph, n, tuple(cut)) \
            == outcome(per_edge_graph_check, n, tuple(cut)) \
            == f"adjacency not symmetric at ({i},{j})"


def grid(lines, num_points=9, order=None):
    """Direct construction: lines kept as given (sorted tuples)."""
    return PartialLinearSpace(num_points, tuple(map(tuple, lines)), order)


GRID = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8)]

CRAFTED = {
    "good": grid(GRID),
    "no points": grid([], 0),
    "shared pair": grid(GRID + [(0, 1, 8)]),
    "shared later pair": grid(GRID + [(0, 5, 8)]),
    "shared pair, later pencil line": grid([(0, 1, 5), (0, 2, 6), (3, 4, 7),
                                            (0, 2, 4)], 8),
    "repeated point": grid(GRID[:2] + [(6, 6, 7)] + GRID[3:]),
    "point out of range": grid(GRID[:4] + [(1, 4, 9)] + GRID[5:]),
    "negative point": grid([(-1, 0, 1)] + GRID[1:]),
    "short line": grid(GRID[:3] + [(4,)] + GRID[3:]),
    "empty line": grid([()] + GRID),
    "uneven degrees": grid(GRID + [(0, 4, 8)]),
    "line sizes differ": grid(GRID[:5] + [(2, 5)]),
    "no lines": grid([], 3),
    "order mismatch": grid(GRID, order=(2, 2)),
    # a fault in a line stops the scan before later shared pairs ...
    "short line first": grid(GRID[:2] + [(8,)] + GRID[2:] + [(0, 1, 8)]),
    # ... and a shared pair before a faulty line is named first
    "shared pair first": grid(GRID + [(0, 1, 8), (9, 10)]),
}


@pytest.mark.parametrize("name", CRAFTED)
def test_crafted_geometries_get_the_same_witness(name):
    pls = CRAFTED[name]
    assert validate_pls(pls) == pair_dict_validate_pls(pls)


def test_crafted_witness_kinds():
    kinds = {name: validate_pls(pls).witness and validate_pls(pls).witness[0]
             for name, pls in CRAFTED.items()}
    assert kinds["good"] is None
    assert kinds["shared pair"] == kinds["shared pair first"] \
        == "lines share two points"
    assert validate_pls(CRAFTED["shared later pair"]).witness \
        == ("lines share two points", 5, 6, (5, 8))
    assert validate_pls(CRAFTED["shared pair, later pencil line"]).witness \
        == ("lines share two points", 1, 3, (0, 2))
    assert kinds["short line first"] == "short line"
    assert kinds["uneven degrees"] == "point degrees differ"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), SEEDS)
def test_random_geometries_get_the_same_witness(n, seed):
    rng = random.Random(seed)
    size = rng.randrange(1, 5)
    lines = [tuple(sorted(rng.choice((rng.sample(range(n), min(size, n)),
                                      rng.choices(range(-1, n + 1), k=size)))))
             for _ in range(rng.randrange(0, 12))]
    pls = PartialLinearSpace(n, tuple(lines))
    assert validate_pls(pls) == pair_dict_validate_pls(pls)


@pytest.mark.parametrize("name, dual", [(n, d) for n in ("w2", "w3", "q5_2",
                                                          "q5_3", "t2star")
                                        for d in (False, True)])
def test_constructions_get_the_same_order(name, dual):
    pls = geometry(name, dual)
    assert validate_pls(pls) == pair_dict_validate_pls(pls)
    # the point graph's rows are the pairs of the lines
    pairs = {frozenset(p) for line in pls.lines
             for p in itertools.combinations(line, 2)}
    assert set(map(frozenset, point_graph(pls).edges())) == pairs


def test_one_line_moved_onto_a_pair():
    # W(3) with a point of one line replaced so that it meets another
    # line in two points, at every position of the scan
    pls = geometry("w3")
    rng = random.Random(5)
    for li in rng.sample(range(len(pls.lines)), 12):
        lines = list(pls.lines)
        other = pls.lines[rng.randrange(len(lines))]
        keep = [p for p in lines[li] if p not in other][:2]
        lines[li] = tuple(sorted(set(keep) | set(other[:2])))
        broken = PartialLinearSpace(pls.num_points, tuple(lines), pls.order)
        assert validate_pls(broken) == pair_dict_validate_pls(broken)
