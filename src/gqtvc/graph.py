"""Dense undirected graphs with bit-vector adjacency rows.

Every counting kernel in this package works on neighbourhood
intersections, so adjacency is stored as one Python int bitmask per
vertex.  Graphs are immutable after construction.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache

MAX_CANON_ORDER = 10


class GraphError(ValueError):
    pass


class ParameterError(GraphError):
    """An argument outside what a computation supports: a level, order,
    mode or vertex."""


class BudgetExceeded(Exception):
    pass


def _check_deadline(deadline: float | None) -> None:
    """Raise BudgetExceeded once ``time.monotonic()`` passes ``deadline``."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded()


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``rows[i]`` has bit j set iff i and j are adjacent.  The adjacency
    is symmetric with a zero diagonal: each row is checked for bits out
    of range and for a loop, and the matrix is compared with its
    transpose in one bit-matrix transpose of O(n²/word) work (see
    ``_asymmetry``).  ``generators`` are vertex permutations the scans
    may reduce by (see ``symmetry``); each is checked to map every row
    onto a row, unless ``checked`` says the caller has checked them
    already (``point_graph`` checks them on the lines of its geometry).
    They are not part of equality.
    """

    n: int
    rows: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...] = field(
        default=(), compare=False, repr=False)
    checked: InitVar[bool] = False

    def __post_init__(self, checked):
        n, rows = self.n, self.rows
        if n < 0 or len(rows) != n:
            raise GraphError("row count must equal vertex count")
        mask = (1 << n) - 1
        bad = next((i for i, r in enumerate(rows) if r & ~mask or r >> i & 1), n)
        # rows are checked in order, each for range, loop, then an edge
        # missing its reverse, so the first faulty row is the one named
        at = _asymmetry(rows if bad == n else [r & mask for r in rows], n)
        if at is not None and at[0] < bad:
            raise GraphError(f"adjacency not symmetric at ({at[0]},{at[1]})")
        if bad < n:
            raise GraphError(f"row {bad} has bits outside 0..{n - 1}"
                             if rows[bad] & ~mask else f"loop at vertex {bad}")
        if self.generators and not checked:
            from .symmetry import check_automorphisms
            check_automorphisms(rows, self.generators)

    # -- basic accessors -------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def non_rows(self) -> tuple[int, ...]:
        """``non_rows[i]`` has bit j set iff j != i and i, j are not
        adjacent."""
        full = self.full_mask
        return tuple(full & ~(r | (1 << i)) for i, r in enumerate(self.rows))

    @cached_property
    def stabilisers(self):
        """The orbit searches of ``generators``, kept while the graph lives."""
        from .symmetry import Stabilisers
        return Stabilisers(self.n, self.generators)

    @cached_property
    def searched(self) -> dict:
        """Under ``"graph"``, the copy of the graph with the generators
        that ``symmetry.automorphisms`` found, which ``check_tvc`` keeps
        and scans while the graph lives."""
        return {}

    @cached_property
    def upper_rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``non_rows`` and ``rows`` with each row i cut to the vertices
        above i."""
        return tuple(tuple(r & -(2 << i) for i, r in enumerate(rs))
                     for rs in (self.non_rows, self.rows))

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1) and i != j

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self):
        return ((i, j) for i, r in enumerate(self.upper_rows[1])
                for j in bits_of(r))

    def non_edges(self):
        return ((i, j) for i, r in enumerate(self.upper_rows[0])
                for j in bits_of(r))


def _asymmetry(rows, n: int) -> tuple[int, int] | None:
    """The first (i, j) in row order with j in ``rows[i]`` and i not in
    ``rows[j]`` (rows of bits 0..n-1), or None.

    The rows are laid end to end, row i at byte i * w on, padded to
    ``size`` rows of w = size/8 bytes, size the least multiple of 8
    >= max(n, 8).  The transpose takes byte J of row 8I + r to byte I of
    row 8J + r, one strided slice per row, then transposes each 8 x 8
    block by swapping the off-diagonal b x b corners of its 2b x 2b
    blocks, b = 4, 2, 1: three rounds of shifts and masks over the
    whole matrix (Warren, *Hacker's Delight*, 7-3)."""
    size = max(8, -(-n // 8) * 8)
    w = size // 8
    data = b"".join(r.to_bytes(w, "little") for r in rows) + bytes(w * (size - n))
    x = int.from_bytes(b"".join(data[c % 8 * w + c // 8::8 * w]
                                for c in range(size)), "little")
    for b, cols in ((4, b"\xf0"), (2, b"\xcc"), (1, b"\xaa")):
        # bit (i, j + b) for i, j with bit b clear swaps with (i + b, j);
        # ``cols`` has bit j set where j has bit b set
        m = int.from_bytes((cols * (w * b) + bytes(w * b)) * (size // (2 * b)),
                           "little")
        d = b * (size - 1)
        t = (x ^ x >> d) & m
        x ^= t ^ t << d
    matrix = int.from_bytes(data, "little")
    if x == matrix:
        return None
    lost = matrix & ~x  # bit (i, j) of the matrix without bit (j, i)
    return divmod((lost & -lost).bit_length() - 1, size)


def bits_of(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def graph_from_edges(n: int, edges) -> Graph:
    rows = [0] * n
    for i, j in edges:
        if i == j:
            raise GraphError(f"loop pair ({i},{j})")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"endpoint out of range in ({i},{j})")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def complement(g: Graph) -> Graph:
    # an automorphism of g is one of its complement
    return Graph(g.n, g.non_rows, g.generators, checked=True)


def induced_subgraph(g: Graph, vs) -> Graph:
    vs = list(vs)
    if len(set(vs)) != len(vs):
        raise GraphError("duplicate vertex in induced subgraph")
    rows = []
    for u in vs:
        r = 0
        for b, w in enumerate(vs):
            if u != w and (g.rows[u] >> w) & 1:
                r |= 1 << b
        rows.append(r)
    return Graph(len(vs), tuple(rows))


_SPREAD = bytes.maketrans(b"01", b"\0\1")


def counter_spreader(n: int, top: int):
    """``(spread, width)``: spread maps an n-bit row (n >= 1) to n
    byte-aligned ``width``-bit fields for counts up to ``top``, bit j to
    field j; field j of a sum of spread rows counts its rows with bit j."""
    size = max(1, (top.bit_length() + 7) // 8)
    buf = bytearray(n * size)
    fmt = f"0{n}b"

    def spread(row: int) -> int:
        buf[size - 1::size] = format(row, fmt).encode().translate(_SPREAD)
        return int.from_bytes(buf, "big")

    return spread, 8 * size


def counter_row(counts, width: int) -> int:
    """The row whose field j, laid out as by ``counter_spreader`` with
    ``width``-bit fields, holds ``counts[j]``."""
    return int.from_bytes(b"".join(c.to_bytes(width // 8, "big")
                                   for c in reversed(counts)), "big")


# -- canonical forms for small graphs ------------------------------------

@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Canonical form of a graph of order <= 10.

    ``bits`` is the lexicographically least upper-triangle adjacency
    bitmask over the allowed relabelings.  When a distinguished pair is
    present it occupies slots 0 and 1, the bit for the pair itself is
    kept out of ``bits`` and recorded in ``pair_flag``.
    """

    order: int
    bits: int
    pair_flag: bool | None = None


@lru_cache(maxsize=None)
def _bit_positions(t: int, skip01: bool) -> dict[tuple[int, int], int]:
    pos = {}
    idx = 0
    for i in range(t):
        for j in range(i + 1, t):
            if skip01 and i == 0 and j == 1:
                continue
            pos[(i, j)] = idx
            idx += 1
    return pos


def rows_from_bits(bits: int, t: int) -> tuple[int, ...]:
    """Rows of the order-t type whose non-pair upper-triangle bits are
    ``bits`` (the bit layout of ``pair_codes``), without the 0-1 edge."""
    rows = [0] * t
    for (i, j), p in _bit_positions(t, True).items():
        if (bits >> p) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


def _block_perms(blocks):
    """All orderings obtained by permuting each invariant block internally."""
    for parts in itertools.product(*[itertools.permutations(b) for b in blocks]):
        yield tuple(v for part in parts for v in part)


def _relabelled_bits(rows, t: int, orderings, skip01: bool):
    """Yield the upper-triangle bits of ``rows`` relabelled by each
    ordering (slot i holds vertex ``perm[i]``)."""
    items = tuple(_bit_positions(t, skip01).items())
    for perm in orderings:
        bits = 0
        for (i, j), p in items:
            if (rows[perm[i]] >> perm[j]) & 1:
                bits |= 1 << p
        yield bits


def _grouped(vertices, key):
    """Partition ``vertices`` into blocks of equal ``key``, sorted by key."""
    groups: dict = {}
    for v in vertices:
        groups.setdefault(key(v), []).append(v)
    return [groups[k] for k in sorted(groups)]


def pair_relabellings(rows, t: int, a: int = 0, b: int = 1):
    """Non-pair upper-triangle bits over the orderings that put a, b in
    slots 0, 1 and permute each block of the other vertices, a block
    being the vertices of equal adjacency to a and b and equal degree.
    Every automorphism fixing a and b maps each block to itself, so its
    composite with any ordering is again among these orderings."""
    blocks = _grouped((v for v in range(t) if v != a and v != b),
                      lambda v: ((rows[v] >> a) & 1, (rows[v] >> b) & 1,
                                 rows[v].bit_count()))
    return _relabelled_bits(rows, t, ((a, b) + tail for tail in
                                      _block_perms(blocks)), skip01=True)


def pair_codes(rows, t: int) -> tuple[int, int]:
    """Least non-pair upper-triangle bits over the relabelings that keep
    the distinguished pair in slots 0, 1: in order (``fwd``) and with
    the two slots swapped (``bwd``, the ``fwd`` code of the mirror)."""
    return (min(pair_relabellings(rows, t)),
            min(pair_relabellings(rows, t, 1, 0)))


def min_bits_free(rows, t: int) -> int:
    blocks = _grouped(range(t), lambda v: rows[v].bit_count())
    return min(_relabelled_bits(rows, t, _block_perms(blocks), skip01=False))


def check_ints(**values) -> None:
    """ParameterError for the first of ``values`` that is not an int; a
    bool is not one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParameterError(f"{name} must be an int, got {value!r}")


def check_pair(n: int, pair: tuple[int, int]) -> tuple[int, int]:
    """``pair`` as two distinct vertices of 0..n-1, else ParameterError;
    a vertex is an int, not a bool."""
    if not isinstance(pair, (tuple, list)) or len(pair) != 2 \
            or type(pair[0]) is not int or type(pair[1]) is not int:
        raise ParameterError(f"pair must be two ints, got {pair!r}")
    u, v = pair
    if n < 2:
        raise ParameterError(f"graph has {n} vertices, fewer than a pair")
    if u == v or not (0 <= u < n and 0 <= v < n):
        raise ParameterError(f"pair {pair} is not two distinct vertices "
                             f"in 0..{n - 1}")
    return u, v


def canonical_code(g: Graph, pair: tuple[int, int] | None = None) -> CanonicalCode:
    """Canonical code of a small graph, optionally with a distinguished
    ordered pair (first slot stays first, second stays second).
    """
    if g.n > MAX_CANON_ORDER:
        raise GraphError(f"canonical form limited to order {MAX_CANON_ORDER}")
    if pair is None:
        return CanonicalCode(g.n, min_bits_free(g.rows, g.n), None)
    u, v = check_pair(g.n, pair)
    return CanonicalCode(g.n, min(pair_relabellings(g.rows, g.n, u, v)),
                         g.has_edge(u, v))


# -- graph6 serialization -------------------------------------------------

def to_graph6(g: Graph) -> str:
    """Encode in McKay's graph6 format (printable ASCII, offset 63): the
    order, then the upper triangle column by column, six bits a
    character."""
    n = g.n
    if n >= 258048:
        raise GraphError("graph too large for graph6 encoding")
    head = [n] if n < 63 else [63, n >> 12, n >> 6 & 63, n & 63]
    bits = "".join(str(g.rows[i] >> j & 1) for j in range(1, n)
                   for i in range(j))
    bits += "0" * (-len(bits) % 6)
    return "".join(chr(c + 63) for c in head + [
        int(bits[k:k + 6], 2) for k in range(0, len(bits), 6)])


def from_graph6(line: str) -> Graph:
    """Decode one graph6 line; the optional ``>>graph6<<`` header is
    skipped.  sparse6, digraph6 and the 8-byte size of n >= 258048 are
    named in the GraphError and not read."""
    text = line.strip().removeprefix(">>graph6<<")
    for start, name in ((":", "sparse6"), ("&", "digraph6")):
        if text.startswith((start, f">>{name}<<")):
            raise GraphError(f"{name} input is not supported")
    data = [ord(c) - 63 for c in text]
    if not data:
        raise GraphError("empty graph6 string")
    if any(c < 0 or c > 63 for c in data):
        raise GraphError("invalid graph6 character")
    if data[0] == 63:  # 126 - 63
        if len(data) < 4:
            raise GraphError("truncated graph6 header")
        if data[1] == 63:
            raise GraphError("graph6 input of 258048 or more vertices "
                             "is not supported")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        data = data[4:]
    else:
        n = data[0]
        data = data[1:]
    nbits = n * (n - 1) // 2
    if len(data) != (nbits + 5) // 6:
        raise GraphError("graph6 body has wrong length")
    bits = "".join(format(c, "06b") for c in data)
    # column j holds the bits (i, j), i < j, from bit j(j - 1)/2 on
    rows = [int("0" + bits[j * (j - 1) // 2:j * (j + 1) // 2][::-1], 2)
            for j in range(n)]
    for j, column in enumerate(rows[:]):
        for i in bits_of(column):
            rows[i] |= 1 << j
    return Graph(n, tuple(rows))


def write_graph6_file(path, graphs):
    with open(path, "w") as fh:
        for g in graphs:
            fh.write(to_graph6(g) + "\n")


def read_graph6_file(path) -> list[Graph]:
    with open(path) as fh:
        return [from_graph6(line) for line in fh if line.strip()]
