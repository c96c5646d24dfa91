"""Partial linear spaces and generalised quadrangles.

Provides validation of the PLS and GQ axioms, point/line duality, point
graphs, and four construction families: the symplectic quadrangle W(q)
and the elliptic quadric quadrangle Q-(5,q), both from one polar-space
builder that closes found lines under isometries, the hyperoval
quadrangle T2*(O) over GF(4), and flock quadrangles from q-clans.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

from .algebra import AlgebraError, Field, Matrix2, anisotropic_difference_check, field_make
from .graph import Graph, GraphError
from .symmetry import line_action, vertex_orbits


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class PartialLinearSpace:
    """Points 0..num_points-1 and lines as sorted point-index tuples.

    ``generators`` are point permutations offered as collineations; no
    scan uses them before ``collineations`` has checked them.  They are
    not part of equality."""

    num_points: int
    lines: tuple[tuple[int, ...], ...]
    order: tuple[int, int] | None = None
    generators: tuple[tuple[int, ...], ...] = field(
        default=(), compare=False, repr=False)

    @staticmethod
    def make(num_points, lines, order=None,
             generators=()) -> "PartialLinearSpace":
        norm = sorted({tuple(sorted(line)) for line in lines})
        return PartialLinearSpace(num_points, tuple(norm), order,
                                  tuple(generators))

    @cached_property
    def collineations(self) -> tuple[tuple[tuple[int, ...], ...],
                                     tuple[tuple[int, ...], ...]]:
        """The generators as point permutations and as line
        permutations, once each has been checked to map every line onto
        a line (GraphError otherwise)."""
        return self.generators, line_action(self.num_points, self.lines,
                                            self.generators)

    @cached_property
    def validation(self) -> "PlsResult":
        """``validate_pls(self)``, run once."""
        return validate_pls(self)

    @cached_property
    def graph(self) -> Graph:
        """The point graph, built once (see ``point_graph``), so every
        caller shares its orbit searches."""
        rows, _ = _collinearity(self.num_points, self.lines)
        return Graph(self.num_points, tuple(rows), self.collineations[0],
                     checked=True)


@dataclass(frozen=True)
class PlsResult:
    ok: bool
    order: tuple[int, int] | None = None
    witness: object = None
    # on success, the indices of the lines through each point
    pencils: list | None = field(default=None, compare=False, repr=False)

    def __bool__(self):
        return self.ok


def _collinearity(num_points: int, lines) -> tuple[list[int], tuple | None]:
    """Row p of the collinearity relation of ``lines`` (the points other
    than p on a line through p, as a bitmask), and the first line that
    meets an earlier line in two points as (line index, a, b), (a, b)
    its first such pair in line order, or None.  The lines hold
    distinct points in 0..num_points-1."""
    rows = [0] * num_points
    clash = None
    for li, line in enumerate(lines):
        m = sum(1 << p for p in line)
        for p in line:
            if clash is None and rows[p] & m:
                # a point before p seeing p would have been found first
                clash = li, p, next(q for q in line[line.index(p) + 1:]
                                    if rows[p] >> q & 1)
            rows[p] |= m ^ 1 << p
    return rows, clash


def validate_pls(pls: PartialLinearSpace) -> PlsResult:
    """Check the partial linear space axioms.

    Returns the order (s, t) and pencils on success, otherwise a witness:
    two lines sharing two points, or a line/point with a deviant count.
    Lines are checked in order, each for length, repeated points, range,
    then, unless ``_pencils_meet_once``, a pair it shares with an earlier
    line (one collinearity mask per point, see ``_collinearity``).
    """
    n, lines = pls.num_points, pls.lines
    if n < 1:
        return PlsResult(False, witness=("no points",))
    bad = None
    pencils = [[] for _ in range(n)]
    for li, line in enumerate(lines):
        if len(line) < 2:
            bad = ("short line", li, line)
        elif len(set(line)) != len(line):
            bad = ("repeated point", li, line)
        else:
            bad = next((("point out of range", li, p) for p in line
                        if not 0 <= p < n), None)
        if bad:
            break
        for p in line:
            pencils[p].append(li)
    if bad or not _pencils_meet_once(pls, pencils):
        _, clash = _collinearity(n, lines[:bad[1]] if bad else lines)
        if clash is not None:
            li, a, b = clash
            first = next(lj for lj, line in enumerate(lines) if a in line and b in line)
            return PlsResult(False, witness=("lines share two points", first, li,
                                             (a, b)))
        if bad:
            return PlsResult(False, witness=bad)
    line_sizes = set(map(len, lines))
    if len(line_sizes) != 1:
        return PlsResult(False, witness=("line sizes differ", sorted(line_sizes)))
    point_deg = list(map(len, pencils))
    if len(set(point_deg)) != 1:
        lo = point_deg.index(min(point_deg))
        hi = point_deg.index(max(point_deg))
        return PlsResult(False, witness=("point degrees differ", lo, hi))
    s = line_sizes.pop() - 1
    t = point_deg[0] - 1
    if pls.order is not None and pls.order != (s, t):
        return PlsResult(False, witness=("declared order mismatch", pls.order, (s, t)))
    return PlsResult(True, order=(s, t), pencils=pencils)


def _pencils_meet_once(pls: PartialLinearSpace, pencils) -> bool:
    """Whether at the least point p of each orbit of the verified
    collineations, which move any two lines sharing two points onto two
    through a p, the lines through p share no other point.  The copies
    of a line listed twice, which may map onto one listed once, share an
    image in the line action; then, or with no collineations, False."""
    try:
        points, lines = pls.collineations
    except GraphError:
        return False
    if not points or len(set(lines[0])) != len(lines[0]):
        return False
    for p, _ in vertex_orbits(pls.num_points, points):
        others = [q for li in pencils[p] for q in pls.lines[li] if q != p]
        if len(set(others)) != len(others):
            return False
    return True


def point_graph(pls: PartialLinearSpace) -> Graph:
    """Collinearity graph on the points, the one ``pls.graph`` keeps.  A
    collineation is an automorphism of it, so it gets the checked
    generators."""
    return pls.graph


def check_gq_axiom(pls: PartialLinearSpace) -> PlsResult:
    """Check the generalised quadrangle axiom: every point off a line is
    collinear with exactly one of its points.  Witness: (point, line
    index, count), the first line off the point with a wrong count.

    At the least point p of each orbit of the checked generators, the
    lines through the points collinear with p are tallied: a line off p
    once per point of it collinear with p, a line through p s times."""
    res = pls.validation
    if not res:
        return res
    s, pencils = res.order[0], res.pencils
    for p, _ in vertex_orbits(pls.num_points, pls.collineations[0]):
        want = [1] * len(pls.lines)
        counts = [0] * len(pls.lines)
        for li in pencils[p]:
            want[li] = s
            for q in pls.lines[li]:
                if q != p:
                    for lj in pencils[q]:
                        counts[lj] += 1
        if counts != want:
            li = next(li for li, c in enumerate(counts) if c != want[li])
            return PlsResult(False, res.order, (p, li, counts[li]))
    return PlsResult(True, order=res.order)


def dualize(pls: PartialLinearSpace) -> PartialLinearSpace:
    """Swap points and lines.  New point i is old line i; new lines are
    the old points' pencils, listed in old point order, so applying the
    map twice reproduces the input exactly.  The generators' action on
    the old lines is the new generators, and their old action on the
    points is their checked action on the new lines.  For t >= 1 the
    dual is valid, and its pencils are the old lines."""
    res = pls.validation
    if not res:
        raise GeometryError(f"dualize on invalid geometry: {res.witness}")
    s, t = res.order
    points, lines = pls.collineations
    dual = PartialLinearSpace(len(pls.lines), tuple(map(tuple, res.pencils)),
                              (t, s), lines)
    dual.__dict__["collineations"] = lines, points
    if t >= 1:  # else its lines have one point: "short line"
        dual.__dict__["validation"] = PlsResult(
            True, (t, s), pencils=list(map(sorted, pls.lines)))
    return dual


def export_incidence(pls: PartialLinearSpace) -> str:
    out = [f"p {pls.num_points} l {len(pls.lines)}"]
    for line in pls.lines:
        out.append(" ".join(str(p) for p in line))
    return "\n".join(out) + "\n"


# -- classical constructions ----------------------------------------------

def _projective_points(field: Field, dim: int) -> list[tuple[int, ...]]:
    """Projective points of PG(dim-1, q), normalized so the first
    nonzero coordinate is 1, in lexicographic order."""
    return [(0,) * i + (1,) + v for i in reversed(range(dim))
            for v in itertools.product(field.elements(), repeat=dim - 1 - i)]


def _scale(field: Field, v, c):
    return tuple(map(field.mul[c].__getitem__, v))


def _vadd(field: Field, u, v):
    return tuple(field.add[x][y] for x, y in zip(u, v))


def _normalize(field: Field, v):
    for x in v:
        if x:
            return tuple(v) if x == 1 else _scale(field, v, field.inv[x])
    raise GeometryError("zero vector has no projective class")


def _span_line(field: Field, p, r) -> frozenset:
    """The line through the normalized points p != r: its point a whose
    leading 1 comes last, and b + c a for another point b and each c."""
    if p.index(1) == r.index(1):
        p = _normalize(field, _vadd(field, p, _scale(field, r, field.neg[1])))
    a, b = (p, r) if p.index(1) > r.index(1) else (r, p)
    return frozenset([a, *zip(*[map(field.add[x].__getitem__, field.mul[y])
                                for x, y in zip(b, a)])])


def _polar_gq(field: Field, points, orthogonal, maps,
              order) -> PartialLinearSpace:
    """The polar space of order (s, t) on ``points`` (normalized, in
    order): lines the spans of pairs ``orthogonal`` accepts, generators
    the isometries ``maps`` on points.  A found line brings in its orbit,
    each image checked as the span of its two least points, orthogonal
    (else GeometryError).  A point is tested only while fewer than t + 1
    lines pass through it, so the line count must be (t+1)(st+1).  The
    checked images give the generators' line action."""
    s, t = order
    index = {p: i for i, p in enumerate(points)}
    generators = [tuple(index[_normalize(field, m(p))] for p in points)
                  for m in maps]
    lines, pencils = {}, [[] for _ in points]  # numbered by discovery
    images = [array("I") for _ in generators]  # line numbers, per generator

    def close(line):
        lines[line] = len(lines)
        orbit = [line]
        for line in orbit:
            for x in line:
                pencils[x].append(line)
            for k, g in enumerate(generators):
                image = tuple(sorted(map(g.__getitem__, line)))
                found = lines.get(image)
                if found is None:
                    a, b = points[image[0]], points[image[1]]
                    if not (orthogonal(a, b) and _span_line(field, a, b)
                            == {points[x] for x in image}):
                        raise GeometryError(
                            f"map {k} maps line {line} to a non-line")
                    found = lines[image] = len(lines)
                    orbit.append(image)
                images[k].append(found)

    for i, p in enumerate(points):
        for j in range(i + 1, len(points)):
            if len(pencils[i]) > t:
                break
            if all(j not in line for line in pencils[i]) and orthogonal(p, points[j]):
                close(tuple(sorted(index[x] for x in _span_line(field, p, points[j]))))
    pencils.clear()  # (t + 1) lines per point, 15 MB at q = 11
    if len(lines) != (t + 1) * (s * t + 1):
        raise GeometryError(f"{len(lines)} lines, not (t+1)(st+1) for {order}")
    pls = PartialLinearSpace.make(len(points), lines, order, generators)
    rank = [0] * len(lines)  # each line's place in pls.lines, by number
    for i, line in enumerate(pls.lines):
        rank[lines[line]] = i
    pls.__dict__["collineations"] = pls.generators, tuple(
        tuple(rank[image[lines[line]]] for line in pls.lines)
        for image in images)
    return pls


@lru_cache(maxsize=None)
def _field_for(q: int) -> Field:
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    e = 1
    while p is not None and p ** e < q:
        e += 1
    if p is None or p ** e != q:
        raise GeometryError(f"{q} is not a prime power")
    return field_make(p, e)


@lru_cache(maxsize=None)
def build_symplectic_gq(q: int) -> PartialLinearSpace:
    """W(q): points of PG(3,q), lines the totally isotropic lines of the
    standard symplectic form; a GQ of order (q, q)."""
    field = _field_for(q)

    def form(u, v):
        f = field
        a = f.sub(f.mul[u[0]][v[1]], f.mul[u[1]][v[0]])
        b = f.sub(f.mul[u[2]][v[3]], f.mul[u[3]][v[2]])
        return f.add[a][b]

    def transvection(w):
        # x -> x + B(x, w) w preserves the form
        return lambda x: _vadd(field, x, _scale(field, w, form(x, w)))

    return _polar_gq(field, _projective_points(field, 4),
                     lambda u, v: form(u, v) == 0,
                     [transvection(w) for w in (
                         (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                         (0, 0, 0, 1), (1, 0, 1, 0))], (q, q))


@lru_cache(maxsize=None)
def build_elliptic_gq(q: int) -> PartialLinearSpace:
    """Q-(5,q): singular points and totally singular lines of an
    elliptic quadric in PG(5,q); a GQ of order (q, q^2).  For singular
    p and r, quad(p + r) is their polar form, so it vanishes exactly
    when the line through p and r is totally singular."""
    field = _field_for(q)
    alpha, beta = _least_irreducible_quadratic(field)
    add, mul, sub = field.add, field.mul, field.sub
    two = add[1][1]

    def dot(coeffs, x):
        out = 0
        for c, v in zip(coeffs, x):
            out = add[out][mul[c][v]]
        return out

    def quad(v):  # x0 x1 + x2 x3 + x4^2 + alpha x4 x5 + beta x5^2
        return dot((v[1], v[3], v[4], mul[alpha][v[4]], mul[beta][v[5]]),
                   (v[0], v[2], v[4], v[5], v[5]))

    # isometries of quad: two swaps, a map fixing x0 x1 + x2 x3, and two
    # that add x1 to x4 or x5 and correct x0
    isometries = [
        lambda x: (x[1], x[0]) + x[2:],
        lambda x: x[2:4] + x[0:2] + x[4:],
        lambda x: (sub(x[0], x[3]), x[1], add[x[2]][x[1]]) + x[3:],
        lambda x: (sub(x[0], dot((0, 1, 0, 0, two, alpha), x)),
                   *x[1:4], add[x[4]][x[1]], x[5]),
        lambda x: (sub(x[0], dot((0, beta, 0, 0, alpha, mul[two][beta]), x)),
                   *x[1:5], add[x[5]][x[1]]),
    ]
    return _polar_gq(field,
                     [p for p in _projective_points(field, 6) if quad(p) == 0],
                     lambda u, v: quad(_vadd(field, u, v)) == 0,
                     isometries, (q, q * q))


def _least_irreducible_quadratic(field: Field) -> tuple[int, int]:
    """Least (alpha, beta) such that z^2 + alpha z + beta has no root;
    one exists over every finite field."""
    add, mul, elements = field.add, field.mul, field.elements()
    return next((a, b) for a in elements for b in elements
                if all(add[add[mul[z][z]][mul[a][z]]][b] for z in elements))


@lru_cache(maxsize=None)
def build_t2star_gq() -> PartialLinearSpace:
    """T2*(O) over GF(4): points AG(3,4), lines the affine lines whose
    direction lies in a fixed hyperoval of the plane at infinity; a GQ
    of order (3, 5)."""
    field = field_make(2, 2)
    # hyperoval: conic {(1, t, t^2)} plus (0,1,0) and (0,0,1)
    hyperoval = [(1, t, field.mul[t][t]) for t in field.elements()]
    hyperoval += [(0, 1, 0), (0, 0, 1)]
    points = [(a, b, c) for a in field.elements()
              for b in field.elements() for c in field.elements()]
    index = {p: i for i, p in enumerate(points)}
    lines = set()
    for p in points:
        for d in hyperoval:
            line = frozenset(index[_vadd(field, p, _scale(field, d, lam))]
                             for lam in field.elements())
            lines.add(line)
    # translations along the axes and scaling by a primitive element fix
    # every direction
    maps = [lambda p, d=d: _vadd(field, p, d)
            for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    maps.append(lambda p: _scale(field, p, 2))
    generators = tuple(tuple(index[m(p)] for p in points) for m in maps)
    return PartialLinearSpace.make(len(points), lines, (3, 5), generators)


# -- flock quadrangles from q-clans ---------------------------------------

@dataclass(frozen=True)
class QClan:
    """A set of q 2x2 matrices over GF(q) indexed by the field elements,
    with anisotropic pairwise differences."""

    field: Field
    matrices: tuple[Matrix2, ...]

    def __post_init__(self):
        if len(self.matrices) != self.field.q:
            raise AlgebraError("need one matrix per field element")
        if any(m.field != self.field for m in self.matrices):
            raise AlgebraError("matrices over another field")
        if not anisotropic_difference_check(list(self.matrices)):
            raise AlgebraError("pairwise differences are not anisotropic")


def payne_qclan() -> QClan:
    """The q-clan {[[t, 3t^2], [0, 3t^3]] : t in GF(5)}."""
    f = field_make(5)
    mats = []
    for t in f.elements():
        t2 = f.mul[t][t]
        t3 = f.mul[t2][t]
        mats.append(Matrix2(f, t, f.mul[3][t2], 0, f.mul[3][t3]))
    return QClan(f, tuple(mats))


def build_flock_gq(clan: QClan) -> PartialLinearSpace:
    """Coset-geometry GQ of order (q^2, q) from a q-clan.

    The group has elements (a, c, b) with a, b in GF(q)^2 and c in
    GF(q), multiplied by (a,c,b)(a',c',b') = (a+a', c+c'+b.a', b+b').
    The 4-gonal family is A(t) = {(x, x A_t x^T, x M_t)}, with
    M_t = A_t + A_t^T, and A(inf) = {(0, 0, y)}; A*(t) = A(t)Z frees c.
    No coset is multiplied out: A(t)(a, c, b) holds one element
    (0, c - a A_t a^T, b - a M_t), so A*(t)(a, c, b) is named by
    s = b - a M_t, and A*(inf)(a, c, b), holding (a, c - b.a, 0), by a.
    Points are the elements in lexicographic order, then per tag (the
    clan's matrices, then inf) the A*(t)-cosets in name order, that of
    their least elements, then the symbol point.  A line is an
    A(t)-coset with its A*(t)-coset, or a tag's A*(t)-cosets with the
    symbol point.  The generators, right multiplication by the five
    unit elements (x, z, y), send s to s + y - x M_t and a to a + x.
    Up to two torus elements follow, (a, c, b) -> (aD, kc, bkD^-1) with
    D = diag(u, v): each maps A(t) onto the subgroup of kD^-1 A_t D^-1,
    s to s kD^-1 and a to aD, and is kept if it maps each clan form
    (a, b + c, d) onto one.  The GQ axiom checker validates the
    construction downstream.
    """
    f = clan.field
    q, add, mul, sub = f.q, f.add, f.mul, f.sub
    vectors = list(itertools.product(f.elements(), repeat=2))
    stars = q ** 5
    infinity = stars + (q + 1) * q * q

    def element(a, c, b):
        return (((a[0] * q + a[1]) * q + c) * q + b[0]) * q + b[1]

    def star(tag, s):
        return stars + (tag * q + s[0]) * q + s[1]

    def vadd(u, v):
        return add[u[0]][v[0]], add[u[1]][v[1]]

    def dot(u, v):
        return add[mul[u[0]][v[0]]][mul[u[1]][v[1]]]

    def times_m(x, m):
        off = add[m.b][m.c]
        return dot(x, (add[m.a][m.a], off)), dot(x, (off, add[m.d][m.d]))

    # the A(t)-coset named (c, s) is {(x, c + x A_t x^T, s + x M_t)},
    # and the A(inf)-coset named (a, c) is {(a, c + y.a, y)}
    lines = []
    for tag, m in enumerate(clan.matrices):
        subgroup = [(x, m.quadratic_form(*x), times_m(x, m)) for x in vectors]
        lines += [[element(x, add[c][cx], vadd(s, xm))
                   for x, cx, xm in subgroup] + [star(tag, s)]
                  for c in f.elements() for s in vectors]
    lines += [[element(a, add[c][dot(y, a)], y) for y in vectors]
              + [star(q, a)] for a in vectors for c in f.elements()]
    lines += [[star(tag, s) for s in vectors] + [infinity]
              for tag in range(q + 1)]

    generators = []
    for x0, x1, z, y0, y1 in ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                              (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)):
        x, y = (x0, x1), (y0, y1)
        # (a, c, b)(x, z, y) = (a + x, c + z + b.x, b + y), indexed in parts
        a_part = [element(vadd(a, x), 0, (0, 0)) for a in vectors]
        b_part = [(dot(b, x), element((0, 0), 0, vadd(b, y))) for b in vectors]
        perm = [ah + add[add[c][z]][bx] * q * q + bh
                for ah in a_part for c in f.elements() for bx, bh in b_part]
        for tag, m in enumerate(clan.matrices):
            xm = times_m(x, m)
            perm += [star(tag, vadd(s, (sub(y0, xm[0]), sub(y1, xm[1]))))
                     for s in vectors]
        perm += [star(q, vadd(a, x)) for a in vectors]
        generators.append(tuple(perm) + (infinity,))

    # (u, v, k) = (g, g, g^2), (g, 1, g^3), g the least primitive element
    tags = {(m.a, add[m.b][m.c], m.d): tag
            for tag, m in enumerate(clan.matrices)}
    g = next(x for x in range(1, q) if len({f.pow(x, k) for k in range(q)})
             == q - 1)
    for u, v, k in ((g, g, mul[g][g]), (g, 1, f.pow(g, 3))):
        e = mul[k][f.inv[u]], mul[k][f.inv[v]]  # kD^-1
        w = mul[e[0]][f.inv[u]], mul[e[0]][f.inv[v]], mul[e[1]][f.inv[v]]
        image = [tags.get(tuple(mul[x][y] for x, y in zip(form, w)))
                 for form in tags]
        if g == 1 or None in image:  # q = 2 gives the identity
            continue
        ad = [(mul[a0][u], mul[a1][v]) for a0, a1 in vectors]
        be = [(mul[b0][e[0]], mul[b1][e[1]]) for b0, b1 in vectors]
        perm = [element(a, mul[k][c], (0, 0)) + b0 * q + b1
                for a in ad for c in f.elements() for b0, b1 in be]
        perm += [star(image[tag], s) for tag in range(q) for s in be]
        generators.append(tuple(perm + [star(q, a) for a in ad] + [infinity]))
    return PartialLinearSpace.make(infinity + 1, lines, (q * q, q),
                                   generators)


# -- the built-in constructions -------------------------------------------

class Construction(NamedTuple):
    build: Callable[[], PartialLinearSpace]
    field_size: int


CONSTRUCTIONS = {
    "w2": Construction(lambda: build_symplectic_gq(2), 2),
    "w3": Construction(lambda: build_symplectic_gq(3), 3),
    "q5_2": Construction(lambda: build_elliptic_gq(2), 2),
    "q5_3": Construction(lambda: build_elliptic_gq(3), 3),
    "q5_4": Construction(lambda: build_elliptic_gq(4), 4),
    "q5_5": Construction(lambda: build_elliptic_gq(5), 5),
    "t2star": Construction(build_t2star_gq, 4),
    "payne": Construction(lambda: build_flock_gq(payne_qclan()), 5),
}


def get_construction(name: str, dual: bool = False) -> PartialLinearSpace:
    """The built-in quadrangle registered under ``name``, or its dual;
    one object, however the call is spelt."""
    return _construction(name, bool(dual))


@lru_cache(maxsize=None)
def _construction(name: str, dual: bool) -> PartialLinearSpace:
    if name not in CONSTRUCTIONS:
        raise GeometryError(f"unknown construction {name!r}; "
                            f"choose from {', '.join(sorted(CONSTRUCTIONS))}")
    pls = CONSTRUCTIONS[name].build()
    return dualize(pls) if dual else pls
