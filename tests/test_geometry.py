import itertools

import pytest

from gqtvc.algebra import field_make
from gqtvc.geometry import (INF, GeometryError, PartialLinearSpace, QClan,
                            _normalize, _span_line, build_flock_gq,
                            check_gq_axiom, dualize, export_incidence,
                            payne_qclan, point_graph, validate_pls)

from conftest import geometry, graph_of


def grid_3x3():
    # rows and columns of a 3x3 grid: the smallest GQ(2, 1)
    lines = [tuple(range(3 * r, 3 * r + 3)) for r in range(3)]
    lines += [(c, c + 3, c + 6) for c in range(3)]
    return PartialLinearSpace.make(9, lines)


def test_validate_pls_good():
    res = validate_pls(grid_3x3())
    assert res and res.order == (2, 1)


def test_validate_pls_witnesses():
    shared = PartialLinearSpace.make(4, [(0, 1, 2), (0, 1, 3)])
    res = validate_pls(shared)
    assert not res and res.witness[0] == "lines share two points"
    short = PartialLinearSpace.make(3, [(0,), (1, 2)])
    assert validate_pls(short).witness[0] == "short line"
    uneven = PartialLinearSpace.make(4, [(0, 1), (2, 3), (0, 2)])
    assert validate_pls(uneven).witness[0] == "point degrees differ"


def test_gq_axiom_grid_and_failure():
    assert check_gq_axiom(grid_3x3())
    # a triangle geometry: a point of a line is collinear with 2 points
    # of another line through it; violations show up off-line
    tri = PartialLinearSpace.make(3, [(0, 1), (1, 2), (0, 2)])
    res = check_gq_axiom(tri)
    assert not res and len(res.witness) == 3


def fano_plane():
    return PartialLinearSpace.make(7, [(i, (i + 1) % 7, (i + 3) % 7)
                                       for i in range(7)])


def w3_with_two_points_swapped():
    # two disjoint lines of W(3) trade a point: point 0 still sees one
    # point of each line off it, point 1 does not
    lines = [list(line) for line in geometry("w3").lines]
    lines[4][2], lines[9][2] = lines[9][2], lines[4][2]
    return PartialLinearSpace.make(40, lines)


@pytest.mark.parametrize("pls", [
    fano_plane(), PartialLinearSpace.make(3, [(0, 1), (1, 2), (0, 2)]),
    w3_with_two_points_swapped()],
    ids=["fano", "triangle", "w3-swapped"])
def test_gq_axiom_witness_is_a_direct_count(pls):
    # valid partial linear spaces that are not quadrangles
    assert validate_pls(pls)
    res = check_gq_axiom(pls)
    assert not res and res.order == validate_pls(pls).order
    p, li, c = res.witness
    line = pls.lines[li]
    assert p not in line
    g = point_graph(pls)
    assert sum(g.has_edge(p, q) for q in line) == c != 1


def test_point_graph_grid():
    g = point_graph(grid_3x3())
    assert g.n == 9 and all(g.degree(v) == 4 for v in range(9))


def test_dualize_double_dual_identity():
    for name in ("w2", "w3", "q5_2", "t2star"):
        pls = geometry(name)
        assert dualize(dualize(pls)) == pls
        # the generators come back as the same point permutations
        assert dualize(dualize(pls)).generators == pls.generators


def test_dual_swaps_order():
    d = dualize(grid_3x3())
    res = validate_pls(d)
    assert res.order == (1, 2)
    assert d.num_points == 6 and len(d.lines) == 9


def test_incidence_roundtrip():
    pls = geometry("w2")
    head, *body = export_incidence(pls).splitlines()
    # the order annotation is not part of the text format
    assert head == f"p {pls.num_points} l {len(pls.lines)}"
    assert tuple(tuple(map(int, line.split())) for line in body) == pls.lines


@pytest.mark.parametrize("name,dual,order,points,lines", [
    ("w2", False, (2, 2), 15, 15),
    ("w3", False, (3, 3), 40, 40),
    ("q5_2", False, (2, 4), 27, 45),
    ("q5_3", False, (3, 9), 112, 280),
    ("t2star", False, (3, 5), 64, 96),
    ("t2star", True, (5, 3), 96, 64),
])
def test_constructions_validate(name, dual, order, points, lines):
    pls = geometry(name, dual)
    assert pls.num_points == points and len(pls.lines) == lines
    res = check_gq_axiom(pls)
    assert res and res.order == order


def test_flock_construction_validates():
    pls = geometry("payne")
    assert pls.num_points == 3276 and len(pls.lines) == 756
    res = check_gq_axiom(pls)
    assert res and res.order == (25, 5)
    d = geometry("payne", dual=True)
    assert d.num_points == 756
    assert validate_pls(d).order == (5, 25)


def multiplied_out_flock_gq(clan):
    """``build_flock_gq`` with the right cosets of A(t) and of
    A*(t) = {(a, c, b) : (a, c', b) in A(t)} each multiplied out element
    by element, in the order of their least elements."""
    f = clan.field
    add, mul, field = f.add, f.mul, f.elements()

    def gmul(g, h):
        dot = add[mul[g[3]][h[0]]][mul[g[4]][h[1]]]
        return (add[g[0]][h[0]], add[g[1]][h[1]], add[add[g[2]][h[2]]][dot],
                add[g[3]][h[3]], add[g[4]][h[4]])

    elements = list(itertools.product(field, repeat=5))
    eindex = {g: i for i, g in enumerate(elements)}
    members = {INF: [(0, 0, 0, b0, b1) for b0 in field for b1 in field]}
    for t, m in enumerate(clan.matrices):
        off = add[m.b][m.c]
        members[t] = [
            (a0, a1, add[add[mul[mul[a0][a0]][m.a]][mul[mul[a0][a1]][off]]]
                        [mul[mul[a1][a1]][m.d]],
             add[mul[a0][add[m.a][m.a]]][mul[a1][off]],
             add[mul[a0][off]][mul[a1][add[m.d][m.d]]])
            for a0 in field for a1 in field]

    def cosets(subgroup):
        out, seen = [], set()
        for g in elements:
            if g not in seen:
                out.append(sorted(gmul(h, g) for h in subgroup))
                seen.update(out[-1])
        return out

    tags = [*range(f.q), INF]
    star, star_cosets, npts = {}, {}, len(elements)
    for t in tags:
        star_cosets[t] = cosets([(a0, a1, c, b0, b1)
                                 for a0, a1, _, b0, b1 in members[t]
                                 for c in field])
        for coset in star_cosets[t]:
            star.update(((t, g), npts) for g in coset)
            npts += 1
    infinity = npts
    lines = []
    for t in tags:
        lines += [[eindex[g] for g in coset] + [star[t, coset[0]]]
                  for coset in cosets(members[t])]
        lines.append([star[t, c[0]] for c in star_cosets[t]] + [infinity])
    units = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    generators = [tuple(eindex[gmul(g, h)] for g in elements)
                  + tuple(star[t, gmul(c[0], h)]
                          for t in tags for c in star_cosets[t])
                  + (infinity,) for h in units]
    return PartialLinearSpace.make(infinity + 1, lines, (f.q ** 2, f.q),
                                   generators)


def test_flock_star_cosets_match_the_multiplied_out_ones():
    # the A*(t)-cosets are read off the A(t)-cosets; points, lines and
    # generators are the same as when they are multiplied out
    clan = payne_qclan()
    assert build_flock_gq(clan) == multiplied_out_flock_gq(clan)


def test_hyperoval_is_arc():
    # no three directions of the hyperoval T2*(O) is built on are
    # collinear in PG(2,4)
    field = field_make(2, 2)
    pts = [_normalize(field, (1, t, field.mul[t][t]))
           for t in field.elements()]
    pts += [(0, 1, 0), (0, 0, 1)]
    for a, b, c in itertools.combinations(pts, 3):
        assert c not in _span_line(field, a, b)


def test_payne_qclan_anisotropic():
    clan = payne_qclan()
    assert len(clan.matrices) == 5
    f = field_make(5)
    from gqtvc.algebra import AlgebraError, Matrix2
    with pytest.raises((GeometryError, AlgebraError)):
        QClan(f, tuple(Matrix2(f, t, 0, 0, t) for t in range(5)))


def test_line_counts_match_order_formula():
    # a GQ(s, t) has (t + 1)(st + 1) lines
    for name, dual in (("w2", False), ("q5_2", False), ("t2star", True)):
        pls = geometry(name, dual)
        s, t = check_gq_axiom(pls).order
        assert len(pls.lines) == (t + 1) * (s * t + 1)
        assert pls.num_points == (s + 1) * (s * t + 1)
