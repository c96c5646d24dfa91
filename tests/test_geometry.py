import pytest

from gqtvc.algebra import field_make
from gqtvc.geometry import (GeometryError, PartialLinearSpace, QClan,
                            build_flock_gq, check_gq_axiom, dualize,
                            export_incidence, hyperoval_is_arc,
                            parse_incidence, payne_qclan, point_graph,
                            validate_pls)

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


@pytest.mark.parametrize("pls", [
    fano_plane(), PartialLinearSpace.make(3, [(0, 1), (1, 2), (0, 2)])],
    ids=["fano", "triangle"])
def test_gq_axiom_witness_is_a_direct_count(pls):
    # both are valid partial linear spaces that are not quadrangles
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


def test_dual_swaps_order():
    d = dualize(grid_3x3())
    res = validate_pls(d)
    assert res.order == (1, 2)
    assert d.num_points == 6 and len(d.lines) == 9


def test_incidence_roundtrip():
    pls = geometry("w2")
    back = parse_incidence(export_incidence(pls))
    # the order annotation is not part of the text format
    assert (back.num_points, back.lines) == (pls.num_points, pls.lines)
    with pytest.raises(GeometryError):
        parse_incidence("not a header\n")


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


def test_hyperoval_is_arc():
    assert hyperoval_is_arc()


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
