import itertools

import pytest

from gqtvc.algebra import AlgebraError, Matrix2, field_make
from gqtvc.geometry import (CONSTRUCTIONS, GeometryError,
                            PartialLinearSpace, QClan,
                            _field_for, _least_irreducible_quadratic,
                            _normalize, _polar_gq, _scale, _span_line,
                            _vadd, build_elliptic_gq, build_flock_gq,
                            build_symplectic_gq, check_gq_axiom, dualize,
                            export_incidence, payne_qclan, point_graph,
                            validate_pls)
from gqtvc.regularity import srg_parameters
from gqtvc.symmetry import line_action, vertex_orbits

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
    assert g.n == 9 and all(r.bit_count() == 4 for r in g.rows)


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


@pytest.mark.parametrize("name", [*CONSTRUCTIONS, "two-lines"])
def test_recorded_validation_is_that_of_a_fresh_copy(name):
    # two disjoint lines have t = 0, so their dual's lines have one point
    pls = PartialLinearSpace.make(4, [(0, 1), (2, 3)]) \
        if name == "two-lines" else geometry(name)
    dual = dualize(pls)
    assert ("validation" in vars(dual)) == (pls.validation.order[1] >= 1)
    for p in (pls, dual):
        got = p.validation
        want = validate_pls(PartialLinearSpace(p.num_points, p.lines,
                                               p.order, p.generators))
        assert (got.ok, got.order, got.witness, got.pencils) \
            == (want.ok, want.order, want.witness, want.pencils)


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
    ("q5_4", False, (4, 16), 325, 1105),
    ("q5_5", False, (5, 25), 756, 3276),
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


@pytest.mark.parametrize("name", ["w2", "payne"])
def test_every_spelling_of_a_construction_is_one_object(name):
    # one geometry, with one point graph and one set of orbit searches
    primal, dual = geometry(name), geometry(name, True)
    assert primal is not dual
    for args, kwargs in [((name, False), {}), ((name, 0), {}),
                         ((name,), {"dual": False}), ((), {"name": name})]:
        assert geometry(*args, **kwargs) is primal
    for args, kwargs in [((name,), {"dual": True}), ((name, 1), {}),
                         ((), {"name": name, "dual": True})]:
        assert geometry(*args, **kwargs) is dual


def multiplied_out_flock_gq(clan):
    """``build_flock_gq`` with the right cosets of A(t) and of
    A*(t) = {(a, c, b) : (a, c', b) in A(t)} each multiplied out element
    by element, in the order of their least elements.  Tag q is A(inf)."""
    f = clan.field
    add, mul, field = f.add, f.mul, f.elements()

    def gmul(g, h):
        dot = add[mul[g[3]][h[0]]][mul[g[4]][h[1]]]
        return (add[g[0]][h[0]], add[g[1]][h[1]], add[add[g[2]][h[2]]][dot],
                add[g[3]][h[3]], add[g[4]][h[4]])

    elements = list(itertools.product(field, repeat=5))
    eindex = {g: i for i, g in enumerate(elements)}
    members = {f.q: [(0, 0, 0, b0, b1) for b0 in field for b1 in field]}
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

    tags = range(f.q + 1)
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
    # the torus elements (a, c, b) -> (aD, kc, bkD^-1), D = diag(u, v),
    # for (u, v, k) = (g, g, g^2) and (g, 1, g^3), g the least primitive
    # element, each kept if it maps every subgroup A(t) onto one; at
    # q = 2 both are the identity
    g = next(x for x in field if x and all(
        f.pow(x, i) != 1 for i in range(1, f.q - 1)))
    subgroups = {frozenset(members[t]): t for t in tags}
    torus = ((g, g, mul[g][g]), (g, 1, f.pow(g, 3))) if g != 1 else ()
    for u, v, k in torus:
        e0, e1 = mul[k][f.inv[u]], mul[k][f.inv[v]]

        def phi(h, u=u, v=v, k=k, e0=e0, e1=e1):
            return (mul[h[0]][u], mul[h[1]][v], mul[h[2]][k],
                    mul[h[3]][e0], mul[h[4]][e1])

        image = [subgroups.get(frozenset(map(phi, members[t]))) for t in tags]
        if None not in image:
            generators.append(
                tuple(eindex[phi(h)] for h in elements)
                + tuple(star[image[t], phi(c[0])]
                        for t in tags for c in star_cosets[t])
                + (infinity,))
    return PartialLinearSpace.make(infinity + 1, lines, (f.q ** 2, f.q),
                                   generators)


def linear_qclan(p, e, u, w):
    """The q-clan {[[t, ut], [0, wt]]} over GF(p^e)."""
    f = field_make(p, e)
    return QClan(f, tuple(Matrix2(f, t, f.mul[u][t], 0, f.mul[w][t])
                          for t in f.elements()))


@pytest.mark.parametrize("clan, torus", [
    (payne_qclan, 2), (lambda: linear_qclan(2, 1, 1, 1), 0),
    (lambda: linear_qclan(3, 1, 0, 1), 2),
    (lambda: linear_qclan(2, 2, 1, 2), 1)], ids=["payne", "q2", "q3", "q4"])
def test_flock_star_cosets_match_the_multiplied_out_ones(clan, torus):
    # the cosets are named in closed form; points, lines and generators
    # are the same as when they are multiplied out.  Five elations come
    # first, then the torus elements that keep the clan: both for the
    # Payne (FTWKB) clan and for {[[t, 0], [0, t]]} over GF(3), whose
    # matrices (g, 1, g^3) sends to [[gt, 0], [0, g^3 t]] = A(gt) as
    # g^2 = 1; only the scalar one over GF(4), where it sends
    # [[t, t], [0, 2t]] to [[gt, g^2 t], [0, 2g^3 t]], no clan matrix
    # for t != 0; none at q = 2
    clan = clan()
    q = clan.field.q
    pls, oracle = build_flock_gq(clan), multiplied_out_flock_gq(clan)
    assert pls == oracle and pls.generators == oracle.generators
    assert len(pls.generators) == 5 + torus
    # line_action has checked every generator before the axiom's scan
    assert len(pls.collineations[1]) == 5 + torus
    assert check_gq_axiom(pls).order == (q * q, q)


def sorted_projective_points(field, dim):
    return sorted({_normalize(field, v) for v in
                   itertools.product(field.elements(), repeat=dim) if any(v)})


def all_pairs_symplectic_gq(q):
    """W(q) with every orthogonal pair of points spanned."""
    field = _field_for(q)
    f = field
    pts = sorted_projective_points(field, 4)
    index = {p: i for i, p in enumerate(pts)}

    def form(u, v):
        a = f.sub(f.mul[u[0]][v[1]], f.mul[u[1]][v[0]])
        b = f.sub(f.mul[u[2]][v[3]], f.mul[u[3]][v[2]])
        return f.add[a][b]

    def transvection(w):
        return lambda x: _vadd(field, x, _scale(field, w, form(x, w)))

    lines = {frozenset(index[x] for x in _span_line(field, p, r))
             for p, r in itertools.combinations(pts, 2) if form(p, r) == 0}
    maps = [transvection(w) for w in ((1, 0, 0, 0), (0, 1, 0, 0),
                                      (0, 0, 1, 0), (0, 0, 0, 1),
                                      (1, 0, 1, 0))]
    return PartialLinearSpace.make(
        len(pts), lines, (q, q),
        [tuple(index[_normalize(field, m(p))] for p in pts) for m in maps])


def all_pairs_elliptic_gq(q):
    """Q-(5,q) with every pair of singular points spanned, a span kept
    when all its points are singular."""
    field = _field_for(q)
    add, mul, sub = field.add, field.mul, field.sub
    alpha, beta = _least_irreducible_quadratic(field)
    two = add[1][1]

    def dot(coeffs, x):
        out = 0
        for c, v in zip(coeffs, x):
            out = add[out][mul[c][v]]
        return out

    def quad(v):
        return dot((v[1], v[3], v[4], mul[alpha][v[4]], mul[beta][v[5]]),
                   (v[0], v[2], v[4], v[5], v[5]))

    pts = [p for p in sorted_projective_points(field, 6) if quad(p) == 0]
    index = {p: i for i, p in enumerate(pts)}
    singular = set(pts)
    lines = set()
    for p, r in itertools.combinations(pts, 2):
        span = _span_line(field, p, r)
        if span <= singular:
            lines.add(frozenset(index[x] for x in span))
    maps = [
        lambda x: (x[1], x[0]) + x[2:],
        lambda x: x[2:4] + x[0:2] + x[4:],
        lambda x: (sub(x[0], x[3]), x[1], add[x[2]][x[1]]) + x[3:],
        lambda x: (sub(x[0], dot((0, 1, 0, 0, two, alpha), x)),
                   *x[1:4], add[x[4]][x[1]], x[5]),
        lambda x: (sub(x[0], dot((0, beta, 0, 0, alpha, mul[two][beta]), x)),
                   *x[1:5], add[x[5]][x[1]]),
    ]
    return PartialLinearSpace.make(
        len(pts), lines, (q, q * q),
        [tuple(index[_normalize(field, m(p))] for p in pts) for m in maps])


@pytest.mark.parametrize("build, oracle, q", [
    *((build_symplectic_gq, all_pairs_symplectic_gq, q) for q in (2, 3, 4, 5)),
    *((build_elliptic_gq, all_pairs_elliptic_gq, q) for q in (2, 3, 4)),
], ids=["w2", "w3", "w4", "w5", "q5_2", "q5_3", "q5_4"])
def test_polar_builder_matches_all_pairs_spans(build, oracle, q):
    # points, lines and order are equality; the generators are not
    got, want = build(q), oracle(q)
    assert got == want and got.generators == want.generators


@pytest.mark.parametrize("build, q, orbits", [
    *((build_symplectic_gq, q, 1) for q in (2, 3, 5)),
    (build_symplectic_gq, 4, 3), (build_symplectic_gq, 8, 4),
    *((build_elliptic_gq, q, 1) for q in (2, 3, 4, 5)),
], ids=["w2", "w3", "w5", "w4", "w8", "q5_2", "q5_3", "q5_4", "q5_5"])
def test_polar_line_orbits(build, q, orbits):
    # one orbit: the builder's first line brings in every line; more
    # (W(4)'s and W(8)'s transvections lie in Sp(4, 2)): the pencil scan
    # finds the others, pinned against all pairs on w4 above
    pls = build(q)
    assert len(vertex_orbits(len(pls.lines), pls.collineations[1])) == orbits


@pytest.mark.parametrize("name", ["w2", "w3", "q5_2", "q5_3", "q5_4", "q5_5"])
def test_polar_line_action_is_line_action(name):
    # the builder keeps the line images it checked as the line action;
    # every other registered construction is built another way
    assert set(CONSTRUCTIONS) - {"w2", "w3", "q5_2", "q5_3", "q5_4",
                                 "q5_5"} == {"t2star", "payne"}
    pls = CONSTRUCTIONS[name].build()
    assert "collineations" in vars(pls)
    points, lines = pls.collineations
    assert points == pls.generators
    assert lines == line_action(pls.num_points, pls.lines, pls.generators)


def symplectic_w3_points():
    field = _field_for(3)
    f = field

    def orthogonal(u, v):
        return f.add[f.sub(f.mul[u[0]][v[1]], f.mul[u[1]][v[0]])][
            f.sub(f.mul[u[2]][v[3]], f.mul[u[3]][v[2]])] == 0

    return field, sorted_projective_points(field, 4), orthogonal


@pytest.mark.parametrize("bad", ["coordinates", "points"])
def test_polar_builder_rejects_a_map_that_is_no_isometry(bad):
    field, points, orthogonal = symplectic_w3_points()
    # swapping x1 and x2 turns the form into x0 y2 - x2 y0 + x1 y3 - x3 y1,
    # so some image has two least points that are not orthogonal; swapping
    # the last two points keeps the least two of a line through one of
    # them, but the image is not their span
    x, y = points[-2:]
    swap = {"coordinates": lambda v: (v[0], v[2], v[1], v[3]),
            "points": lambda v: {x: y, y: x}.get(v, v)}[bad]
    with pytest.raises(GeometryError,
                       match=r"map 1 maps line \(.*\) to a non-line"):
        _polar_gq(field, points, orthogonal, [lambda v: v, swap], (3, 3))


@pytest.mark.parametrize("order", [(3, 2), (3, 4), (2, 3)])
@pytest.mark.parametrize("maps", ["transvections", "none"])
def test_polar_builder_checks_the_declared_order(order, maps):
    # W(3) has 40 lines; these orders ask for 21, 65 and 28, and the
    # orbit and the pencil scan find 40, or fewer where pencils stop at 3
    field, points, orthogonal = symplectic_w3_points()
    w3 = build_symplectic_gq(3)
    isometries = [lambda x, g=g: points[g[points.index(x)]]
                  for g in w3.generators] if maps == "transvections" else []
    assert _polar_gq(field, points, orthogonal, isometries, (3, 3)) == w3
    with pytest.raises(GeometryError, match=r"lines, not \(t\+1\)\(st\+1\)"):
        _polar_gq(field, points, orthogonal, isometries, order)


@pytest.mark.parametrize("q, dim", [(2, 4), (3, 4), (4, 4), (5, 3), (8, 3)])
def test_span_line_is_every_normalized_combination(q, dim):
    # the definition: r and p + c r normalized, for every c
    field = _field_for(q)
    pts = sorted_projective_points(field, dim)
    for p, r in itertools.permutations(pts, 2):
        want = {r} | {_normalize(field, _vadd(field, p, _scale(field, r, c)))
                      for c in field.elements()}
        assert _span_line(field, p, r) == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25])
def test_field_for_prime_powers(q):
    assert _field_for(q).q == q


@pytest.mark.parametrize("q", [0, 1, 6, 12])
def test_field_for_rejects_non_prime_powers(q):
    with pytest.raises(GeometryError, match="not a prime power"):
        _field_for(q)


def test_elliptic_quadric_q5_5():
    # the classical GQ(5, 25), rank-3 twin of dual Payne
    pls = geometry("q5_5")
    assert pls.num_points == 756 and len(pls.lines) == 3276
    res = check_gq_axiom(pls)
    assert res and res.order == (5, 25)
    params = srg_parameters(point_graph(pls))
    assert (params.v, params.k, params.lam, params.mu) == (756, 130, 4, 26)
    assert params == srg_parameters(graph_of("payne", dual=True))


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
    with pytest.raises((GeometryError, AlgebraError)):
        QClan(f, tuple(Matrix2(f, t, 0, 0, t) for t in range(5)))


def test_qclan_matrices_over_another_field_are_rejected():
    # anisotropic over GF(5), but GF(3) tables cannot index their entries
    with pytest.raises(AlgebraError, match="another field"):
        QClan(field_make(3), payne_qclan().matrices[:3])
    # an equal field built again is the same field
    assert QClan(field_make(5), payne_qclan().matrices).field.q == 5


def test_qclan_from_two_equal_fields():
    # two payne_qclan() calls make two equal GF(5) tables; the clan check
    # compares fields by equality, as QClan does
    a, b = payne_qclan().matrices, payne_qclan().matrices
    assert a[0].field is not b[0].field and a[0].field == b[0].field
    clan = QClan(a[0].field, a[:3] + b[3:])
    assert build_flock_gq(clan) == build_flock_gq(payne_qclan())
    assert a[4].sub(b[4]) == Matrix2(a[0].field, 0, 0, 0, 0)


def test_line_counts_match_order_formula():
    # a GQ(s, t) has (t + 1)(st + 1) lines
    for name, dual in (("w2", False), ("q5_2", False), ("t2star", True)):
        pls = geometry(name, dual)
        s, t = check_gq_axiom(pls).order
        assert len(pls.lines) == (t + 1) * (s * t + 1)
        assert pls.num_points == (s + 1) * (s * t + 1)


def _polar_w3_with_a_zero_map():
    field, points, orthogonal = symplectic_w3_points()
    return _polar_gq(field, points, orthogonal, [lambda v: (0,) * 4], (3, 3))


@pytest.mark.parametrize("call, error, message", [
    (_polar_w3_with_a_zero_map, GeometryError,
     "zero vector has no projective class"),
    (lambda: geometry("nope"), GeometryError, "unknown construction 'nope'"),
    (lambda: QClan(payne_qclan().field, payne_qclan().matrices[:-1]),
     AlgebraError, "need one matrix per field element"),
], ids=["map-to-zero-vector", "unknown-construction", "qclan-too-few"])
def test_bad_arguments_raise_with_message(call, error, message):
    with pytest.raises(error, match=message):
        call()
