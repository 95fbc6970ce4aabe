from fractions import Fraction

import pytest

from csawitness.arith import gaussian_binomial
from csawitness.errors import BudgetExceededError, InvalidInputError
from csawitness.fields import QQ, PrimeField, standard_extension
from csawitness.poly import Poly
from csawitness.pointcount import (
    ClosedPoint, GrassmannianModel, InvolutionQuadricModel, QPointSearch,
    QuadricCurves, QuadricModel, ZeroCycle, enumerate_points, frobenius_coords,
    frobenius_orbit, link_graph, scheme_index_bound, symmetric_power_points,
    transfer_cycle,
)
from csawitness.quadrics import QuadraticForm

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def conic(field):
    # xz = y^2, a smooth conic with rational points
    return QuadricModel(QuadraticForm(field, 3, {(0, 2): field.one,
                                                 (1, 1): field.neg(field.one)}))


def split_surface(field):
    # xw = yz, the split quadric surface
    return QuadricModel(QuadraticForm(field, 4, {(0, 3): field.one,
                                                 (1, 2): field.neg(field.one)}))


def test_enumerate_rational_points():
    assert len(enumerate_points(conic(F3), 1)) == 4              # q + 1
    assert len(enumerate_points(split_surface(F2), 1)) == 9      # (q+1)^2
    gr = GrassmannianModel(F2, 2, 4)
    assert len(enumerate_points(gr, 1)) == 35                    # gaussian binomial


def test_point_counts_match_closed_forms():
    for field, q in ((F2, 2), (F3, 3)):
        assert len(enumerate_points(conic(field), 1)) == q + 1
        assert len(enumerate_points(split_surface(field), 1)) == (q + 1) ** 2
        gr = GrassmannianModel(field, 2, 4)
        assert len(enumerate_points(gr, 1)) == gaussian_binomial(4, 2, q)


def test_enumerate_degree_two():
    pts = enumerate_points(conic(F3), 2)
    deg1 = [p for p in pts if p.degree == 1]
    deg2 = [p for p in pts if p.degree == 2]
    # 10 points over F_9, 4 rational, so 3 closed points of degree 2
    assert len(deg1) == 4 and len(deg2) == 3
    # each appears once with a canonical representative
    assert len(set(pts)) == 7


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_points(split_surface(F5), 6, budget=10 ** 4)


def test_transfer_rational_point():
    model = conic(F3)
    p = enumerate_points(model, 1)[0]
    z = transfer_cycle(model, p.coords, 1)
    assert z.degree == 1 and z.multiplicity_free()


def test_transfer_full_orbit():
    model = conic(F2)
    F4 = model.field_at(2)
    pts4 = model.points_over(F4)
    nonrational = [p for p in pts4
                   if len(frobenius_orbit(F4, 2, p)) == 2]
    assert nonrational
    z = transfer_cycle(model, nonrational[0], 2)
    assert z.degree == 2
    (pt, mult), = z.entries
    assert pt.degree == 2 and mult == 1


def test_transfer_rational_point_seen_upstairs():
    # a rational point viewed over F_9 transfers to twice itself
    model = conic(F3)
    F9 = model.field_at(2)
    p = enumerate_points(model, 1)[0]
    lifted = tuple(F9.lift(c) for c in p.coords)
    z = transfer_cycle(model, lifted, 2)
    assert z.degree == 2
    (pt, mult), = z.entries
    assert pt.degree == 1 and mult == 2 and pt == p
    assert not z.multiplicity_free()


def test_transfer_frobenius_invariance():
    model = conic(F2)
    F4 = model.field_at(2)
    for p in model.points_over(F4):
        frob = frobenius_coords(F4, 2, p)
        assert transfer_cycle(model, p, 2) == transfer_cycle(model, frob, 2)


def test_symmetric_power_points():
    model = conic(F3)
    assert len(symmetric_power_points(model, 0)) == 1
    assert len(symmetric_power_points(model, 1)) == 4
    cycles = symmetric_power_points(model, 2)
    # C(4,2) = 6 rational pairs plus 3 quadratic closed points
    assert len(cycles) == 9
    assert all(z.degree == 2 and z.multiplicity_free() for z in cycles)
    pair_type = [z for z in cycles if len(z.entries) == 2]
    quad_type = [z for z in cycles if len(z.entries) == 1]
    assert len(pair_type) == 6 and len(quad_type) == 3


def test_scheme_index_split_conic():
    report = scheme_index_bound(conic(F3), 2)
    assert report.value == 1 and report.status == "divides"


def test_scheme_index_conjugate_point_pair():
    # x^2 + y^2 on P^1 over F_3: no rational zero (-1 is not a square), but
    # a conjugate pair over F_9, so the bound is 2
    q = QuadraticForm.diagonal(F3, [F3.one, F3.one])
    report = scheme_index_bound(QuadricModel(q), 2)
    assert report.value == 2 and report.status == "divides"
    assert 1 not in report.found_degrees


def test_qpoint_search_hamilton_conic():
    q = QuadraticForm.diagonal(QQ, [Fraction(1)] * 3)
    x = Poly.from_ints(QQ, [0, 1])
    one = Poly.one(QQ)
    zero = Poly.zero(QQ)
    modulus = Poly.from_ints(QQ, [1, 0, 1])  # x^2 + 1
    search = QPointSearch(q, extension_points=[(modulus, (one, x, zero))])
    report = search.run(height_bound=10)
    assert report.value == 2 and report.status == "divides"
    assert report.found_degrees == (2,)


def test_qpoint_search_split_conic_finds_point():
    # x^2 + y^2 - 2 z^2 has the rational point (1 : 1 : 1)
    q = QuadraticForm.diagonal(QQ, [Fraction(1), Fraction(1), Fraction(-2)])
    report = QPointSearch(q).run(height_bound=3)
    assert report.value == 1


def test_qpoint_search_rejects_bad_extension_point():
    q = QuadraticForm.diagonal(QQ, [Fraction(1)] * 3)
    modulus = Poly.from_ints(QQ, [1, 0, 1])
    bad = (Poly.one(QQ), Poly.one(QQ), Poly.zero(QQ))  # 1 + 1 != 0 mod x^2+1
    with pytest.raises(InvalidInputError):
        QPointSearch(q, extension_points=[(modulus, bad)]).run(0)


def test_qpoint_search_empty_is_unknown():
    q = QuadraticForm.diagonal(QQ, [Fraction(1)] * 3)
    report = QPointSearch(q).run(height_bound=5)
    assert report.value is None and report.status == "unknown"


def test_link_graph_degree_zero_is_trivially_connected():
    model = conic(F3)
    report = link_graph(model, 0, QuadricCurves(model))
    assert len(report.vertices) == 1 and report.components == 1
    assert report.connected


def test_link_graph_conic_degree_one():
    model = conic(F3)
    report = link_graph(model, 1, QuadricCurves(model))
    assert report.connected
    assert len(report.vertices) == 4
    assert all(e.move == "point" for e in report.edges)


def test_link_graph_conic_degree_two():
    model = conic(F3)
    report = link_graph(model, 2, QuadricCurves(model))
    assert len(report.vertices) == 9
    assert report.connected
    moves = {e.move for e in report.edges}
    # connectivity between pair-type and quadratic-point vertices needs all
    # three move kinds
    assert "fiber" in moves
    data = report.to_json()
    assert data["components"] == 1
    assert data["vertices"] == 9
    assert "scope_note" in data


def test_link_graph_split_surface_f2_degree_two():
    model = split_surface(F2)
    report = link_graph(model, 2, QuadricCurves(model))
    # 36 rational pairs + 8 quadratic closed points
    assert len(report.vertices) == 44
    assert report.connected


def test_involution_quadric_model_counts():
    from csawitness.involutions import standard_alternating_matrix
    from csawitness.quadrics import plucker_form, symp_quadric_model
    for field, expected in ((F2, 15), (F3, 40)):
        J = standard_alternating_matrix(field, 4)
        quadric, hyper = symp_quadric_model(field, J)
        model = InvolutionQuadricModel(quadric, hyper)
        assert len(enumerate_points(model, 1)) == expected


def test_closed_point_representatives_are_minimal():
    model = conic(F2)
    for pt in enumerate_points(model, 2):
        if pt.degree == 2:
            F4 = model.field_at(2)
            orbit = frobenius_orbit(F4, 2, pt.coords)
            assert len(orbit) == 2
            assert pt.coords == min(orbit, key=lambda c: tuple(
                tuple(x) if isinstance(x, tuple) else (x,) for x in c))


def test_negative_search_sizes_are_invalid():
    q = QuadraticForm.diagonal(QQ, [Fraction(1), Fraction(1), Fraction(-2)])
    for call in (lambda: QPointSearch(q).search_rational_point(-1),
                 lambda: QPointSearch(q).run(height_bound=-1),
                 lambda: symmetric_power_points(conic(F3), -1),
                 lambda: link_graph(conic(F3), -1, QuadricCurves(conic(F3)))):
        with pytest.raises(InvalidInputError):
            call()
    assert QPointSearch(q).search_rational_point(0) is None
