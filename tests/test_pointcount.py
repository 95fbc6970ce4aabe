import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from csawitness import pointcount
from csawitness.arith import gaussian_binomial
from csawitness.errors import BudgetExceededError, InvalidInputError
from csawitness.fields import QQ, PrimeField
from csawitness.poly import Poly, is_irreducible
from csawitness.pointcount import (
    ClosedPoint, GrassmannianModel, InvolutionQuadricModel, QPointSearch,
    QuadricCurves, QuadricModel, enumerate_points, frobenius_coords,
    frobenius_orbit, link_graph, symmetric_power_points,
    _irreducible_quadratics, _single_swap, transfer_cycle,
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
    # degree 3 would visit 125^4 > 10^7 coordinate vectors of F_125
    with pytest.raises(BudgetExceededError):
        enumerate_points(split_surface(F5), 3)


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


def test_transfer_lands_on_an_enumerated_point():
    """Oracle: for every point P over F_{p^n} with p^(n * nvars) <= 10^6,
    transfer_cycle gives one closed point that enumerate_points lists, with
    multiplicity n/d, and Frob(P) gives the same cycle."""
    bad = []
    checked = 0
    for make, field in ((conic, F2), (conic, F3), (split_surface, F2), (conic, F5)):
        model = make(field)
        for n in (2, 3, 4, 6):
            if field.p ** (n * model.ambient) > 10 ** 6:
                continue
            listed = set(enumerate_points(model, n))
            ext = model.field_at(n)
            for p in model.points(n):
                z = transfer_cycle(model, p, n)
                (pt, mult), = z.entries
                frob = frobenius_coords(ext, field.p, p)
                if (pt not in listed or mult * pt.degree != n
                        or transfer_cycle(model, frob, n) != z):
                    bad.append((make.__name__, field.p, n, pt))
                checked += 1
    assert checked == 637
    assert bad == []


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


def test_scheme_index_conjugate_point_pair():
    # x^2 + y^2 on P^1 over F_3: no rational zero (-1 is not a square), but
    # one conjugate pair over F_9, one closed point of degree 2: index 2
    model = QuadricModel(QuadraticForm.diagonal(F3, [F3.one, F3.one]))
    assert enumerate_points(model, 1) == []
    assert enumerate_points(model, 2) == [ClosedPoint(2, ((1, 0), (0, 1)))]


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


def _pointwise_search(form, bound):
    """search_rational_point as a loop over every vector: leading zeros,
    a positive head, then the tail in lexicographic order, each vector
    evaluated on the integer form."""
    ints, _ = QQ.lift_vector(list(form.coeffs.values()))
    coeffs = dict(zip(form.coeffs, ints))
    nv = form.nvars
    for first in range(nv):
        for head in range(1, bound + 1):
            for tail in itertools.product(range(-bound, bound + 1), repeat=nv - first - 1):
                vec = (0,) * first + (head,) + tail
                if sum(c * vec[i] * vec[j] for (i, j), c in coeffs.items()) == 0:
                    return tuple(Fraction(v) for v in vec)
    return None


def _random_q_form(rng, nv, diagonal):
    while True:
        coeffs = {(i, j): Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                  for i in range(nv) for j in range(i, nv)
                  if (i == j or not diagonal) and rng.random() < 0.8}
        if any(coeffs.values()):
            return QuadraticForm(QQ, nv, coeffs)


def test_search_rational_point_by_fibers_equals_the_pointwise_loop_seeded():
    # bounds 0-8, 0-5 in four variables, where the pointwise loop is slow
    rng = random.Random(44)
    found = 0
    for k in range(800):
        nv = rng.randint(1, 4)
        form = _random_q_form(rng, nv, diagonal=k % 2 == 0)
        bound = rng.randint(0, 5 if nv == 4 else 8)
        got = QPointSearch(form).search_rational_point(bound)
        assert got == _pointwise_search(form, bound), (form, bound)
        found += got is not None
    assert 200 <= found <= 700


def test_search_rational_point_expands_one_fiber_per_prefix(monkeypatch):
    # the definite x^2 + y^2 + z^2 has no zero: every prefix (x, y) with
    # x > 0, then every (0, y) with y > 0, is expanded once, and no vector
    # is evaluated on its own
    fibers = []
    root = pointcount.first_int_root
    monkeypatch.setattr(pointcount, "first_int_root",
                        lambda *args: fibers.append(args) or root(*args))
    q = QuadraticForm.diagonal(QQ, [Fraction(1)] * 3)
    assert QPointSearch(q).search_rational_point(12) is None
    assert len(fibers) == 12 * 25 + 12


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


@pytest.mark.parametrize("model, n", [(conic(F3), 2), (conic(F3), 3),
                                      (split_surface(F2), 2)])
def test_single_swap_is_the_one_point_difference(model, n):
    vertices = symmetric_power_points(model, n)
    swaps = 0
    for alpha in vertices:
        for beta in vertices:
            a, b = set(alpha.support()), set(beta.support())
            want = None
            if len(a - b) == 1 and len(b - a) == 1:
                want = ((a - b).pop(), (b - a).pop())
                swaps += 1
            assert _single_swap(frozenset(a), frozenset(b)) == want
    assert swaps


def test_involution_quadric_model_counts():
    from csawitness.involutions import standard_alternating_matrix
    from csawitness.quadrics import symp_quadric_model
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


# ---------------------------------------------------------------------------
# link_graph: each ordered point pair is linked and verified once per graph


class CountingCurves(QuadricCurves):
    """QuadricCurves that counts its link calls per ordered (d, x, y)."""

    def __init__(self, model):
        super().__init__(model)
        self.calls = Counter()

    def link(self, d, x, y):
        self.calls[(d, x, y)] += 1
        return super().link(d, x, y)


@pytest.mark.parametrize("model, expected", [
    # vertices, edges, components and edges by move of each graph
    (conic(F3), (9, 16, 1, {"fiber": 1, "point": 12, "transfer": 3})),
    (conic(F5), (25, 106, 1, {"fiber": 1, "point": 60, "transfer": 45})),
    (split_surface(F2), (44, 281, 1, {"fiber": 1, "point": 252, "transfer": 28})),
], ids=["conic_f3", "conic_f5", "surface_f2"])
def test_link_graph_links_and_verifies_each_pair_once(monkeypatch, model, expected):
    verified = Counter()
    real_verify = pointcount.verify_witness

    def counting_verify(w, samples=None):
        verified[id(w)] += 1
        return real_verify(w, samples)

    monkeypatch.setattr(pointcount, "verify_witness", counting_verify)
    curves = CountingCurves(model)
    report = link_graph(model, 2, curves)
    moves = Counter(e.move for e in report.edges)
    assert (len(report.vertices), len(report.edges), report.components,
            dict(moves)) == expected
    assert set(curves.calls.values()) == {1}
    assert set(verified.values()) == {1}
    assert {id(e.witness) for e in report.edges} <= set(verified)


def involution_model(field):
    from csawitness.involutions import standard_alternating_matrix
    from csawitness.quadrics import symp_quadric_model
    J = standard_alternating_matrix(field, 4)
    return InvolutionQuadricModel(*symp_quadric_model(field, J))


@pytest.mark.parametrize("field, n, expected", [
    # vertices, edges, components
    (F2, 1, (15, 105, 1)),
    (F2, 2, (140, 1961, 1)),
    (F3, 1, (40, 780, 1)),
], ids=["f2_n1", "f2_n2", "f3_n1"])
def test_link_graph_curves_stay_on_the_involution_model(field, n, expected):
    """verify_witness checks a conic segment against the quadric only; every
    segment of the graph must also lie on the model's hyperplane, as an
    identity sum_i h_i phi_i(t) = 0 of polynomials."""
    model = involution_model(field)
    report = link_graph(model, n, QuadricCurves(model))
    assert (len(report.vertices), len(report.edges), report.components) == expected
    witnesses = {id(e.witness): e.witness for e in report.edges}
    for w in witnesses.values():
        for seg in w.segments:
            polys = seg.data["coord_polys"]
            ext = polys[0].field
            lin = Poly(ext, [ext.zero])
            for h, phi in zip(model.hyperplane, polys):
                lin = lin + phi.scale(ext.from_int(h))
            assert lin.is_zero()


class BrokenCurves(QuadricCurves):
    """Links whose first coordinate polynomial is shifted by 1 at the given
    degrees: the curve no longer starts at x, so verification fails."""

    def __init__(self, model, degrees):
        super().__init__(model)
        self.degrees = degrees

    def link(self, d, x, y):
        w = super().link(d, x, y)
        if w is not None and d in self.degrees:
            for seg in w.segments:
                polys = seg.data["coord_polys"]
                polys[0] = polys[0] + Poly(polys[0].field, [polys[0].field.one])
        return w


def test_link_graph_adds_no_edge_for_unverified_witnesses():
    model = conic(F3)
    report = link_graph(model, 2, BrokenCurves(model, {1}))
    # without verified rational links neither point nor fiber moves exist
    assert {e.move for e in report.edges} == {"transfer"}
    report = link_graph(model, 2, BrokenCurves(model, {1, 2}))
    assert report.edges == [] and report.components == len(report.vertices)


@pytest.mark.parametrize("field", [F2, F3, F5, PrimeField(7)], ids=str)
def test_irreducible_quadratics_match_factorization(field):
    expected = [Poly(field, [c0, c1, field.one])
                for c0 in field.elements() for c1 in field.elements()
                if is_irreducible(Poly(field, [c0, c1, field.one]))]
    got = _irreducible_quadratics(field)
    assert [g.coeffs for g in got] == [f.coeffs for f in expected]
    assert len(got) == (field.p ** 2 - field.p) // 2
