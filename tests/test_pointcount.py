import importlib.util
import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from csawitness import pointcount, quadrics
from csawitness.arith import gaussian_binomial
from csawitness.errors import BudgetExceededError, InvalidInputError
from csawitness.fields import QQ, PrimeField
from csawitness.poly import Poly, is_irreducible
from csawitness.pointcount import (
    ClosedPoint, GrassmannianModel, InvolutionQuadricModel, QPointSearch,
    QuadricCurves, QuadricModel, enumerate_points, frobenius_coords,
    frobenius_orbit, link_graph, symmetric_power_points,
    _equal_degree_swaps, _fiber_hit, _first_root, _irreducible_quadratics,
    transfer_cycle,
)
from csawitness.quadrics import QuadraticForm, plucker_form
from csawitness.witness import verify_witness

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


@pytest.mark.parametrize("coords", [(0, 0, 0, 1), (1, 2)], ids=str)
def test_transfer_rejects_coordinates_of_the_wrong_length_on_a_conic(coords):
    with pytest.raises(InvalidInputError, match="coordinates for a model with 3"):
        transfer_cycle(conic(F3), coords, 1)


@pytest.mark.parametrize("coords", [(0, 1), (1, 0), (0, 0, 1, 0)], ids=str)
def test_transfer_rejects_coordinates_of_the_wrong_length_on_a_grassmannian(coords):
    with pytest.raises(InvalidInputError, match="coordinates for a model with 3"):
        transfer_cycle(GrassmannianModel(F3, 1, 3), coords, 1)


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


def _hamilton_search(*extension_points):
    q = QuadraticForm.diagonal(QQ, [Fraction(1)] * 3)
    return QPointSearch(q, extension_points=extension_points)


def test_qpoint_search_rejects_coordinates_of_the_wrong_length():
    # x^2 + y^2 + z^2 has index 2: a fourth coordinate, which the form never
    # reads, must not certify a degree-1 point
    x, c = Poly.x(QQ), (lambda k: Poly.from_ints(QQ, [k]))
    for coords in ((c(0), c(0), c(0), c(1)), (Poly.one(QQ), x)):
        with pytest.raises(InvalidInputError, match="coordinates for a form in 3"):
            _hamilton_search((x, coords)).run(0)


def test_qpoint_search_rejects_coordinates_sharing_a_factor_with_the_modulus():
    # x^3 + x = x (x^2 + 1) and (x, x^2, 0): q = x^2 (1 + x^2) vanishes modulo
    # it, but every coordinate vanishes at the factor x, so no degree-3 point
    # and no bound 1 next to the genuine degree-2 point
    x, zero = Poly.x(QQ), Poly.zero(QQ)
    bad = (Poly.from_ints(QQ, [0, 1, 0, 1]), (x, x * x, zero))
    good = (Poly.from_ints(QQ, [1, 0, 1]), (Poly.one(QQ), x, zero))
    with pytest.raises(InvalidInputError, match="share a factor"):
        _hamilton_search(bad).run(0)
    with pytest.raises(InvalidInputError, match="share a factor"):
        _hamilton_search(good, bad).run(0)
    report = _hamilton_search(good).run(10)
    assert report.value == 2 and report.found_degrees == (2,)


def test_qpoint_search_accepts_a_reducible_modulus_prime_to_the_coordinates():
    # (x^2 + 1)(x^2 + 2) with coordinates that are (1, x, 0) modulo x^2 + 1,
    # a point over Q(i), and (1, 1, x) modulo x^2 + 2, a point over
    # Q(sqrt -2), glued by the idempotents x^2 + 2 and -(x^2 + 1): each factor
    # gives a point of degree 2, so the index divides 4
    modulus = Poly.from_ints(QQ, [1, 0, 1]) * Poly.from_ints(QQ, [2, 0, 1])
    coords = (Poly.one(QQ), Poly.from_ints(QQ, [-1, 2, -1, 1]),
              Poly.from_ints(QQ, [0, -1, 0, -1]))
    report = _hamilton_search((modulus, coords)).run(0)
    assert report.value == 4 and report.found_degrees == (4,)


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


def test_search_rational_point_on_the_evidence_conics_equals_the_pointwise_loop():
    # the norm conics <1, -a, -b> of the benchmark's evidence kinds at their
    # bound 12: every definite (a, b) in [-3, -1]^2, and split ones built
    # around a point of height <= 6
    rng = random.Random(12)
    pairs = [(Fraction(a), Fraction(b)) for a in (-1, -2, -3) for b in (-1, -2, -3)]
    while len(pairs) < 49:
        b = Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]))
        x, y, z = rng.randint(0, 6), rng.randint(1, 4), rng.randint(1, 4)
        a = (x * x - b * z * z) / (y * y)
        if a:
            pairs.append((a, b))
    for a, b in pairs:
        form = QuadraticForm.diagonal(QQ, [Fraction(1), -a, -b])
        got = QPointSearch(form).search_rational_point(12)
        assert got == _pointwise_search(form, 12), (a, b)
        assert (got is None) == (a < 0 and b < 0), (a, b)


def test_search_rational_point_expands_one_fiber_per_prefix(monkeypatch):
    # the definite x^2 + y^2 + z^2 has no zero: every prefix (x, y) with
    # x > 0, then every (0, y) with y > 0, is expanded once, and no vector
    # is evaluated on its own
    fibers = []
    root = quadrics.first_int_root
    monkeypatch.setattr(quadrics, "first_int_root",
                        lambda *args: fibers.append(args) or root(*args))
    q = QuadraticForm.diagonal(QQ, [Fraction(1)] * 3)
    assert QPointSearch(q).search_rational_point(12) is None
    assert len(fibers) == 12 * 25 + 12


def test_link_graph_degree_zero_is_trivially_connected():
    model = conic(F3)
    report = link_graph(model, 0, QuadricCurves(model))
    assert len(report.vertices) == 1 and report.components == 1
    assert report.connected is True


def test_link_graph_conic_degree_one():
    model = conic(F3)
    report = link_graph(model, 1, QuadricCurves(model))
    assert report.connected is True
    assert len(report.vertices) == 4
    assert all(e.move == "point" for e in report.edges)


def test_link_graph_conic_degree_two():
    model = conic(F3)
    report = link_graph(model, 2, QuadricCurves(model))
    assert len(report.vertices) == 9
    assert report.connected is True
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
    assert report.connected is True


@pytest.mark.parametrize("model, n", [(conic(F3), 2), (conic(F3), 3),
                                      (split_surface(F2), 2), (conic(F2), 4)])
def test_single_swap_is_the_one_point_difference(model, n):
    """The pairs of link_graph's buckets are exactly the vertex pairs whose
    supports differ by one point on each side, and the two points have one
    degree."""
    vertices = symmetric_power_points(model, n)
    want = Counter()
    for i, j in itertools.combinations(range(len(vertices)), 2):
        a, b = set(vertices[i].support()), set(vertices[j].support())
        if len(a - b) == 1 and len(b - a) == 1:
            (p,), (q,) = a - b, b - a
            assert p.degree == q.degree
            want[i, p, j, q] += 1
    assert want and Counter(_equal_degree_swaps(vertices)) == want


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
# link_graph: a spanning forest, each point pair linked at most once and each
# witness verified once per graph


class CountingCurves(QuadricCurves):
    """QuadricCurves that counts its link calls per ordered (d, x, y) and
    keeps every witness it returns."""

    def __init__(self, model):
        super().__init__(model)
        self.calls = Counter()
        self.returned = []

    def link(self, d, x, y):
        self.calls[(d, x, y)] += 1
        w = super().link(d, x, y)
        if w is not None:
            self.returned.append(w)
        return w


def partition(vertices, find):
    """The vertex classes of a union-find over vertex indices, as a set of
    frozensets of cycles."""
    groups = {}
    for i, v in enumerate(vertices):
        groups.setdefault(find(i), set()).add(v)
    return {frozenset(g) for g in groups.values()}


def all_pairs_partition(model, n, curves):
    """The vertex partition under the rule link_graph followed before it kept
    a spanning forest: every single swap is linked and every fiber pair
    tried, whether or not its ends are already joined.  Each (d, x, y) is
    linked and verified once."""
    vertices = symmetric_power_points(model, n)
    links = {}

    def link(d, x, y):
        if (d, x, y) not in links:
            w = curves.link(d, x, y)
            links[d, x, y] = w if w is not None and verify_witness(w).passed else None
        return links[d, x, y]

    supports = [frozenset(v.support()) for v in vertices]
    parent = list(range(len(vertices)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for i, j in itertools.combinations(range(len(vertices)), 2):
        only_i, only_j = supports[i] - supports[j], supports[j] - supports[i]
        if len(only_i) == 1 and len(only_j) == 1:
            (p,), (q,) = only_i, only_j
            if link(p.degree, p.coords, q.coords) is not None:
                union(i, j)
    index = {supp: i for i, supp in enumerate(supports)}
    rationals = enumerate_points(model, 1)
    ext = model.field_at(2)
    roots = [(g, _first_root(ext, g)) for g in _irreducible_quadratics(model.base_field)]
    for i, beta in enumerate(vertices):
        for P in beta.support():
            if P.degree != 2:
                continue
            gamma = supports[i] - {P}
            for q1, q2 in itertools.combinations(
                    [q for q in rationals if q not in gamma], 2):
                j = index.get(gamma | {q1, q2})
                w = None if j is None else link(1, q1.coords, q2.coords)
                if (w is not None and len(w.segments) == 1
                        and _fiber_hit(model, w.segments[0], roots, ext, P) is not None):
                    union(i, j)
    return partition(vertices, find)


def forest_partition(report):
    """Check that the report's edges form a spanning forest whose trees are
    its components, and that the ends of each edge differ by its stated
    move; the vertex partition, as all_pairs_partition gives it."""
    vertices = report.vertices
    assert len(report.edges) == len(vertices) - report.components
    parent = list(range(len(vertices)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for e in report.edges:
        a, b = set(vertices[e.u].support()), set(vertices[e.v].support())
        if e.move == "fiber":
            assert sorted(p.degree for p in a - b) == [1, 1]
            assert [p.degree for p in b - a] == [2] == [e.data["degree"]]
        else:
            (p,), (q,) = a - b, b - a
            assert p.degree == q.degree == e.data["degree"]
            assert e.move == ("point" if p.degree == 1 else "transfer")
        ru, rv = find(e.u), find(e.v)
        assert ru != rv  # every edge joins two trees
        parent[ru] = rv
    assert len({find(i) for i in range(len(vertices))}) == report.components
    return partition(vertices, find)


@pytest.mark.parametrize("model, expected", [
    # vertices, edges, components, edges by move, and links built
    (conic(F3), (9, 8, 1, {"fiber": 1, "point": 5, "transfer": 2}, 6)),
    (conic(F5), (25, 24, 1, {"fiber": 1, "point": 14, "transfer": 9}, 17)),
    (split_surface(F2), (44, 43, 1, {"fiber": 1, "point": 35, "transfer": 7}, 21)),
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
            dict(moves), len(curves.calls)) == expected
    assert set(curves.calls.values()) == {1}
    assert sorted(verified) == sorted(id(w) for w in curves.returned)
    assert set(verified.values()) == {1}
    assert {id(e.witness) for e in report.edges} <= set(verified)


def involution_model(field):
    from csawitness.involutions import standard_alternating_matrix
    from csawitness.quadrics import symp_quadric_model
    J = standard_alternating_matrix(field, 4)
    return InvolutionQuadricModel(*symp_quadric_model(field, J))


@pytest.mark.parametrize("field, n, expected", [
    # vertices, edges, components
    (F2, 1, (15, 14, 1)),
    (F2, 2, (140, 139, 1)),
    (F3, 1, (40, 39, 1)),
], ids=["f2_n1", "f2_n2", "f3_n1"])
def test_link_graph_curves_stay_on_the_involution_model(field, n, expected):
    """verify_witness checks a conic segment against the quadric only; every
    segment the supplier returns must also lie on the model's hyperplane, as
    an identity sum_i h_i phi_i(t) = 0 of polynomials.  The all-pairs rule
    builds every link of the graph's swaps and fiber pairs, not only those of
    the forest."""
    model = involution_model(field)
    curves = CountingCurves(model)
    report = link_graph(model, n, curves)
    assert (len(report.vertices), len(report.edges), report.components) == expected
    assert forest_partition(report) == all_pairs_partition(model, n, curves)
    for w in curves.returned:
        for seg in w.segments:
            polys = seg.data["coord_polys"]
            ext = polys[0].field
            lin = Poly(ext, [ext.zero])
            for h, phi in zip(model.hyperplane, polys):
                lin = lin + phi.scale(ext.from_int(h))
            assert lin.is_zero()


def _benchmark_forms(count):
    """The first `count` seed-1 forms of each hgraph kind of the benchmark's
    audit_cli workload, as QuadricModels."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent
        / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    models = []
    for kind, (p, nvars, coeffs, _) in sorted(workloads.HGRAPH_FORMS.items()):
        field = PrimeField(p)
        for i in range(count):
            M = workloads.random_invertible(p, nvars, workloads.op_rng(1, kind, i))
            models.append(QuadricModel(QuadraticForm(
                field, nvars, workloads.transform_form(p, nvars, coeffs, M))))
    return models


class FlakyCurves(QuadricCurves):
    """QuadricCurves that fails two links in three, the same ones in any
    call order: those whose (d, x, y) does not hash to 0 mod 3."""

    def link(self, d, x, y):
        return super().link(d, x, y) if hash((d, x, y)) % 3 == 0 else None


def test_link_graph_forest_keeps_the_all_pairs_partition():
    """Skipping the pairs whose ends are already joined leaves the vertex
    partition of the all-pairs rule: on the conics and the split surface at
    n = 2, 3, 4 (n = 2, 3 over F_5), on the benchmark's seed-1 forms, on the
    line pair x0 x1 over F_3, and where links fail.  The forest spans Sym^2
    of the Klein quadric Gr(2, 4) over F_2."""
    cases = [(conic(F2), n) for n in (2, 3, 4)] + [(conic(F3), n) for n in (2, 3, 4)]
    cases += [(split_surface(F2), n) for n in (2, 3, 4)] + [(conic(F5), n) for n in (2, 3)]
    cases = [(model, n, QuadricCurves) for model, n in cases]
    cases += [(model, 2, QuadricCurves) for model in _benchmark_forms(16)]
    line_pair = QuadricModel(QuadraticForm(F3, 3, {(0, 1): 1}))
    cases += [(line_pair, 2, QuadricCurves), (conic(F5), 2, FlakyCurves),
              (split_surface(F2), 3, FlakyCurves)]
    components = []
    for model, n, curves in cases:
        report = link_graph(model, n, curves(model))
        assert forest_partition(report) == all_pairs_partition(model, n, curves(model))
        components.append(report.components)
    assert components == [1, 2, 3] * 3 + [1, 2] + [1] * 48 + [5, 2, 2]
    klein = QuadricModel(plucker_form(F2))
    report = link_graph(klein, 2, QuadricCurves(klein))
    assert (len(report.vertices), report.components) == (756, 1)
    forest_partition(report)


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
    assert report.connected is False


@pytest.mark.parametrize("field", [F2, F3, F5, PrimeField(7)], ids=str)
def test_irreducible_quadratics_match_factorization(field):
    expected = [Poly(field, [c0, c1, field.one])
                for c0 in field.elements() for c1 in field.elements()
                if is_irreducible(Poly(field, [c0, c1, field.one]))]
    got = _irreducible_quadratics(field)
    assert [g.coeffs for g in got] == [f.coeffs for f in expected]
    assert len(got) == (field.p ** 2 - field.p) // 2
