import random
from fractions import Fraction

import pytest

from csawitness.arith import gaussian_binomial
from csawitness.errors import InvalidFormError, InvalidInputError
from csawitness.fields import QQ, PrimeField, standard_extension
from csawitness.involutions import standard_alternating_matrix
from csawitness.linalg import Matrix, mat_vec
from csawitness.poly import Poly
from csawitness.quadrics import (
    PLUCKER_PAIRS, QuadraticForm, enumerate_rref_subspaces, isotropic_two_planes,
    normalize_point, plucker_coordinates, plucker_embed, plucker_form,
    plucker_quadric_value, points_on_quadric, projective_points,
    symp_quadric_model,
)

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def test_normalize_point():
    assert normalize_point(F5, (0, 2, 4)) == (0, 1, 2)
    assert normalize_point(F5, (0, 0, 0)) is None
    assert normalize_point(QQ, (Fraction(0), Fraction(2), Fraction(3))) == \
        (0, 1, Fraction(3, 2))


def test_projective_point_count():
    assert len(list(projective_points(F3, 3))) == 13  # q^2+q+1
    assert len(list(projective_points(F2, 6))) == 63  # (q^6-1)/(q-1)


def test_conic_point_count():
    q = QuadraticForm(F3, 3, {(0, 2): F3.one, (1, 1): F3.neg(F3.one)})  # xz = y^2
    assert len(points_on_quadric(q)) == 4  # q + 1


def test_split_quadric_surface_count():
    # xw = yz over F_2: (q+1)^2 points
    q = QuadraticForm(F2, 4, {(0, 3): F2.one, (1, 2): F2.one})
    assert len(points_on_quadric(q)) == 9


def test_plucker_embed_examples():
    e = lambda i: tuple(QQ.one if t == i else QQ.zero for t in range(4))
    pt, val = plucker_embed(QQ, [e(0), e(1)])
    assert pt == (1, 0, 0, 0, 0, 0) and val == 0
    # span(e1+e3, e2+e4): wedge expands to p01 + p03 - p12 ... computed by hand
    w1 = (Fraction(1), Fraction(0), Fraction(1), Fraction(0))
    w2 = (Fraction(0), Fraction(1), Fraction(0), Fraction(1))
    pt, val = plucker_embed(QQ, [w1, w2])
    assert val == 0
    raw = plucker_coordinates(QQ, w1, w2)
    # (e1+e3)^(e2+e4) = e12 + e14 + e32 + e34
    assert raw == (1, 0, 1, -1, 0, 1)


def test_plucker_nondecomposable_vector():
    # omega = e12 + e34 is not decomposable: omega ^ omega = 2 e1234
    omega = (QQ.one, QQ.zero, QQ.zero, QQ.zero, QQ.zero, QQ.one)
    assert plucker_quadric_value(QQ, omega) == Fraction(2)


def test_plucker_embed_rejects_dependent_vectors():
    w = (Fraction(1), Fraction(2), Fraction(0), Fraction(0))
    with pytest.raises(InvalidInputError):
        plucker_embed(QQ, [w, w])


def test_plucker_relation_symbolically():
    # p01 p23 - p02 p13 + p03 p12 = 0 identically in the 8 entries of a
    # generic 2x4 matrix; exact multivariate expansion over Z
    def mono_mul(m1, m2):
        return tuple(a + b for a, b in zip(m1, m2))

    def poly_mul(p1, p2):
        out = {}
        for m1, c1 in p1.items():
            for m2, c2 in p2.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return {m: c for m, c in out.items() if c}

    def var(i):
        m = [0] * 8
        m[i] = 1
        return {tuple(m): 1}

    def sub(p1, p2):
        out = dict(p1)
        for m, c in p2.items():
            out[m] = out.get(m, 0) - c
        return {m: c for m, c in out.items() if c}

    def add(p1, p2):
        out = dict(p1)
        for m, c in p2.items():
            out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}

    a = [var(i) for i in range(4)]      # first row
    b = [var(4 + i) for i in range(4)]  # second row
    p = {}
    minors = {}
    for i, j in PLUCKER_PAIRS:
        minors[(i, j)] = sub(poly_mul(a[i], b[j]), poly_mul(a[j], b[i]))
    lhs = sub(add(poly_mul(minors[(0, 1)], minors[(2, 3)]),
                  poly_mul(minors[(0, 3)], minors[(1, 2)])),
              poly_mul(minors[(0, 2)], minors[(1, 3)]))
    assert lhs == {}


def test_grassmannian_count_equals_plucker_quadric_count():
    for field, q in ((F2, 2), (F3, 3)):
        subspaces = enumerate_rref_subspaces(field, 2, 4)
        assert len(subspaces) == gaussian_binomial(4, 2, q)
        quadric = plucker_form(field)
        count = len(points_on_quadric(quadric))
        assert count == len(subspaces)
        assert count == (q * q + 1) * (q * q + q + 1)
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130


def test_plucker_embed_is_injective_into_the_quadric():
    field = F2
    quadric = plucker_form(field)
    images = set()
    for mat in enumerate_rref_subspaces(field, 2, 4):
        pt, val = plucker_embed(field, [list(r) for r in mat])
        assert field.is_zero(val)
        assert field.is_zero(quadric.eval(pt))
        images.add(pt)
    assert len(images) == 35


def test_symp_quadric_model_examples():
    J = standard_alternating_matrix(F3, 4)
    quadric, hyperplane = symp_quadric_model(F3, J)
    # span(e1, e3) is J-isotropic (J pairs (1,2) and (3,4))
    w1 = (F3.one, F3.zero, F3.zero, F3.zero)
    w2 = (F3.zero, F3.zero, F3.one, F3.zero)
    pt, _ = plucker_embed(F3, [w1, w2])
    assert F3.is_zero(quadric.eval(pt))
    lin = F3.zero
    for c, x in zip(hyperplane, pt):
        lin = F3.add(lin, F3.mul(c, x))
    assert F3.is_zero(lin)
    # span(e1, e2) is NOT isotropic: J pairs e1 with e2
    w2b = (F3.zero, F3.one, F3.zero, F3.zero)
    ptb, _ = plucker_embed(F3, [w1, w2b])
    linb = F3.zero
    for c, x in zip(hyperplane, ptb):
        linb = F3.add(linb, F3.mul(c, x))
    assert not F3.is_zero(linb)


def _hyperplane_section_count(field, quadric, hyperplane):
    count = 0
    for pt in projective_points(field, 6):
        lin = field.zero
        for c, x in zip(hyperplane, pt):
            lin = field.add(lin, field.mul(c, x))
        if field.is_zero(lin) and field.is_zero(quadric.eval(pt)):
            count += 1
    return count


def test_isotropic_plane_count_matches_quadric_section():
    for field, q, expected in ((F2, 2, 15), (F3, 3, 40)):
        J = standard_alternating_matrix(field, 4)
        planes = isotropic_two_planes(field, J)
        assert len(planes) == expected == (q * q + 1) * (q + 1)
        quadric, hyperplane = symp_quadric_model(field, J)
        assert _hyperplane_section_count(field, quadric, hyperplane) == expected


def test_isotropic_planes_map_onto_the_section():
    field = F2
    J = standard_alternating_matrix(field, 4)
    quadric, hyperplane = symp_quadric_model(field, J)
    images = set()
    for mat in isotropic_two_planes(field, J):
        pt, _ = plucker_embed(field, [list(r) for r in mat])
        lin = field.zero
        for c, x in zip(hyperplane, pt):
            lin = field.add(lin, field.mul(c, x))
        assert field.is_zero(lin) and field.is_zero(quadric.eval(pt))
        images.add(pt)
    assert len(images) == 15


def test_symp_quadric_model_is_invariant_under_scaling():
    # a symplectic involution fixes its alternating form only up to a
    # scalar; every multiple cuts the same quadric and hyperplane
    J = standard_alternating_matrix(F3, 4)
    quadric, hyperplane = symp_quadric_model(F3, J)
    for c in (1, 2):
        cJ = [[F3.mul(c, x) for x in row] for row in J]
        q, h = symp_quadric_model(F3, cJ)
        assert q == quadric
        assert h == tuple(F3.mul(c, x) for x in hyperplane)


def test_symp_quadric_model_rejects_bad_forms():
    with pytest.raises(InvalidFormError):
        symp_quadric_model(F3, [[F3.one, F3.zero], [F3.zero, F3.one]])
    singular = [[F3.zero] * 4 for _ in range(4)]
    singular[0][1], singular[1][0] = F3.one, F3.neg(F3.one)
    with pytest.raises(InvalidFormError):
        symp_quadric_model(F3, singular)
    # a nonsingular alternating 4x4 block with a fifth column, or with a
    # short last row, is not a form
    J = standard_alternating_matrix(F3, 4)
    for bad in ([list(row) + [F3.zero] for row in J], J[:3] + [J[3][:2]]):
        with pytest.raises(InvalidFormError, match="not square"):
            symp_quadric_model(F3, bad)


def test_symp_models_reject_forms_off_4_space():
    # a nonsingular alternating form of any other size is no form on F^4:
    # 2x2 used to end in IndexError, 6x6 was cut to its top-left 4x4 block
    for n in (2, 6):
        omega = standard_alternating_matrix(F3, n)
        for model in (symp_quadric_model, isotropic_two_planes):
            with pytest.raises(InvalidFormError, match="not 4x4"):
                model(F3, omega)


def _random_form(field, elems, nvars, rng, last_square=True, last_var=True):
    """A random nonzero form with coefficients from elems; optionally
    without the x_(n-1)^2 term, or not involving the last variable at all."""
    while True:
        coeffs = {}
        for i in range(nvars):
            for j in range(i, nvars):
                if j == nvars - 1 and not (last_var and (i < j or last_square)):
                    continue
                if rng.random() < 0.6:
                    coeffs[(i, j)] = rng.choice(elems)
        if any(not field.is_zero(c) for c in coeffs.values()):
            return QuadraticForm(field, nvars, coeffs)


def test_points_on_quadric_matches_brute_force(monkeypatch):
    """Enumeration by fibers equals the filter of projective_points, in the
    same order, and never evaluates q on a point.  Field sizes and nvars up
    to 5 with at most 20000 points of P^(n-1)."""
    fields = [F2, F3, standard_extension(2, 2), F5, standard_extension(3, 2),
              standard_extension(5, 2)]
    rng = random.Random(19)
    cases = []
    for field in fields:
        for nvars in range(1, 6):
            if field.size ** (nvars - 1) > 20000:
                continue
            for kind in ((True, True), (False, True), (False, False)) * 3:
                if nvars == 1 and kind != (True, True):
                    continue  # the only form on one variable is c x^2
                form = _random_form(field, list(field.elements()), nvars, rng, *kind)
                brute = [p for p in projective_points(field, nvars)
                         if field.is_zero(form.eval(p))]
                cases.append((form, brute))
    evals = []
    monkeypatch.setattr(QuadraticForm, "eval", lambda self, vec: evals.append(vec))
    for form, brute in cases:
        assert points_on_quadric(form) == brute
    assert evals == []
    assert len(cases) > 200 and any(brute for _, brute in cases)


def _product_eval_polys(form, coord_polys):
    """q on Poly coordinates by Poly products, the expansion eval_polys
    replaces."""
    acc = Poly.zero(coord_polys[0].field)
    for (i, j), c in form.coeffs.items():
        acc = acc + (coord_polys[i] * coord_polys[j]).scale(c)
    return acc


def test_eval_polys_and_polar_match_products():
    rng = random.Random(23)
    F4, F7 = standard_extension(2, 2), PrimeField(7)
    rationals = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 5)]
    for field, elems in ((F2, [0, 1]), (F4, list(F4.elements())),
                         (F7, list(range(7))), (QQ, rationals)):
        for _ in range(60):
            nvars = rng.randrange(1, 6)
            form = _random_form(field, elems, nvars, rng)
            degrees = [rng.randrange(-1, 5) for _ in range(nvars)]
            polys = [Poly(field, [rng.choice(elems) for _ in range(d + 1)]) for d in degrees]
            assert form.eval_polys(polys) == _product_eval_polys(form, polys)
            u, v = ([rng.choice(elems) for _ in range(nvars)] for _ in range(2))
            uv = [field.add(a, b) for a, b in zip(u, v)]
            b = field.sub(form.eval(uv), field.add(form.eval(u), form.eval(v)))
            assert (mat_vec(Matrix(field, [form.polar(v)]), u)[0] == b
                    == mat_vec(Matrix(field, [form.polar(u)]), v)[0])


def test_zero_form_rejected():
    with pytest.raises(InvalidFormError):
        QuadraticForm(F3, 3, {})
