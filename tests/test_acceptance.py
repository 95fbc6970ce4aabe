"""Acceptance suite: every criterion is exact (no tolerances) and carries a
wall-clock budget.  Each test prints one pass/fail line; run with -s to see
them all:

    pytest tests/test_acceptance.py -s
"""

import itertools
import random
import time
from fractions import Fraction

from csawitness.algebra import (
    NoWitnessFound, make_matrix_algebra, make_quaternion, tensor_product,
)
from csawitness.arith import gaussian_binomial, pi_degree_prime_to_p, vp_factorial
from csawitness.etale import (
    generate_etale, is_et_m_point, random_balanced_pair_subalgebra,
    random_maximal_etale,
)
from csawitness.fields import QQ, PrimeField
from csawitness.ideals import (
    ideal_generated, induce_from_corner, module_presentation, random_flag,
    random_ideal, restrict_to_corner, splitting_idempotent, corner_algebra,
)
from csawitness.involutions import (
    adjoint_involution, pfaffian_char_poly, standard_alternating_matrix,
    sym_basis,
)
from csawitness.linalg import Matrix, rank, rref
from csawitness.algebra import index_evidence, poly_eval_at_element, reduced_char_poly
from csawitness.pointcount import (
    QPointSearch, QuadricCurves, QuadricModel, link_graph,
)
from csawitness.poly import Poly
from csawitness.quadrics import (
    PLUCKER_PAIRS, QuadraticForm, enumerate_rref_subspaces, isotropic_two_planes,
    plucker_form, points_on_quadric, projective_points, symp_quadric_model,
)
from csawitness.witness import (
    connect_exp2, connect_flags, connect_ideals, connect_max_etale,
    connect_quadric_points, verify_witness,
)

F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)


def report(number, name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number:2d}  {name:<42s} {status}  ({elapsed:6.2f}s / {budget}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_idempotent_splitting():
    start = time.perf_counter()
    rng = random.Random(1001)
    cases = []
    for p in (2, 3, 5):
        field = PrimeField(p)
        for n in (2, 3, 4):
            A = make_matrix_algebra(field, n)
            for _ in range(20):
                cases.append((A, rng.randint(0, n)))
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    M2H = tensor_product(make_matrix_algebra(QQ, 2), H)
    for _ in range(20):
        cases.append((M2H, rng.choice([0, 2, 4])))
    assert len(cases) == 200
    ok = True
    for A, rdim in cases:
        I = random_ideal(A, rdim, rng)
        e = splitting_idempotent(I)
        comp = ideal_generated([A.one - e])
        ok = ok and (e * e - e).is_zero()
        ok = ok and I.contains(e.coords)
        ok = ok and ideal_generated([e]) == I
        ok = ok and I.dim() + comp.dim() == A.dim
        ok = ok and rank(Matrix(A.field, list(I.basis) + list(comp.basis))) == A.dim
        if not ok:
            break
    report(1, "idempotent splitting (200 ideals)", ok,
           time.perf_counter() - start, 10)


def test_criterion_02_subflag_dictionary():
    start = time.perf_counter()
    A = make_matrix_algebra(F5, 4)
    pres = module_presentation(A)
    rng = random.Random(1002)
    ok = True
    for _ in range(50):
        big_rdim = rng.choice([2, 3])
        I = random_ideal(A, big_rdim, rng)
        e = splitting_idempotent(I)
        D = corner_algebra(e)
        W = pres.image_subspace(I)
        sub_rdim = rng.randint(1, big_rdim - 1)
        while True:
            vecs = []
            for _ in range(sub_rdim):
                v = [F5.zero] * pres.vlen
                for w in W:
                    c = F5.random(rng)
                    for idx, x in enumerate(w):
                        v[idx] = F5.add(v[idx], F5.mul(c, x))
                vecs.append(tuple(v))
            if rank(Matrix(F5, vecs)) == sub_rdim:
                break
        J = pres.ideal_from_subspace([tuple(r) for r in rref(rows=Matrix(F5, vecs))[0].rows])
        ok = ok and I.contains_ideal(J)
        K = restrict_to_corner(J, D)
        ok = ok and induce_from_corner(K) == J
        ok = ok and restrict_to_corner(induce_from_corner(K), D) == K
        full = restrict_to_corner(I, D)
        ok = ok and induce_from_corner(full) == I
        if not ok:
            break
    report(2, "sub-flag dictionary (50 round trips)", ok,
           time.perf_counter() - start, 5)


def test_criterion_03_pencil_witnesses():
    start = time.perf_counter()
    rng = random.Random(1003)
    ok = True
    A4 = make_matrix_algebra(F5, 4)
    count = 0
    for rdim in (1, 2):
        for _ in range(30):
            I1 = random_ideal(A4, rdim, rng)
            I2 = random_ideal(A4, rdim, rng)
            w = connect_ideals(I1, I2)
            ok = ok and not w.validity.is_zero()
            rep = verify_witness(w, list(F5.elements()))
            ok = ok and rep.passed
            count += 1
            if not ok:
                break
    A3 = make_matrix_algebra(F5, 3)
    for _ in range(40):
        f1 = random_flag(A3, (1, 2), rng)
        f2 = random_flag(A3, (1, 2), rng)
        w = connect_flags(f1, f2)
        ok = ok and not w.validity.is_zero()
        rep = verify_witness(w, list(F5.elements()))
        ok = ok and rep.passed
        count += 1
        if not ok:
            break
    ok = ok and count == 100
    report(3, "pencil witnesses (100, exhaustive F_5)", ok,
           time.perf_counter() - start, 30)


def test_criterion_04_maximal_etale_linkage():
    start = time.perf_counter()
    rng = random.Random(1004)
    ok = True
    A = make_matrix_algebra(F7, 3)
    for _ in range(30):
        E1 = random_maximal_etale(A, rng)
        E2 = random_maximal_etale(A, rng)
        w = connect_max_etale(E1, E2)
        rep = verify_witness(w, list(F7.elements()))
        ok = ok and rep.passed
        if not ok:
            break
    B = make_matrix_algebra(QQ, 2)
    qsamples = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)]
    done = 0
    while ok and done < 20:
        coords = tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
        try:
            E1 = generate_etale(B.element(coords))
            E2 = generate_etale(B.element(
                tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))))
        except Exception:
            continue
        if not (E1.is_maximal() and E2.is_maximal()):
            continue
        w = connect_max_etale(E1, E2)
        rep = verify_witness(w, qsamples)
        ok = ok and rep.passed
        done += 1
    report(4, "maximal etale linkage (50 pairs)", ok,
           time.perf_counter() - start, 30)


def test_criterion_05_pfaffian_contract():
    start = time.perf_counter()
    A = make_matrix_algebra(F7, 4)
    s = adjoint_involution(A, standard_alternating_matrix(F7, 4))
    basis = sym_basis(s)
    rng = random.Random(1005)
    ok = True
    for _ in range(100):
        coords = [F7.zero] * 16
        for b in basis:
            c = F7.random(rng)
            for i, x in enumerate(b):
                coords[i] = F7.add(coords[i], F7.mul(c, x))
        x = A.element(coords)
        prp = pfaffian_char_poly(s, x)
        ok = ok and prp.degree == 2
        ok = ok and prp * prp == reduced_char_poly(x)
        ok = ok and poly_eval_at_element(prp, x).is_zero()
        if not ok:
            break
    report(5, "Pfaffian contract (100 symmetric elements)", ok,
           time.perf_counter() - start, 5)


def test_criterion_06_exponent_two_paths():
    start = time.perf_counter()
    rng = random.Random(1006)
    A = make_matrix_algebra(F7, 4)
    ok = True
    for trial in range(20):
        L1 = random_balanced_pair_subalgebra(A, rng)
        L2 = random_balanced_pair_subalgebra(A, rng)
        if L1 == L2:
            continue
        chain = connect_exp2(L1, L2, rng_seed=1006 + trial)
        ok = ok and len(chain) == 3
        ok = ok and chain.start == L1 and chain.end == L2
        rep = verify_witness(chain, list(F7.elements()))
        ok = ok and rep.passed
        for seg in chain.segments:
            for t in F7.elements():
                if not F7.is_zero(seg.validity.eval(t)):
                    ok = ok and is_et_m_point(seg.evaluate(t), 2)
        if not ok:
            break
    # the rational case on a split biquaternion preset
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    S = make_quaternion(QQ, Fraction(1), Fraction(1))
    B = tensor_product(H, S)
    L1 = generate_etale(B.basis_element(4))   # i x 1
    L2 = generate_etale(B.basis_element(2))   # 1 x j
    chain = connect_exp2(L1, L2, rng_seed=1006)
    qsamples = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)]
    rep = verify_witness(chain, qsamples)
    ok = ok and rep.passed
    report(6, "exponent-2 paths (20 + rational case)", ok,
           time.perf_counter() - start, 60)


def test_criterion_07_plucker_model():
    start = time.perf_counter()
    # symbolic Plücker relation on a generic 2x4 matrix over Z
    def var(i):
        m = [0] * 8
        m[i] = 1
        return {tuple(m): 1}

    def mul(p1, p2):
        out = {}
        for m1, c1 in p1.items():
            for m2, c2 in p2.items():
                key = tuple(a + b for a, b in zip(m1, m2))
                out[key] = out.get(key, 0) + c1 * c2
        return {k: c for k, c in out.items() if c}

    def addsub(p1, p2, sign):
        out = dict(p1)
        for k, c in p2.items():
            out[k] = out.get(k, 0) + sign * c
        return {k: c for k, c in out.items() if c}

    a = [var(i) for i in range(4)]
    b = [var(4 + i) for i in range(4)]
    minors = {(i, j): addsub(mul(a[i], b[j]), mul(a[j], b[i]), -1)
              for i, j in PLUCKER_PAIRS}
    relation = addsub(addsub(mul(minors[(0, 1)], minors[(2, 3)]),
                             mul(minors[(0, 2)], minors[(1, 3)]), -1),
                      mul(minors[(0, 3)], minors[(1, 2)]), +1)
    ok = relation == {}
    # independent double counts over F_2 and F_3
    for field, q, expected in ((F2, 2, 35), (F3, 3, 130)):
        n_sub = len(enumerate_rref_subspaces(field, 2, 4))
        n_quad = len(points_on_quadric(plucker_form(field)))
        ok = ok and n_sub == n_quad == expected == gaussian_binomial(4, 2, q)
    report(7, "Plücker model (identity + counts 35/130)", ok,
           time.perf_counter() - start, 10)


def test_criterion_08_symplectic_quadric_model():
    start = time.perf_counter()
    ok = True
    for field, q, expected in ((F2, 2, 15), (F3, 3, 40)):
        J = standard_alternating_matrix(field, 4)
        planes = isotropic_two_planes(field, J)
        quadric, hyperplane = symp_quadric_model(field, J)
        section = 0
        for pt in projective_points(field, 6):
            lin = field.zero
            for c, x in zip(hyperplane, pt):
                lin = field.add(lin, field.mul(c, x))
            if field.is_zero(lin) and field.is_zero(quadric.eval(pt)):
                section += 1
        ok = ok and len(planes) == section == expected
    report(8, "symplectic quadric model (15 at q=2, 40 at q=3)", ok,
           time.perf_counter() - start, 10)


def test_criterion_09_quadric_linkage_f5():
    start = time.perf_counter()
    form = QuadraticForm(F5, 4, {(0, 3): F5.one, (1, 2): F5.neg(F5.one)})
    pts = points_on_quadric(form)
    ok = len(pts) == 36
    for p1, p2 in itertools.combinations(pts, 2):
        chain = connect_quadric_points(form, p1, p2, points=pts)
        ok = ok and 1 <= len(chain) <= 2
        for seg in chain.segments:
            ok = ok and form.eval_polys(seg.data["coord_polys"]).is_zero()
        rep = verify_witness(chain, list(F5.elements()))
        ok = ok and rep.passed
        if not ok:
            break
    report(9, "quadric linkage (all 630 pairs over F_5)", ok,
           time.perf_counter() - start, 30)


def test_criterion_10_linkage_graph_evidence():
    start = time.perf_counter()
    surface = QuadricModel(QuadraticForm(F2, 4, {(0, 3): F2.one, (1, 2): F2.one}))
    g1 = link_graph(surface, 2, QuadricCurves(surface))
    ok = g1.connected and len(g1.vertices) == 44
    conic = QuadricModel(QuadraticForm(F3, 3, {(0, 2): F3.one,
                                               (1, 1): F3.neg(F3.one)}))
    g2 = link_graph(conic, 2, QuadricCurves(conic))
    ok = ok and g2.connected and len(g2.vertices) == 9
    # every edge carries a witness that re-verifies
    for g, model in ((g1, surface), (g2, conic)):
        for e in g.edges:
            d = e.data.get("degree", 1)
            field = model.field_at(d if e.move == "transfer" else 1)
            rep = verify_witness(e.witness, list(field.elements()))
            ok = ok and rep.passed
            if not ok:
                break
    report(10, "cycle-graph connectivity (F_2 surface, F_3 conic)", ok,
           time.perf_counter() - start, 60)


def test_criterion_11_arithmetic_identities():
    start = time.perf_counter()
    ok = True
    for p in (2, 3, 5, 7):
        for r in range(6):
            ok = ok and vp_factorial(p, r) == (p ** r - 1) // (p - 1)
    from math import factorial
    for n, m, p in ((2, 2, 2), (4, 2, 2), (3, 3, 3)):
        degree, prime = pi_degree_prime_to_p(n, m, p)
        ok = ok and degree == factorial(n * m) // (factorial(n) ** m * factorial(m))
        ok = ok and prime
    ok = ok and pi_degree_prime_to_p(2, 2, 2)[0] == 3
    ok = ok and pi_degree_prime_to_p(3, 3, 3)[0] == 280
    report(11, "arithmetic identities (v_p and covering degree)", ok,
           time.perf_counter() - start, 1)


def test_criterion_12_index_evidence():
    start = time.perf_counter()
    # the Hamilton conic x^2 + y^2 + z^2 over Q
    q = QuadraticForm.diagonal(QQ, [Fraction(1)] * 3)
    x = Poly.from_ints(QQ, [0, 1])
    search = QPointSearch(q, extension_points=[
        (Poly.from_ints(QQ, [1, 0, 1]), (Poly.one(QQ), x, Poly.zero(QQ)))])
    rep = search.run(height_bound=50)
    ok = rep.value == 2 and rep.status == "divides" and 1 not in rep.found_degrees
    # the quaternion side of the same search
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    ok = ok and isinstance(index_evidence(H, search_bound=50), NoWitnessFound)
    # a split conic has a height-1 point
    split = QuadraticForm.diagonal(QQ, [Fraction(1), Fraction(1), Fraction(-2)])
    rep2 = QPointSearch(split).run(height_bound=2)
    ok = ok and rep2.value == 1
    report(12, "index evidence (Hamilton conic bound 2; split 1)", ok,
           time.perf_counter() - start, 10)
