import functools
import itertools
import operator
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from csawitness import etale, ideals, linalg
from csawitness.algebra import (
    Algebra, coords_of_matrix, make_matrix_algebra, make_quaternion, tensor_product,
)
from csawitness.errors import NotEtaleError, StructuralError, UnsupportedFieldError
from csawitness.etale import (
    EtaleSubalgebra, Partition, etale_type, factor_idempotents, generate_etale,
    independent_ideals_check, is_et_m_point, random_balanced_pair_subalgebra,
    random_maximal_etale, subalgebra_to_ideal_tuple,
)
from csawitness.fields import QQ, PrimeField, standard_extension
from csawitness.ideals import ideal_generated, principal_rdim
from csawitness.poly import Poly

F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)


def _power_elimination(x):
    """The minimal polynomial of x and the rref basis and pivots of the span
    of its powers, by the field-method elimination: linalg.dependency on
    the powers 1, x, x^2, ... that Algebra.mul takes, then the rref of the
    powers it keeps."""
    A, f = x.algebra, x.algebra.field

    def powers():
        y = A.unit
        while True:
            yield y
            y = A.mul(y, x.coords)

    comb, kept = linalg.dependency(f, powers())
    basis, pivots = linalg.rref(rows=linalg.Matrix(f, kept))
    return Poly(f, comb), basis.rows, pivots


def diag(A, *entries):
    n = A.preset["n"]
    coords = [A.field.zero] * A.dim
    for t, v in enumerate(entries):
        coords[t * n + t] = A.field.from_int(v) if isinstance(v, int) else v
    return A.element(coords)


def test_generate_etale_diag():
    A = make_matrix_algebra(QQ, 2)
    E = generate_etale(diag(A, 1, 2))
    assert E.dim == 2
    assert E.minpoly == Poly.from_ints(QQ, [2, -3, 1])  # (x-1)(x-2)
    assert E.is_maximal()


def test_generate_etale_rejects_nilpotents():
    A = make_matrix_algebra(QQ, 2)
    with pytest.raises(NotEtaleError):
        generate_etale(A.basis_element(1))  # E12 has minpoly x^2


def test_generate_etale_quaternion_subfield():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    E = generate_etale(H.basis_element(1))
    assert E.dim == 2
    assert E.minpoly == Poly.from_ints(QQ, [1, 0, 1])  # x^2 + 1
    # spanned by 1 and i
    assert E.contains(H.unit) and E.contains(H.basis_coords(1))


def test_minimal_polynomial_of_scalar():
    A = make_matrix_algebra(F5, 3)
    mp = generate_etale(A.from_scalar(3)).minpoly
    assert mp == Poly.from_ints(F5, [-3, 1])


def test_etale_type_maximal_is_all_ones():
    for field, n in ((F5, 3), (F7, 2), (F3, 4)):
        A = make_matrix_algebra(field, n)
        E = random_maximal_etale(A, random.Random(n))
        assert etale_type(E) == Partition([1] * n)


def test_etale_type_two_blocks():
    A = make_matrix_algebra(QQ, 4)
    E = generate_etale(diag(A, 0, 0, 1, 1))
    assert etale_type(E) == Partition([2, 2])
    E2 = generate_etale(diag(A, 0, 1, 1, 1))
    assert etale_type(E2) == Partition([1, 3])


def test_etale_type_subfield_f4_in_m2f2():
    # companion matrix of x^2+x+1 generates F_4 inside M_2(F_2)
    A = make_matrix_algebra(F2, 2)
    a = A.element([0, 1, 1, 1])
    E = generate_etale(a)
    assert E.minpoly == Poly.from_ints(F2, [1, 1, 1])
    assert etale_type(E) == Partition([1, 1])


def test_etale_type_over_q_irreducible_quadratic():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    E = generate_etale(H.basis_element(1))  # Q(i), minpoly x^2+1
    assert etale_type(E) == Partition([1, 1])


def test_is_et_m_point():
    A = make_matrix_algebra(QQ, 4)
    assert is_et_m_point(generate_etale(diag(A, 0, 0, 1, 1)), 2)
    assert not is_et_m_point(generate_etale(diag(A, 0, 1, 1, 1)), 2)
    B = make_matrix_algebra(F5, 3)
    E = random_maximal_etale(B, random.Random(4))
    assert is_et_m_point(E, 3)


def test_independent_ideals_check():
    A = make_matrix_algebra(F5, 2)
    I1 = ideal_generated([A.basis_element(0)])
    I2 = ideal_generated([A.basis_element(3)])
    assert independent_ideals_check([I1, I2])
    assert not independent_ideals_check([I1, I1])
    B = make_matrix_algebra(F5, 3)
    # split maximal etale: three idempotent ideals, independent
    E = generate_etale(diag(B, 0, 1, 2))
    ideals = subalgebra_to_ideal_tuple(E)
    assert len(ideals) == 3
    assert independent_ideals_check(list(ideals))
    # a random maximal etale may have fewer rational idempotents, but the
    # direct-sum property persists
    E2 = random_maximal_etale(B, random.Random(12))
    assert independent_ideals_check(list(subalgebra_to_ideal_tuple(E2)))


def test_subalgebra_to_ideal_tuple_cases():
    A = make_matrix_algebra(F5, 2)
    E = generate_etale(diag(A, 0, 1))
    ideals = subalgebra_to_ideal_tuple(E)
    assert len(ideals) == 2 and all(i.rdim == 1 for i in ideals)

    # a division-algebra subfield has only the trivial rational idempotent
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    E = generate_etale(H.basis_element(1))
    ideals = subalgebra_to_ideal_tuple(E)
    assert len(ideals) == 1 and ideals[0].rdim == H.degree


def test_f4_subfield_splits_after_scalar_extension():
    A = make_matrix_algebra(F2, 2)
    a = A.element([0, 1, 1, 1])
    E = generate_etale(a)
    assert len(subalgebra_to_ideal_tuple(E)) == 1
    F4 = standard_extension(2, 2)
    B = make_matrix_algebra(F4, 2)
    a4 = B.element([F4.lift(c) for c in a.coords])
    E4 = generate_etale(a4)
    ideals = subalgebra_to_ideal_tuple(E4)
    assert len(ideals) == 2
    assert independent_ideals_check(list(ideals))


def test_type_parts_sum_to_degree_seeded():
    rng = random.Random(77)
    checked = 0
    for field in (F2, F3, F5):
        for n in (2, 3):
            A = make_matrix_algebra(field, n)
            done = 0
            while done < 34:
                x = A.random_element(rng)
                try:
                    E = generate_etale(x)
                except NotEtaleError:
                    continue
                assert etale_type(E).total == n
                checked += 1
                done += 1
    assert checked >= 200


def test_subfield_has_single_distinct_rank():
    # irreducible minimal polynomial => all parts equal
    rng = random.Random(13)
    A = make_matrix_algebra(F3, 2)
    found = 0
    from csawitness.poly import is_irreducible
    while found < 10:
        x = A.random_element(rng)
        try:
            E = generate_etale(x)
        except NotEtaleError:
            continue
        if not is_irreducible(E.minpoly):
            continue
        assert len(set(etale_type(E).parts)) == 1
        found += 1


def test_type_invariant_under_conjugation():
    rng = random.Random(19)
    A = make_matrix_algebra(F5, 3)
    for _ in range(10):
        E = random_maximal_etale(A, rng)
        while True:
            g = A.random_element(rng)
            ginv = A.inverse(g.coords)
            if ginv is not None:
                break
        conj = g * E.generator * A.element(ginv)
        assert etale_type(generate_etale(conj)) == etale_type(E)


def test_scalar_extension_type_consistency():
    # type over F_p equals the multiset of minimal idempotent ranks after
    # extending scalars to a splitting field (independent route)
    rng = random.Random(3)
    A = make_matrix_algebra(F3, 2)
    F9 = standard_extension(3, 2)
    B = make_matrix_algebra(F9, 2)
    checked = 0
    while checked < 15:
        x = A.random_element(rng)
        try:
            E = generate_etale(x)
        except NotEtaleError:
            continue
        xb = B.element([F9.lift(c) for c in x.coords])
        Eb = generate_etale(xb)
        ranks = []
        for fi, ei in factor_idempotents(Eb):
            assert fi.degree == 1  # F9 splits every quadratic over F3
            ranks.append(ideal_generated([ei]).rdim)
        assert Partition(ranks) == etale_type(E)
        checked += 1


def _companion(A, coeffs):
    """The companion matrix of the monic polynomial with the given lower
    coefficients, lowest first."""
    n = len(coeffs)
    f = A.field
    m = [[f.zero] * n for _ in range(n)]
    for r in range(n - 1):
        m[r + 1][r] = f.one
    for r, c in enumerate(coeffs):
        m[r][n - 1] = f.neg(c)
    return A.element(coords_of_matrix(A, m))


def test_etale_type_unfactorable_over_q_raises():
    # x^4+1 is irreducible over Q with no rational root: only the rational
    # idempotents need its factors, and the type needs none
    low = [QQ.from_int(c) for c in (1, 0, 0, 0)]
    E = generate_etale(_companion(make_matrix_algebra(QQ, 4), low))
    assert E.minpoly == Poly.from_ints(QQ, [1, 0, 0, 0, 1])
    assert etale_type(E) == Partition([1, 1, 1, 1])
    with pytest.raises(UnsupportedFieldError):
        factor_idempotents(E)


def test_etale_type_of_a_companion_with_a_large_constant_is_quick():
    # x^4 + x/P + 1 with P = 2 * 3 * ... * 37: a rational root search over
    # the divisors of P does not return within 30 s, the gcd type needs no
    # root at all
    P = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37
    A = make_matrix_algebra(QQ, 4)
    start = time.perf_counter()
    low = [Fraction(1), Fraction(1, P), Fraction(0), Fraction(0)]
    E = generate_etale(_companion(A, low))
    assert E.minpoly == Poly(QQ, low + [Fraction(1)])
    assert etale_type(E) == Partition([1, 1, 1, 1])
    assert time.perf_counter() - start < 1.0


def test_random_balanced_pair_subalgebra():
    A = make_matrix_algebra(F7, 4)
    E = random_balanced_pair_subalgebra(A, random.Random(2))
    assert is_et_m_point(E, 2)
    assert etale_type(E) == Partition([2, 2])


# ---------------------------------------------------------------------------
# cost guards: one elimination per subalgebra, no factorization for the type


def _count(monkeypatch, calls, module, name):
    fn = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kwargs: calls.update([name]) or fn(*args, **kwargs))


def _etale_cases():
    F9 = standard_extension(3, 2)
    A9 = make_matrix_algebra(F9, 3)
    return {
        "diag_m4_f5": diag(make_matrix_algebra(F5, 4), 1, 1, 2, 3),
        "maximal_m3_f7": random_maximal_etale(make_matrix_algebra(F7, 3),
                                              random.Random(1)).generator,
        "diag_m3_q": diag(make_matrix_algebra(QQ, 3), 1, Fraction(1, 2), 3),
        "subfield_h_q": make_quaternion(QQ, Fraction(-1), Fraction(-1)).basis_element(1),
        "diag_m3_f9": diag(A9, F9.from_int(1), F9.from_int(2), F9.from_int(2)),
    }


@pytest.mark.parametrize("case", sorted(_etale_cases()))
def test_generate_etale_runs_one_elimination(case, monkeypatch):
    x = _etale_cases()[case]
    calls = Counter()
    for name in ("_echelon", "solve", "in_row_space"):
        _count(monkeypatch, calls, linalg, name)
    for name in ("rref", "in_row_space"):
        _count(monkeypatch, calls, etale, name)
    E = generate_etale(x)
    assert E.dim >= 1
    assert calls["solve"] == calls["in_row_space"] == 0
    assert calls["rref"] <= 1 and calls["_echelon"] <= 1


@pytest.mark.parametrize("case, factors", [
    ("diag_m4_f5", 3), ("maximal_m3_f7", 2), ("diag_m3_q", 3), ("subfield_h_q", 1),
    ("diag_m3_f9", 2),
])
def test_etale_type_ranks_every_factor_but_the_last(case, factors, monkeypatch):
    # the type is read by gcds: no factorization, no idempotent, no rank;
    # it agrees with the ranks of factor_idempotents
    E = generate_etale(_etale_cases()[case])
    assert len(etale._irreducible_factors(E)) == factors
    calls = Counter()
    for name in ("factor", "rational_roots", "_crt_idempotent"):
        _count(monkeypatch, calls, etale, name)
    _count(monkeypatch, calls, ideals, "principal_rdim")
    ptn = etale_type(E)
    assert etale_type(E) is ptn and not calls
    want = []
    for fi, ei in factor_idempotents(E):
        want += [ideal_generated([ei]).rdim // fi.degree] * fi.degree
    assert ptn == Partition(want)


# ---------------------------------------------------------------------------
# the checks of generate_etale and etale_type stay reachable


def test_generate_etale_rejects_powers_that_do_not_commute():
    # a trusted unital table that is not power-associative: with x = e1,
    # x^2 = e1 e1 = e2 and x^3 = x^2 x = e3, but x x^2 = e1 e2 = 0; the
    # powers 1, x, x^2, x^3 are independent and x^4 = e3 e1 = 1
    one = F5.one
    table = [[[] for _ in range(4)] for _ in range(4)]
    for i in range(4):
        table[0][i] = table[i][0] = [(i, one)]
    table[1][1], table[2][1], table[3][1] = [(2, one)], [(3, one)], [(0, one)]
    A = Algebra(F5, table, 2, unit=(one, 0, 0, 0), _trusted=True)
    mp = _power_elimination(A.basis_element(1))[0]
    assert mp == Poly.from_ints(F5, [-1, 0, 0, 0, 1])
    with pytest.raises(StructuralError, match="does not commute"):
        generate_etale(A.basis_element(1))


def _hand_built(field, rows, minpoly):
    """An EtaleSubalgebra of a 2 x 2 matrix whose stored minimal polynomial
    is not checked, as generate_etale would check it."""
    A = make_matrix_algebra(field, 2)
    x = A.element(coords_of_matrix(A, rows))
    basis, pivots = linalg.rref(rows=linalg.Matrix(field, [A.unit, x.coords]))
    return EtaleSubalgebra(A, x, linalg.Matrix(field, [minpoly.coeffs]), basis, pivots)


@pytest.mark.parametrize("fault, message", [
    ("not_squarefree", "not squarefree"),
    ("prd_root_missing", "polynomial lacks"),
    # the same hand-built subalgebras reach factor_idempotents' checks
    ("repeated_factor", "factored with multiplicity"),
    ("wrong_minimal_polynomial", "not idempotent"),
    ("repeated_root_over_q", "not coprime"),
])
def test_etale_type_structural_errors_are_reachable(fault, message):
    repeated = _hand_built(F5, [[1, 1], [0, 1]], Poly.from_ints(F5, [1, -2, 1]))
    # diag(1, 2) stored with (x - 1)(x - 3): Prd = (x - 1)(x - 2) has the
    # root 2, which the stored polynomial lacks, and the CRT element 3 - x
    # is diag(2, 1), not an idempotent
    wrong = _hand_built(F5, [[1, 0], [0, 2]], Poly.from_ints(F5, [3, -4, 1]))
    # over Q, (x - 1)^2 gives the one factor x - 1, and its cofactor x - 1
    # is not coprime to it
    repeated_q = _hand_built(QQ, [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]],
                             Poly.from_ints(QQ, [1, -2, 1]))
    E, call = {
        "not_squarefree": (repeated, etale_type),
        "prd_root_missing": (wrong, etale_type),
        "repeated_factor": (repeated, factor_idempotents),
        "wrong_minimal_polynomial": (wrong, factor_idempotents),
        "repeated_root_over_q": (repeated_q, factor_idempotents),
    }[fault]
    with pytest.raises(StructuralError, match=message):
        call(E)


# ---------------------------------------------------------------------------
# the balanced-type rank criterion against etale_type


def _divisors(n):
    return [m for m in range(1, n + 1) if n % m == 0]


def _census(elements, checks):
    """For each element that generates an etale subalgebra E, and every m
    dividing the degree n: is_et_m_point(E, m) iff etale_type(E) is
    [n/m] * m."""
    for x in elements:
        try:
            E = generate_etale(x)
        except NotEtaleError:
            continue
        ptn = etale_type(E)
        n = E.algebra.degree
        for m in _divisors(n):
            assert is_et_m_point(E, m) == (ptn == Partition([n // m] * m)), (x, m, ptn)
            checks[is_et_m_point(E, m)] += 1


def _every_element(A):
    f = A.field
    for coords in itertools.product(list(f.elements()), repeat=A.dim):
        yield A.element(coords)


def _conjugated_diagonals(A, rng, eigenvalue_lists, count):
    """g diag(e) g^-1 for random invertible g, so that repeated eigenvalues
    give unbalanced and balanced types off the diagonal basis."""
    for eigs in eigenvalue_lists:
        done = 0
        while done < count:
            g = A.random_element(rng)
            g_inv = A.inverse(g.coords)
            if g_inv is None:
                continue
            yield g * diag(A, *eigs) * A.element(g_inv)
            done += 1


F4, F9 = standard_extension(2, 2), standard_extension(3, 2)
EVERY_ELEMENT = {"M2(F3)": (F3, 2), "M3(F2)": (F2, 3), "M2(F4)": (F4, 2)}


@pytest.mark.parametrize("name", sorted(EVERY_ELEMENT))
def test_rank_criterion_agrees_with_etale_type_on_every_element(name):
    A = make_matrix_algebra(*EVERY_ELEMENT[name])
    checks = Counter()
    _census(_every_element(A), checks)
    assert checks[True] and checks[False]


W = (0, 1)  # a generator of F9 = F3[w], not in F3


@pytest.mark.parametrize("field, n, elements, eigenvalue_lists", [
    (F3, 4, 150, [(1, 1, 2, 2), (1, 1, 1, 2), (0, 1, 1, 2), (1, 1, 1, 1)]),
    (F5, 4, 150, [(1, 1, 2, 2), (1, 1, 1, 2), (1, 2, 3, 3), (1, 2, 3, 4)]),
    (F7, 6, 100, [(1, 1, 1, 2, 2, 2), (1, 1, 2, 2, 3, 3), (1, 1, 1, 1, 2, 2),
                  (1, 2, 3, 4, 4, 4)]),
    # F_{p^k} takes the field-method path of centralizer_dim
    (F9, 3, 60, [(1, 1, 2), (W, W, 1), (0, 1, W)]),
    (F9, 4, 30, [(W, W, 1, 1), (1, 1, 1, W), (0, 1, W, W), (1, 2, W, 0)]),
], ids=["M4(F3)", "M4(F5)", "M6(F7)", "M3(F9)", "M4(F9)"])
def test_rank_criterion_agrees_with_etale_type_seeded(field, n, elements, eigenvalue_lists):
    A = make_matrix_algebra(field, n)
    rng = random.Random(field.size * n)
    checks = Counter()
    _census([A.random_element(rng) for _ in range(elements)], checks)
    _census(_conjugated_diagonals(A, rng, eigenvalue_lists, 10), checks)
    assert checks[True] and checks[False]


def test_rank_criterion_agrees_with_etale_type_over_q():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    S = make_quaternion(QQ, Fraction(1), Fraction(1))
    rng = random.Random(11)
    checks = Counter()
    for A in (tensor_product(H, S), tensor_product(make_matrix_algebra(QQ, 2), H)):
        small = [A.element([Fraction(rng.randint(-1, 1)) for _ in range(A.dim)])
                 for _ in range(60)]
        _census([A.basis_element(i) for i in range(A.dim)] + small, checks)
    assert checks[True] and checks[False]


def _block_companions(A, *quadratics):
    """The block-diagonal matrix of the companions of x^2 - c, one 2 x 2
    block per c."""
    f = A.field
    n = A.preset["n"]
    m = [[f.zero] * n for _ in range(n)]
    for b, c in enumerate(quadratics):
        m[2 * b][2 * b + 1] = f.one
        m[2 * b + 1][2 * b] = f.from_int(c)
    return A.element(coords_of_matrix(A, m))


@pytest.mark.parametrize("blocks, balanced", [((2, 2, 3, 3), True), ((2, 2, 2, 3), False)])
def test_rank_criterion_decides_where_etale_type_cannot(blocks, balanced):
    # minimal polynomial (x^2 - 2)(x^2 - 3): no rational root and degree 4,
    # so its rational idempotents are not found; the rank and the gcd type
    # need no factors
    A = make_matrix_algebra(QQ, 8)
    x = _block_companions(A, *blocks)
    E = generate_etale(x)
    assert E.minpoly == Poly.from_ints(QQ, [6, 0, -5, 0, 1])
    with pytest.raises(UnsupportedFieldError):
        factor_idempotents(E)
    assert is_et_m_point(E, 4) == balanced
    want = Partition([2] * 4) if balanced else Partition([3, 3, 1, 1])
    assert etale_type(E) == want


# ---------------------------------------------------------------------------
# the gcd type against the type read from a factorization


def _type_by_factoring(E):
    """The type from the irreducible factors of the minimal polynomial: a
    factor of degree d whose idempotent e has rdim(e A) = r gives d parts of
    r / d, and the last factor's r is the degree minus the others'.  Raises
    UnsupportedFieldError where the factors are not found over Q."""
    n = E.algebra.degree
    factors = etale._irreducible_factors(E)
    assert functools.reduce(operator.mul, factors) == E.minpoly
    *rest, last = factors
    rdims = [(fi, principal_rdim(etale._crt_idempotent(E, fi))) for fi in rest]
    rdims.append((last, n - sum(r for _, r in rdims)))
    assert all(r >= 1 and r % fi.degree == 0 for fi, r in rdims)
    return Partition(r // fi.degree for fi, r in rdims for _ in range(fi.degree))


def _differential_elements(A, rng):
    """Elements of A without end: random ones, and random conjugates of a
    block-diagonal x0 with repeated eigenvalues, so that every type turns
    up.  On a matrix preset x0 is diagonal; on M_2 (x) D it is
    E11 (x) b + E22 (x) c, with b random in D or a scalar, and c a scalar.  Over Q the
    scalars are small ints, and every element is a conjugate: a random
    element of M_2(Q) (x) D has a minimal polynomial with no factors found
    over Q more often than not."""
    f = A.field
    over_q = f.char == 0

    def scalar():
        return f.from_int(rng.randint(-2, 2)) if over_q else f.random(rng)

    while True:
        if not over_q and rng.random() < 0.4:
            yield A.element(tuple(scalar() for _ in range(A.dim)))
            continue
        coords = [f.zero] * A.dim
        if A.preset["kind"] == "matrix":
            n = A.preset["n"]
            pool = [scalar() for _ in range(rng.randint(1, n))]
            for t in range(n):
                coords[t * n + t] = rng.choice(pool)
        else:
            d = A.preset["right"].dim
            k = d if rng.random() < 0.7 else 1
            coords[:k] = [scalar() for _ in range(k)]
            coords[3 * d] = scalar()
        g = A.element(tuple(scalar() for _ in range(A.dim)))
        g_inv = A.inverse(g.coords)
        if g_inv is not None:
            yield g * A.element(coords) * A.element(g_inv)


def _differential_algebras():
    F8 = standard_extension(2, 3)
    out = {f"M{n}(F{p})": make_matrix_algebra(PrimeField(p), n)
           for p in (2, 3, 5, 7) for n in (2, 3, 4)}
    out.update({f"M3({name})": make_matrix_algebra(field, 3)
                for name, field in (("F4", F4), ("F9", F9), ("F8", F8))})
    out.update({f"M{n}(Q)": make_matrix_algebra(QQ, n) for n in (2, 3, 4)})
    out["M2(Q)xH"] = tensor_product(make_matrix_algebra(QQ, 2),
                                    make_quaternion(QQ, Fraction(-1), Fraction(-1)))
    out["M2(F7)xH"] = tensor_product(make_matrix_algebra(F7, 2),
                                     make_quaternion(F7, F7.from_int(-1), F7.from_int(-1)))
    return out


@pytest.mark.parametrize("name", sorted(_differential_algebras()))
def test_etale_type_agrees_with_the_type_by_factoring(name):
    # 55 subalgebras on each of 20 algebras: 1,100 in all
    A = _differential_algebras()[name]
    rng = random.Random(name)
    elements = _differential_elements(A, rng)
    done = tries = 0
    while done < 55:
        tries += 1
        assert tries < 2000
        try:
            E = generate_etale(next(elements))
            want = _type_by_factoring(E)
        except (NotEtaleError, UnsupportedFieldError):
            continue
        assert etale_type(E) == want, (name, E.generator, want)
        done += 1


def test_verifying_an_exp2_chain_neither_factors_nor_ranks_idempotents(monkeypatch):
    from csawitness.witness import connect_exp2, verify_witness
    A = make_matrix_algebra(F7, 4)
    rng = random.Random(6)
    chain = connect_exp2(random_balanced_pair_subalgebra(A, rng),
                         random_balanced_pair_subalgebra(A, rng))
    calls = Counter()
    _count(monkeypatch, calls, etale, "factor")
    _count(monkeypatch, calls, ideals, "principal_rdim")
    report = verify_witness(chain)
    assert report.passed and len(report.checks) > 3 * 7
    assert calls["factor"] == calls["principal_rdim"] == 0


# ---------------------------------------------------------------------------
# a subalgebra built on the integer core keeps its basis lifted


def _lifted_etale_cases():
    F9 = standard_extension(3, 2)
    out = []
    for field in (QQ, F7, F9):
        A = make_matrix_algebra(field, 3)
        rng = random.Random(f"lifted etale {field!r}")
        xs = [A.random_element(rng) for _ in range(12)]
        # a x + b generates the subalgebra that x does, for a != 0
        two = field.from_int(2)
        xs += [x * two + A.from_scalar(field.one) for x in xs[:6]]
        xs += [A.from_scalar(two), A.basis_element(0)]
        out.append((A, xs))
    return out


@pytest.mark.parametrize("case", _lifted_etale_cases(), ids=["Q", "F7", "F9"])
def test_etale_equality_and_hash_are_those_of_the_basis(case):
    # generate_etale over F_p and Q holds its rref basis lifted and lowers it
    # on read; equality, hash, basis, pivots and minimal polynomial are
    # those of the field-method elimination and of the basis it lowers to
    A, xs = case
    built = []
    for x in xs:
        mp, basis, pivots = _power_elimination(x)
        try:
            E = generate_etale(x)
        except NotEtaleError:
            continue
        assert (E.basis, E.pivots, E.minpoly) == (tuple(map(tuple, basis)), tuple(pivots), mp)
        # the ordinary constructor, on the lowered basis and polynomial
        same = EtaleSubalgebra(A, x, linalg.Matrix(A.field, [mp.coeffs]),
                               linalg.Matrix(A.field, E.basis), E.pivots)
        assert E == same and hash(E) == hash(same) and E.dim == same.dim
        assert same.minpoly == mp
        built.append(generate_etale(x))
    assert len(built) >= 10
    for E in built:
        for F in built:
            assert (E == F) == (E.basis == F.basis)
            if E == F:
                assert hash(E) == hash(F)
    assert len({E.basis for E in built}) < len(built)  # some share a subspace
