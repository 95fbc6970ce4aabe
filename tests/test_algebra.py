import importlib.util
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csawitness import algebra as algebra_module
from csawitness import quadrics as quadrics_module
from csawitness.algebra import (
    Algebra, NoWitnessFound, _mult_matrix, SplitWitness,
    algebra_generators,
    certified_exponent_divides_2, index_evidence, make_matrix_algebra, make_quaternion,
    matrix_of, poly_eval_at_element, reduced_char_poly, tensor_product,
)
from csawitness.errors import (
    InvalidInputError, StructuralError, UnsupportedFieldError,
)
from csawitness.fields import QQ, PrimeField, standard_extension
from csawitness.linalg import Matrix, charpoly, kernel, rank, rref, solve
from csawitness.poly import Poly, poly_nth_root
from csawitness.quadrics import QuadraticForm, points_on_quadric

F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)


def _rref(field, rows):
    """rref of the Matrix of rows, as (its rows, pivots)."""
    basis, piv = rref(rows=Matrix(field, rows))
    return basis.rows, piv


def test_matrix_algebra_units():
    A = make_matrix_algebra(F5, 2)
    E11, E12, E21, E22 = (A.basis_element(i) for i in range(4))
    assert E11 * E12 == E12
    assert E12 * E11 == A.zero
    assert E12 * E21 == E11
    assert A.one == E11 + E22
    assert A.degree == 2 and A.dim == 4


def test_degree_one_algebra_is_the_field():
    A = make_matrix_algebra(QQ, 1)
    assert A.dim == 1
    x = A.element([Fraction(3, 2)])
    assert (x * x).coords == (Fraction(9, 4),)


def test_matrix_algebra_associativity_holds():
    # make_matrix_algebra is trusted; check the verifier agrees on its table
    from csawitness.algebra import Algebra
    A = make_matrix_algebra(F3, 3)
    Algebra(F3, A.table, 3, unit=A.unit)  # would raise if not associative


def test_corrupted_structure_constants_rejected():
    from csawitness.algebra import Algebra
    A = make_matrix_algebra(F5, 2)
    table = [list(row) for row in A.table]
    table[1][2] = ((3, 2),)  # E12 * E21 := 2*E22, breaking associativity
    with pytest.raises(InvalidInputError):
        Algebra(F5, table, 2, unit=A.unit)


def test_hamilton_quaternions():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    one, i, j, k = (H.basis_element(t) for t in range(4))
    assert i * i == -one
    assert j * j == -one
    assert i * j == k
    assert j * i == -k
    # k^2 = -i^2 j^2 = -1, forced by the relations
    assert k * k == -one


def test_split_quaternions_zero_divisor():
    A = make_quaternion(QQ, Fraction(1), Fraction(1))
    one, i, _, _ = (A.basis_element(t) for t in range(4))
    assert ((one + i) * (one - i)).is_zero()


def test_quaternion_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        make_quaternion(QQ, Fraction(0), Fraction(1))
    with pytest.raises(UnsupportedFieldError):
        make_quaternion(F2, 1, 1)


def test_tensor_of_matrix_algebras():
    A = make_matrix_algebra(F5, 2)
    T = tensor_product(A, A)
    assert T.degree == 4 and T.dim == 16
    # the regular representation is faithful: the 16 left-multiplication
    # matrices of the basis are linearly independent
    flat = [sum(T.left_mult_matrix(T.basis_coords(i)), []) for i in range(16)]
    assert rank(Matrix(F5, flat)) == 16


def test_tensor_with_the_base_field_changes_nothing():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    Q1 = make_matrix_algebra(QQ, 1)
    T = tensor_product(H, Q1)
    assert T.table == H.table and T.unit == H.unit


def test_biquaternion_zero_divisor_from_linear_system():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    B = tensor_product(H, H)
    assert B.degree == 4
    # x = i(x)1 - 1(x)i is a zero divisor: find its partner by solving x y = 0
    x = B.basis_element(1 * 4 + 0) - B.basis_element(0 * 4 + 1)
    ker = kernel(Matrix(QQ, B.left_mult_matrix(x.coords))).rows
    assert ker
    y = B.element(ker[0])
    assert (x * y).is_zero() and not x.is_zero() and not y.is_zero()


def test_reduced_char_poly_examples():
    A = make_matrix_algebra(QQ, 2)
    # identity: (x-1)^2
    assert reduced_char_poly(A.one) == Poly.from_ints(QQ, [1, -2, 1])
    # diag(1,2): (x-1)(x-2)
    d = A.element([Fraction(1), Fraction(0), Fraction(0), Fraction(2)])
    assert reduced_char_poly(d) == Poly.from_ints(QQ, [2, -3, 1])
    # i in Hamilton quaternions: x^2 + 1, via (x^2+1)^2 regular charpoly
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    i = H.basis_element(1)
    reg = Poly(QQ, charpoly(QQ, H.left_mult_matrix(i.coords)))
    assert reg == Poly.from_ints(QQ, [1, 0, 2, 0, 1])
    assert reduced_char_poly(i) == Poly.from_ints(QQ, [1, 0, 1])


def test_reduced_char_poly_split_oracle_seeded():
    # over M_n(F_p) the reduced characteristic polynomial is the ordinary one
    rng = random.Random(42)
    cases = 0
    for p, field in ((5, F5), (3, F3), (7, F7)):
        for n in (2, 3, 4):
            A = make_matrix_algebra(field, n)
            for _ in range(23):
                x = A.random_element(rng)
                ordinary = Poly(field, charpoly(field, matrix_of(A, x.coords)))
                assert reduced_char_poly(x) == ordinary
                cases += 1
    assert cases >= 200


def test_poly_eval_at_element():
    A = make_matrix_algebra(F5, 2)
    x = A.element([1, 1, 0, 1])
    f = reduced_char_poly(x)
    assert poly_eval_at_element(f, x).is_zero()  # Cayley-Hamilton


def test_index_evidence_split_quaternion_over_q():
    A = make_quaternion(QQ, Fraction(1), Fraction(1))
    w = index_evidence(A)
    assert isinstance(w, SplitWitness)


def test_index_evidence_hamilton_negative():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    w = index_evidence(H, search_bound=50)
    assert isinstance(w, NoWitnessFound) and w.bound == 50


def _assert_split_by(w, A, point):
    """w is SplitWitness(u, ubar) with u = x + y i + z j for point (x, y, z)."""
    f = A.field
    x, y, z = point
    assert isinstance(w, SplitWitness)
    assert w.x.coords == (x, y, z, f.zero)
    assert w.y.coords == (x, f.neg(y), f.neg(z), f.zero)


def _q_search_order(bound):
    """The integer vectors of height <= bound in the order of the one search
    over Q: leading zeros, a positive head, then the rest lexicographically."""
    rng, heads = range(-bound, bound + 1), range(1, bound + 1)
    yield from ((x, y, z) for x in heads for y in rng for z in rng)
    yield from ((0, y, z) for y in heads for z in rng)
    yield from ((0, 0, z) for z in heads)


def _norm_search_q_triple_loop(a, b, bound):
    """The first zero of the norm conic <1, -a, -b> in _q_search_order, by
    evaluating the form on each vector."""
    conic = QuadraticForm.diagonal(QQ, [Fraction(1), -a, -b])
    for vec in _q_search_order(bound):
        point = tuple(Fraction(v) for v in vec)
        if conic.eval(point) == 0:
            return point
    return None


def test_norm_search_q_equals_the_triple_loop_seeded():
    rng = random.Random(19)
    found = 0
    for _ in range(500):
        a, b = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 3))
                for _ in range(2))
        bound = rng.randint(0, 8)
        A = make_quaternion(QQ, a, b)
        got = index_evidence(A, search_bound=bound)
        want = _norm_search_q_triple_loop(a, b, bound)
        if want is None:
            assert isinstance(got, NoWitnessFound) and got.bound == bound, (a, b, bound)
        else:
            _assert_split_by(got, A, want)
        found += want is not None
    assert 80 <= found <= 450


def test_norm_search_q_expands_one_fiber_per_x_and_y(monkeypatch):
    # every prefix (x, y) with x > 0, then every (0, y) with y > 0, once
    fibers = []
    root = quadrics_module.first_int_root
    monkeypatch.setattr(quadrics_module, "first_int_root",
                        lambda *args: fibers.append(args) or root(*args))
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    assert isinstance(index_evidence(H, search_bound=12), NoWitnessFound)
    assert len(fibers) == 12 * 25 + 12


def _norm_search_triple_loop(field, a, b):
    """The first nonzero (x, y, z) with x^2 - a y^2 - b z^2 = 0 in the order
    of projective_points: x = 1 with y, z in element order and z innermost,
    then (0, 1, z), then (0, 0, 1), each evaluated on its own."""
    elems = list(field.elements())
    zero, one = field.zero, field.one
    points = itertools.chain(((one, y, z) for y in elems for z in elems),
                             ((zero, one, z) for z in elems), [(zero, zero, one)])
    for x, y, z in points:
        val = field.sub(field.mul(x, x),
                        field.add(field.mul(a, field.mul(y, y)),
                                  field.mul(b, field.mul(z, z))))
        if field.is_zero(val):
            return x, y, z
    return None


@pytest.mark.parametrize("field", [F3, F5, F7, PrimeField(11), PrimeField(13),
                                   standard_extension(3, 2), standard_extension(5, 2)],
                         ids=str)
def test_norm_search_is_the_first_hit_of_the_triple_loop(field):
    nonzero = [e for e in field.elements() if not field.is_zero(e)]
    for a in nonzero:
        for b in nonzero:
            A = make_quaternion(field, a, b)
            want = _norm_search_triple_loop(field, a, b)
            conic = QuadraticForm.diagonal(field, [field.one, field.neg(a), field.neg(b)])
            assert want == points_on_quadric(conic)[0], (a, b)
            _assert_split_by(index_evidence(A), A, want)


# q = 10007 = 3 mod 4: -1 is not a square, so with b = -1 the fiber over
# (1, 0) of x^2 - y^2 + z^2 has no point and the search scans all q values
# of z before (1, 1, 0); with b = 1 the first fiber holds (1, 0, 1).  Nine
# more zero tests build the conic and check the witness.
@pytest.mark.parametrize("a, b, expected, evals", [(1, 10006, (1, 1, 0), 10008 + 9),
                                                   (10006, 1, (1, 0, 1), 2 + 9)])
def test_norm_search_stops_at_its_first_hit(monkeypatch, a, b, expected, evals):
    field = PrimeField(10007)
    A = make_quaternion(field, a, b)
    count = []
    is_zero = PrimeField.is_zero

    def counted(f, x):
        count.append(1)
        assert len(count) <= 3 * field.p, "the search reads past its first point"
        return is_zero(f, x)

    monkeypatch.setattr(PrimeField, "is_zero", counted)
    _assert_split_by(index_evidence(A), A, expected)
    assert len(count) == evals


def test_index_evidence_rejects_a_negative_bound():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    with pytest.raises(InvalidInputError, match="search bound"):
        index_evidence(H, search_bound=-1)
    assert isinstance(index_evidence(H, search_bound=0), NoWitnessFound)


def _norm_search_by_fractions(a, b, bound):
    """The norm search x^2 = a y^2 + b z^2 over Fractions, in _q_search_order."""
    for x, y, z in _q_search_order(bound):
        if Fraction(x * x) == a * y * y + b * z * z:
            return Fraction(x), Fraction(y), Fraction(z)
    return None


def test_quaternion_norm_search_over_q_matches_the_fraction_search():
    rng = random.Random(8)
    for _ in range(30):
        a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        A = make_quaternion(QQ, a, b)
        want = _norm_search_by_fractions(a, b, 6)
        w = index_evidence(A, search_bound=6)
        if want is None:
            assert isinstance(w, NoWitnessFound)
        else:
            _assert_split_by(w, A, want)


def test_index_evidence_finite_field_quaternion():
    A = make_quaternion(F5, 2, 3)
    w = index_evidence(A)
    assert isinstance(w, SplitWitness)  # Wedderburn: always split


def test_index_evidence_matrix_algebra():
    A = make_matrix_algebra(F3, 2)
    w = index_evidence(A)
    assert isinstance(w, SplitWitness)


def test_certified_exponent():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    S = make_quaternion(QQ, Fraction(1), Fraction(1))
    assert certified_exponent_divides_2(make_matrix_algebra(F7, 4))
    assert certified_exponent_divides_2(H)
    assert certified_exponent_divides_2(tensor_product(H, S))
    from csawitness.algebra import Algebra
    A = make_matrix_algebra(F5, 2)
    explicit = Algebra(F5, A.table, 2, unit=A.unit)
    assert not certified_exponent_divides_2(explicit)


# ---------------------------------------------------------------------------
# closure generators and the product


def _regular_route(x):
    """Prd_x as the degree-th root of the characteristic polynomial of left
    multiplication: reduced_char_poly's route off a matrix preset."""
    A = x.algebra
    cp = Poly(A.field, charpoly(A.field, A.left_mult_matrix(x.coords)))
    return poly_nth_root(cp, A.degree)


@pytest.mark.parametrize("field", [F5, standard_extension(3, 2), QQ], ids=repr)
def test_reduced_char_poly_on_a_matrix_preset_equals_the_regular_route(field, monkeypatch):
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        A = make_matrix_algebra(field, n)
        for _ in range(8):
            x = A.random_element(rng)
            want = _regular_route(x)
            with monkeypatch.context() as m:
                # the preset route builds no n^2 x n^2 matrix
                m.setattr(Algebra, "left_mult_matrix", None)
                assert reduced_char_poly(x) == want
    # a table that only claims the matrix preset takes the regular route:
    # basis element 1 of this reordered M_2 is E22, whose coordinates read
    # as a matrix would give the nilpotent E12
    B = _reordered_m2(field)
    x = B.basis_element(1)
    assert reduced_char_poly(x) == _regular_route(x) == Poly.from_ints(field, [0, -1, 1])


def _word_span_rank(A, gens):
    """Rank of the span of all words in gens, grown one word length at a
    time: S_{k+1} = S_k + S_k g."""
    f = A.field
    span, _ = _rref(f, [A.unit])
    while True:
        grown, _ = _rref(f, span + [A.mul(b, g) for b in span for g in gens])
        if len(grown) == len(span):
            return len(span)
        span = grown


def _preset_algebras():
    F4, F9 = standard_extension(2, 2), standard_extension(3, 2)
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    S = make_quaternion(QQ, Fraction(1), Fraction(1))
    out = [(f"M{n}(F5)", make_matrix_algebra(F5, n)) for n in (1, 2, 3, 4)]
    out += [("(-1,-1)/Q", H), ("(3,5)/F7", make_quaternion(F7, 3, 5)),
            ("M2(Q)xH", tensor_product(make_matrix_algebra(QQ, 2), H)),
            ("Hx(1,1)/Q", tensor_product(H, S)),
            ("M3(F2)->F4", make_matrix_algebra(F4, 3)),
            ("(1,2)/F3->F9", make_quaternion(F9, F9.lift(1), F9.lift(2))),
            ("M2x(1,1)/F3->F9",
             tensor_product(make_matrix_algebra(F9, 2),
                            make_quaternion(F9, F9.lift(1), F9.lift(1))))]
    # with the above, each family at each size that the tests, the demos
    # and the benchmark build: the preset constructors' generators are used
    # unchecked, so this is their proof
    F49 = standard_extension(7, 2)
    out += [(f"M{n}({F!r})", make_matrix_algebra(F, n))
            for F, sizes in ((F2, range(1, 7)), (F3, range(1, 7)), (F5, (5, 6)),
                             (F7, range(1, 7)), (QQ, range(1, 5)), (F9, range(1, 5)))
            for n in sizes]
    out += [(f"({a},{b})/{F!r}", make_quaternion(F, a, b)) for F, a, b in (
        (QQ, Fraction(1), Fraction(1)), (QQ, Fraction(-3, 2), Fraction(5)),
        (F3, 1, 1), (F3, 1, 2), (F3, 2, 2), (F5, 2, 3), (F7, 3, 6),
        (F49, F49.from_int(3), F49.gen))]
    out += [("HxH", tensor_product(H, H)),
            ("M2(F3)x(1,1)", tensor_product(make_matrix_algebra(F3, 2),
                                            make_quaternion(F3, 1, 1))),
            ("M2(F5)x(2,3)", tensor_product(make_matrix_algebra(F5, 2),
                                            make_quaternion(F5, 2, 3))),
            ("(M2(Q)xH)xH", tensor_product(tensor_product(make_matrix_algebra(QQ, 2), H),
                                           H))]
    return out


@pytest.mark.parametrize("name, A", _preset_algebras())
def test_closure_generators_span_every_preset(name, A, monkeypatch):
    def unexpected(self, gens):
        raise AssertionError("a preset table re-verified its generators")

    monkeypatch.setattr(Algebra, "_right_closure_is_everything", unexpected)
    gens = A.closure_generators()
    # the preset's own candidates pass verification and are kept
    assert gens == tuple(g.coords for g in algebra_generators(A))
    assert len(gens) < A.dim or A.dim == 1
    assert _word_span_rank(A, gens) == A.dim
    assert A.closure_generators() is gens  # cached


def test_rebuilt_presets_stay_trusted_and_explicit_tables_are_checked(monkeypatch):
    from csawitness.serialize import algebra_from_json, algebra_to_json
    calls = []
    check = Algebra._right_closure_is_everything

    def counted(self, gens):
        calls.append(self.preset.get("kind"))
        return check(self, gens)

    monkeypatch.setattr(Algebra, "_right_closure_is_everything", counted)
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    M2H = tensor_product(make_matrix_algebra(QQ, 2), H)
    assert algebra_from_json(algebra_to_json(M2H)).closure_generators() \
        == M2H.closure_generators()
    assert calls == []
    explicit = Algebra(QQ, M2H.table, 4, unit=M2H.unit)
    assert explicit.closure_generators() == tuple(explicit.basis_coords(i)
                                                  for i in range(16))
    assert calls == ["explicit"]
    # a tensor factor with an unchecked preset makes the product checked too
    assert _reordered_m2(F3).closure_generators()
    tensor_product(_reordered_m2(F3), make_quaternion(F3, 1, 1)).closure_generators()
    assert calls[1:] == ["matrix", "tensor"]


def _false_matrix_preset(field, n, perm):
    """M_n with basis element i the matrix unit that make_matrix_algebra puts
    at perm[i], under the matrix preset, whose candidates then name other
    elements."""
    M = make_matrix_algebra(field, n)
    inv = {old: new for new, old in enumerate(perm)}
    table = [[tuple((inv[k], c) for k, c in M.table[perm[a]][perm[b]])
              for b in range(n * n)] for a in range(n * n)]
    return Algebra(field, table, n, preset={"kind": "matrix", "n": n})


def _reordered_m2(field):
    """M_2 on the basis E11, E22, E12, E21 under a false matrix preset: the
    preset's candidates (basis 1 and 2, i.e. E22 and E12) only reach the
    upper triangular matrices."""
    return _false_matrix_preset(field, 2, [0, 3, 1, 2])


def test_false_preset_falls_back_to_the_basis():
    from csawitness.ideals import RightIdeal
    A = _reordered_m2(F3)
    cand = [g.coords for g in algebra_generators(A)]
    assert _word_span_rank(A, cand) == 3
    assert A.closure_generators() == tuple(A.basis_coords(i) for i in range(4))
    # span{E12, E22} is closed under the false candidates but is a left
    # ideal, not a right one; the check still rejects it
    for g in cand:
        for b in (A.basis_coords(2), A.basis_coords(1)):
            assert A.mul(b, g) in (A.zero_coords(), A.basis_coords(1),
                                   A.basis_coords(2))
    with pytest.raises(StructuralError):
        RightIdeal(A, [A.basis_coords(2), A.basis_coords(1)])


# _reordered_m2, and M_3 with the candidates on E11 + E22 and E33 + E12: they
# span a 4-dimensional subalgebra, on which the intertwiner conditions leave
# a 3-dimensional space
@pytest.mark.parametrize("n, perm", [(2, [0, 3, 1, 2]), (3, [2, 0, 3, 8, 5, 4, 6, 1, 7])])
def test_inner_twist_on_a_false_preset_intertwines_every_basis_element(n, perm):
    from csawitness.involutions import (
        involution_from_matrix, transpose_involution, twist_by_inner,
    )
    from csawitness.witness import solve_inner_twist
    F5 = PrimeField(5)
    A = _false_matrix_preset(F5, n, perm)
    t = transpose_involution(make_matrix_algebra(F5, n)).mat
    s1 = involution_from_matrix(A, [[t[a][b] for b in perm] for a in perm])
    rng = random.Random(1)
    while True:
        g = A.random_element(rng).coords
        u = A.mul(g, s1.apply_coords(g))
        if A.inverse(u) is not None:
            break
    s2 = twist_by_inner(s1, u, A.inverse(u))
    v = solve_inner_twist(s1, s2).coords
    for i in range(A.dim):
        x = A.basis_coords(i)
        assert A.mul(s2.apply_coords(x), v) == A.mul(v, s1.apply_coords(x))


@pytest.mark.parametrize("name, A", [(name, A) for name, A in _preset_algebras()
                                     if A.preset.get("kind") == "matrix"
                                     and A.preset["n"] >= 2])
def test_matrix_presets_close_against_the_two_shifts(name, A):
    n, E = A.preset["n"], A.basis_element
    gens = A.closure_generators()
    assert len(gens) == 2
    assert A.element(gens[0]) == sum((E(i * n + i + 1) for i in range(n - 1)), A.zero)
    assert A.element(gens[1]) == sum((E((i + 1) * n + i) for i in range(n - 1)), A.zero)
    if n == 2:
        assert gens == (A.basis_coords(1), A.basis_coords(2))  # E12, E21


@pytest.mark.parametrize("name, A", [(name, A) for name, A in _preset_algebras()
                                     if A.preset.get("kind") in ("quaternion", "tensor")])
def test_quaternion_and_tensor_tables_are_associative(name, A):
    # make_quaternion and tensor_product build their tables by formula and
    # skip these checks at construction; here they run on every family
    A._check_associativity()
    A._check_unit()


@pytest.mark.parametrize("name, A", [(name, A) for name, A in _preset_algebras()
                                     if 1 < A.dim <= 16])
def test_inverse_agrees_with_solving_x_y_equals_1(name, A):
    # the reference is the linear solve Algebra.inverse made before it read
    # the inverse off the minimal polynomial: L_x y = 1, kept if y x = 1
    rng = random.Random(6)
    # 1 +- e for a basis element e squaring to 1 is a zero divisor
    candidates = [op(A.unit, A.basis_coords(i)) for i in range(A.dim) for op in (A.add, A.sub)]
    candidates += [A.random_element(rng).coords if k % 2 else _sparse_random(A, rng)
                   for k in range(24)]
    found = set()
    for x in candidates:
        y = solve(A.field, A.left_mult_matrix(x), list(A.unit))
        want = None if y is None or A.mul(tuple(y), x) != A.unit else tuple(y)
        assert A.inverse(x) == want, x
        found.add(want is None)
    assert A.inverse(A.zero_coords()) is None
    assert A.inverse(A.unit) == A.unit
    assert found == {True, False} or A.preset.get("kind") == "quaternion"


@pytest.mark.parametrize("A", [make_matrix_algebra(F7, 4),
                               tensor_product(make_matrix_algebra(QQ, 2),
                                              make_quaternion(QQ, Fraction(-1), Fraction(-1)))],
                         ids=["M4(F7)", "M2(Q)xH"])
def test_inverse_builds_no_basis_and_lowers_nothing_on_a_zero_divisor(A, monkeypatch):
    from csawitness import linalg
    calls = {"_echelon": 0, "lower_vector": 0}
    echelon, lower = linalg._echelon, type(A.field).lower_vector

    def counted_echelon(*args, **kwargs):
        calls["_echelon"] += 1
        return echelon(*args, **kwargs)

    def counted_lower(*args):
        calls["lower_vector"] += 1
        return lower(*args)

    rng = random.Random(3)
    # E_11 (x) 1 is an idempotent, so e, 1 - e and their products with
    # anything are zero divisors
    e = A.basis_coords(0)
    singular = [A.zero_coords(), e, A.sub(A.unit, e)]
    singular += [A.mul(A.random_element(rng).coords, e) for _ in range(6)]
    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    # on the class, so that undoing the patch leaves no attribute on the
    # shared field instance
    monkeypatch.setattr(type(A.field), "lower_vector", counted_lower)
    for x in singular:
        assert A.inverse(x) is None
    assert calls == {"_echelon": 0, "lower_vector": 0}
    found = 0
    for _ in range(12):
        x = A.random_element(rng).coords
        y = A.inverse(x)
        found += y is not None
        assert y is None or A.mul(x, y) == A.unit
    assert found and calls["_echelon"] == 0



def test_inverse_over_f9_builds_no_basis(monkeypatch):
    # over F_{p^k} the inverse reads linalg.dependency alone; the reference
    # is the linear solve L_x y = 1, taken before rref is counted
    from csawitness import linalg
    A = make_matrix_algebra(standard_extension(3, 2), 3)
    rng = random.Random(9)
    xs = [A.random_element(rng).coords for _ in range(20)]
    want = []
    for x in xs:
        y = solve(A.field, A.left_mult_matrix(x), list(A.unit))
        want.append(None if y is None or A.mul(tuple(y), x) != A.unit else tuple(y))
    calls = []
    counted = linalg.rref

    def counted_rref(*args, **kwargs):
        calls.append(args)
        return counted(*args, **kwargs)

    monkeypatch.setattr(linalg, "rref", counted_rref)
    monkeypatch.setattr(algebra_module, "rref", counted_rref)
    assert [A.inverse(x) for x in xs] == want
    assert len(calls) == 0 and any(want)

def _dense_mul(A, x, y):
    f = A.field
    out = [f.zero] * A.dim
    for i in range(A.dim):
        for j in range(A.dim):
            c = f.mul(x[i], y[j])
            for k, ck in A.table[i][j]:
                out[k] = f.add(out[k], f.mul(c, ck))
    return tuple(out)


def _sparse_random(A, rng):
    # about half the coordinates zero, so the nonzero-pair path is exercised
    f = A.field
    return tuple(f.random(rng) if rng.random() < 0.5 else f.zero
                 for _ in range(A.dim))


def test_mul_matches_dense_reference():
    F9 = standard_extension(3, 2)
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    algebras = [tensor_product(make_matrix_algebra(QQ, 2), H),
                make_matrix_algebra(F7, 3),
                make_quaternion(F9, F9.lift(1), F9.lift(2)),
                make_matrix_algebra(F9, 2)]
    rng = random.Random(4)
    for A in algebras:
        for _ in range(40):
            x, y = _sparse_random(A, rng), _sparse_random(A, rng)
            assert A.mul(x, y) == _dense_mul(A, x, y)
        x = _sparse_random(A, rng)
        assert A.mul(x, A.zero_coords()) == A.zero_coords()
        assert A.mul(A.zero_coords(), x) == A.zero_coords()


_FP_ALGEBRAS = {
    "M2(F2)": make_matrix_algebra(F2, 2),
    "M3(F3)": make_matrix_algebra(F3, 3),
    "(3,5)/F7": make_quaternion(F7, 3, 5),
    "M2x(1,1)/F3": tensor_product(make_matrix_algebra(F3, 2), make_quaternion(F3, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(_FP_ALGEBRAS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mul_over_fp_accepts_unreduced_ints(name, data):
    A = _FP_ALGEBRAS[name]
    p = A.field.p
    # entries in [-2p, 2p], zero about half the time
    entry = st.one_of(st.just(0), st.integers(-2 * p, 2 * p))
    vec = st.lists(entry, min_size=A.dim, max_size=A.dim)
    x, y = data.draw(vec), data.draw(vec)
    want = _dense_mul(A, [c % p for c in x], [c % p for c in y])
    assert A.mul(x, y) == want
    assert all(0 <= c < p for c in want)


def _double_loop_matrix_table(field, n):
    """M_n's structure constants as a loop over every pair of matrix units:
    E_rc E_r2c2 = E_rc2 when c = r2, else 0."""
    table = []
    for i in range(n * n):
        r, c = divmod(i, n)
        row = []
        for j in range(n * n):
            r2, c2 = divmod(j, n)
            row.append(((r * n + c2, field.one),) if c == r2 else ())
        table.append(row)
    return table


@pytest.mark.parametrize("field", [F5, standard_extension(3, 2), QQ], ids=repr)
def test_matrix_preset_equals_the_checked_double_loop_table(field):
    for n in range(1, 6):
        A = make_matrix_algebra(field, n)
        # untrusted: shape, associativity and the unit, which it finds, checked
        labels = [f"E{r + 1}{c + 1}" for r in range(n) for c in range(n)]
        B = Algebra(field, _double_loop_matrix_table(field, n), n, labels=labels)
        assert (A.table, A.unit, A.labels) == (B.table, B.unit, B.labels)
        assert (A._flat, A._flat_scale) == (B._flat, B._flat_scale)


def test_trusted_constructors_build_tuple_tables():
    from csawitness.ideals import corner_algebra
    M3 = make_matrix_algebra(F5, 3)
    for A in (M3, make_quaternion(QQ, Fraction(-1), Fraction(-1)),
              tensor_product(make_matrix_algebra(F3, 2), make_quaternion(F3, 1, 1)),
              corner_algebra(M3.basis_element(0) + M3.basis_element(4)), corner_algebra(M3.one)):
        assert type(A.table) is tuple and len(A.table) == A.dim
        for row in A.table:
            assert type(row) is tuple and len(row) == A.dim
            assert all(type(entry) is tuple and all(type(term) is tuple and len(term) == 2
                                                    for term in entry) for entry in row)


def _explicit(table, degree=1, unit=None):
    return Algebra(F5, table, degree, unit=unit)


def test_structure_constants_must_fit_the_dimension():
    assert _explicit([[((0, 1),)]]).unit == (1,)
    for bad in (3, -1, 1, "0", 0.0):
        with pytest.raises(InvalidInputError, match="basis index"):
            _explicit([[((bad, 1),)]])
    with pytest.raises(InvalidInputError, match="row 0"):
        _explicit([[((0, 1),)], [], [], []], degree=2)
    M = make_matrix_algebra(F5, 2)
    ragged = [list(row) for row in M.table]
    ragged[3] = ragged[3][:3]
    with pytest.raises(InvalidInputError, match="row 3"):
        Algebra(F5, ragged, 2, unit=M.unit)
    with pytest.raises(InvalidInputError, match="not an \\(index, scalar\\) pair"):
        _explicit([[((0, 1, 2),)]])
    with pytest.raises(InvalidInputError, match="unit has 2 coordinates"):
        _explicit([[((0, 1),)]], unit=(1, 0))


_MULT_MATRIX_ALGEBRAS = {
    "M3(F7)": make_matrix_algebra(F7, 3),
    "(-1,-1)/Q": make_quaternion(QQ, Fraction(-1), Fraction(-1)),
    "M2x(1,1)/F3": tensor_product(make_matrix_algebra(F3, 2), make_quaternion(F3, 1, 1)),
    "M3(F9)": make_matrix_algebra(standard_extension(3, 2), 3),
}


@pytest.mark.parametrize("name", sorted(_MULT_MATRIX_ALGEBRAS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_mult_matrices_have_product_columns(name, seed):
    A = _MULT_MATRIX_ALGEBRAS[name]
    rng = random.Random(seed)
    x, y = _sparse_random(A, rng), _sparse_random(A, rng)
    left, right = A.left_mult_matrix(x), A.right_mult_matrix(x)
    commutator = A.left_minus_right_matrix(x, y)
    for j in range(A.dim):
        e = A.basis_coords(j)
        assert tuple(row[j] for row in left) == A.mul(x, e)
        assert tuple(row[j] for row in right) == A.mul(e, x)
        assert tuple(row[j] for row in commutator) == A.sub(A.mul(x, e), A.mul(e, y))


# ---------------------------------------------------------------------------
# the integer multiplication matrices against the field-method path


def _int_core_algebras():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    return {
        "(-1,-1)/Q": H,
        "M2x(-1,-1)/Q": tensor_product(make_matrix_algebra(QQ, 2), H),
        "(-3/2,5/7)/Q": make_quaternion(QQ, Fraction(-3, 2), Fraction(5, 7)),
        "M3(F7)": make_matrix_algebra(F7, 3),
        "M4(F5)": make_matrix_algebra(F5, 4),
    }


_INT_CORE_ALGEBRAS = _int_core_algebras()


@pytest.mark.parametrize("name", sorted(_INT_CORE_ALGEBRAS))
def test_mult_matrices_match_the_field_method_path(name):
    A = _INT_CORE_ALGEBRAS[name]
    f = A.field
    assert A._flat is not None
    rng = random.Random(name)
    for _ in range(25):
        x, y = _sparse_random(A, rng), _sparse_random(A, rng)
        left, right = A.left_mult_matrix(x), A.right_mult_matrix(y)
        assert left == _mult_matrix(f, x, A.table)
        assert right == _mult_matrix(f, y, tuple(zip(*A.table)))
        assert A.left_minus_right_matrix(x, y) == [
            [f.sub(a, b) for a, b in zip(r, q)] for r, q in zip(left, right)]
        if f == QQ:
            assert all(type(c) is Fraction for r in left + right for c in r)


# ---------------------------------------------------------------------------
# commutator kernels, sandwiches and the matrix preset's table on the
# integer core, against the field-method path


class _MethodPath:
    """A field through its own methods, but not an INTEGER_CORE instance,
    so linalg takes the field-method path on it."""

    def __init__(self, field):
        self._f = field

    def __getattr__(self, name):
        return getattr(self._f, name)


def _commutator_algebras():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    S = make_quaternion(QQ, Fraction(1), Fraction(1))
    return {"M2(Q)": make_matrix_algebra(QQ, 2), "M3(Q)": make_matrix_algebra(QQ, 3),
            "(-1,-1)x(1,1)/Q": tensor_product(H, S), "M4(F7)": make_matrix_algebra(F7, 4)}


_COMMUTATOR_ALGEBRAS = _commutator_algebras()
# sympy is a test-only reference; without it the method path is the only one
HAVE_SYMPY = importlib.util.find_spec("sympy") is not None


def _sympy_nullspace_rref(rows):
    """The rref rows of sympy's nullspace of rational rows, as Fractions."""
    import sympy
    null = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                         for r in rows]).nullspace()
    if not null:
        return []
    basis = sympy.Matrix.hstack(*null).T.rref()[0]
    return [[Fraction(int(x.p), int(x.q)) for x in basis.row(i)] for i in range(len(null))]


@pytest.mark.parametrize("name", sorted(_COMMUTATOR_ALGEBRAS))
def test_commutator_kernels_match_the_method_path_and_sympy(name):
    # x u = u y on a centralizer (y = x), an intertwiner of x with a
    # conjugate g x g^-1, whose kernel is nonzero, and a random pair
    A = _COMMUTATOR_ALGEBRAS[name]
    f = A.field
    ref = _MethodPath(f)
    rng = random.Random(name)
    nonzero = 0
    for _ in range(4):
        x, y = _sparse_random(A, rng), _sparse_random(A, rng)
        g = A.random_element(rng).coords
        g_inv = A.inverse(g)
        conj = x if g_inv is None else A.mul(A.mul(g, x), g_inv)
        for pairs in ([(x, x)], [(conj, x)], [(x, y)], [(x, x), (conj, x)]):
            rows = [r for a, b in pairs for r in A.left_minus_right_matrix(a, b)]
            want = kernel(Matrix(ref, rows)).rows
            assert kernel(A.commutator_rows(pairs)).rows == want
            assert rank(A.commutator_rows(pairs)) == A.dim - len(want)
            nonzero += bool(want)
            if f == QQ and HAVE_SYMPY:
                assert [list(r) for r in _rref(QQ, want)[0]] == _sympy_nullspace_rref(rows)
        assert A.centralizer_dim(x) == A.dim - rank(Matrix(ref, A.left_minus_right_matrix(x, x)))
    assert nonzero


@pytest.mark.parametrize("name", sorted(_INT_CORE_ALGEBRAS))
def test_sandwich_matrix_stays_lifted_on_the_integer_core(name):
    A = _INT_CORE_ALGEBRAS[name]
    f = A.field
    rng = random.Random(name)
    u, v = _sparse_random(A, rng), _sparse_random(A, rng)
    m = [list(_sparse_random(A, rng)) for _ in range(A.dim)]
    want = [list(r) for r in zip(*[A.mul(A.mul(u, col), v) for col in zip(*m)])]
    ints, scale = f.lift_rows(m)
    # from rows, and held only lifted: the result is held only lifted
    for mat in (Matrix(f, m), Matrix(f, ints=ints, scale=scale)):
        got = A.sandwich_matrix(u, mat, v)
        assert got._held() is got.lifted[0]
        assert got.rows == want


@pytest.mark.parametrize("field", [QQ, F2, F7], ids=["Q", "F2", "F7"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_preset_flat_table_is_the_walked_table(field, n):
    # make_matrix_algebra hands Algebra its n^3 triples; walking the table
    # and lifting every constant gives the same flat table
    A = make_matrix_algebra(field, n)
    assert (A._flat, A._flat_scale) == A._flat_table()
