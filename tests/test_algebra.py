import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csawitness.algebra import (
    Algebra, NoWitnessFound, SplitWitness, algebra_generators,
    certified_exponent_divides_2, extend_scalars, index_evidence, make_matrix_algebra, make_quaternion,
    matrix_of, poly_eval_at_element, reduced_char_poly, reduced_trace,
    tensor_product,
)
from csawitness.errors import (
    InvalidInputError, StructuralError, UnsupportedFieldError,
)
from csawitness.fields import QQ, PrimeField, standard_extension
from csawitness.linalg import charpoly, kernel, rank, rref
from csawitness.poly import Poly

F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)


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
    assert rank(F5, flat) == 16


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
    ker = kernel(QQ, B.left_mult_matrix(x.coords))
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


def test_reduced_trace():
    A = make_matrix_algebra(F7, 3)
    rng = random.Random(1)
    x = A.random_element(rng)
    m = matrix_of(A, x.coords)
    tr = F7.zero
    for t in range(3):
        tr = F7.add(tr, m[t][t])
    assert reduced_trace(x) == tr


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


def test_index_evidence_rejects_a_negative_bound():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    with pytest.raises(InvalidInputError, match="search bound"):
        index_evidence(H, search_bound=-1)
    assert isinstance(index_evidence(H, search_bound=0), NoWitnessFound)


def _norm_search_by_fractions(a, b, bound):
    """The norm search x^2 = a y^2 + b z^2 over Fractions, in the same order."""
    for x in range(0, bound + 1):
        for y in range(-bound, bound + 1):
            for z in range(-bound, bound + 1):
                if (x, y, z) != (0, 0, 0) and Fraction(x * x) == a * y * y + b * z * z:
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
            assert w.x.coords == (*want, Fraction(0))


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


def test_extend_scalars():
    A = make_matrix_algebra(F2, 2)
    F4 = standard_extension(2, 2)
    B = extend_scalars(A, F4, F4.lift)
    assert B.field == F4 and B.degree == 2
    x = B.element([F4.gen, F4.zero, F4.zero, F4.one])
    assert reduced_char_poly(x).degree == 2


# ---------------------------------------------------------------------------
# closure generators and the product


def _word_span_rank(A, gens):
    """Rank of the span of all words in gens, grown one word length at a
    time: S_{k+1} = S_k + S_k g."""
    f = A.field
    span, _ = rref(f, [A.unit])
    while True:
        grown, _ = rref(f, span + [A.mul(b, g) for b in span for g in gens])
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
            ("M3(F2)->F4", extend_scalars(make_matrix_algebra(F2, 3), F4, F4.lift)),
            ("(1,2)/F3->F9", extend_scalars(make_quaternion(F3, 1, 2), F9, F9.lift)),
            ("M2x(1,1)/F3->F9",
             extend_scalars(tensor_product(make_matrix_algebra(F3, 2),
                                           make_quaternion(F3, 1, 1)), F9, F9.lift))]
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


def _reordered_m2(field):
    """M_2 on the basis E11, E22, E12, E21 under a false matrix preset: the
    preset's candidates (basis 1 and 2, i.e. E22 and E12) only reach the
    upper triangular matrices."""
    M = make_matrix_algebra(field, 2)
    perm = [0, 3, 1, 2]
    inv = {old: new for new, old in enumerate(perm)}
    table = [[tuple((inv[k], c) for k, c in M.table[perm[a]][perm[b]])
              for b in range(4)] for a in range(4)]
    return Algebra(field, table, 2, preset={"kind": "matrix", "n": 2})


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
                extend_scalars(make_quaternion(F3, 1, 2), F9, F9.lift),
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
    x = _sparse_random(A, random.Random(seed))
    left, right = A.left_mult_matrix(x), A.right_mult_matrix(x)
    for j in range(A.dim):
        e = A.basis_coords(j)
        assert tuple(row[j] for row in left) == A.mul(x, e)
        assert tuple(row[j] for row in right) == A.mul(e, x)
