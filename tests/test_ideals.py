import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csawitness.algebra import Algebra, make_matrix_algebra, make_quaternion, tensor_product
from csawitness.errors import InvalidInputError, StructuralError, UnsupportedFieldError
from csawitness.fields import QQ, PrimeField, standard_extension
from csawitness.linalg import Matrix, in_row_space, mat_vec, rank, rref, solve, transpose
from csawitness.ideals import (
    Flag, RightIdeal, corner_algebra, flag_check, full_ideal, ideal_generated,
    induce_from_corner, module_presentation, random_flag, random_ideal,
    restrict_to_corner, splitting_idempotent, zero_ideal,
)

F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)


def test_ideal_generated_examples():
    A = make_matrix_algebra(F5, 2)
    assert ideal_generated([A.zero]).rdim == 0
    I = ideal_generated([A.basis_element(0)])  # E11
    assert I.rdim == 1
    assert I.contains(A.basis_coords(0)) and I.contains(A.basis_coords(1))
    assert not I.contains(A.basis_coords(2))

    S = make_quaternion(QQ, Fraction(1), Fraction(1))
    I = ideal_generated([S.one + S.basis_element(1)])
    assert I.rdim == 1 and I.dim() == 2  # proper: 1+i is a zero divisor


def test_right_ideal_rejects_non_ideals():
    A = make_matrix_algebra(F5, 2)
    with pytest.raises(StructuralError):
        RightIdeal(A, [A.basis_coords(0)])  # span{E11} alone is not right-closed


def test_splitting_idempotent_edge_cases():
    A = make_matrix_algebra(F3, 2)
    assert splitting_idempotent(full_ideal(A)) == A.one
    assert splitting_idempotent(zero_ideal(A)) == A.zero


def test_splitting_idempotent_row_ideal():
    A = make_matrix_algebra(F5, 2)
    I = ideal_generated([A.basis_element(0)])
    e = splitting_idempotent(I)
    assert (e * e - e).is_zero()
    assert I.contains(e.coords)
    assert ideal_generated([e]) == I


def _idempotent_by_the_method_path(I):
    """splitting_idempotent as one Algebra.mul per pair of basis rows and a
    solve of the stacked system sum_s mu_s (b_s b_r) = b_r."""
    A, f = I.algebra, I.algebra.field
    rows, rhs = [], []
    for b_r in I.basis:
        prods = [A.mul(b_s, b_r) for b_s in I.basis]
        rows.extend([p[k] for p in prods] for k in range(A.dim))
        rhs.extend(b_r)
    return A.element(mat_vec(Matrix(f, transpose(I.basis)), solve(f, rows, rhs)))


def _idempotent_cases():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    return [(make_matrix_algebra(QQ, 2), [1]), (make_matrix_algebra(QQ, 3), [1, 2]),
            (tensor_product(make_matrix_algebra(QQ, 2), H), [2]),
            (make_matrix_algebra(F5, 3), [1, 2]), (make_matrix_algebra(F2, 3), [1, 2]),
            (make_matrix_algebra(standard_extension(3, 2), 2), [1])]


def test_splitting_idempotent_equals_the_method_path_solve():
    rng = random.Random(23)
    for A, rdims in _idempotent_cases():
        for rd in rdims:
            for _ in range(4):
                I = random_ideal(A, rd, rng)
                e = splitting_idempotent(I)
                assert e == _idempotent_by_the_method_path(I), (A, rd)
                assert (e * e - e).is_zero() and I.contains(e.coords)


@pytest.mark.parametrize("field", [QQ, F5, standard_extension(3, 2)], ids=["Q", "F5", "F9"])
def test_splitting_idempotent_without_a_left_unit_raises(field):
    # span{E12, E21} is not a right ideal: e = a E12 + b E21 gives
    # e E12 = b E22, never E12, so the left-unit system is inconsistent
    A = make_matrix_algebra(field, 2)
    I = RightIdeal(A, [A.basis_coords(1), A.basis_coords(2)], _skip_closure_check=True)
    with pytest.raises(StructuralError, match="no left unit exists"):
        splitting_idempotent(I)


def test_splitting_idempotent_makes_no_algebra_products_over_q_and_fp(monkeypatch):
    rng = random.Random(29)
    ideals = [random_ideal(A, rd, rng) for A, rdims in _idempotent_cases()[:5]
              for rd in rdims]
    calls = []
    mul = Algebra.mul
    monkeypatch.setattr(Algebra, "mul", lambda A, x, y: calls.append(1) or mul(A, x, y))
    for I in ideals:
        splitting_idempotent(I)
    assert calls == []


def test_splitting_idempotent_seeded_all_presets():
    rng = random.Random(101)
    algs = [make_matrix_algebra(F5, 3), make_matrix_algebra(F2, 4),
            tensor_product(make_matrix_algebra(QQ, 2),
                           make_quaternion(QQ, Fraction(-1), Fraction(-1)))]
    rdims = {0: [1, 2], 1: [1, 2, 3], 2: [2]}
    for idx, A in enumerate(algs):
        for rd in rdims[idx]:
            for _ in range(5):
                I = random_ideal(A, rd, rng)
                e = splitting_idempotent(I)
                one_minus_e = A.one - e
                assert (e * e - e).is_zero()
                assert I.contains(e.coords)
                assert ideal_generated([e]) == I
                J = ideal_generated([one_minus_e])
                # complement: I + J = A, I ∩ J = 0
                assert I.dim() + J.dim() == A.dim
                from csawitness.linalg import rank
                assert rank(Matrix(A.field, list(I.basis) + list(J.basis))) == A.dim


def test_corner_algebra_trivial_cases():
    A = make_matrix_algebra(F5, 3)
    D = corner_algebra(A.one)
    assert D.degree == 3 and D.dim == 9
    assert D.table == A.table and D.unit == A.unit  # 1 A 1 is A itself
    e = A.basis_element(0)  # E11
    D1 = corner_algebra(e)
    assert D1.degree == 1 and D1.dim == 1


def test_corner_of_rank2_idempotent_is_m2():
    A = make_matrix_algebra(F5, 3)
    e = A.basis_element(0) + A.basis_element(4)  # E11 + E22
    D = corner_algebra(e)
    assert D.degree == 2 and D.dim == 4
    # the corner basis is exactly E11, E12, E21, E22, so the structure
    # constants agree with the 2x2 matrix algebra literally
    M2 = make_matrix_algebra(F5, 2)
    assert D.table == M2.table and D.unit == M2.unit


def test_corner_requires_idempotent():
    A = make_matrix_algebra(F5, 2)
    with pytest.raises(InvalidInputError):
        corner_algebra(A.basis_element(1))  # E12 is nilpotent


def test_restrict_induce_round_trip_trivial():
    A = make_matrix_algebra(F5, 4)
    rng = random.Random(3)
    I = random_ideal(A, 2, rng)
    e = splitting_idempotent(I)
    D = corner_algebra(e)
    # J = I restricts to the full corner and comes back
    K = restrict_to_corner(I, D)
    assert K == full_ideal(D)
    assert induce_from_corner(K) == I
    # zero goes to zero
    K0 = restrict_to_corner(zero_ideal(A), D)
    assert K0.is_zero()


def test_restrict_induce_round_trip_seeded():
    A = make_matrix_algebra(F5, 4)
    rng = random.Random(17)
    pres = module_presentation(A)
    for _ in range(20):
        I = random_ideal(A, 2, rng)
        e = splitting_idempotent(I)
        D = corner_algebra(e)
        # a random rdim-1 subideal of I: one column vector inside im(I)
        W = pres.image_subspace(I)
        f = A.field
        while True:
            v = [f.zero] * pres.vlen
            c1, c2 = f.random(rng), f.random(rng)
            v = [f.add(f.mul(c1, a), f.mul(c2, b)) for a, b in zip(W[0], W[1])]
            if any(not f.is_zero(x) for x in v):
                break
        J = pres.ideal_from_subspace([tuple(v)])
        assert I.contains_ideal(J) and J.rdim == 1
        K = restrict_to_corner(J, D)
        assert K.rdim * D.degree == K.dim()
        back = induce_from_corner(K)
        assert back == J
        # and the other composition is the identity on corner ideals
        assert restrict_to_corner(back, D) == K


def test_flag_check():
    A = make_matrix_algebra(F3, 4)
    rng = random.Random(9)
    flag = random_flag(A, (1, 2), rng)
    assert flag_check(flag, (1, 2))
    assert not flag_check(flag, (1, 3))
    # reversed containment fails
    rev = Flag(tuple(reversed(flag.ideals)))
    assert not flag_check(rev, (2, 1))
    assert not flag_check(rev, rev.signature)


def test_random_ideal_rdim_constraints():
    T = tensor_product(make_matrix_algebra(F5, 2), make_quaternion(F5, 2, 3))
    rng = random.Random(31)
    I = random_ideal(T, 2, rng)
    assert I.rdim == 2
    with pytest.raises(InvalidInputError):
        random_ideal(T, 1, rng)  # must be a multiple of 2


def test_d_basis_of_raises_when_a_greedy_vector_falls_short():
    # (2, 3) over F_5 is split: every vector of this rdim-1 ideal's column
    # space spans only 2 dimensions over D, and so does every sum of two,
    # since the column space (F-dimension 2) is not free over D
    H = make_quaternion(F5, 2, 3)
    pres = module_presentation(H)
    I = ideal_generated([H.element([0, 1, 1, 0])])
    assert I.rdim == 1
    with pytest.raises(StructuralError, match="D-basis choice failed"):
        pres.d_basis_of(pres.image_subspace(I))


def test_d_basis_of_takes_a_sum_of_two_rows_where_each_row_falls_short():
    # the column space of this rdim-2 ideal is free (F-dimension 4 over
    # D = M_2(F_5)), but each of its rref rows spans only 2 dimensions over
    # D; the basis is the first sum of two rows, in order, that spans all 4
    T = tensor_product(make_matrix_algebra(F5, 2), make_quaternion(F5, 2, 3))
    pres = module_presentation(T)
    I = ideal_generated([T.element([0, 1, 1, 0] + [0] * 8 + [0, 1, 1, 0])])
    assert I.rdim == 2
    rows = pres.image_subspace(I)
    assert all(rank(pres.d_rows([v])) == 2 for v in rows)
    sums = [tuple(F5.add(x, y) for x, y in zip(a, b))
            for i, a in enumerate(rows) for b in rows[i + 1:]]
    assert pres.d_basis_of(rows) == [next(w for w in sums
                                          if rank(pres.d_rows([w])) == 4)]
    # a column space whose rows each add 4 keeps the first row
    r = random_ideal(T, 2, random.Random(3))
    rows = pres.image_subspace(r)
    assert pres.d_basis_of(rows) == [rows[0]]


def _presentation_layouts():
    """Each module presentation layout, with a nilpotent z of D where D is
    split ((2, 3) over F_5 and (3, 4) over F_49: (i + j)^2 = a + b = 0)."""
    H_q = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    H_5 = make_quaternion(F5, 2, 3)
    F49 = standard_extension(7, 2)
    H_49 = make_quaternion(F49, F49.from_int(3), F49.from_int(4))
    z_5, z_49 = ((H.basis_element(1) + H.basis_element(2)).coords for H in (H_5, H_49))
    return {
        "m4_f5": (make_matrix_algebra(F5, 4), None),
        "m3_q": (make_matrix_algebra(QQ, 3), None),
        "m2_h_q": (tensor_product(make_matrix_algebra(QQ, 2), H_q), None),
        "h_m2_q": (tensor_product(H_q, make_matrix_algebra(QQ, 2)), None),
        "split_h_f49": (H_49, z_49),
        "m2_split_h_f5": (tensor_product(make_matrix_algebra(F5, 2), H_5), z_5),
        "split_h_m3_f5": (tensor_product(H_5, make_matrix_algebra(F5, 3)), z_5),
    }


@pytest.mark.parametrize("name", sorted(_presentation_layouts()))
def test_d_span_ideals_pass_the_closure_check(name):
    # ideal_from_subspace skips the closure check; the checked constructor
    # must accept what it builds on every coordinate layout, also for the
    # D-spans of vectors with slots in z D, which are not free over D
    A, z = _presentation_layouts()[name]
    pres, f = module_presentation(A), A.field
    rng = random.Random(name)
    for _ in range(25):
        vecs = []
        for _ in range(rng.randint(1, pres.m)):
            slots = [tuple(f.random(rng) for _ in range(pres.d2)) for _ in range(pres.m)]
            if z is not None and rng.random() < 0.5:
                slots = [pres.D.mul(z, x) for x in slots]
            vecs.append(tuple(c for x in slots for c in x))
        J = pres.ideal_from_subspace(vecs)
        assert RightIdeal(A, J.basis) == J
        # and its column space is the D-span of vecs
        span, _ = rref(rows=pres.d_rows(vecs))
        assert pres.image_subspace(J) == [tuple(r) for r in span.rows]
        # which column 0 alone gives: the D-span of all columns is the same
        cols = [pres.column_of(b, c) for b in J.basis for c in range(pres.m)]
        all_cols, _ = rref(rows=pres.d_rows(cols))
        assert pres.image_subspace(J) == [tuple(r) for r in all_cols.rows]


def _lowered_d_rows(pres, vecs):
    """The rows of pres.d_rows(vecs) as field scalars: over F_p and Q with
    a D, its int rows lowered."""
    return [tuple(r) for r in pres.d_rows(vecs).rows]


def _old_slot(A, pres, row, col, l):
    """The algebra coordinate of basis (row, col) x d_l, by the per-preset
    rule ModulePresentation used before it stored its layout: the reference
    the stored index lists are checked against."""
    mat_idx = row * pres.m + col
    if pres.D is None:
        return mat_idx
    if A.preset["kind"] == "quaternion":
        return l
    if A.preset["left"].preset["kind"] == "matrix":
        return mat_idx * 4 + l
    return l * pres.m * pres.m + mat_idx


def _coordinate_map_algebra(field_name, layout, n):
    F9 = standard_extension(3, 2)
    f, a, b = {"f5": (F5, 2, 3), "f9": (F9, F9.from_int(1), F9.from_int(2)),
               "q": (QQ, Fraction(-1), Fraction(-1))}[field_name]
    H = make_quaternion(f, a, b)
    return {"m": lambda: make_matrix_algebra(f, n),
            "m_h": lambda: tensor_product(make_matrix_algebra(f, n), H),
            "h_m": lambda: tensor_product(H, make_matrix_algebra(f, n)),
            "h": lambda: H}[layout]()


@pytest.mark.parametrize("field_name", ["f5", "f9", "q"])
@pytest.mark.parametrize("layout, n", [("m", n) for n in range(1, 5)]
                         + [(lay, m) for lay in ("m_h", "h_m") for m in range(1, 4)]
                         + [("h", 1)])
def test_coordinate_map_is_the_preset_rule(field_name, layout, n):
    A = _coordinate_map_algebra(field_name, layout, n)
    f = A.field
    pres = module_presentation(A)
    assert module_presentation(A) is pres
    # the m column index lists partition the algebra coordinates
    assert len(pres._cols) == pres.m
    assert sorted(i for col in pres._cols for i in col) == list(range(A.dim))
    rng = random.Random(f"{field_name} {layout} {n}")
    for col in range(pres.m):
        assert list(pres._cols[col]) == [_old_slot(A, pres, row, col, l)
                                         for row in range(pres.m) for l in range(pres.d2)]
        x = A.random_element(rng).coords
        assert pres.column_of(x, col) == tuple(
            x[_old_slot(A, pres, row, col, l)] for row in range(pres.m) for l in range(pres.d2))
        for _ in range(5):
            # v placed in column col by the per-preset rule reads back as v
            # there, and as zero in every other column
            v = tuple(f.random(rng) for _ in range(pres.vlen))
            placed = [f.zero] * A.dim
            for row in range(pres.m):
                for l in range(pres.d2):
                    placed[_old_slot(A, pres, row, col, l)] = v[row * pres.d2 + l]
            for c in range(pres.m):
                assert pres.column_of(placed, c) == (v if c == col else (f.zero,) * pres.vlen)
    vecs = [tuple(f.random(rng) for _ in range(pres.vlen)) for _ in range(3)]
    if pres.D is None:
        # over F the D-rows are the canonical vectors themselves
        assert _lowered_d_rows(pres, vecs) == vecs
    else:
        # v d_l: each slot of v multiplied on the right by d_l with D.mul
        assert _lowered_d_rows(pres, vecs) == [
            tuple(x for r in range(0, pres.vlen, 4)
                  for x in pres.D.mul(tuple(v[r:r + 4]), pres.D.basis_coords(l)))
            for v in vecs for l in range(4)]


@pytest.mark.parametrize("layout, n", [("m", 3), ("m_h", 2), ("h_m", 2), ("h", 1)])
def test_an_algebra_and_its_presentation_are_freed_by_reference_counting(layout, n):
    # the presentation that A keeps must not refer back to A strongly: a
    # cycle would leave every algebra a csaw verify loads to the collector
    A = _coordinate_map_algebra("f5", layout, n)
    pres = module_presentation(A)
    assert pres._algebra() is A
    alive = weakref.ref(A)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del A, pres
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_a_preset_without_a_presentation_raises_at_every_call():
    H = make_quaternion(F5, 2, 3)
    for A in (tensor_product(H, H), Algebra(F5, H.table, 2, unit=H.unit)):
        for _ in range(2):
            with pytest.raises(UnsupportedFieldError):
                module_presentation(A)


def test_quaternion_ideal_has_even_rdim():
    H = make_quaternion(F5, 2, 3)  # split by Wedderburn, but presented as D
    rng = random.Random(7)
    # generated ideals always have rdim a multiple of... here deg 2 with
    # possible rdims 0,1,2 since H is split; a zero divisor gives rdim 1
    from csawitness.algebra import index_evidence
    w = index_evidence(H)
    I = ideal_generated([w.x])
    assert I.rdim in (1, 2)


def _closed_under_every_basis_element(A, rows):
    """The former definition: dimension a multiple of the degree and
    closure under right multiplication by each basis element e_j."""
    f = A.field
    basis, pivots = rref(rows=Matrix(f, rows))
    if len(pivots) % A.degree:
        return False
    return all(in_row_space(basis, pivots, A.mul(b, A.basis_coords(j)))
               for b in basis.rows for j in range(A.dim))


_SMALL = {
    "M2(F3)": make_matrix_algebra(F3, 2),
    "M3(F2)": make_matrix_algebra(F2, 3),
    "(-1,-1)/F3": make_quaternion(F3, 2, 2),
}


@pytest.mark.parametrize("name", sorted(_SMALL))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_right_ideal_accepts_what_the_basis_definition_accepts(name, data):
    A = _SMALL[name]
    f = A.field
    elem = st.tuples(*[st.sampled_from(list(f.elements()))] * A.dim)
    # products g e_j over a subset J of the basis are a right ideal when J
    # is everything; extra rows then may or may not break closure
    gens = data.draw(st.lists(elem, max_size=2))
    js = data.draw(st.sets(st.integers(0, A.dim - 1)))
    extra = data.draw(st.lists(elem, max_size=2))
    rows = [A.mul(g, A.basis_coords(j)) for g in gens for j in sorted(js)] + extra
    try:
        RightIdeal(A, rows)
        accepted = True
    except StructuralError:
        accepted = False
    assert accepted == _closed_under_every_basis_element(A, rows)


# ---------------------------------------------------------------------------
# the closure check on lifted rows, over Q and F_p


@pytest.mark.parametrize("field", [QQ, F5, F7])
def test_right_ideal_rejects_a_left_ideal(field):
    for n in (2, 3):
        A = make_matrix_algebra(field, n)
        # for the idempotent e = E11 + c E12, A e is the left ideal of the
        # matrices whose rows are multiples of (1, c, 0, ...), and e A the
        # right ideal of the matrices that vanish below the first row
        c = field.from_int(3) if field.char else Fraction(-3, 2)
        e = [field.zero] * A.dim
        e[0], e[1] = field.one, c
        e = tuple(e)
        left = [A.mul(A.basis_coords(j), e) for j in range(A.dim)]
        with pytest.raises(StructuralError, match="^subspace is not a right ideal$"):
            RightIdeal(A, left)
        right = [A.mul(e, A.basis_coords(j)) for j in range(A.dim)]
        assert RightIdeal(A, right).rdim == 1


_SMALL_Q = {
    "M2(Q)": make_matrix_algebra(QQ, 2),
    "(-3/2,5/7)/Q": make_quaternion(QQ, Fraction(-3, 2), Fraction(5, 7)),
    "(1,1)/Q": make_quaternion(QQ, Fraction(1), Fraction(1)),
}


@pytest.mark.parametrize("name", sorted(_SMALL_Q))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_right_ideal_over_q_accepts_what_the_basis_definition_accepts(name, data):
    A = _SMALL_Q[name]
    scalar = st.one_of(st.just(Fraction(0)),
                       st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
    elem = st.tuples(*[scalar] * A.dim)
    # products g e_j (a right ideal when J is everything), e_j g (a left
    # ideal) and extra rows, which may or may not break closure
    gens = data.draw(st.lists(elem, max_size=2))
    js = sorted(data.draw(st.sets(st.integers(0, A.dim - 1))))
    left = data.draw(st.booleans())
    rows = [A.mul(A.basis_coords(j), g) if left else A.mul(g, A.basis_coords(j))
            for g in gens for j in js] + data.draw(st.lists(elem, max_size=1))
    try:
        RightIdeal(A, rows)
        accepted = True
    except StructuralError:
        accepted = False
    assert accepted == _closed_under_every_basis_element(A, rows)


# ---------------------------------------------------------------------------
# the closure check against the two shift generators of M_n


def _oracle_spans(A, rng):
    """Subspaces of M_n, each labelled: random right ideals, the same with
    one row replaced, left ideals A x with x singular, and the spans u S of
    the matrices S supported in the last k columns (closed under the shift
    N, not under N^T) or in the first k (closed under N^T, not under N)."""
    f, n = A.field, A.degree

    def element():
        return tuple(f.random(rng) for _ in range(A.dim))

    def invertible():
        while True:
            u = element()
            if A.inverse(u) is not None:
                return u

    ideal = random_ideal(A, rng.randint(0, n), rng)
    yield "right ideal", list(ideal.basis)
    if ideal.basis:
        rows = list(ideal.basis)
        rows[rng.randrange(len(rows))] = element()
        yield "replaced row", rows
    k = rng.randint(1, n - 1)
    # x of rank at most k < n, so that A x is a proper left ideal
    x = A.mul(element(), tuple(f.one if i == j < k else f.zero
                               for i in range(n) for j in range(n)))
    yield "left ideal", [A.mul(A.basis_coords(j), x) for j in range(A.dim)]
    u = invertible()
    for cols in (range(n - k, n), range(k)):
        yield "column band", [A.mul(u, A.basis_coords(i * n + j))
                              for i in range(n) for j in cols]


@pytest.mark.parametrize("field, n", [(F3, 3), (F2, 4), (QQ, 3)])
def test_right_ideal_on_m_n_accepts_what_the_basis_definition_accepts(field, n):
    A = make_matrix_algebra(field, n)
    rng = random.Random(20 + n)
    seen = set()
    for _ in range(12):
        for label, rows in _oracle_spans(A, rng):
            try:
                RightIdeal(A, rows)
                accepted = True
            except StructuralError:
                accepted = False
            assert accepted == _closed_under_every_basis_element(A, rows), label
            seen.add((label, accepted))
    assert {("right ideal", True), ("replaced row", False), ("left ideal", False),
            ("column band", False)} <= seen


# ---------------------------------------------------------------------------
# ideals of column spaces from one elimination in V
#
# ModulePresentation.ideal_from_subspace takes the rref of the D-rows in V
# and places it in each column.  The reference below is the ideal of every
# D-row placed in every column, eliminated at the full width of A, with the
# D-rows taken slot by slot with D.mul.


def _slotwise_d_rows(pres, vecs):
    if pres.D is None:
        return [tuple(v) for v in vecs]
    return [tuple(x for r in range(0, pres.vlen, 4)
                  for x in pres.D.mul(tuple(v[r:r + 4]), pres.D.basis_coords(l)))
            for v in vecs for l in range(4)]


def _placed_everywhere(A, pres, rows):
    """RightIdeal of each row placed in each column, by the per-preset rule;
    the closure check is skipped, as ideal_from_subspace skips it."""
    placed = []
    for col in range(pres.m):
        for w in rows:
            out = [A.field.zero] * A.dim
            for row in range(pres.m):
                for l in range(pres.d2):
                    out[_old_slot(A, pres, row, col, l)] = w[row * pres.d2 + l]
            placed.append(out)
    return RightIdeal(A, placed, _skip_closure_check=True)


def _outcome(build):
    try:
        return build(), None
    except StructuralError as exc:
        return None, str(exc)


def _column_space_presets():
    F9 = standard_extension(3, 2)
    out = [make_matrix_algebra(PrimeField(p), n) for p in (2, 3, 5, 7) for n in range(1, 6)]
    out += [make_matrix_algebra(QQ, n) for n in (1, 2, 3)] + [make_matrix_algebra(F9, 3)]
    for H in (make_quaternion(QQ, Fraction(-1), Fraction(-1)),
              make_quaternion(QQ, Fraction(1, 2), Fraction(-3)),
              make_quaternion(F5, 2, 3), make_quaternion(F5, 1, 1),
              make_quaternion(F9, F9.from_int(1), F9.from_int(2))):
        f = H.field
        out += [H, tensor_product(make_matrix_algebra(f, 2), H),
                tensor_product(H, make_matrix_algebra(f, 2))]
    return out


def _random_vectors(f, pres, rng):
    """Up to m + 1 vectors, some zero and some repeated, so that the D-rows
    are often rank-deficient."""
    vecs = []
    for _ in range(rng.randrange(pres.m + 2)):
        r = rng.random()
        if r < 0.15:
            vecs.append(tuple(f.zero for _ in range(pres.vlen)))
        elif r < 0.3 and vecs:
            vecs.append(vecs[0])
        else:
            vecs.append(tuple(f.random(rng) for _ in range(pres.vlen)))
    return vecs


def test_ideal_from_subspace_is_the_ideal_of_every_placed_row():
    rng = random.Random(34)
    deficient = 0
    for A in _column_space_presets():
        pres = module_presentation(A)
        for _ in range(10):
            vecs = _random_vectors(A.field, pres, rng)
            rows = _slotwise_d_rows(pres, vecs)
            got, err = _outcome(lambda: pres.ideal_from_subspace(vecs))
            want, want_err = _outcome(lambda: _placed_everywhere(A, pres, rows))
            assert err == want_err
            assert (got.basis, got.pivots, got.rdim, got._matrix.lifted) == (
                want.basis, want.pivots, want.rdim, want._matrix.lifted), (A, vecs)
            deficient += got.dim() < pres.m * len(rows)
    assert deficient > 0


@pytest.mark.parametrize("layout", ["h", "m_h", "h_m"])
def test_ideal_from_subspace_raises_as_the_full_width_ideal(monkeypatch, layout):
    # D-rows are D-stable, so their dimension is a multiple of the degree;
    # rows that are not give the degree error, with the same message
    A = _coordinate_map_algebra("q", layout, 2)
    pres = module_presentation(A)
    monkeypatch.setattr(pres, "_d_rows", lambda vecs, maps: Matrix(A.field, vecs))
    rng = random.Random(layout)
    vecs = [tuple(QQ.random(rng) for _ in range(pres.vlen))]
    _, err = _outcome(lambda: pres.ideal_from_subspace(vecs))
    assert err == _outcome(lambda: _placed_everywhere(A, pres, vecs))[1]
    assert err == f"subspace dimension {pres.m} is not a multiple of the degree"


@pytest.mark.parametrize("field_name", ["q", "f5", "f9"])
@pytest.mark.parametrize("layout, n", [("h", 1), ("m_h", 1), ("m_h", 2), ("h_m", 2), ("h_m", 3)])
def test_d_rows_are_slotwise_products(field_name, layout, n):
    A = _coordinate_map_algebra(field_name, layout, n)
    pres = module_presentation(A)
    f = A.field
    rng = random.Random(f"d rows {field_name} {layout} {n}")
    for _ in range(20):
        vecs = _random_vectors(f, pres, rng)
        assert _lowered_d_rows(pres, vecs) == _slotwise_d_rows(pres, vecs)
