import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csawitness.errors import InvalidInputError
from csawitness.fields import QQ, ExtensionField, PrimeField, standard_extension
from csawitness.linalg import (
    Matrix, charpoly, dependency, identity, in_row_space, int_dependency,
    int_prefix_solve, intertwiner_mismatch, inverse, kernel, mat_mul, mat_vec,
    pivots, rank, reduce_vector, rref, solve,
)

F5 = PrimeField(5)
F7 = PrimeField(7)


def _rref(field, rows):
    """rref of the Matrix of rows, as (its rows, pivots)."""
    basis, piv = rref(rows=Matrix(field, rows))
    return basis.rows, piv


def random_matrix(field, rng, m, n):
    return [[field.random(rng) for _ in range(n)] for _ in range(m)]


def test_rref_is_idempotent_seeded():
    rng = random.Random(2)
    for field in (F5, QQ, standard_extension(2, 2)):
        for _ in range(60):
            m = random_matrix(field, rng, rng.randint(1, 5), rng.randint(1, 6))
            r1, p1 = _rref(field, m)
            r2, p2 = _rref(field, r1)
            assert r1 == r2 and p1 == p2


def test_rref_known():
    m = [[2, 4], [1, 2]]
    basis, pivots = _rref(F5, m)
    assert basis == [[1, 2]] and pivots == [0]


def test_kernel_annihilates():
    rng = random.Random(4)
    for _ in range(60):
        a = random_matrix(F7, rng, rng.randint(1, 4), rng.randint(1, 6))
        for v in kernel(Matrix(F7, a)).rows:
            assert all(x == 0 for x in mat_vec(Matrix(F7, a), v))
        assert len(kernel(Matrix(F7, a)).rows) == len(a[0]) - rank(Matrix(F7, a))


def test_solve_verifies():
    rng = random.Random(9)
    for _ in range(80):
        a = random_matrix(F5, rng, rng.randint(1, 4), rng.randint(1, 4))
        x0 = [F5.random(rng) for _ in range(len(a[0]))]
        b = mat_vec(Matrix(F5, a), x0)
        x = solve(F5, a, b)
        assert x is not None
        assert mat_vec(Matrix(F5, a), x) == b
    # inconsistent system
    assert solve(F5, [[1, 0], [1, 0]], [1, 2]) is None


def test_inverse():
    rng = random.Random(17)
    ok = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        m = random_matrix(F7, rng, n, n)
        inv = inverse(F7, m)
        if inv is None:
            assert rank(Matrix(F7, m)) < n
            continue
        assert mat_mul(F7, m, inv) == identity(F7, n)
        ok += 1
    assert ok > 20


def _charpoly_by_det(field, m):
    """det(xI - M) by cofactor expansion over polynomial lists (oracle)."""
    from csawitness.poly import Poly
    n = len(m)
    entries = [[Poly(field, [field.neg(m[i][j])] + ([field.one] if i == j else []))
                for j in range(n)] for i in range(n)]

    def expand(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        total = Poly.zero(field)
        r = rows[0]
        for k, c in enumerate(cols):
            minor = expand(rows[1:], cols[:k] + cols[k + 1:])
            term = entries[r][c] * minor
            if k % 2 == 1:
                term = -term
            total = total + term
        return total

    return expand(list(range(n)), list(range(n))).coeffs


def test_charpoly_matches_cofactor_oracle():
    rng = random.Random(19)
    for field in (F5, QQ, standard_extension(2, 2)):
        for _ in range(40):
            n = rng.randint(1, 4)
            m = random_matrix(field, rng, n, n)
            got = charpoly(field, m)
            want = list(_charpoly_by_det(field, m))
            want += [field.zero] * (n + 1 - len(want))
            assert got == want


def test_charpoly_cayley_hamilton():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = random_matrix(F7, rng, n, n)
        cp = charpoly(F7, m)
        acc = [[F7.zero] * n for _ in range(n)]
        power = identity(F7, n)
        for c in cp:
            for i in range(n):
                for j in range(n):
                    acc[i][j] = F7.add(acc[i][j], F7.mul(c, power[i][j]))
            power = mat_mul(F7, power, m)
        assert acc == [[0] * n for _ in range(n)]


# ---------------------------------------------------------------------------
# the F_p delayed-reduction branch against the field-method path and sympy


class MethodPathField:
    """F_p through PrimeField's methods, but not a PrimeField instance, so
    linalg takes the field-method path on it."""

    def __init__(self, p):
        self._f = PrimeField(p)

    def __getattr__(self, name):
        return getattr(self._f, name)


PRIMES = (2, 3, 7)


@st.composite
def unreduced_matrices(draw, max_rows=6, max_cols=7):
    """(p, rows): int entries in [-2p, 2p], so many are not in [0, p)."""
    p = draw(st.sampled_from(PRIMES))
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    entry = st.integers(-2 * p, 2 * p)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return p, rows


def _reduced(p, rows):
    return [[x % p for x in r] for r in rows]


@settings(max_examples=300, deadline=None)
@given(unreduced_matrices())
def test_rref_and_rank_match_the_method_path(case):
    p, rows = case
    want = _rref(MethodPathField(p), _reduced(p, rows))
    assert _rref(PrimeField(p), rows) == want
    assert rank(Matrix(PrimeField(p), rows)) == len(want[0])
    # the last column as the right-hand side
    a, b = [r[:-1] for r in rows], [r[-1] for r in rows]
    assert solve(PrimeField(p), a, b) == solve(MethodPathField(p), _reduced(p, a),
                                                [x % p for x in b])


@settings(max_examples=300, deadline=None)
@given(unreduced_matrices(), st.data())
def test_mat_vec_matches_the_method_path(case, data):
    p, rows = case
    v = data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=len(rows[0]),
                           max_size=len(rows[0])))
    want = mat_vec(Matrix(MethodPathField(p), _reduced(p, rows)), [x % p for x in v])
    assert mat_vec(Matrix(PrimeField(p), rows), v) == want


@settings(max_examples=300, deadline=None)
@given(unreduced_matrices(), st.data())
def test_reduce_vector_matches_the_method_path(case, data):
    p, rows = case
    f = PrimeField(p)
    basis, pivots = _rref(f, rows)
    # an unreduced combination of the rows, and an arbitrary vector
    coeffs = data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=len(rows),
                                max_size=len(rows)))
    inside = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(rows[0]))]
    other = data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=len(rows[0]),
                               max_size=len(rows[0])))
    for v in (inside, other):
        # reduce_vector takes canonical scalars, in_row_space unreduced ints
        reduced = [x % p for x in v]
        residual, coeffs = reduce_vector(f, basis, pivots, reduced)
        assert (residual, coeffs) == reduce_vector(MethodPathField(p), basis, pivots, reduced)
        assert all(residual[c] == 0 for c in pivots)
        assert [(r + sum(c * b[j] for c, b in zip(coeffs, basis))) % p
                for j, r in enumerate(residual)] == reduced
        member = in_row_space(Matrix(f, basis), pivots, v)
        assert member == in_row_space(Matrix(MethodPathField(p), basis), pivots, reduced)
        assert member == (not any(residual))
        assert member == (rank(Matrix(f, rows + [v])) == len(basis))
    assert in_row_space(Matrix(f, basis), pivots, inside)


@settings(max_examples=200, deadline=None)
@given(unreduced_matrices())
def test_rref_and_rank_match_sympy(case):
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix
    p, rows = case
    K = GF(p)
    dm = DomainMatrix([[K(x) for x in r] for r in rows], (len(rows), len(rows[0])), K)
    sym_rows, sym_pivots = dm.rref()
    want = [[K.to_int(x) % p for x in r] for r in sym_rows.to_list()[:len(sym_pivots)]]
    assert _rref(PrimeField(p), rows) == (want, list(sym_pivots))
    assert rank(Matrix(PrimeField(p), rows)) == dm.rank()


# ---------------------------------------------------------------------------
# the integer core over Q against the Fraction method path and sympy


class MethodPathQ:
    """Q through Rationals' methods, but not a Rationals instance, so linalg
    and Algebra.mul take the Fraction method path on it."""

    def __init__(self):
        self._f = QQ

    def __getattr__(self, name):
        return getattr(self._f, name)


rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def q_matrices(draw, max_rows=6, max_cols=7):
    """Rational matrices, about a third of the entries zero, so that rank
    drops and zero pivots occur."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(Fraction(0)), rationals)
    return draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


@settings(max_examples=300, deadline=None)
@given(q_matrices())
def test_rref_over_q_matches_the_method_path_and_sympy(rows):
    got = _rref(QQ, rows)
    assert got == _rref(MethodPathQ(), rows)
    assert rank(Matrix(QQ, rows)) == len(got[0])
    a, b = [r[:-1] for r in rows], [r[-1] for r in rows]
    x = solve(QQ, a, b)
    assert x == solve(MethodPathQ(), a, b)
    assert x is None or all(type(c) is Fraction for c in x)
    assert all(type(x) is Fraction for r in got[0] for x in r)
    pytest.importorskip("sympy")
    from sympy import QQ as SQQ
    from sympy.polys.matrices import DomainMatrix
    dm = DomainMatrix([[SQQ(x.numerator, x.denominator) for x in r] for r in rows],
                      (len(rows), len(rows[0])), SQQ)
    sym_rows, sym_pivots = dm.rref()
    want = [[Fraction(int(SQQ.numer(x)), int(SQQ.denom(x))) for x in r]
            for r in sym_rows.to_list()[:len(sym_pivots)]]
    assert got == (want, list(sym_pivots))


@settings(max_examples=300, deadline=None)
@given(q_matrices(), st.data())
def test_mat_vec_over_q_matches_the_method_path_and_sympy(rows, data):
    v = data.draw(st.lists(rationals, min_size=len(rows[0]), max_size=len(rows[0])))
    got = mat_vec(Matrix(QQ, rows), v)
    assert got == mat_vec(Matrix(MethodPathQ(), rows), v)
    # a Matrix held only lifted reads its ints
    ints, scale = QQ.lift_rows(rows)
    assert mat_vec(Matrix(QQ, ints=ints, scale=scale), v) == got
    pytest.importorskip("sympy")
    import sympy
    want = sympy.Matrix(rows) * sympy.Matrix(v)
    assert got == [Fraction(int(x.p), int(x.q)) for x in want]


@settings(max_examples=300, deadline=None)
@given(q_matrices(), st.data())
def test_reduce_vector_over_q_matches_the_method_path(rows, data):
    basis, pivots = _rref(QQ, rows)
    coeffs = data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    inside = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
              for j in range(len(rows[0]))]
    other = data.draw(st.lists(rationals, min_size=len(rows[0]), max_size=len(rows[0])))
    # rref's own Matrix, held only lifted
    held = rref(rows=Matrix(QQ, rows))[0]
    for v in (inside, other):
        want = reduce_vector(MethodPathQ(), basis, pivots, v)
        assert reduce_vector(QQ, basis, pivots, v) == want
        member = in_row_space(Matrix(QQ, basis), pivots, v)
        assert member == in_row_space(Matrix(MethodPathQ(), basis), pivots, v)
        assert member == in_row_space(held, pivots, v)
        assert member == (rank(Matrix(QQ, rows + [v])) == len(basis))
    assert in_row_space(Matrix(QQ, basis), pivots, inside)


def _q_algebras():
    from csawitness.algebra import make_matrix_algebra, make_quaternion, tensor_product
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    return {"M2(Q)": make_matrix_algebra(QQ, 2), "(-1,-1)/Q": H,
            "M2(Q)x(-1,-1)": tensor_product(make_matrix_algebra(QQ, 2), H),
            "(-3/2,5/7)/Q": make_quaternion(QQ, Fraction(-3, 2), Fraction(5, 7))}


_Q_ALGEBRAS = _q_algebras()


@pytest.mark.parametrize("name", sorted(_Q_ALGEBRAS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_algebra_mul_over_q_matches_the_method_path(name, data):
    from csawitness.algebra import Algebra
    A = _Q_ALGEBRAS[name]
    ref = Algebra(MethodPathQ(), A.table, A.degree, unit=A.unit, _trusted=True)
    assert ref._flat is None and A._flat is not None
    entry = st.one_of(st.just(Fraction(0)), rationals)
    vec = st.lists(entry, min_size=A.dim, max_size=A.dim).map(tuple)
    x, y = data.draw(vec), data.draw(vec)
    got = A.mul(x, y)
    assert got == ref.mul(x, y)
    assert all(type(c) is Fraction for c in got)
    assert A.left_mult_matrix(x) == ref.left_mult_matrix(x)


# ---------------------------------------------------------------------------
# mat_mul and intertwiner_mismatch on the integer core


@st.composite
def products(draw, entry, max_dim=5):
    """(a, b, c): a square, b and c of its size; entries drawn from entry."""
    n = draw(st.integers(1, max_dim))
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(square), draw(square), draw(square)


def _first_unequal_column(lhs, rhs):
    return next((j for j, (u, v) in enumerate(zip(zip(*lhs), zip(*rhs))) if u != v), None)


def _check_intertwiner(field, ref, a, b, c):
    """intertwiner_mismatch on (a, b, c) and on (a, b, a b a^-1) (where a is
    invertible), against the column-by-column comparison of the reference
    field's products: on Matrix values over the reference field (the
    field-method path), held as rows over field, and held lifted only, a,
    b and c at the scales 1, 2 and 4 times their canonical lift's."""
    cases = [c]
    a_inv = inverse(ref, a)
    if a_inv is not None:
        cases.append(mat_mul(ref, mat_mul(ref, a, b), a_inv))
    for c in cases:
        want = _first_unequal_column(mat_mul(ref, a, b), mat_mul(ref, c, a))
        assert intertwiner_mismatch(*(Matrix(ref, m) for m in (a, b, c))) == want
        assert intertwiner_mismatch(*(Matrix(field, m) for m in (a, b, c))) == want
        lifted = []
        for m, k in zip((a, b, c), (1, 2, 4)):
            ints, scale = field.lift_rows(m)
            lifted.append(Matrix(field, None, [[k * x for x in r] for r in ints], k * scale))
        assert intertwiner_mismatch(*lifted) == want
    if a_inv is not None:
        assert want is None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((3, 7)).flatmap(
    lambda p: st.tuples(st.just(p), products(st.integers(-2 * p, 2 * p)))))
def test_mat_mul_and_intertwiner_over_fp_match_the_method_path(case):
    p, (a, b, c) = case
    f, ref = PrimeField(p), MethodPathField(p)
    ra, rb, rc = (_reduced(p, m) for m in (a, b, c))
    assert mat_mul(f, a, b) == mat_mul(ref, ra, rb)
    _check_intertwiner(f, ref, ra, rb, rc)


q_entries = st.one_of(st.just(Fraction(0)), rationals)


@settings(max_examples=300, deadline=None)
@given(products(q_entries))
def test_mat_mul_and_intertwiner_over_q_match_the_method_path_and_sympy(case):
    a, b, c = case
    got = mat_mul(QQ, a, b)
    assert got == mat_mul(MethodPathQ(), a, b)
    assert all(type(x) is Fraction for r in got for x in r)
    _check_intertwiner(QQ, MethodPathQ(), a, b, c)
    pytest.importorskip("sympy")
    from sympy import QQ as SQQ
    from sympy.polys.matrices import DomainMatrix

    def dm(m):
        return DomainMatrix([[SQQ(x.numerator, x.denominator) for x in r] for r in m],
                            (len(m), len(m[0])), SQQ)

    want = [[Fraction(int(SQQ.numer(x)), int(SQQ.denom(x))) for x in r]
            for r in (dm(a) * dm(b)).to_list()]
    assert got == want


def test_mat_mul_of_non_square_matrices():
    rng = random.Random(11)
    for f, ref in ((F7, MethodPathField(7)), (QQ, MethodPathQ())):
        for _ in range(20):
            a, b = random_matrix(f, rng, 2, 3), random_matrix(f, rng, 3, 4)
            assert mat_mul(f, a, b) == mat_mul(ref, a, b)


# ---------------------------------------------------------------------------
# the first dependency over F_p, Q and F_{p^k}: dependency or int_dependency,
# then the rref of the kept rows, as etale.generate_etale runs them


def _combination(field, coeffs, vecs, n):
    out = [field.zero] * n
    for c, v in zip(coeffs, vecs):
        out = [field.add(x, field.mul(c, y)) for x, y in zip(out, v)]
    return out


def _first_dependency(field, vectors):
    """(coeffs, basis, pivots) with v_d = sum coeffs_i v_i at the first v_d
    in the span of v_0..v_{d-1}, and basis, pivots the rref of those:
    dependency on the vectors, then the rref of the kept rows."""
    comb, kept = dependency(field, vectors)
    basis, piv = rref(rows=Matrix(field, kept))
    return [field.neg(c) for c in comb[:-1]], basis.rows, piv


def _lifted_first_dependency(field, vectors):
    """_first_dependency from the int core: int_dependency on the lifted
    vectors, then the coefficients lowered and the int rref of the kept
    rows."""
    comb, kept = int_dependency(field, map(field.lift_vector, vectors))
    d = len(comb) - 1
    basis, piv = rref(rows=Matrix(field, ints=kept))
    return field.lower_vector([-c for c in comb[:d]], comb[d]), basis.rows, piv


def _check_first_dependency(field, vecs, first=_first_dependency):
    """first (_first_dependency or _lifted_first_dependency) on vecs, read
    lazily: v_d is a combination of the independent v_0..v_{d-1} with the
    returned coefficients, the basis is their rref, and nothing after v_d
    is read."""
    read = []

    def walk():
        for v in vecs:
            read.append(v)
            yield v

    coeffs, basis, pivots = first(field, walk())
    d = len(coeffs)
    assert len(read) == d + 1
    # 1 * v_d: v_d in canonical scalars (F_p entries may come unreduced)
    n = len(vecs[d])
    assert _combination(field, coeffs, vecs[:d], n) == _combination(field, [field.one],
                                                                    [vecs[d]], n)
    assert (basis, pivots) == _rref(field, vecs[:d])
    assert len(basis) == d
    return coeffs, basis, pivots


FIRST_DEPENDENCY_FIELDS = {"F2": PrimeField(2), "F7": F7, "Q": QQ,
                           "F9": standard_extension(3, 2), "F8": standard_extension(2, 3)}


@pytest.mark.parametrize("name", sorted(FIRST_DEPENDENCY_FIELDS))
def test_first_dependency_seeded(name):
    field = FIRST_DEPENDENCY_FIELDS[name]
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(1, 6)
        vecs = random_matrix(field, rng, rng.randint(0, n), n)
        # a combination of the vectors so far, then vectors never read
        vecs.append(_combination(field, [field.random(rng) for _ in vecs], vecs, n))
        vecs += random_matrix(field, rng, 2, n)
        for first in _firsts(field):
            _check_first_dependency(field, vecs, first)


def _firsts(field):
    """The first-dependency eliminations that run over field."""
    return ((_first_dependency,) if isinstance(field, ExtensionField)
            else (_first_dependency, _lifted_first_dependency))


def test_first_dependency_of_a_zero_first_vector():
    for field in FIRST_DEPENDENCY_FIELDS.values():
        zero = [field.zero] * 3
        for first in _firsts(field):
            assert first(field, iter([zero, zero])) == ([], [], [])


@pytest.mark.parametrize("name", sorted(FIRST_DEPENDENCY_FIELDS))
def test_first_dependency_raises_when_the_sequence_ends_first(name):
    field = FIRST_DEPENDENCY_FIELDS[name]
    for first in _firsts(field):
        with pytest.raises(InvalidInputError, match="no linear dependency"):
            first(field, iter(identity(field, 3)))
        with pytest.raises(InvalidInputError, match="no linear dependency"):
            first(field, iter([]))


def test_int_dependency_reads_each_vector_at_its_scale():
    # v = ints / scale: over F_7, (2, 0) / 2 = (1, 0), (0, 6) / 3 = (0, 2)
    # and (4, 6) / 2 = (2, 3) = 2 (1, 0) + 3/2 (0, 2), and 3/2 = 5 mod 7;
    # the kept rows span the plane, whose rref rows lift to (e_i, 1)
    lifted = [([2, 0], 2), ([0, 6], 3), ([4, 6], 2)]
    for field, coeffs in ((F7, [2, 5]), (QQ, [Fraction(2), Fraction(3, 2)])):
        comb, kept = int_dependency(field, iter(lifted))
        assert field.lower_vector([-c for c in comb[:2]], comb[2]) == coeffs
        basis, piv = rref(rows=Matrix(field, ints=kept))
        assert (basis.lifted, piv) == (([[1, 0], [0, 1]], 1), [0, 1])
    assert F7.lower_vector([4, 6, 9], 2) == [2, 3, 1]


@settings(max_examples=300, deadline=None)
@given(unreduced_matrices())
def test_first_dependency_over_fp_matches_the_method_path(case):
    # a repeated first row forces a dependency; entries are unreduced ints
    p, rows = case
    vecs = rows + [rows[0]]
    got = _check_first_dependency(PrimeField(p), vecs, _lifted_first_dependency)
    assert got == _first_dependency(MethodPathField(p), iter(_reduced(p, vecs)))


@settings(max_examples=200, deadline=None)
@given(q_matrices())
def test_first_dependency_over_q_matches_the_method_path(rows):
    vecs = rows + [rows[-1]]
    got = _check_first_dependency(QQ, vecs, _lifted_first_dependency)
    assert got == _first_dependency(MethodPathQ(), iter(vecs))
    assert all(type(x) is Fraction for x in got[0])


@pytest.mark.parametrize("field", [PrimeField(2), F7, QQ], ids=["F2", "F7", "Q"])
def test_rank_by_forward_elimination_equals_the_rref_length(field):
    # rank stops at forward elimination; rref reduces fully.  Products
    # of an m x r and an r x n matrix give rank-deficient cases.
    rng = random.Random(17)
    deficient = 0
    for _ in range(150):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = random_matrix(field, rng, m, n)
        if rng.random() < 0.5:
            r = rng.randint(1, min(m, n))
            rows = mat_mul(field, random_matrix(field, rng, m, r),
                           random_matrix(field, rng, r, n))
        want = len(_rref(field, rows)[0])
        deficient += want < min(m, n)
        assert rank(Matrix(field, ints=field.lift_rows(rows)[0])) == want
        assert rank(Matrix(field, rows)) == want
    assert deficient >= 30


# ---------------------------------------------------------------------------
# int_prefix_solve


def _prefix_reference(field, aug, n):
    """By rref on the lowered rows, the shortest prefix of aug that is
    inconsistent or whose coefficient part has rank n: (None, its length)
    or (its unique solution, its length); (None, len(aug)) if there is
    none."""
    if n == 0:
        return [], 0
    for k in range(1, len(aug) + 1):
        basis, pivots = _rref(field, [field.lower_vector(*field.lift_vector(r)) for r in aug[:k]])
        if pivots[-1:] == [n]:
            return None, k
        if len(pivots) == n:
            return [r[n] for r in basis], k
    return None, len(aug)


@pytest.mark.parametrize("field", [F7, QQ], ids=["F7", "Q"])
def test_int_prefix_solve_solves_the_first_full_rank_prefix(field):
    """On int rows, some of them combinations of others with the right side
    kept or moved, the result is read off the shortest prefix that is
    inconsistent (None) or of full column rank (its unique solution), or
    is None when there is no such prefix; no row after it is read."""
    rng = random.Random(17)
    seen = set()
    for _ in range(300):
        n = rng.randint(0, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(rng.randint(0, 7))]
        for _ in range(rng.randint(0, 3)):   # a combination, its right side kept or moved
            if rows:
                a, b = rng.choice(rows), rng.choice(rows)
                c = [x + 2 * y for x, y in zip(a, b)]
                c[n] += rng.choice([0, 0, 1])
                rows.insert(rng.randint(0, len(rows)), c)
        want, k = _prefix_reference(field, rows, n)
        read = []

        def walk():
            for r in rows:
                read.append(r)
                yield list(r)

        got = int_prefix_solve(field, walk(), n)
        if got is not None:
            got = field.lower_vector(*got)
        assert got == want, (rows, n)
        assert len(read) == k
        seen.add((want is None, k == len(rows)))
    assert seen == {(True, True), (False, True), (True, False), (False, False)}


# ---------------------------------------------------------------------------
# the kernels on Matrix values held only lifted: kernel, pivots, rref


def _sympy_nullspace_rref(rows):
    """The rref rows of sympy's nullspace of rational rows, as Fractions."""
    import sympy
    null = sympy.Matrix(rows).nullspace()
    if not null:
        return []
    basis = sympy.Matrix.hstack(*null).T.rref()[0]
    return [[Fraction(int(x.p), int(x.q)) for x in basis.row(i)]
            for i in range(len(null))]


@settings(max_examples=200, deadline=None)
@given(q_matrices())
def test_kernel_over_q_matches_the_method_path_and_sympy(rows):
    want = kernel(Matrix(MethodPathQ(), rows)).rows
    assert kernel(Matrix(QQ, rows)).rows == want
    ints, scale = QQ.lift_rows(rows)
    assert kernel(Matrix(QQ, ints=ints, scale=scale)).rows == want
    assert all(type(x) is Fraction for v in want for x in v)
    pytest.importorskip("sympy")
    assert [list(r) for r in _rref(QQ, want)[0]] == _sympy_nullspace_rref(rows)


@settings(max_examples=200, deadline=None)
@given(unreduced_matrices())
def test_kernel_over_fp_matches_the_method_path(case):
    # kernel reads unreduced ints, at any scale per row
    p, rows = case
    want = kernel(Matrix(MethodPathField(p), _reduced(p, rows))).rows
    assert kernel(Matrix(PrimeField(p), rows)).rows == want
    scaled = [[3 * x for x in r] if i % 2 else r for i, r in enumerate(rows)]
    if p != 3:
        assert kernel(Matrix(PrimeField(p), ints=scaled)).rows == want


@settings(max_examples=300, deadline=None)
@given(q_matrices())
def test_a_lifted_rref_row_is_the_lift_of_the_rref_row(rows):
    # rref's lift is the canonical lift of its rows, so every row holds the
    # scale at its pivot, and it reads int rows at any scale per row
    basis, piv = _rref(QQ, rows)
    ints = [[3 * x for x in r] if i % 2 else r for i, r in enumerate(QQ.lift_rows(rows)[0])]
    held, held_pivots = rref(rows=Matrix(QQ, ints=ints))
    assert held_pivots == piv == pivots(Matrix(QQ, ints=ints))
    assert held.lifted == QQ.lift_rows(basis)
    assert all(r[c] == held.lifted[1] for r, c in zip(held.lifted[0], piv))
    assert held.rows == basis


@settings(max_examples=300, deadline=None)
@given(unreduced_matrices())
def test_a_lifted_rref_row_over_fp_is_the_reduced_row(case):
    p, rows = case
    f = PrimeField(p)
    basis, piv = _rref(MethodPathField(p), _reduced(p, rows))
    held, held_pivots = rref(rows=Matrix(f, ints=rows))
    assert (held.lifted, held_pivots) == ((basis, 1), piv)
    assert pivots(Matrix(f, ints=rows)) == piv
