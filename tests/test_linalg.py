import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csawitness.fields import QQ, PrimeField, standard_extension
from csawitness.linalg import (
    charpoly, det, identity, in_row_space, intersect_row_spaces,
    inverse, kernel, lift_matrix, mat_mul, mat_vec, rank, reduce_vector, rref,
    row_space_rref, solve,
)

F5 = PrimeField(5)
F7 = PrimeField(7)


def random_matrix(field, rng, m, n):
    return [[field.random(rng) for _ in range(n)] for _ in range(m)]


def test_rref_is_idempotent_seeded():
    rng = random.Random(2)
    for field in (F5, QQ, standard_extension(2, 2)):
        for _ in range(60):
            m = random_matrix(field, rng, rng.randint(1, 5), rng.randint(1, 6))
            r1, p1 = rref(field, m)
            r2, p2 = rref(field, r1)
            assert r1 == r2 and p1 == p2


def test_rref_known():
    m = [[2, 4], [1, 2]]
    basis, pivots = rref(F5, m)
    assert basis == [[1, 2]] and pivots == [0]


def test_kernel_annihilates():
    rng = random.Random(4)
    for _ in range(60):
        a = random_matrix(F7, rng, rng.randint(1, 4), rng.randint(1, 6))
        for v in kernel(F7, a):
            assert all(x == 0 for x in mat_vec(F7, a, v))
        assert len(kernel(F7, a)) == len(a[0]) - rank(F7, a)


def test_solve_verifies():
    rng = random.Random(9)
    for _ in range(80):
        a = random_matrix(F5, rng, rng.randint(1, 4), rng.randint(1, 4))
        x0 = [F5.random(rng) for _ in range(len(a[0]))]
        b = mat_vec(F5, a, x0)
        x = solve(F5, a, b)
        assert x is not None
        assert mat_vec(F5, a, x) == b
    # inconsistent system
    assert solve(F5, [[1, 0], [1, 0]], [1, 2]) is None


def _det_by_permutations(field, m):
    n = len(m)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = field.one
        for i in range(n):
            term = field.mul(term, m[i][perm[i]])
        if sign < 0:
            term = field.neg(term)
        total = field.add(total, term)
    return total


def test_det_matches_permanent_expansion():
    rng = random.Random(13)
    for field in (F5, QQ):
        for _ in range(50):
            n = rng.randint(1, 4)
            m = random_matrix(field, rng, n, n)
            assert det(field, m) == _det_by_permutations(field, m)


def test_inverse():
    rng = random.Random(17)
    ok = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        m = random_matrix(F7, rng, n, n)
        inv = inverse(F7, m)
        if inv is None:
            assert F7.is_zero(det(F7, m))
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


def test_intersect_row_spaces():
    a = [[1, 0, 0], [0, 1, 0]]
    b = [[0, 1, 0], [0, 0, 1]]
    inter = intersect_row_spaces(QQ, [[Fraction(x) for x in r] for r in a],
                                 [[Fraction(x) for x in r] for r in b])
    assert inter == ((Fraction(0), Fraction(1), Fraction(0)),)
    # generic check: intersection dims satisfy the dimension formula
    rng = random.Random(29)
    for _ in range(40):
        x = random_matrix(F5, rng, 2, 4)
        y = random_matrix(F5, rng, 2, 4)
        inter = intersect_row_spaces(F5, x, y)
        union_rank = rank(F5, x + y)
        assert len(inter) == rank(F5, x) + rank(F5, y) - union_rank


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
    want = rref(MethodPathField(p), _reduced(p, rows))
    assert rref(PrimeField(p), rows) == want
    assert rank(PrimeField(p), rows) == len(want[0])


@settings(max_examples=300, deadline=None)
@given(unreduced_matrices(), st.data())
def test_mat_vec_matches_the_method_path(case, data):
    p, rows = case
    v = data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=len(rows[0]),
                           max_size=len(rows[0])))
    want = mat_vec(MethodPathField(p), _reduced(p, rows), [x % p for x in v])
    assert mat_vec(PrimeField(p), rows, v) == want


@settings(max_examples=300, deadline=None)
@given(unreduced_matrices(), st.data())
def test_reduce_vector_matches_the_method_path(case, data):
    p, rows = case
    f = PrimeField(p)
    basis, pivots = rref(f, rows)
    # an unreduced combination of the rows, and an arbitrary vector
    coeffs = data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=len(rows),
                                max_size=len(rows)))
    inside = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(rows[0]))]
    other = data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=len(rows[0]),
                               max_size=len(rows[0])))
    for v in (inside, other):
        want = reduce_vector(MethodPathField(p), basis, pivots, [x % p for x in v])
        assert reduce_vector(f, basis, pivots, v) == want
        member = in_row_space(f, basis, pivots, v)
        assert member == in_row_space(MethodPathField(p), basis, pivots,
                                      [x % p for x in v])
        assert member == (rank(f, rows + [v]) == len(basis))
    assert in_row_space(f, basis, pivots, inside)


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
    assert rref(PrimeField(p), rows) == (want, list(sym_pivots))
    assert rank(PrimeField(p), rows) == dm.rank()


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
    got = rref(QQ, rows)
    assert got == rref(MethodPathQ(), rows)
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
    got = mat_vec(QQ, rows, v)
    assert got == mat_vec(MethodPathQ(), rows, v)
    assert mat_vec(QQ, rows, v, lift_matrix(QQ, rows)) == got
    pytest.importorskip("sympy")
    import sympy
    want = sympy.Matrix(rows) * sympy.Matrix(v)
    assert got == [Fraction(int(x.p), int(x.q)) for x in want]


@settings(max_examples=300, deadline=None)
@given(q_matrices(), st.data())
def test_reduce_vector_over_q_matches_the_method_path(rows, data):
    basis, pivots = rref(QQ, rows)
    coeffs = data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    inside = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
              for j in range(len(rows[0]))]
    other = data.draw(st.lists(rationals, min_size=len(rows[0]), max_size=len(rows[0])))
    lifted = lift_matrix(QQ, basis)
    for v in (inside, other):
        want = reduce_vector(MethodPathQ(), basis, pivots, v)
        assert reduce_vector(QQ, basis, pivots, v) == want
        assert reduce_vector(QQ, basis, pivots, v, lifted) == want
        member = in_row_space(QQ, basis, pivots, v)
        assert member == in_row_space(MethodPathQ(), basis, pivots, v)
        assert member == in_row_space(QQ, basis, pivots, v, lifted)
        assert member == (rank(QQ, rows + [v]) == len(basis))
    assert in_row_space(QQ, basis, pivots, inside)


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
