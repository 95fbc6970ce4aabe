"""Differential tests of charpoly, factor, the F[t] discriminant (at
constant coefficients), the etale-line discriminant (at sampled t) and the
minimal polynomial, power
basis and type of an etale subalgebra against sympy, an implementation that
shares no code with csawitness.  They skip when sympy is not installed."""

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from csawitness.algebra import coords_of_matrix, make_matrix_algebra
from csawitness.errors import NotEtaleError
from csawitness.etale import etale_type, generate_etale
from csawitness.fields import QQ, PrimeField
from csawitness.linalg import charpoly, dependency
from csawitness.poly import Poly, factor
from csawitness.polyrings import pencil_discriminant, xpoly_discriminant

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

PRIMES = (2, 3, 5, 7, 11)
X = sympy.Symbol("x")

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def fp_square_matrices(draw, max_n=5):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, max_n))
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return p, draw(st.lists(row, min_size=n, max_size=n))


@st.composite
def q_square_matrices(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    row = st.lists(rationals, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@st.composite
def fp_polys(draw, min_degree=1, max_degree=8, p=None):
    """(p, coefficients lowest first) with a nonzero leading coefficient."""
    if p is None:
        p = draw(st.sampled_from(PRIMES))
    d = draw(st.integers(min_degree, max_degree))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    return p, coeffs + [draw(st.integers(1, p - 1))]


@st.composite
def q_polys(draw, min_degree=1, max_degree=6):
    d = draw(st.integers(min_degree, max_degree))
    coeffs = draw(st.lists(rationals, min_size=d, max_size=d))
    lead = draw(rationals.filter(lambda c: c != 0))
    return coeffs + [lead]


def _sympy_fp(p, coeffs):
    return sympy.Poly(list(reversed(coeffs)), X, modulus=p)


def _sympy_q(coeffs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], X, domain=sympy.QQ)


def _to_fraction(c):
    c = sympy.Rational(c)
    return Fraction(int(c.p), int(c.q))


# ---------------------------------------------------------------------------
# charpoly


@settings(max_examples=150, deadline=None)
@given(fp_square_matrices())
def test_charpoly_over_fp_matches_sympy(case):
    p, rows = case
    K = sympy.GF(p)
    dm = DomainMatrix([[K(x) for x in r] for r in rows], (len(rows), len(rows)), K)
    want = [K.to_int(c) % p for c in reversed(dm.charpoly())]
    assert charpoly(PrimeField(p), rows) == want


@settings(max_examples=150, deadline=None)
@given(q_square_matrices())
def test_charpoly_over_q_matches_sympy(rows):
    K = sympy.QQ
    dm = DomainMatrix([[K(x.numerator, x.denominator) for x in r] for r in rows],
                      (len(rows), len(rows)), K)
    want = [Fraction(int(K.numer(c)), int(K.denom(c))) for c in reversed(dm.charpoly())]
    assert charpoly(QQ, rows) == want


# ---------------------------------------------------------------------------
# factor over F_p


@settings(max_examples=150, deadline=None)
@given(fp_polys())
def test_factor_over_fp_matches_sympy(case):
    p, coeffs = case
    F = PrimeField(p)
    lead, factors = factor(Poly(F, coeffs))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sympy sorts modular ints with a deprecated compare
        _, sym_factors = sympy.factor_list(_sympy_fp(p, coeffs).as_expr(), X, modulus=p)
    want = sorted(
        (tuple(int(c) % p for c in reversed(sympy.Poly(g, X, modulus=p).monic().all_coeffs())),
         mult)
        for g, mult in sym_factors)
    got = sorted((tuple(g.coeffs), mult) for g, mult in factors)
    assert lead == coeffs[-1]
    assert got == want
    assert all(g.is_monic() for g, _ in factors)


# ---------------------------------------------------------------------------
# discriminant
#
# polyrings.xpoly_discriminant takes a monic polynomial in x whose
# coefficients lie in F[t]; at constant coefficients it is the discriminant
# over F, here checked against sympy's.


def _at_constants(field, coeffs):
    """The polynomial in x with these coefficients, each a constant in F[t]."""
    return [Poly(field, [c]) for c in coeffs]


def _value(field, p):
    """The constant a polynomial in t computed from constants takes."""
    assert p.degree <= 0
    return p.eval(field.zero)


@settings(max_examples=150, deadline=None)
@given(fp_polys())
def test_discriminant_over_fp_matches_sympy(case):
    p, f = case
    F = PrimeField(p)
    f = Poly(F, f).monic().coeffs
    want = int(_sympy_fp(p, f).discriminant()) % p
    assert _value(F, xpoly_discriminant(_at_constants(F, f))) == want


@settings(max_examples=150, deadline=None)
@given(q_polys())
def test_discriminant_over_q_matches_sympy(f):
    f = Poly(QQ, f).monic().coeffs
    want = _to_fraction(_sympy_q(f).discriminant())
    assert _value(QQ, xpoly_discriminant(_at_constants(QQ, f))) == want


def test_pencil_discriminant_matches_sympy_at_sampled_t():
    # on M_n a degree-n line's minimal polynomial is the characteristic
    # polynomial of t S + (1 - t) E, so at each sampled t its discriminant
    # is sympy's discriminant of that matrix's characteristic polynomial
    lam = sympy.Symbol("lam")
    rng = random.Random("pencil discriminant")
    q_samples = (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3))
    found = 0
    for field, samples in ((PrimeField(3), range(3)), (PrimeField(7), range(7)),
                           (QQ, q_samples)):
        for n in (2, 3, 4):
            A = make_matrix_algebra(field, n)
            for _ in range(3):
                s, e = A.random_element(rng).coords, A.random_element(rng).coords
                disc = pencil_discriminant(A, s, e, n)
                if disc is None:
                    continue
                found += 1
                for t in samples:
                    at_t = A.add(A.smul(t, s), A.smul(field.sub(field.one, t), e))
                    m = sympy.Matrix(n, n, lambda r, c: sympy.Rational(str(at_t[r * n + c])))
                    cp = m.charpoly(lam).all_coeffs()
                    if field is QQ:
                        want = _to_fraction(sympy.Poly(cp, lam).discriminant())
                    else:
                        p = field.p
                        want = int(sympy.Poly(cp, lam, modulus=p).discriminant()) % p
                    assert disc.eval(t) == want, (field, n, s, e, t)
    assert found >= 20


# ---------------------------------------------------------------------------
# minimal polynomial, power basis and type of F[M] in M_n
#
# F[M] has the minimal polynomial of M, its dimension d is the rank of the
# Krylov matrix of the flattened powers I, M, ..., M^n, and its basis is the
# rref of I, ..., M^(d-1).  For each irreducible factor g of multiplicity m
# in the characteristic polynomial, the type has deg(g) parts of size m.


def _sympy_domain(p):
    return sympy.GF(p) if p else sympy.QQ


def _to_sympy(K, p, x):
    return K(x) if p else K(x.numerator, x.denominator)


def _from_sympy(K, p, c):
    return K.to_int(c) % p if p else Fraction(int(K.numer(c)), int(K.denom(c)))


def _sympy_factor_list(K, p, coeffs_high_first):
    """[(degree, multiplicity)] of the irreducible factors."""
    ints = [K.to_int(c) for c in coeffs_high_first] if p else [
        sympy.Rational(int(K.numer(c)), int(K.denom(c))) for c in coeffs_high_first]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sympy sorts modular ints with a deprecated compare
        if p:
            _, facs = sympy.factor_list(sympy.Poly(ints, X, modulus=p).as_expr(), X, modulus=p)
        else:
            _, facs = sympy.factor_list(sympy.Poly(ints, X, domain=sympy.QQ).as_expr(), X)
    return [(sympy.Poly(g, X).degree(), m) for g, m in facs]


def _minimal_polynomial(x):
    """The minimal polynomial of x: the first linear dependency of the
    powers 1, x, x^2, ..., which linalg.dependency returns monic."""
    A, f = x.algebra, x.algebra.field

    def powers():
        y = A.one
        while True:
            yield y.coords
            y = y * x

    return Poly(f, dependency(f, powers())[0])


def _check_etale_against_sympy(p, rows):
    field, K = (PrimeField(p) if p else QQ), _sympy_domain(p)
    n = len(rows)
    A = make_matrix_algebra(field, n)
    x = A.element(coords_of_matrix(A, rows))
    dm = DomainMatrix([[_to_sympy(K, p, c) for c in r] for r in rows], (n, n), K)
    powers = [[c for r in (dm ** k).to_list() for c in r] for k in range(n + 1)]
    mp = _minimal_polynomial(x)
    d = mp.degree
    assert mp.is_monic()
    assert d == DomainMatrix(powers, (n + 1, n * n), K).rank()
    acc = DomainMatrix.zeros((n, n), K)
    for k, c in enumerate(mp.coeffs):
        acc = acc + (dm ** k) * _to_sympy(K, p, c)
    assert acc.is_zero_matrix
    shape = _sympy_factor_list(
        K, p, [_to_sympy(K, p, c) for c in reversed(mp.coeffs)])
    try:
        E = generate_etale(x)
    except NotEtaleError:
        assert any(m > 1 for _, m in shape)
        return
    assert all(m == 1 for _, m in shape)
    assert E.minpoly == mp
    sym_rows, sym_pivots = DomainMatrix(powers[:d], (d, n * n), K).rref()
    assert [list(r) for r in E.basis] == [
        [_from_sympy(K, p, c) for c in r] for r in sym_rows.to_list()]
    assert list(E.pivots) == list(sym_pivots)
    ptn = etale_type(E)
    char_shape = _sympy_factor_list(K, p, dm.charpoly())
    assert list(ptn.parts) == sorted((m for deg, m in char_shape for _ in range(deg)),
                                     reverse=True)


def _diag(*entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(fp_square_matrices(max_n=4))
@example((5, _diag(1, 1, 2, 3)))
@example((7, _diag(1, 1, 2, 2)))
@example((3, [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))  # (x^2 + 1)(x - 1)^2
@example((2, _diag(1, 1, 1, 1)))
def test_etale_over_fp_matches_sympy(case):
    p, rows = case
    _check_etale_against_sympy(p, rows)


@settings(max_examples=100, deadline=None)
@given(q_square_matrices(max_n=4))
@example([[Fraction(x) for x in r] for r in _diag(1, 1, 2, 3)])
@example([[Fraction(x) for x in r] for r in
          [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]])  # (x^2 + 1)^2
@example([[Fraction(x) for x in r] for r in
          [[0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]])  # x^4 - 2
def test_etale_over_q_matches_sympy(rows):
    _check_etale_against_sympy(0, rows)
