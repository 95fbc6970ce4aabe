"""Differential tests of charpoly, factor, resultant and discriminant
against sympy, an implementation that shares no code with csawitness.
They skip when sympy is not installed."""

import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csawitness.fields import QQ, PrimeField
from csawitness.linalg import charpoly
from csawitness.poly import Poly, discriminant, factor, resultant

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.subresultants_qq_zz import sylvester  # noqa: E402

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
# resultant and discriminant
#
# The resultant oracle is its definition, the determinant of sympy's
# Sylvester matrix: sympy.resultant itself returns the wrong sign for some
# degree pairs (resultant(x + 1, x**3) is 1, det Syl(x + 1, x**3) is -1).


def _sylvester_det(f, g):
    return sylvester(f.as_expr(), g.as_expr(), X).det()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES).flatmap(
    lambda p: st.tuples(fp_polys(p=p), fp_polys(min_degree=0, max_degree=6, p=p))))
def test_resultant_over_fp_matches_sympy(case):
    (p, f), (_, g) = case
    F = PrimeField(p)
    want = int(_sylvester_det(_sympy_fp(p, f), _sympy_fp(p, g))) % p
    assert resultant(Poly(F, f), Poly(F, g)) == want


@settings(max_examples=150, deadline=None)
@given(q_polys(), q_polys(min_degree=0, max_degree=5))
def test_resultant_over_q_matches_sympy(f, g):
    want = _to_fraction(_sylvester_det(_sympy_q(f), _sympy_q(g)))
    assert resultant(Poly(QQ, f), Poly(QQ, g)) == want


@settings(max_examples=150, deadline=None)
@given(fp_polys())
def test_discriminant_over_fp_matches_sympy(case):
    p, f = case
    want = int(_sympy_fp(p, f).discriminant()) % p
    assert discriminant(Poly(PrimeField(p), f)) == want


@settings(max_examples=150, deadline=None)
@given(q_polys())
def test_discriminant_over_q_matches_sympy(f):
    want = _to_fraction(_sympy_q(f).discriminant())
    assert discriminant(Poly(QQ, f)) == want
