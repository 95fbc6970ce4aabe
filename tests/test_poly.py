import itertools
import random
from fractions import Fraction

import pytest

from csawitness.errors import (
    InvalidInputError, NotAPowerError, UnsupportedFieldError,
)
from csawitness.fields import QQ, ExtensionField, PrimeField, standard_extension
from csawitness.poly import (
    SQUAREFREE_PRIME, Poly, factor, is_irreducible, poly_gcd, poly_nth_root,
    poly_squarefree, rational_roots, squarefree_decomposition,
)
from csawitness.polyrings import xpoly_discriminant

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def P(field, *ints):
    return Poly.from_ints(field, ints)


def test_divmod_roundtrip_seeded():
    rng = random.Random(3)
    for field in (F5, QQ, standard_extension(2, 2)):
        for _ in range(100):
            a = Poly(field, [field.random(rng) for _ in range(rng.randint(0, 7))])
            b = Poly(field, [field.random(rng) for _ in range(rng.randint(1, 5))])
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree


def test_squarefree_examples():
    # x^2 - 1 over Q: distinct roots +-1
    assert poly_squarefree(P(QQ, -1, 0, 1)) is True
    # x^2 over Q: double root
    assert poly_squarefree(P(QQ, 0, 0, 1)) is False
    # x^2 + x + 1 over F_2: derivative is 1, gcd(f, 1) = 1
    f = P(F2, 1, 1, 1)
    assert f.derivative() == Poly.one(F2)
    assert poly_squarefree(f) is True
    # inseparable: x^2 + 1 = (x+1)^2 over F_2 has zero derivative
    assert poly_squarefree(P(F2, 1, 0, 1)) is False
    with pytest.raises(InvalidInputError):
        poly_squarefree(Poly.zero(QQ))


def test_nth_root_examples():
    # (x-1)^2 -> x-1
    assert poly_nth_root(P(QQ, 1, -2, 1), 2) == P(QQ, -1, 1)
    # x^4 + 2x^2 + 1 -> x^2 + 1, oracle: square back
    g = P(QQ, 1, 0, 2, 0, 1)
    f = poly_nth_root(g, 2)
    assert f == P(QQ, 1, 0, 1)
    assert f * f == g
    with pytest.raises(NotAPowerError):
        poly_nth_root(P(QQ, 1, 0, 1), 2)  # x^2+1 is irreducible


def test_nth_root_requires_monic():
    with pytest.raises(InvalidInputError):
        poly_nth_root(P(QQ, 0, 0, 2), 2)


def test_nth_root_roundtrip_seeded():
    rng = random.Random(11)
    fields = [F2, F3, F5, QQ, standard_extension(3, 2)]
    for field in fields:
        for _ in range(40):
            deg = rng.randint(1, 6)
            f = Poly(field, [field.random(rng) for _ in range(deg)] + [field.one])
            for n in (2, 3):
                assert poly_nth_root(f ** n, n) == f


def test_nth_root_char_p_power():
    # p-th powers in characteristic p need the Frobenius branch
    f = P(F3, 1, 2, 1, 1)  # monic cubic over F_3
    assert poly_nth_root(f ** 3, 3) == f
    assert poly_nth_root(f ** 6, 6) == f
    f9 = standard_extension(3, 2)
    rng = random.Random(5)
    g = Poly(f9, [f9.random(rng) for _ in range(3)] + [f9.one])
    assert poly_nth_root(g ** 3, 3) == g


def test_factor_examples():
    # x^2 + 1 over F_5 = (x+2)(x+3): roots are +-2
    lead, factors = factor(P(F5, 1, 0, 1))
    assert lead == 1
    assert [(f.coeffs, m) for f, m in factors] == [((2, 1), 1), ((3, 1), 1)]

    # x^2 + 1 over F_3 is irreducible
    lead, factors = factor(P(F3, 1, 0, 1))
    assert len(factors) == 1 and factors[0][1] == 1
    assert is_irreducible(P(F3, 1, 0, 1))

    # x^2 + 1 over F_2 = (x+1)^2
    lead, factors = factor(P(F2, 1, 0, 1))
    assert [(f.coeffs, m) for f, m in factors] == [((1, 1), 2)]


def test_factor_rejects_rationals():
    with pytest.raises(UnsupportedFieldError):
        factor(P(QQ, 1, 0, 1))


def test_factor_remultiplies_seeded():
    rng = random.Random(97)
    count = 0
    for field in (F2, F3, F5):
        done = 0
        while done < 167:
            deg = rng.randint(1, 8)
            f = Poly(field, [field.random(rng) for _ in range(deg + 1)])
            if f.is_zero() or f.degree < 1:
                continue
            lead, factors = factor(f, random.Random(count))
            prod = Poly(field, [lead])
            for g, m in factors:
                assert g.is_monic()
                prod = prod * g ** m
            assert prod == f
            count += 1
            done += 1
    assert count >= 500


def test_factor_output_is_sorted_and_seed_independent():
    f = P(F5, 0, 1, 0, 0, 0, 1)  # x^5 + x = x(x^2+2)(x^2+3) over F_5
    a = factor(f, random.Random(1))
    b = factor(f, random.Random(999))
    assert a == b
    degs = [g.degree for g, _ in a[1]]
    assert degs == sorted(degs)


def test_factor_over_extension_field():
    f4 = ExtensionField(2, [1, 1, 1])
    # x^2 + x + 1 splits over F_4 into (x + w)(x + w^2)
    f = Poly(f4, [f4.one, f4.one, f4.one])
    lead, factors = factor(f)
    assert len(factors) == 2 and all(g.degree == 1 for g, _ in factors)
    prod = factors[0][0] * factors[1][0]
    assert prod == f


def test_squarefree_decomposition_char_p():
    # f = (x+1)^2 * (x^2+x+1) over F_2
    f = P(F2, 1, 1) ** 2 * P(F2, 1, 1, 1)
    parts = squarefree_decomposition(f)
    rebuilt = Poly.one(F2)
    for g, m in parts:
        rebuilt = rebuilt * g ** m
    assert rebuilt == f


def test_rational_roots():
    # (x - 1/2)(x + 3)^2 (x^2 + 1)
    f = (P(QQ, -1, 2).monic() * P(QQ, 3, 1) ** 2 * P(QQ, 1, 0, 1))
    roots, rest = rational_roots(f)
    assert roots == [(Fraction(-3), 2), (Fraction(1, 2), 1)]
    assert rest == P(QQ, 1, 0, 1)


def _at_constants(f):
    """f as a polynomial in x whose coefficients are constants in F[t]."""
    return [Poly(f.field, [c]) for c in f.coeffs]


def discriminant(f):
    return xpoly_discriminant(_at_constants(f)).eval(f.field.zero)


def test_resultant_and_discriminant():
    # the F[t] discriminant at constant coefficients (its resultant kernel is gone)
    # disc(x^2 + bx + c) = b^2 - 4c
    for b, c in [(0, -1), (3, 2), (1, 1)]:
        f = P(QQ, c, b, 1)
        assert discriminant(f) == Fraction(b * b - 4 * c)
    # disc(x^3 + px + q) = -4p^3 - 27q^2
    for p, q in [(1, 1), (-1, 0), (2, -3)]:
        f = P(QQ, q, p, 0, 1)
        assert discriminant(f) == Fraction(-4 * p ** 3 - 27 * q ** 2)


def test_discriminant_detects_repeated_roots_seeded():
    rng = random.Random(23)
    for _ in range(100):
        f = Poly(F5, [F5.random(rng) for _ in range(rng.randint(1, 5))] + [F5.one])
        assert poly_squarefree(f) == (not F5.is_zero(discriminant(f)) if f.degree >= 1 else True)


def test_rational_roots_match_a_product_of_known_linear_factors():
    # roots with denominators, multiplicities and a rootless cofactor: the
    # integer Horner test must find exactly the roots put in
    rng = random.Random(11)
    for _ in range(40):
        roots = {}
        f = Poly(QQ, [Fraction(rng.randint(1, 5), rng.randint(1, 3))])
        for _ in range(rng.randint(1, 4)):
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            roots[r] = roots.get(r, 0) + 1
            f = f * Poly(QQ, [-r, Fraction(1)])
        f = f * Poly(QQ, [Fraction(rng.randint(1, 3)), Fraction(0), Fraction(1)])  # x^2 + c
        got, rest = rational_roots(f)
        assert got == sorted(roots.items())
        assert rest.degree == 2 and rest.is_monic()


def _euclid_gcd(a, b):
    """The monic gcd by the Poly method path, as poly_gcd ran before its
    F_p kernel."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def _euclid_squarefree(f):
    return _euclid_gcd(f, f.derivative()).degree == 0


@pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
def test_squarefree_matches_euclid_on_every_small_monic(field):
    p = field.p
    for deg in range(5):
        for low in itertools.product(range(p), repeat=deg):
            f = P(field, *low, 1)
            assert poly_squarefree(f) == _euclid_squarefree(f), f


def test_poly_gcd_over_fp_matches_euclid_seeded():
    rng = random.Random(8)
    for field in (F2, F5, PrimeField(101)):
        for _ in range(300):
            a, b, c = (Poly(field, [field.random(rng) for _ in range(rng.randint(0, n))])
                       for n in (6, 6, 3))
            if rng.random() < 0.5:
                a, b = a * c, b * c
            assert poly_gcd(a, b) == _euclid_gcd(a, b)


def _random_q_poly(rng, deg):
    return Poly(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for _ in range(deg)] + [Fraction(rng.choice([-3, -1, 1, 2, 7]))])


def test_squarefree_over_q_matches_euclid_seeded():
    rng = random.Random(12)
    repeated = 0
    for _ in range(300):
        f = _random_q_poly(rng, rng.randint(0, 6))
        if rng.random() < 0.5:
            g = _random_q_poly(rng, rng.randint(1, 2))
            f = g * g * _random_q_poly(rng, rng.randint(0, 3))
        want = _euclid_squarefree(f)
        repeated += not want
        assert poly_squarefree(f) == want, f
    assert repeated >= 100


def _count_q_divmods(monkeypatch):
    calls = []
    divmod_ = Poly.__divmod__

    def counted(self, other):
        if self.field == QQ:
            calls.append(1)
        return divmod_(self, other)

    monkeypatch.setattr(Poly, "__divmod__", counted)
    return calls


def test_squarefree_over_q_is_certified_mod_p_without_fraction_division(monkeypatch):
    calls = _count_q_divmods(monkeypatch)
    for f in (P(QQ, -1, 0, 1), P(QQ, 5, -3, 0, 1, 2), P(QQ, 1, 1, 1, 1, 1, 1, 1),
              Poly(QQ, [Fraction(1, 3), Fraction(-7, 2), Fraction(0), Fraction(5, 4)])):
        assert poly_squarefree(f) is True
    assert calls == []


@pytest.mark.parametrize("ints", [
    (-1, 0, SQUAREFREE_PRIME),       # P x^2 - 1: P divides the lead
    (0, -SQUAREFREE_PRIME, 1),       # x (x - P): x^2 mod P is a square
], ids=["P-divides-lead", "gcd-mod-P-not-constant"])
def test_squarefree_over_q_falls_back_to_the_exact_gcd(ints, monkeypatch):
    calls = _count_q_divmods(monkeypatch)
    assert poly_squarefree(P(QQ, *ints)) is True
    assert calls, "the exact Fraction gcd decided"


def test_squarefree_over_q_answers_not_squarefree_only_by_the_exact_gcd(monkeypatch):
    calls = _count_q_divmods(monkeypatch)
    g = P(QQ, 3, -1, 2)
    assert poly_squarefree(g * g * P(QQ, 1, 5)) is False
    assert calls


def test_squarefree_over_q_matches_sympy_seeded():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(31)
    for _ in range(200):
        f = _random_q_poly(rng, rng.randint(1, 5))
        if rng.random() < 0.4:
            g = _random_q_poly(rng, 1)
            f = f * g * g
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                   for i, c in enumerate(f.coeffs))
        assert poly_squarefree(f) == sympy.Poly(expr, x).is_sqf, f
