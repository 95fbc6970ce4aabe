import copy
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from csawitness import fields
from csawitness.errors import InvalidInputError
from csawitness.fields import (
    QQ, ExtensionField, PrimeField, field_from_spec, is_prime,
    parse_field_flag, standard_extension,
)

F5 = PrimeField(5)
F4 = ExtensionField(2, [1, 1, 1])  # F_2[x]/(x^2+x+1)


def test_is_prime_small():
    primes = [p for p in range(50) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_prime_field_rejects_composite():
    with pytest.raises(InvalidInputError):
        PrimeField(6)


def test_extension_rejects_reducible_modulus():
    with pytest.raises(InvalidInputError):
        ExtensionField(2, [1, 0, 1])  # x^2+1 = (x+1)^2 over F_2


def test_extension_rejects_nonmonic():
    with pytest.raises(InvalidInputError):
        ExtensionField(3, [1, 1, 2])


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_prime_field_matches_int_arithmetic(a, b):
    p = 7
    f = PrimeField(p)
    assert f.add(a % p, b % p) == (a + b) % p
    assert f.mul(a % p, b % p) == (a * b) % p
    assert f.sub(a % p, b % p) == (a - b) % p


def test_prime_field_inverse():
    for a in range(1, 5):
        assert F5.mul(a, F5.inv(a)) == F5.one
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


def test_f4_is_a_field_of_four_elements():
    elems = list(F4.elements())
    assert len(elems) == 4
    # the generator x satisfies x^2 = x + 1
    x = F4.gen
    assert F4.mul(x, x) == F4.add(x, F4.one)
    # multiplicative group has order 3
    assert F4.pow(x, 3) == F4.one
    for a in elems:
        if not F4.is_zero(a):
            assert F4.mul(a, F4.inv(a)) == F4.one


def test_extension_field_axioms_seeded():
    f9 = standard_extension(3, 2)
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (f9.random(rng) for _ in range(3))
        assert f9.add(a, b) == f9.add(b, a)
        assert f9.mul(a, b) == f9.mul(b, a)
        assert f9.mul(a, f9.add(b, c)) == f9.add(f9.mul(a, b), f9.mul(a, c))
        assert f9.mul(f9.mul(a, b), c) == f9.mul(a, f9.mul(b, c))


def test_rationals_serialization():
    assert QQ.to_json(Fraction(3, 2)) == "3/2"
    assert QQ.to_json(Fraction(-4)) == "-4"
    assert QQ.parse("3/2") == Fraction(3, 2)
    assert QQ.parse("-7") == Fraction(-7)
    # always lowest terms with positive denominator
    assert QQ.to_json(Fraction(2, -4)) == "-1/2"


def test_scalar_roundtrip_all_kinds():
    rng = random.Random(7)
    for field in (QQ, F5, F4, standard_extension(3, 3)):
        for _ in range(50):
            a = field.random(rng)
            assert field.parse(field.to_json(a)) == a


def test_field_spec_roundtrip():
    for field in (QQ, PrimeField(11), F4):
        assert field_from_spec(field.spec()) == field


def test_extension_fields_from_a_spec_are_built_once(monkeypatch):
    built = []
    init = ExtensionField.__init__
    monkeypatch.setattr(ExtensionField, "__init__",
                        lambda self, p, mod: built.append(p) or init(self, p, mod))
    fields._extension_field.cache_clear()
    F = field_from_spec({"kind": "extension", "p": 5, "modulus": ["2", "0", "1"]})
    assert field_from_spec(F.spec()) is F
    assert field_from_spec({"kind": "extension", "p": 5, "modulus": [2, 0, 1]}) is F
    assert built == [5]
    # a rejected modulus raises on every load: nothing is cached for it
    for spec in ({"kind": "extension", "p": 2, "modulus": ["1", "0", "1"]},  # (x+1)^2
                 {"kind": "extension", "p": 3, "modulus": ["1", "1", "2"]}):  # not monic
        for _ in range(2):
            with pytest.raises(InvalidInputError):
                field_from_spec(spec)
    assert built == [5, 2, 2, 3, 3]


def test_parse_field_flag():
    assert parse_field_flag("q") == QQ
    assert parse_field_flag("fp:7") == PrimeField(7)
    f8 = parse_field_flag("fq:2:3")
    assert isinstance(f8, ExtensionField) and f8.size == 8
    with pytest.raises(InvalidInputError):
        parse_field_flag("gf:5")


def test_standard_extension_is_deterministic():
    a = standard_extension(2, 2)
    b = standard_extension(2, 2)
    assert a.modulus == b.modulus == (1, 1, 1)


def _has_monic_factor_of_degree(f, d, p):
    """Brute force: some monic g of degree d divides f over F_p."""
    for lower in itertools.product(range(p), repeat=d):
        r = list(f)
        g = list(lower) + [1]
        for s in range(len(r) - len(g), -1, -1):
            c = r[s + d]
            if c:
                for i, gi in enumerate(g):
                    r[s + i] = (r[s + i] - c * gi) % p
        if not any(r[:d]):
            return True
    return False


@pytest.mark.parametrize("p, max_degree", [(2, 5), (3, 4), (5, 3), (7, 3)])
def test_extension_accepts_exactly_the_irreducible_moduli(p, max_degree):
    # the modulus is irreducible iff no monic factor of degree <= k/2
    # exists; this covers every monic f of degree <= max_degree
    for k in range(1, max_degree + 1):
        for lower in itertools.product(range(p), repeat=k):
            f = list(lower) + [1]
            irreducible = not any(_has_monic_factor_of_degree(f, d, p)
                                  for d in range(1, k // 2 + 1))
            try:
                ExtensionField(p, f)
                accepted = True
            except InvalidInputError:
                accepted = False
            assert accepted == irreducible, (p, f)


# the lexicographically first monic irreducible, as the fq:<p>:<k> flag picks it
_STANDARD_MODULI = {
    (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1), (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1), (5, 4): (2, 0, 0, 0, 1),
    (7, 2): (1, 0, 1), (7, 3): (2, 0, 0, 1), (7, 4): (1, 1, 0, 0, 1),
    (11, 2): (1, 0, 1), (11, 3): (4, 1, 0, 1),
    (13, 2): (2, 0, 1), (13, 3): (2, 0, 0, 1),
    (17, 2): (3, 0, 1), (17, 3): (3, 1, 0, 1),
    (19, 2): (1, 0, 1), (19, 3): (2, 0, 0, 1),
    (23, 2): (1, 0, 1), (23, 3): (3, 1, 0, 1),
    (29, 2): (2, 0, 1), (29, 3): (4, 1, 0, 1),
    (31, 2): (1, 0, 1), (31, 3): (3, 0, 0, 1),
}


@pytest.mark.parametrize("p, k", sorted(_STANDARD_MODULI))
def test_standard_extension_moduli_are_pinned(p, k):
    assert standard_extension(p, k).modulus == _STANDARD_MODULI[(p, k)]


# ---------------------------------------------------------------------------
# log/antilog and Zech tables against the polynomial path


def _polynomial_twin(field):
    """The same field with its tables dropped: every method then runs the
    polynomial multiply and the extended Euclid inverse."""
    twin = copy.copy(field)
    twin._log = None
    return twin


def _assert_ops_agree(F, R, a, b):
    assert F.add(a, b) == R.add(a, b)
    assert F.sub(a, b) == R.sub(a, b)
    assert F.mul(a, b) == R.mul(a, b)
    if not R.is_zero(b):
        assert F.div(a, b) == R.div(a, b)


_TABLED = {"F4": (2, 2), "F8": (2, 3), "F9": (3, 2), "F25": (5, 2), "F27": (3, 3),
           "F49": (7, 2)}


@pytest.mark.parametrize("name", sorted(_TABLED))
def test_tables_match_polynomial_path_on_every_pair(name):
    F = standard_extension(*_TABLED[name])
    R = _polynomial_twin(F)
    assert F._log is not None
    q = F.size
    elems = list(F.elements())
    for a, b in itertools.product(elems, elems):
        _assert_ops_agree(F, R, a, b)
    for a in elems:
        assert F.neg(a) == R.neg(a)
        assert F.is_zero(a) == (not any(a))
        if a != R.zero:
            assert F.inv(a) == R.inv(a)
        for n in range(-q, 2 * q + 1):
            if n >= 0 or a != R.zero:
                assert F.pow(a, n) == R.pow(a, n)


_F256 = standard_extension(2, 8)
_F4096 = standard_extension(2, 12)  # the largest tabled field, q = TABLE_MAX_Q


def _elements_of(field):
    return st.tuples(*[st.integers(0, field.p - 1)] * field.k)


@pytest.mark.parametrize("F", [_F256, _F4096], ids=["F256", "F4096"])
def test_large_tables_match_polynomial_path(F):
    assert F.size <= fields.TABLE_MAX_Q and F._log is not None
    R = _polynomial_twin(F)

    @given(_elements_of(F), _elements_of(F), st.integers(-2 * F.size, 2 * F.size))
    def check(a, b, n):
        _assert_ops_agree(F, R, a, b)
        assert F.neg(a) == R.neg(a)
        if a != F.zero:
            assert F.inv(a) == R.inv(a)
            assert F.pow(a, n) == R.pow(a, n)

    check()


def test_pinv_equals_the_table_inverse_on_all_of_f4096():
    # the tables are the oracle for the poly_ext_gcd inverse
    F = _F4096
    for a in itertools.islice(F.elements(), 1, None):
        assert F._pinv(a) == F.inv(a)


def _schoolbook_mul(a, b, modulus, p):
    """a*b mod (modulus, p) on coefficient lists, lowest degree first."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    k = len(modulus) - 1
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d] % p
        for i, m in enumerate(modulus):
            prod[d - k + i] -= c * m
    return tuple(c % p for c in prod[:k])


def test_field_above_the_bound_keeps_polynomial_path():
    # 4489 elements, the first p^k (k > 1) above 4096, and the binary field
    # after the largest tabled one
    for F in (standard_extension(67, 2), standard_extension(2, 13)):
        assert F.size > fields.TABLE_MAX_Q and F._log is None
        rng = random.Random(3)
        for _ in range(300):
            a, b = F.random(rng), F.random(rng)
            assert F.mul(a, b) == _schoolbook_mul(a, b, F.modulus, F.p)
            assert F.add(a, b) == tuple((x + y) % F.p for x, y in zip(a, b))
            assert F.sub(F.add(a, b), b) == a
            if a != F.zero:
                assert F.mul(a, F.inv(a)) == F.one
                assert F.div(b, a) == F.mul(b, F.inv(a))
                assert F.pow(a, -3) == F.inv(F.mul(a, F.mul(a, a)))
        with pytest.raises(ZeroDivisionError):
            F.inv(F.zero)


@pytest.mark.parametrize("F", [standard_extension(5, 2), standard_extension(67, 2)],
                         ids=["tabled", "polynomial"])
def test_zero_has_no_inverse(F):
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)
    with pytest.raises(ZeroDivisionError):
        F.div(F.one, F.zero)
    with pytest.raises(ZeroDivisionError):
        F.pow(F.zero, -1)
    assert F.pow(F.zero, 0) == F.one and F.pow(F.zero, 3) == F.zero


@pytest.mark.parametrize("bad", [(5, 0), (1, 0, 0), (1,), [1, 0]])
def test_tabled_field_rejects_non_canonical_elements(bad):
    F = standard_extension(5, 2)
    for op in (F.add, F.sub, F.mul, F.div):
        with pytest.raises((KeyError, TypeError)):
            op(bad, F.one)
        with pytest.raises((KeyError, TypeError)):
            op(F.one, bad)
    for op in (F.neg, F.inv):
        with pytest.raises((KeyError, TypeError)):
            op(bad)
    with pytest.raises((KeyError, TypeError)):
        F.pow(bad, 2)


@pytest.mark.parametrize("F, pairs", [(standard_extension(5, 2), None),
                                      (_F256, 2000)], ids=["F25", "F256"])
def test_mul_matches_sympy_galoistools(F, pairs):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_mul, gf_rem

    def dense(a):  # sympy's order: highest degree first
        return [ZZ(c) for c in reversed(a)]

    modulus = dense(F.modulus)
    elems = list(F.elements())
    if pairs is None:
        cases = list(itertools.product(elems, elems))
    else:
        rng = random.Random(5)
        cases = [(rng.choice(elems), rng.choice(elems)) for _ in range(pairs)]
    for a, b in cases:
        rem = gf_rem(gf_mul(dense(a), dense(b), F.p, ZZ), modulus, F.p, ZZ)
        expected = tuple(int(c) for c in reversed(rem)) + (0,) * (F.k - len(rem))
        assert F.mul(a, b) == expected


@pytest.mark.parametrize("k", [0, -1])
def test_standard_extension_rejects_degree_below_one(k):
    with pytest.raises(InvalidInputError, match="degree k"):
        standard_extension(5, k)
    with pytest.raises(InvalidInputError, match="degree k"):
        parse_field_flag(f"fq:5:{k}")
