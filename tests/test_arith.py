from math import factorial

import pytest

from csawitness.arith import (
    gaussian_binomial, pi_degree_prime_to_p, vp_factorial,
)
from csawitness.errors import InvalidInputError


def test_vp_factorial_examples():
    assert vp_factorial(2, 2) == 3
    assert vp_factorial(3, 1) == 1
    assert vp_factorial(5, 0) == 0


def test_vp_factorial_closed_form():
    # v_p((p^r)!) = (p^r - 1)/(p - 1), checked for every small p, r
    for p in (2, 3, 5, 7):
        for r in range(6):
            assert vp_factorial(p, r) == (p ** r - 1) // (p - 1)


def _trial_division_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_vp_factorial_against_trial_division():
    # independent oracle: factor the actual factorial
    for p, r in [(2, 4), (3, 3), (5, 2), (7, 1)]:
        assert vp_factorial(p, r) == _trial_division_valuation(factorial(p ** r), p)


def test_vp_factorial_validation():
    with pytest.raises(InvalidInputError):
        vp_factorial(4, 2)
    with pytest.raises(InvalidInputError):
        vp_factorial(3, -1)


def test_pi_degree_examples():
    assert pi_degree_prime_to_p(2, 2, 2) == (3, True)
    assert pi_degree_prime_to_p(1, 1, 2) == (1, True)
    # 9!/(6^3 * 6) = 362880/1296 = 280, and v_3(280) = 0
    assert pi_degree_prime_to_p(3, 3, 3) == (280, True)
    assert pi_degree_prime_to_p(4, 2, 2) == (35, True)


def test_pi_degree_against_direct_factorials():
    for n, m in [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]:
        want = factorial(n * m) // (factorial(n) ** m * factorial(m))
        got, _ = pi_degree_prime_to_p(n, m, 2)
        assert got == want


def test_gaussian_binomial():
    # number of lines in F_q^2 is q+1
    assert gaussian_binomial(2, 1, 3) == 4
    # Gr(2,4) over F_2 and F_3
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(4, 2, 2) == (2 ** 2 + 1) * (2 ** 2 + 2 + 1)
