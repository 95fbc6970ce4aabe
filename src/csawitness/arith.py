"""Big-integer combinatorics used by the index arguments."""

from math import factorial

from .errors import InvalidInputError
from .fields import is_prime


def vp_factorial(p, r):
    """v_p((p^r)!) by Legendre summation: sum of floor(p^r / p^i)."""
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    if r < 0:
        raise InvalidInputError("r must be >= 0")
    n = p ** r
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def pi_degree_prime_to_p(n, m, p):
    """((n m)! / ((n!)^m m!), and whether that integer is prime to p.

    This is the degree of the quotient covering that folds m blocks of n
    points into nm unordered points; exact big-integer arithmetic.
    """
    if n < 1 or m < 1:
        raise InvalidInputError("n, m must be >= 1")
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    num = factorial(n * m)
    den = factorial(n) ** m * factorial(m)
    degree, rem = divmod(num, den)
    if rem:
        raise InvalidInputError("degree formula did not divide exactly")  # pragma: no cover
    return degree, degree % p != 0


def gaussian_binomial(m, k, q):
    """Number of k-dimensional subspaces of F_q^m."""
    if k < 0 or k > m:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    val, rem = divmod(num, den)
    assert rem == 0
    return val
