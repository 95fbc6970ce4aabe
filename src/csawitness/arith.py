"""Big-integer combinatorics used by the index arguments, and the integer
root of a quadratic that the height-bounded searches over Q share."""

from math import factorial, isqrt

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


def first_int_root(a, b, c, bound):
    """The least integer z in [-bound, bound] with a z^2 + b z + c = 0, or
    None; a, b, c are ints.  A quadratic has an integer root only when its
    discriminant is a square, and then the roots are (-b +- isqrt) / 2a; a
    linear one only at -c / b; the zero polynomial vanishes at -bound."""
    if a:
        disc = b * b - 4 * a * c
        if disc < 0:
            return None
        s = isqrt(disc)
        if s * s != disc:
            return None
        roots = [num // (2 * a) for num in (-b - s, -b + s) if num % (2 * a) == 0]
    elif b:
        roots = [-c // b] if c % b == 0 else []
    else:
        roots = [] if c else [-bound]
    return min((z for z in roots if -bound <= z <= bound), default=None)
