"""Exact univariate polynomials over a field object from fields.py.

Coefficients are stored lowest degree first with no trailing zeros; the zero
polynomial has an empty coefficient tuple and degree -1.  Factorization is
available over finite fields only (squarefree + distinct-degree + equal-degree
splitting); over Q we provide squarefree testing and rational-root extraction,
and accept caller-supplied factorizations elsewhere.

poly_gcd over F_p (fields.INTEGER_CORE with an int_modulus) is one Euclid
on int coefficient lists, each remainder step reduced mod p and each
divisor made monic by pow(lead, -1, p); it returns the same monic gcd as
the field-method path, which F_{p^k} and Q keep.

The squarefree certificate over Q.  poly_squarefree lifts f to ints
(fields' lift_vector) and, when the fixed prime P = SQUAREFREE_PRIME does
not divide the leading int, runs that F_p gcd on f mod P and its
derivative.  A constant gcd proves f squarefree over Q: if f = g^2 h with
deg g >= 1, then by Gauss's lemma the lifted f is c G^2 H with c an int and
G, H primitive in Z[x], G of degree deg g.  The leading int is
c lead(G)^2 lead(H), so P divides neither c nor lead(G); G mod P keeps its
degree, and (G mod P)^2 divides f mod P, so G mod P divides gcd(f mod P,
(f mod P)').  Any other outcome (P dividing the lead, or a non-constant gcd
mod P, which an unlucky P can give a squarefree f) falls back to the exact
Fraction gcd, the only source of "not squarefree" over Q.
"""

import random

from .errors import InvalidInputError, NotAPowerError, UnsupportedFieldError
from .fields import INTEGER_CORE, PrimeField, ExtensionField, Rationals

# the certificate prime of poly_squarefree over Q, 2^61 - 1
SQUAREFREE_PRIME = (1 << 61) - 1


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [field.one])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(n) for n in ints])

    # -- basics ------------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise InvalidInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if not self.field.is_zero(c)]
        return "Poly(" + " + ".join(terms) + ")"

    def sort_key(self):
        f = self.field
        return (self.degree, tuple(f.sort_key(c) for c in self.coeffs))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly(f, out)

    def __sub__(self, other):
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(f, [f.sub(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self):
        f = self.field
        return Poly(f, [f.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        out = [f.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if f.is_zero(ai):
                continue
            for j, bj in enumerate(b):
                out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return Poly(f, out)

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            return Poly.zero(f)
        return Poly(f, [f.mul(c, a) for a in self.coeffs])

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def __divmod__(self, other):
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        inv_lead = f.inv(other.coeffs[-1])
        q = [f.zero] * max(0, len(rem) - d)
        while len(rem) - 1 >= d and rem:
            if f.is_zero(rem[-1]):
                rem.pop()
                continue
            c = f.mul(rem[-1], inv_lead)
            deg = len(rem) - 1 - d
            q[deg] = c
            for i in range(d + 1):
                rem[deg + i] = f.sub(rem[deg + i], f.mul(c, other.coeffs[i]))
            rem.pop()
        return Poly(f, q), Poly(f, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise InvalidInputError("division is not exact")
        return q

    def __pow__(self, n):
        result = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def pow_mod(self, n, modulus):
        result = Poly.one(self.field) % modulus
        base = self % modulus
        while n:
            if n & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            n >>= 1
        return result

    def derivative(self):
        f = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(f.mul(f.from_int(i), self.coeffs[i]))
        return Poly(f, out)

    def eval(self, a):
        f = self.field
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, a), c)
        return acc

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return [self.field.to_json(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, field, data):
        return cls(field, [field.parse(c) for c in data])


def poly_gcd(a, b):
    """Monic gcd; over F_p by _int_gcd."""
    field = a.field
    if isinstance(field, INTEGER_CORE) and field.int_modulus:
        return Poly(field, _int_gcd(a.coeffs, b.coeffs, field.int_modulus))
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def _int_gcd(a, b, p):
    """The monic gcd mod p of int coefficient lists a and b (lowest degree
    first): Euclid with the divisor made monic at each step, so a remainder
    step subtracts c x^k b for each leading c of the dividend."""
    a, b = _reduced(a, p), _reduced(b, p)
    while b:
        inv = pow(b[-1], -1, p)
        low = [x * inv % p for x in b[:-1]]
        n = len(low)
        while len(a) > n:
            c = a.pop()
            if c:
                k = len(a) - n
                a[k:] = [(x - c * y) % p for x, y in zip(a[k:], low)]
        while a and not a[-1]:
            a.pop()
        a, b = low + [1], a
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _reduced(coeffs, p):
    out = [x % p for x in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def poly_ext_gcd(a, b):
    """(g, s, t) with s a + t b = g, g the monic gcd."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(field), Poly.zero(field)
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    c = field.inv(r0.leading())
    return r0.scale(c), s0.scale(c), t0.scale(c)


def poly_squarefree(f):
    """True iff f has no repeated roots in an algebraic closure.

    gcd(f, f') must be constant; a vanishing derivative (possible only in
    characteristic p) makes f a p-th power and therefore not squarefree.
    Over Q a constant gcd mod SQUAREFREE_PRIME certifies squarefree first
    (the module docstring has the proof); the exact gcd decides otherwise.
    """
    if f.is_zero():
        raise InvalidInputError("squarefree test of the zero polynomial")
    if f.degree == 0:
        return True
    field = f.field
    if isinstance(field, INTEGER_CORE) and int_squarefree_certified(
            field, field.lift_vector(f.coeffs)[0]):
        return True
    g = poly_gcd(f, f.derivative())
    return g.degree == 0


def int_squarefree_certified(field, ints):
    """The squarefree certificate over Q (module docstring) on ints, the
    int coefficients, lowest first, of a nonzero rational multiple of f of
    degree >= 1; Gauss's lemma gives the proof for every such multiple.
    True proves f squarefree.  False decides nothing, and is the answer
    over F_p (int_modulus p), where there is no certificate."""
    if field.int_modulus:
        return False
    derivative = [i * c for i, c in enumerate(ints)][1:]
    return bool(ints[-1] % SQUAREFREE_PRIME
                and len(_int_gcd(ints, derivative, SQUAREFREE_PRIME)) == 1)


def poly_nth_root(g, n):
    """The monic f with f^n = g, by top-down coefficient matching.

    In characteristic p the p-part of n is peeled off first using the
    Frobenius (only exponents divisible by p occur, coefficients get p-th
    roots), which keeps the matching step's division by n valid.
    """
    if n < 1:
        raise InvalidInputError("root order must be >= 1")
    if g.is_zero() or not g.is_monic():
        raise InvalidInputError("input must be monic")
    if n == 1:
        return g
    field = g.field
    p = field.char
    if p and n % p == 0:
        root = _poly_pth_root(g)
        return poly_nth_root(root, n // p)
    if g.degree % n != 0:
        raise NotAPowerError(f"degree {g.degree} not divisible by {n}")
    m = g.degree // n
    n_inv = field.inv(field.from_int(n))
    coeffs = [field.zero] * m + [field.one]
    for j in range(1, m + 1):
        partial = Poly(field, coeffs) ** n
        want = g.coeff(n * m - j)
        have = partial.coeff(n * m - j)
        coeffs[m - j] = field.mul(field.sub(want, have), n_inv)
    f = Poly(field, coeffs)
    if f ** n != g:
        raise NotAPowerError("not an exact n-th power")
    return f


def _poly_pth_root(g):
    field = g.field
    p = field.char
    for i, c in enumerate(g.coeffs):
        if i % p != 0 and not field.is_zero(c):
            raise NotAPowerError("not an exact p-th power")
    if isinstance(field, ExtensionField):
        # p-th root of a scalar in F_{p^k} is the (k-1)-fold Frobenius
        rootc = lambda c: field.pow(c, p ** (field.k - 1))
    else:
        rootc = lambda c: c  # F_p is fixed by Frobenius
    return Poly(field, [rootc(g.coeff(i * p)) for i in range(g.degree // p + 1)])


# ---------------------------------------------------------------------------
# factorization over finite fields


def _require_finite(f):
    if isinstance(f.field, Rationals):
        raise UnsupportedFieldError("factorization is implemented over finite fields only")
    if not isinstance(f.field, (PrimeField, ExtensionField)):
        raise UnsupportedFieldError(f"unsupported field {f.field!r}")


def squarefree_decomposition(f):
    """[(g_i, m_i)] with f = lc * prod g_i^{m_i}, g_i monic squarefree, coprime."""
    _require_finite(f)
    if f.is_zero():
        raise InvalidInputError("cannot decompose the zero polynomial")
    f = f.monic()
    p = f.field.char
    out = []
    i = 1
    g = poly_gcd(f, f.derivative())
    w = f.exact_div(g)
    while w.degree > 0:
        y = poly_gcd(w, g)
        z = w.exact_div(y)
        if z.degree > 0:
            out.append((z, i))
        i += 1
        w = y
        g = g.exact_div(y)
    if g.degree > 0:
        for fac, mult in squarefree_decomposition(_poly_pth_root(g)):
            out.append((fac, mult * p))
    return out


def distinct_degree_decomposition(f):
    """[(product of irreducibles of degree d, d)] for monic squarefree f."""
    field = f.field
    q = field.size
    out = []
    h = Poly.x(field)
    x = Poly.x(field)
    g = f
    d = 0
    while g.degree > 2 * (d + 1) - 1 and g.degree > 0:
        d += 1
        h = h.pow_mod(q, g)
        gd = poly_gcd(h - x, g)
        if gd.degree > 0:
            out.append((gd, d))
            g = g.exact_div(gd)
            h = h % g
    if g.degree > 0:
        out.append((g, g.degree))
    return out


def _equal_degree_split(f, d, rng):
    """One proper monic factor of f, all of whose irreducible factors have
    degree d; f monic squarefree with at least two factors."""
    field = f.field
    q = field.size
    n = f.degree
    while True:
        a = Poly(field, [field.random(rng) for _ in range(n)])
        if a.degree <= 0:
            continue
        g = poly_gcd(a, f)
        if 0 < g.degree < n:
            return g
        if field.char == 2:
            # F_2-trace map of F_{q^d}
            k = d * (field.k if isinstance(field, ExtensionField) else 1)
            t = Poly.zero(field)
            b = a % f
            for _ in range(k):
                t = (t + b) % f
                b = b.pow_mod(2, f)
            g = poly_gcd(t, f)
        else:
            b = a.pow_mod((q ** d - 1) // 2, f)
            g = poly_gcd(b - Poly.one(field), f)
        if 0 < g.degree < n:
            return g


def equal_degree_decomposition(f, d, rng):
    if f.degree == d:
        return [f]
    g = _equal_degree_split(f, d, rng)
    return equal_degree_decomposition(g, d, rng) + \
        equal_degree_decomposition(f.exact_div(g), d, rng)


def factor(f, rng=None):
    """Full factorization over a finite field.

    Returns (leading coefficient, [(monic irreducible, multiplicity), ...])
    sorted by degree then lexicographically on coefficients, so the output is
    byte-reproducible no matter what the splitting rng did.
    """
    _require_finite(f)
    if f.is_zero():
        raise InvalidInputError("cannot factor the zero polynomial")
    if rng is None:
        rng = random.Random(0x5EED)
    lead = f.leading()
    factors = []
    for g, mult in squarefree_decomposition(f):
        for h, d in distinct_degree_decomposition(g):
            for irr in equal_degree_decomposition(h, d, rng):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: fm[0].sort_key())
    return lead, factors


def is_irreducible(f):
    _require_finite(f)
    if f.degree < 1:
        return False
    _, factors = factor(f)
    return len(factors) == 1 and factors[0][1] == 1


def rational_roots(f):
    """Rational roots with multiplicities plus the rootless cofactor.

    Uses the rational root theorem on the integer-scaled polynomial; the
    cofactor is monic and has no roots in Q.
    """
    if not isinstance(f.field, Rationals):
        raise UnsupportedFieldError("rational_roots works over Q")
    if f.is_zero():
        raise InvalidInputError("zero polynomial")
    from fractions import Fraction

    field = f.field
    rest = f.monic()
    roots = []
    while rest.degree > 0:
        ints, _ = field.lift_vector(rest.coeffs)
        a0 = next((c for c in ints if c != 0), 0)
        an = ints[-1]
        found = None
        if ints[0] == 0:
            found = Fraction(0)
        else:
            for p in _divisors(abs(a0)):
                for q in _divisors(abs(an)):
                    for sign in (1, -1):
                        if _vanishes_at(ints, sign * p, q):
                            found = Fraction(sign * p, q)
                            break
                    if found is not None:
                        break
                if found is not None:
                    break
        if found is None:
            break
        mult = 0
        lin = Poly(field, [-found, Fraction(1)])
        while True:
            quo, rem = divmod(rest, lin)
            if not rem.is_zero():
                break
            rest = quo
            mult += 1
        roots.append((found, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, rest


def _vanishes_at(ints, num, den):
    """Whether sum ints[i] x^i vanishes at x = num / den, den > 0: Horner on
    the homogenised den^n f(num / den), in ints."""
    acc = 0
    den_power = 1
    for c in reversed(ints):
        acc = acc * num + c * den_power
        den_power *= den
    return acc == 0


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
