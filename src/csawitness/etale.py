"""Commutative separable subalgebras generated by a single element.

A subalgebra is stored with a primitive generator, its minimal polynomial
(required squarefree) and the canonical rref basis of its linear span, so
subspace equality is exact.  The minimal polynomial and the basis come
from one elimination over the powers 1, x, x^2, ..., their first linear
dependency, and the rref of the powers it keeps: over F_p and Q that of
linalg.int_dependency on the int powers (Algebra._int_powers), whose
results the subalgebra keeps as lifted linalg.Matrix values, lowered only
when they are read; over F_{p^k} that of linalg.dependency on the powers.
The type of a subalgebra is the multiset of geometric idempotent ranks, the
root multiplicities of the generator's reduced characteristic polynomial.
etale_type reads them off with gcds against the squarefree minimal
polynomial, so it factors nothing and works the same way over every field.

Balanced type (is_et_m_point) needs no factorization: it is one centralizer
rank.  The generator x is semisimple, so over an algebraic closure it has
dim E = m distinct eigenvalues, of multiplicities m_theta summing to the
degree n; these are the parts of the type.  dim C_A(x) = sum m_theta^2, and
by Cauchy-Schwarz n^2 <= m sum m_theta^2 with equality iff every
m_theta = n/m.  So E is balanced iff n^2 - rank(u -> x u - u x) = n^2 / m.
etale_type gives the full partition (csaw etale type,
witness.symplectic_fixing_involution, the demos).
"""

from .algebra import _powers, _recorded, poly_eval_at_element, reduced_char_poly
from .errors import (
    InvalidInputError, NotEtaleError, StructuralError, UnsupportedFieldError,
)
from .fields import Rationals
from .ideals import ideal_generated
from .linalg import Matrix, dependency, in_row_space, int_dependency, rank, rref
from .poly import (
    Poly, factor, int_squarefree_certified, poly_gcd, poly_ext_gcd, poly_squarefree,
    rational_roots,
)


class Partition:
    """An unordered multiset of positive integers, stored descending."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(sorted((int(p) for p in parts), reverse=True))
        if any(p <= 0 for p in parts):
            raise InvalidInputError("partition parts must be positive")
        self.parts = parts

    @property
    def total(self):
        return sum(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and other.parts == self.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{list(self.parts)}"


class EtaleSubalgebra:
    """A subalgebra generated by one element, with its minimal polynomial
    and the rref basis of its span.

    It takes both as linalg.Matrix values: minpoly the one row of the
    polynomial's coefficients, lowest degree first, and basis the rref
    Matrix with its pivots.  generate_etale builds them lifted over F_p
    and Q, and they are lowered on their first read.  Equality and hash
    read _key: the basis lifted over F_p and Q, where the lift of an rref
    is canonical (linalg.Matrix), and its rows elsewhere."""

    __slots__ = ("algebra", "generator", "pivots", "_coeffs", "_matrix", "_key",
                 "_basis", "_minpoly", "_type")

    def __init__(self, algebra, generator, minpoly, basis, pivots):
        self.algebra = algebra
        self.generator = generator
        self._coeffs, self._matrix = minpoly, basis
        self.pivots = tuple(pivots)
        lifted = basis.lifted
        self._key = (tuple(map(tuple, basis.rows)) if lifted is None
                     else (tuple(map(tuple, lifted[0])), lifted[1]))
        self._basis = self._minpoly = self._type = None

    @property
    def basis(self):
        if self._basis is None:
            self._basis = tuple(map(tuple, self._matrix.rows))
        return self._basis

    @property
    def minpoly(self):
        if self._minpoly is None:
            self._minpoly = Poly(self.algebra.field, self._coeffs.rows[0])
        return self._minpoly

    @property
    def dim(self):
        return len(self.pivots)

    def contains(self, coords):
        return in_row_space(self._matrix, self.pivots, coords)

    def is_maximal(self):
        return self.dim == self.algebra.degree

    def __eq__(self, other):
        """Subspace equality: independent of the chosen generator."""
        return (isinstance(other, EtaleSubalgebra) and other.algebra == self.algebra
                and other._key == self._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"EtaleSubalgebra(dim={self.dim} of degree-{self.algebra.degree} algebra)"


def generate_etale(a):
    """The subalgebra spanned by the powers of a; requires a squarefree
    minimal polynomial (separability).  Maximal iff its dimension equals the
    degree of the ambient algebra.

    The first dependency of the powers 1, a, a^2, ..., comb with
    comb_0 + comb_1 a + ... + comb_d a^d = 0, is the minimal polynomial
    times comb_d, and the basis is the rref of the powers it keeps (at a
    scale of their own per row, which the rref does not read).  Over F_p
    and Q the powers are int products of a lifted once, from the unit the
    algebra lifted once (Algebra._int_powers), linalg.int_dependency finds
    comb, the squarefree certificate over Q reads it
    (poly.int_squarefree_certified), the commutativity check reads the int
    powers, and nothing is lowered: the minimal polynomial and the basis
    are held lifted.  Over F_{p^k} linalg.dependency finds comb, with
    comb_d = 1, on the powers Algebra.mul takes."""
    alg = a.algebra
    f = alg.field
    seen = []
    if alg._flat is None:
        comb, kept = dependency(f, _recorded(_powers(alg, a.coords), seen))
        minpoly, kept = Matrix(f, [comb]), Matrix(f, kept)
        certified = False

        def commute(u, v):
            return alg.mul(u, v) == alg.mul(v, u)
    else:
        comb, kept = int_dependency(f, _recorded(alg._int_powers(*alg._lifted(a.coords)), seen))
        minpoly, kept = Matrix(f, None, [comb], comb[-1]), Matrix(f, None, kept)
        certified = int_squarefree_certified(f, comb)
        p = f.int_modulus

        def commute(u, v):
            diff = [x - y for x, y in zip(alg._int_mul(u[0], v[0]), alg._int_mul(v[0], u[0]))]
            return not any([x % p for x in diff] if p else diff)
    d = len(comb) - 1
    E = EtaleSubalgebra(alg, a, minpoly, *rref(rows=kept))
    if not (certified or poly_squarefree(E.minpoly)):
        raise NotEtaleError(f"minimal polynomial of degree {d} is not squarefree")
    _check_commutative(seen[:d], commute)
    return E


def _check_commutative(powers, commute):
    """x^i x^j = x^j x^i for 1 <= i < j < d, so the span of the powers
    x^0..x^(d-1) is commutative: the product is bilinear, and x^0 is the
    unit, two-sided by Algebra's unit check or by preset construction.
    Powers of one element commute when the product is associative; kept
    because an explicit table above dimension 256 has its associativity
    checked only on samples.  commute(u, v) tells whether u v = v u, for
    powers as generate_etale holds them (over F_p and Q, int products of
    (ints, scale) pairs at one scale each way)."""
    for i in range(1, len(powers)):
        for c in powers[i + 1:]:
            if not commute(powers[i], c):
                raise StructuralError("subalgebra basis does not commute")


def _irreducible_factors(E):
    """Monic irreducible factors of the minimal polynomial, for the rational
    idempotents of factor_idempotents.

    Finite fields: full factorization.  Q: rational roots plus a rootless
    cofactor of degree <= 3 (which is then irreducible); a larger cofactor
    is not factored here.
    """
    mp = E.minpoly
    field = mp.field
    if not isinstance(field, Rationals):
        _, facs = factor(mp)
        if any(m > 1 for _, m in facs):
            raise StructuralError("squarefree minimal polynomial factored with multiplicity")
        return [g for g, _ in facs]
    roots, rest = rational_roots(mp)
    out = [Poly(field, [-r, field.one]) for r, m in roots]
    if rest.degree == 0:
        return out
    if rest.degree <= 3:
        out.append(rest)
        return out
    raise UnsupportedFieldError(
        f"over Q, the minimal polynomial's rootless part of degree {rest.degree} "
        "is not factored, so its rational idempotents are not found")


def _crt_idempotent(E, fi):
    """The idempotent of E that projects onto the F[x]/(fi) block, built by
    CRT inside F[x]/(minpoly)."""
    mp = E.minpoly
    gi = mp.exact_div(fi)
    g, s, _ = poly_ext_gcd(gi, fi)
    if g.degree != 0:
        raise StructuralError("factors are not coprime")
    # s*gi = 1 mod fi, = 0 mod f_j: idempotent polynomial mod mp
    ei = poly_eval_at_element((s * gi) % mp, E.generator)
    if not (ei * ei - ei).is_zero():
        raise StructuralError("CRT element is not idempotent")
    return ei


def factor_idempotents(E):
    """[(f_i, e_i)]: for each irreducible factor, the idempotent of E that
    projects onto the F[x]/(f_i) block."""
    alg = E.algebra
    out = [(fi, _crt_idempotent(E, fi)) for fi in _irreducible_factors(E)]
    if sum((ei for _, ei in out), alg.zero) != alg.one:
        raise StructuralError("idempotents do not sum to 1")
    return out


def etale_type(E):
    """The multiset of geometric idempotent ranks, read off the reduced
    characteristic polynomial with gcds and no factorization.

    Over an algebraic closure A is M_n, and the generator x, whose minimal
    polynomial mu is squarefree, is diagonalizable.  Its eigenvalues are the
    roots theta of mu, of multiplicities m_theta summing to n, and the
    idempotent of theta has rank m_theta, so the type is [m_theta].  The
    reduced characteristic polynomial is R_0 = Prd_x = prod (T - theta)^m_theta
    (Knus-Merkurjev-Rost-Tignol, The Book of Involutions, ch. I).  Put
    g_k = gcd(R_{k-1}, mu) and R_k = R_{k-1} / g_k.  By induction
    R_{k-1} = prod (T - theta)^max(m_theta - k + 1, 0), and as mu is
    squarefree, g_k = prod (T - theta) over the theta with m_theta >= k.  So
    deg g_k eigenvalues have multiplicity at least k, and the type is the
    conjugate partition of (deg g_1, deg g_2, ...): deg g_k - deg g_{k+1}
    parts equal k.  Only gcd and exact division are used, so this holds over
    Q, F_p and F_{p^k} in every characteristic.

    Two faults, reachable only by hand-built objects, are checked: a minimal
    polynomial that is not squarefree, where g_k may hold a square; and
    g_k = 1 while R_{k-1} != 1, where Prd has a root that mu lacks, though
    every eigenvalue of x is a root of mu.
    """
    if E._type is not None:
        return E._type
    mu = E.minpoly
    if not poly_squarefree(mu):
        raise StructuralError("the minimal polynomial is not squarefree")
    rest = reduced_char_poly(E.generator)
    at_least = []  # at_least[k - 1] = deg g_k
    while rest.degree > 0:
        g = poly_gcd(rest, mu)
        if g.degree == 0:
            raise StructuralError(
                "the reduced characteristic polynomial has a root that the "
                "minimal polynomial lacks")
        at_least.append(g.degree)
        rest = rest.exact_div(g)
    E._type = Partition(sum(d > i for d in at_least) for i in range(at_least[0]))
    return E._type


def is_et_m_point(E, m):
    """True iff E is an m-dimensional subalgebra of balanced type
    [n/m, ..., n/m], decided by one rank with no factorization.

    The generator x of E has a squarefree minimal polynomial of degree
    dim E = m, so over an algebraic closure, where A is M_n, x is
    diagonalizable with m distinct eigenvalues theta, of multiplicities
    m_theta summing to n; these are the parts of the type (the rank of the
    idempotent of theta is m_theta).  The centralizer of a diagonal matrix
    is the block-diagonal matrices, so dim C_A(x) = sum m_theta^2, a
    dimension that a field extension does not change.  By Cauchy-Schwarz,
    n^2 = (sum m_theta)^2 <= m sum m_theta^2, with equality exactly when
    every m_theta = n/m.  So E is balanced iff dim C_A(x) = n^2 / m
    (Algebra.centralizer_dim: n^2 minus the rank of u -> x u - u x).
    """
    n = E.algebra.degree
    if m < 1 or n % m != 0:
        return False
    if E.dim != m:
        return False
    return E.algebra.centralizer_dim(E.generator.coords) == n * n // m


def independent_ideals_check(ideals):
    """True iff the sum of the ideal subspaces is direct and equals A."""
    if not ideals:
        return False
    alg = ideals[0].algebra
    for i in ideals:
        if i.algebra != alg:
            raise InvalidInputError("ideals live in different algebras")
    rows = [b for i in ideals for b in i.basis]
    total = sum(len(i.basis) for i in ideals)
    return rank(Matrix(alg.field, rows)) == total == alg.dim


def subalgebra_to_ideal_tuple(E):
    """The ideals e_i A for the rational idempotents of E, in a deterministic
    order.  These are the minimal geometric idempotents exactly when the
    minimal polynomial splits into linear factors over the base field."""
    pairs = factor_idempotents(E)
    ideals = [ideal_generated([ei]) for _, ei in pairs]
    ideals.sort(key=lambda i: i.basis)
    return tuple(ideals)


# ---------------------------------------------------------------------------
# seeded generators used by tests and the CLI


def random_maximal_etale(A, rng):
    from .errors import FieldTooSmallError
    for _ in range(200):
        a = A.random_element(rng)
        try:
            E = generate_etale(a)
        except NotEtaleError:
            continue
        if E.is_maximal():
            return E
    raise FieldTooSmallError("no maximal separable element found within budget")


def random_balanced_pair_subalgebra(A, rng):
    """A random member of the type-[n/2, n/2] stratum of a matrix-preset
    algebra, built by conjugating a two-eigenvalue diagonal element."""
    from .algebra import coords_of_matrix
    from .errors import FieldTooSmallError
    if A.preset.get("kind") != "matrix":
        raise InvalidInputError("random balanced subalgebras need a matrix preset")
    n = A.preset["n"]
    if n % 2:
        raise InvalidInputError("degree must be even")
    f = A.field
    for _ in range(400):
        c1, c2 = f.random(rng), f.random(rng)
        if c1 == c2:
            continue
        g = A.element(tuple(f.random(rng) for _ in range(A.dim)))
        ginv = A.inverse(g.coords)
        if ginv is None:
            continue
        diag = [[f.zero] * n for _ in range(n)]
        for t in range(n):
            diag[t][t] = c1 if t < n // 2 else c2
        x = g * A.element(coords_of_matrix(A, diag)) * A.element(ginv)
        E = generate_etale(x)
        if is_et_m_point(E, 2):
            return E
    raise FieldTooSmallError("no balanced-type subalgebra found within budget")
