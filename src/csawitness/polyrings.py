"""Polynomials in the pencil parameter t: exact computations over F[t].

Witness constructors certify membership along a pencil by a single
polynomial in t.  Determinants use one fraction-free kernel, Bareiss
elimination (_bareiss), written once over a coefficient ring: F[t] through
Poly's operators (polymat_det), and Z[t] on int lists.  It takes a rank
minor of an ideal pencil, and the discriminant of an etale line as the
d x d Hankel determinant of the power sums of its minimal polynomial's
roots (xpoly_discriminant).  The minimal polynomial of a line
t*a + (1-t)*b is one linear system over F for the coefficients of its
coefficients, which pencil_min_poly eliminates whole by rref.  The etale
validity (pencil_discriminant) over F_{p^k} is the discriminant of that
polynomial; over F_p and Q it solves the system on ints from the rows
that pin every unknown (linalg.int_prefix_solve), accepts the candidate by
one identity in F[t] (x(t) is a root), and stays on those ints: it is one
Z[t] determinant, lowered once.  No rational-function arithmetic is ever
needed.
"""

from collections import namedtuple
import operator

from .linalg import Matrix, int_prefix_solve, rref
from .poly import Poly

# the operations the Newton and Bareiss loops take from a coefficient ring
_Ring = namedtuple("_Ring", "const add sub mul neg exact_div is_zero")


def _poly_ring(base):
    """F[t] for the field base, on Polys."""
    return _Ring(lambda n: Poly(base, [base.from_int(n)]), operator.add, operator.sub,
                 operator.mul, operator.neg, Poly.exact_div, Poly.is_zero)


def _zt_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _zt_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _zt_trim(out)


def _zt_neg(a):
    return [-c for c in a]


def _zt_sub(a, b):
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _zt_trim(out)


def _zt_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _zt_exact_div(a, b):
    """a / b in Z[t] for a division known to be exact: each quotient
    coefficient is a leading coefficient divided by b's."""
    a = list(a)
    lead, n = b[-1], len(b)
    q = [0] * (len(a) - n + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + n - 1] // lead
        if c:
            for i, y in enumerate(b):
                a[k + i] -= c * y
    return q


# Z[t] on int lists, lowest degree first, with no trailing zeros
_ZT = _Ring(lambda n: [n] if n else [], _zt_add, _zt_sub, _zt_mul, _zt_neg,
           _zt_exact_div, operator.not_)


def _bareiss(ring, rows):
    """Bareiss fraction-free determinant of a square matrix over ring; each
    division by the previous pivot is exact (Sylvester's identity), and the
    empty matrix has determinant 1."""
    n = len(rows)
    if n == 0:
        return ring.const(1)
    sub, mul, div, is_zero = ring.sub, ring.mul, ring.exact_div, ring.is_zero
    zero = ring.const(0)
    m = [list(r) for r in rows]
    sign = False
    prev = ring.const(1)
    for k in range(n - 1):
        if is_zero(m[k][k]):
            piv = next((i for i in range(k + 1, n) if not is_zero(m[i][k])), None)
            if piv is None:
                return zero
            m[k], m[piv] = m[piv], m[k]
            sign = not sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = div(sub(mul(m[i][j], m[k][k]), mul(m[i][k], m[k][j])), prev)
            m[i][k] = zero
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return ring.neg(d) if sign else d


def polymat_det(base, rows):
    """Bareiss fraction-free determinant of a square matrix of Poly entries
    over the field base; the empty matrix has determinant 1."""
    return _bareiss(_poly_ring(base), rows)


def _power_sum_hankel(ring, fc):
    """The d x d Hankel matrix [p_{i+j}] of the power sums of the roots of
    the monic fc = [a_0, ..., a_{d-1}, 1] over ring, by Newton's identities
    (see xpoly_discriminant), with p_0 = d."""
    d = len(fc) - 1
    add, mul, const = ring.add, ring.mul, ring.const
    p = [const(d)]
    for k in range(1, 2 * d - 1):
        s = mul(const(k), fc[d - k]) if k <= d else const(0)
        for i in range(1, min(k, d + 1)):
            s = add(s, mul(fc[d - i], p[k - i]))
        p.append(ring.neg(s))
    return [p[i:i + d] for i in range(d)]


def xpoly_discriminant(fc):
    """Discriminant in x of a monic polynomial with F[t] coefficients,
    itself a polynomial in t.

    fc = [a_0, ..., a_{d-1}, 1] lists the coefficients, lowest x-degree
    first.  With roots r_1, ..., r_d, disc f = prod_{i<j} (r_i - r_j)^2 =
    det(V)^2 for the Vandermonde matrix V = [r_j^i], and det(V)^2 =
    det(V V^T), where V V^T is the d x d Hankel matrix [p_{i+j}] of the power
    sums p_k = sum_j r_j^k.  Newton's identities give them with no division:
    p_0 = d and

        p_k = -(k a_{d-k} + sum_{0 < i < k, i <= d} a_{d-i} p_{k-i}),

    the term k a_{d-k} only for k <= d.  Both are polynomial identities over
    Z, so they hold in every characteristic, also where it divides d.  The
    discriminant is one Bareiss determinant of that d x d matrix.  A
    constant (d = 0) gives the empty determinant, 1.
    """
    base = fc[0].field
    return polymat_det(base, _power_sum_hankel(_poly_ring(base), fc))


def line_coords(field, start, end):
    """Coordinates of t*start + (1-t)*end as degree-1 polynomials."""
    return tuple(Poly(field, [e, field.sub(s, e)]) for s, e in zip(start, end))


def pencil_min_poly(A, start, end, d):
    """Monic degree-d minimal polynomial of x(t) = t*start + (1-t)*end over F(t).

    Returns the coefficient list [c_0(t), ..., c_{d-1}(t), 1] of Polys in t,
    or None when x(t) has no minimal polynomial of degree d over F(t) (the
    line is degenerate for this degree).

    x(t) = end + t*(start - end) is linear in t, so the coefficient of t^i
    in x(t)^j is a constant vector of A.  The identity
    sum_{j<d} c_j(t) x(t)^j = -x(t)^d, read coefficient by coefficient in t,
    is one linear system over F whose unknowns are the coefficients c_jk of
    the c_j, with deg c_j <= d - j.  The system is exact:

    * x(t) is integral over F[t], so its minimal polynomial over F(t) is
      monic with coefficients in F[t] (Gauss's lemma), and its roots have
      valuation >= -1 at t = infinity, so deg c_j <= d - j.  When that
      polynomial has degree d it solves the system, and it is the only
      solution because 1, ..., x(t)^{d-1} are independent over F(t).
    * If the minimal polynomial has degree m < d, its coefficients (with
      c_m = 1) are a nonzero solution of the homogeneous system within the
      same bounds, so some unknown is free; if it has degree > d, the
      system is inconsistent.  Either way the result is None.

    So the result is the system's unique solution, and None when it has
    none or more than one.  The whole system is eliminated by rref.
    """
    f = A.field
    step = A.sub(start, end)
    # powers[j][i]: coefficient of t^i in x(t)^j
    powers = [[A.unit]]
    for _ in range(d):
        prev = powers[-1]
        cur = [A.mul(prev[0], end)]
        for i in range(1, len(prev)):
            cur.append(A.add(A.mul(prev[i], end), A.mul(prev[i - 1], step)))
        cur.append(A.mul(prev[-1], step))
        powers.append(cur)
    unknowns = [(j, k) for j in range(d) for k in range(d - j + 1)]
    rows = []
    for i in range(d + 1):
        terms = [powers[j][i - k] if 0 <= i - k <= j else None for j, k in unknowns]
        for m in range(A.dim):
            rows.append([f.zero if v is None else v[m] for v in terms]
                        + [f.neg(powers[d][i][m])])
    basis, pivots = rref(rows=Matrix(f, rows))
    if pivots != list(range(len(unknowns))):
        return None
    sol = iter(row[-1] for row in basis.rows)
    return [Poly(f, [next(sol) for _ in range(d - j + 1)]) for j in range(d)] + [Poly.one(f)]


def _pencil_min_poly_ints(A, start, end, d):
    """pencil_min_poly over F_p and Q, before lowering: (c, den) with the
    coefficient of t^k in c_j equal to c[i] / den, the unknowns (j, k)
    numbered j-major, or None.

    The system is solved from the rows it needs (linalg.int_prefix_solve),
    coordinate by coordinate of A, all t-degrees of a coordinate together.
    A row read so far that is inconsistent, or rows that run out before
    every unknown has a pivot, give None, as the whole system then has no
    solution or a free unknown.  Once every unknown has a pivot, the rows
    read have full column rank, so the whole system has at most the one
    candidate they give, and it has that one iff the candidate satisfies
    every row, that is iff sum_jk c_jk t^k x(t)^j + x(t)^d = 0 in every
    t-degree.  That identity is checked on int vectors.  The result is
    therefore the solution pencil_min_poly gives, None cases included.

    start and end are lifted once, to one scale s, and the coefficient
    vectors of the powers are int products (Algebra._int_mul, reduced mod p
    over F_p): with u the unit's scale and a the table's, x(t)^j sits at
    scale u (s a)^j, so weighting the unknowns c_jk by (s a)^(d-j) makes
    the identity, times u (s a)^d, one int system.
    """
    f = A.field
    p = f.int_modulus
    n = A.dim
    ints, s = f.lift_vector(list(start) + list(end))
    e = ints[n:]
    step = [a - b for a, b in zip(ints, e)]
    mul = A._int_mul
    # powers[j][i]: the ints of the coefficient of t^i in x(t)^j
    powers = [[A._lifted_unit[0]]]
    for _ in range(d):
        prev = powers[-1]
        cur = [mul(prev[0], e)]
        for i in range(1, len(prev)):
            cur.append([a + b for a, b in zip(mul(prev[i], e), mul(prev[i - 1], step))])
        cur.append(mul(prev[-1], step))
        powers.append([[c % p for c in v] for v in cur] if p else cur)
    weight = [(s * A._flat_scale) ** (d - j) for j in range(d)]
    unknowns = [(j, k) for j in range(d) for k in range(d - j + 1)]

    def rows():
        for m in range(n):
            for i in range(d + 1):
                yield ([weight[j] * powers[j][i - k][m] if 0 <= i - k <= j else 0
                        for j, k in unknowns] + [-powers[d][i][m]])

    solved = int_prefix_solve(f, rows(), len(unknowns))
    if solved is None:
        return None
    c, den = solved
    for i in range(d + 1):
        acc = [den * v for v in powers[d][i]]
        for (j, k), cjk in zip(unknowns, c):
            if cjk and 0 <= i - k <= j:
                cw = cjk * weight[j]
                acc = [a + cw * v for a, v in zip(acc, powers[j][i - k])]
        if any(a % p for a in acc) if p else any(acc):
            return None
    return c, den


def pencil_discriminant(A, start, end, d):
    """xpoly_discriminant(pencil_min_poly(A, start, end, d)), the validity
    of an etale line, or None where pencil_min_poly gives None.  F_{p^k}
    takes those two steps.

    Over F_p and Q it is taken from the minimal polynomial's own ints, as
    _pencil_min_poly_ints solves for them, with nothing lowered before the
    determinant.
    With a_j = c_j / den (_pencil_min_poly_ints), g(x) = den^d f(x / den) =
    x^d + sum_j den^(d-j-1) c_j(t) x^j is monic in Z[t][x], and its roots
    are den times those of f, so disc g = den^(d(d-1)) disc f.  Newton's
    identities (with p_0 = d, an unreduced int) and the Bareiss determinant
    of xpoly_discriminant are identities over Z with exact divisions, so
    disc g is one d x d determinant in Z[t], lowered once by den^(d(d-1)).
    Over F_p den is 1 and the c_j are int representatives, so that
    determinant reduced mod p is the one over F_p.  The determinant is
    unique, so the result is the same Poly as the two steps give.
    """
    if A._flat is None:
        mp = pencil_min_poly(A, start, end, d)
        return None if mp is None else xpoly_discriminant(mp)
    solved = _pencil_min_poly_ints(A, start, end, d)
    if solved is None:
        return None
    c, den = solved
    g, i = [], 0
    for j in range(d):
        w = den ** (d - j - 1)
        g.append(_zt_trim([w * v for v in c[i:i + d - j + 1]]))
        i += d - j + 1
    disc = _bareiss(_ZT, _power_sum_hankel(_ZT, g + [[1]]))
    f = A.field
    return Poly(f, f.lower_vector(disc, den ** (d * (d - 1))))
