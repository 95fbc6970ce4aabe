"""Polynomials in the pencil parameter t: exact computations over F[t].

Witness constructors certify membership along a pencil by a single
polynomial in t.  Determinants with entries in F[t] use one fraction-free
kernel, Bareiss elimination (polymat_det): a rank minor of an ideal pencil,
and the discriminant of an etale line as the d x d Hankel determinant of the
power sums of its minimal polynomial's roots.  The minimal polynomial of a
line t*a + (1-t)*b is one linear system over F for the coefficients of its
coefficients.  Over F_p and Q it is solved on ints from the rows that pin
every unknown (linalg.int_prefix_solve) and the candidate is accepted by one
identity in F[t] (x(t) is a root); over F_{p^k} the whole system is
eliminated by rref.  No rational-function arithmetic is ever needed.
"""

from .linalg import int_prefix_solve, rref
from .poly import Poly


def polymat_det(base, rows):
    """Bareiss fraction-free determinant of a square matrix of Poly entries
    over the field base; the empty matrix has determinant 1."""
    n = len(rows)
    if n == 0:
        return Poly.one(base)
    m = [[p for p in r] for r in rows]
    sign = False
    prev = Poly.one(base)
    for k in range(n - 1):
        if m[k][k].is_zero():
            piv = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if piv is None:
                return Poly.zero(base)
            m[k], m[piv] = m[piv], m[k]
            sign = not sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = Poly.zero(base)
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return -d if sign else d


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
    d = len(fc) - 1
    p = [Poly(base, [base.from_int(d)])]
    for k in range(1, 2 * d - 1):
        s = fc[d - k].scale(base.from_int(k)) if k <= d else Poly.zero(base)
        for i in range(1, min(k, d + 1)):
            s = s + fc[d - i] * p[k - i]
        p.append(-s)
    return polymat_det(base, [p[i:i + d] for i in range(d)])


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
    none or more than one.  Over F_p and Q the system is solved from the
    rows it needs (linalg.int_prefix_solve), coordinate by coordinate of A,
    all t-degrees of a coordinate together.  A row read so far that is
    inconsistent, or rows that run out before every unknown has a pivot,
    give None, as the whole system then has no solution or a free unknown.
    Once every unknown has a pivot, the rows read have full column rank, so
    the whole system has at most the one candidate they give, and it has
    that one iff the candidate satisfies every row, that is iff
    sum_jk c_jk t^k x(t)^j + x(t)^d = 0 in every t-degree.  That identity
    is checked on int vectors, and only the solution is lowered.  The
    result is therefore the same as from eliminating the whole system,
    None cases included.

    start and end are lifted once, to one scale s, and the coefficient
    vectors of the powers are int products (Algebra._int_mul, reduced mod p
    over F_p): with u the unit's scale and a the table's, x(t)^j sits at
    scale u (s a)^j, so weighting the unknowns c_jk by (s a)^(d-j) makes
    the identity, times u (s a)^d, one int system.  Over F_{p^k} the whole
    system is eliminated with field methods (rref).
    """
    if A._flat is None:
        return _pencil_min_poly_rref(A, start, end, d)
    f = A.field
    p = f.int_modulus
    n = A.dim
    ints, s = f.lift_vector(list(start) + list(end))
    e = ints[n:]
    step = [a - b for a, b in zip(ints, e)]
    mul = A._int_mul
    # powers[j][i]: the ints of the coefficient of t^i in x(t)^j
    powers = [[A._lifted(A.unit)[0]]]
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
    sol = iter(f.lower_vector(c, den))
    return [Poly(f, [next(sol) for _ in range(d - j + 1)]) for j in range(d)] + [Poly.one(f)]


def _pencil_min_poly_rref(A, start, end, d):
    """pencil_min_poly over F_{p^k}: the whole system, eliminated by rref."""
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
    basis, pivots = rref(f, rows)
    if pivots != list(range(len(unknowns))):
        return None
    sol = iter(row[-1] for row in basis)
    return [Poly(f, [next(sol) for _ in range(d - j + 1)]) for j in range(d)] + [Poly.one(f)]
