"""Polynomials in the pencil parameter t: exact computations over F[t].

Witness constructors certify membership along a pencil by a single
polynomial in t.  Determinants and resultants with entries in F[t] use one
fraction-free kernel, Bareiss elimination (polymat_det); the minimal
polynomial of a line t*a + (1-t)*b is one linear solve over F (rref) for the
coefficients of its coefficients.  No rational-function arithmetic is ever
needed.
"""

from .linalg import rref
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


def _trim_xpoly(coeffs):
    out = list(coeffs)
    while out and out[-1].is_zero():
        out.pop()
    return out


def sylvester_resultant(fc, gc):
    """Resultant in x of two polynomials whose coefficients live in F[t].

    fc, gc are coefficient lists (lowest x-degree first) of Poly-in-t values.
    """
    fc, gc = _trim_xpoly(fc), _trim_xpoly(gc)
    base = (fc or gc)[0].field
    zero = Poly.zero(base)
    if not fc or not gc:
        return zero
    m, n = len(fc) - 1, len(gc) - 1
    if m == 0:
        return fc[0] ** n
    if n == 0:
        return gc[0] ** m
    size = m + n
    rows = []
    frev = fc[::-1]
    for i in range(n):
        rows.append([zero] * i + frev + [zero] * (size - m - 1 - i))
    grev = gc[::-1]
    for i in range(m):
        rows.append([zero] * i + grev + [zero] * (size - n - 1 - i))
    return polymat_det(base, rows)


def xpoly_derivative(fc):
    base = fc[0].field
    return [fc[i].scale(base.from_int(i)) for i in range(1, len(fc))]


def xpoly_discriminant(fc):
    """Discriminant in x of a monic polynomial with F[t] coefficients,
    itself a polynomial in t."""
    fc = _trim_xpoly(fc)
    d = len(fc) - 1
    res = sylvester_resultant(fc, xpoly_derivative(fc))
    if (d * (d - 1) // 2) % 2 == 1:
        res = -res
    return res


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
    is one linear system over F whose unknowns are the coefficients of the
    c_j, with deg c_j <= d - j.  The system is exact:

    * x(t) is integral over F[t], so its minimal polynomial over F(t) is
      monic with coefficients in F[t] (Gauss's lemma), and its roots have
      valuation >= -1 at t = infinity, so deg c_j <= d - j.  When that
      polynomial has degree d it solves the system, and it is the only
      solution because 1, ..., x(t)^{d-1} are independent over F(t).
    * If the minimal polynomial has degree m < d, its coefficients (with
      c_m = 1) are a nonzero solution of the homogeneous system within the
      same bounds, so some unknown is free; if it has degree > d, the
      system is inconsistent.  Either way the result is None.
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
    basis, pivots = rref(f, rows)
    if pivots != list(range(len(unknowns))):
        return None
    sol = iter(row[-1] for row in basis)
    return [Poly(f, [next(sol) for _ in range(d - j + 1)]) for j in range(d)] + [Poly.one(f)]
