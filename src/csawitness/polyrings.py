"""Exact linear algebra and resultants over the polynomial ring F[t].

Witness constructors certify membership along a pencil by a single
polynomial in the parameter; everything here is fraction-free (Bareiss
elimination, Sylvester determinants, cross-multiplied solves with exact
back substitution), so no rational-function arithmetic is ever needed.
"""

from .poly import Poly


def polymat_det(rows):
    """Bareiss fraction-free determinant of a square matrix of Poly entries."""
    n = len(rows)
    base = rows[0][0].field
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
    if m == 0 and n == 0:
        return Poly.one(base)
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
    return polymat_det(rows)


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


def solve_poly_linear(rows, rhs):
    """Solve rows . x = rhs for polynomial unknowns, or None.

    Cross-multiplied forward elimination keeps everything in F[t]; back
    substitution divides exactly (a nonzero remainder means there is no
    polynomial solution).  All original equations are re-verified.
    """
    base = rhs[0].field
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    cur = 0
    for col in range(ncols):
        piv = next((i for i in range(cur, len(aug)) if not aug[i][col].is_zero()), None)
        if piv is None:
            return None  # the unknowns are linearly dependent: degenerate pencil
        aug[cur], aug[piv] = aug[piv], aug[cur]
        pr = aug[cur]
        for i in range(cur + 1, len(aug)):
            if aug[i][col].is_zero():
                continue
            fi = aug[i][col]
            aug[i] = [pr[col] * aug[i][j] - fi * pr[j] for j in range(len(pr))]
        cur += 1
        if cur == ncols:
            break
    xs = [None] * ncols
    for r in range(ncols - 1, -1, -1):
        row = aug[r]
        acc = row[-1]
        for j in range(r + 1, ncols):
            acc = acc - row[j] * xs[j]
        try:
            xs[r] = acc.exact_div(row[r])
        except Exception:
            return None
    for r, b in zip(rows, rhs):
        acc = Poly.zero(base)
        for c, x in zip(r, xs):
            acc = acc + c * x
        if acc != b:
            return None
    return xs


def algebra_mul_polys(A, x, y):
    """Multiply two elements of A (x) F[t]; coordinates are Polys in t."""
    base = A.field
    zero = Poly.zero(base)
    out = [zero] * A.dim
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        ti = A.table[i]
        for j, yj in enumerate(y):
            if yj.is_zero():
                continue
            prod = xi * yj
            for k, c in ti[j]:
                out[k] = out[k] + prod.scale(c)
    return tuple(out)


def constant_coords(A, coords):
    base = A.field
    return tuple(Poly.constant(base, c) for c in coords)


def eval_coords(coord_polys, t):
    return tuple(p.eval(t) for p in coord_polys)


def line_coords(field, start, end):
    """Coordinates of t*start + (1-t)*end as degree-1 polynomials."""
    return tuple(Poly(field, [e, field.sub(s, e)]) for s, e in zip(start, end))


def pencil_min_poly(A, coord_polys, d):
    """Monic degree-d annihilator of a pencil element, coefficients in F[t].

    Returns the coefficient list [c_0(t), ..., c_{d-1}(t), 1] or None when
    the powers 1, x(t), ..., x(t)^{d-1} are generically dependent or no
    polynomial solution exists (the pencil is degenerate for this degree).
    Full column rank of the power matrix makes the result the minimal
    polynomial of x(t) over F(t).
    """
    base = A.field
    powers = [constant_coords(A, A.unit)]
    for _ in range(d):
        powers.append(algebra_mul_polys(A, powers[-1], coord_polys))
    rows, rhs = [], []
    for m in range(A.dim):
        rows.append([powers[j][m] for j in range(d)])
        rhs.append(-powers[d][m])
    sol = solve_poly_linear(rows, rhs)
    if sol is None:
        return None
    return sol + [Poly.one(base)]
