"""Exact linear algebra over a field object.

Matrices are lists of row lists of raw scalars.  Row reduction is
deterministic: columns are processed left to right and the first row with a
nonzero entry becomes the pivot, so reduced forms are canonical and
byte-comparable.

Over a PrimeField, mat_vec, rref, reduce_vector and in_row_space work on
plain ints with delayed reduction (Dumas, Giorgi and Pernet, "Dense linear
algebra over word-size prime fields: the FFLAS and FFPACK packages", ACM
TOMS 2008).  Products are summed as Python ints, which cannot overflow, and
reduced mod p once per output entry, or before an entry is tested for zero.
Every intermediate int is congruent mod p to the value the field operations
would produce, and every returned scalar is reduced to [0, p).  So the
results equal those of the field-method path entry by entry, for inputs
given by any ints congruent to the true scalars.
"""

import operator

from .errors import InvalidInputError
from .fields import PrimeField


def identity(field, n):
    z, o = field.zero, field.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def zero_matrix(field, m, n):
    z = field.zero
    return [[z] * n for _ in range(m)]


def mat_mul(field, a, b):
    add, mul, zero = field.add, field.mul, field.zero
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = [zero] * m
        ai = a[i]
        for t in range(k):
            c = ai[t]
            if field.is_zero(c):
                continue
            bt = b[t]
            for j in range(m):
                row[j] = add(row[j], mul(c, bt[j]))
        out.append(row)
    return out


def mat_vec(field, a, v):
    if isinstance(field, PrimeField):
        p = field.p
        return [sum(map(operator.mul, row, v)) % p for row in a]
    add, mul, zero = field.add, field.mul, field.zero
    out = []
    for row in a:
        acc = zero
        for c, x in zip(row, v):
            if not field.is_zero(c):
                acc = add(acc, mul(c, x))
        out.append(acc)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def rref(field, rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    if isinstance(field, PrimeField):
        # Only the pivot row is reduced before it is used; the other rows
        # collect unreduced updates, each adding less than p^2 in size.
        p = field.p
        nrows = len(m)
        pivots = []
        r = 0
        for c in range(len(m[0])):
            for pr in range(r, nrows):
                if m[pr][c] % p:
                    break
            else:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = pow(m[r][c], p - 2, p)
            mr = m[r] = [inv * x % p for x in m[r]]
            for i in range(nrows):
                if i != r:
                    f = m[i][c] % p
                    if f:
                        m[i] = [x - f * y for x, y in zip(m[i], mr)]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return [[x % p for x in m[i]] for i in range(r)], pivots
    ncols = len(m[0])
    sub, mul, div = field.sub, field.mul, field.div
    is_zero = field.is_zero
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if not is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        if m[r][c] != field.one:
            m[r] = [mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and not is_zero(m[i][c]):
                f = m[i][c]
                mi, mr = m[i], m[r]
                for j in range(c, ncols):
                    mi[j] = sub(mi[j], mul(f, mr[j]))
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [m[i] for i in range(r)], pivots


def rank(field, rows):
    return len(rref(field, rows)[0])


def reduce_vector(field, basis, pivots, vec):
    """Reduce vec against an rref basis; returns (residual, coefficients)."""
    v = list(vec)
    coeffs = []
    if isinstance(field, PrimeField):
        p = field.p
        for row, piv in zip(basis, pivots):
            c = v[piv] % p
            coeffs.append(c)
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        return [x % p for x in v], coeffs
    sub, mul = field.sub, field.mul
    for row, p in zip(basis, pivots):
        c = v[p]
        coeffs.append(c)
        if not field.is_zero(c):
            for j in range(len(v)):
                v[j] = sub(v[j], mul(c, row[j]))
    return v, coeffs


def in_row_space(field, basis, pivots, vec):
    if isinstance(field, PrimeField):
        return not any(reduce_vector(field, basis, pivots, vec)[0])
    residual, _ = reduce_vector(field, basis, pivots, vec)
    return all(field.is_zero(x) for x in residual)


def kernel(field, rows):
    """Basis of the right kernel {v : rows . v = 0}, canonical order."""
    if not rows:
        raise InvalidInputError("kernel of an empty matrix needs a column count")
    ncols = len(rows[0])
    basis, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    z, o = field.zero, field.one
    for fc in free:
        v = [z] * ncols
        v[fc] = o
        for row, p in zip(basis, pivots):
            v[p] = field.neg(row[fc])
        out.append(v)
    return out


def solve(field, a, b):
    """One solution x of a x = b, free variables set to 0; None if inconsistent."""
    aug = [list(row) + [bb] for row, bb in zip(a, b)]
    basis, pivots = rref(field, aug)
    n = len(a[0]) if a else 0
    z = field.zero
    x = [z] * n
    for row, p in zip(basis, pivots):
        if p == n:
            return None  # 0 = 1 row
        x[p] = row[n]
    return x


def det(field, rows):
    m = [list(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise InvalidInputError("determinant needs a square matrix")
    sub, mul = field.sub, field.mul
    sign_flip = False
    result = field.one
    for c in range(n):
        pr = None
        for i in range(c, n):
            if not field.is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            return field.zero
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign_flip = not sign_flip
        piv = m[c][c]
        result = mul(result, piv)
        inv = field.inv(piv)
        for i in range(c + 1, n):
            if not field.is_zero(m[i][c]):
                f = mul(m[i][c], inv)
                mi, mc = m[i], m[c]
                for j in range(c, n):
                    mi[j] = sub(mi[j], mul(f, mc[j]))
    if sign_flip:
        result = field.neg(result)
    return result


def inverse(field, rows):
    n = len(rows)
    aug = [list(r) + list(e) for r, e in zip(rows, identity(field, n))]
    basis, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in basis]


def charpoly(field, rows):
    """Monic characteristic polynomial det(x I - M), coefficients lowest first.

    Hessenberg reduction by similarity transforms, then the standard
    recurrence on leading principal minors; O(n^3) field operations.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InvalidInputError("characteristic polynomial needs a square matrix")
    if n == 0:
        return [field.one]
    h = [list(r) for r in rows]
    sub, mul, div = field.sub, field.mul, field.div
    for c in range(n - 2):
        pr = None
        for i in range(c + 1, n):
            if not field.is_zero(h[i][c]):
                pr = i
                break
        if pr is None:
            continue
        if pr != c + 1:
            h[c + 1], h[pr] = h[pr], h[c + 1]
            for row in h:
                row[c + 1], row[pr] = row[pr], row[c + 1]
        piv = h[c + 1][c]
        for i in range(c + 2, n):
            if field.is_zero(h[i][c]):
                continue
            f = div(h[i][c], piv)
            hi, hc = h[i], h[c + 1]
            for j in range(n):
                hi[j] = sub(hi[j], mul(f, hc[j]))
            # similarity: column c+1 += f * column i
            for row in h:
                row[c + 1] = field.add(row[c + 1], mul(f, row[i]))
    # p[i] = charpoly of leading i x i block, as coefficient list (lowest first)
    z, o = field.zero, field.one
    p = [[o]]
    for i in range(1, n + 1):
        hii = h[i - 1][i - 1]
        prev = p[i - 1]
        cur = [z] * (len(prev) + 1)
        for t, ct in enumerate(prev):  # (x - h_ii) * prev
            cur[t + 1] = field.add(cur[t + 1], ct)
            cur[t] = sub(cur[t], mul(hii, ct))
        run = o
        for k in range(1, i):
            run = mul(run, h[i - k][i - k - 1])
            coef = mul(h[i - 1 - k][i - 1], run)
            if field.is_zero(coef):
                continue
            pk = p[i - 1 - k]
            for t, ct in enumerate(pk):
                cur[t] = sub(cur[t], mul(coef, ct))
        p.append(cur)
    return p[n]


def row_space_rref(field, rows):
    """Canonical basis of the row space (rref rows as tuples)."""
    basis, _ = rref(field, rows)
    return tuple(tuple(r) for r in basis)


def intersect_row_spaces(field, a_rows, b_rows):
    """Canonical basis of span(a) ∩ span(b)."""
    if not a_rows or not b_rows:
        return ()
    stacked = [list(r) for r in a_rows] + [list(r) for r in b_rows]
    left_kernel = kernel(field, transpose(stacked))
    a_cols = transpose(a_rows)
    vecs = [mat_vec(field, a_cols, coeffs[:len(a_rows)]) for coeffs in left_kernel]
    return row_space_rref(field, vecs)

