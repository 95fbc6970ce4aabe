"""Exact linear algebra over a field object.

A matrix, or a list of vectors, is one value, Matrix: its field and its
rows, held as field scalars, as ints and a scale, or both (Matrix states
the rules).  rref, pivots, rank, kernel, mat_vec and in_row_space take a
Matrix, and rref and kernel return one.  Row reduction is deterministic:
columns are processed left to right and the first row with a nonzero entry
becomes the pivot, so reduced forms are canonical and byte-comparable.

Over F_p and Q (fields.INTEGER_CORE) those kernels, and
intertwiner_mismatch, read the Matrix lifted and run on ints; over F_{p^k}
they run on field methods.  Each output entry is lowered at most once, on
its first read.  rref, pivots and kernel read the column-wise echelon form
of _int_echelon; the incremental eliminations int_dependency and
int_prefix_solve, which read rows as their callers build them, share one
step, _reduce_and_keep.  mat_mul, reduce_vector, solve and dependency keep
the field-method path alone: no workload spends measurable time in them
over F_p or Q, or their callers hold the int operands.  The fields differ
only where int_modulus says so: in the zero test, in how a row is
normalised, and in the final lowering.

* Over F_p this is delayed reduction (Dumas, Giorgi and Pernet, "Dense
  linear algebra over word-size prime fields: the FFLAS and FFPACK
  packages", ACM TOMS 2008).  Products are summed as Python ints, which
  cannot overflow, every intermediate int is congruent mod p to the value
  the field operations would produce, and an entry is reduced mod p only
  before it is tested for zero and once on output.  So the results equal
  those of the field-method path for inputs given by any ints congruent to
  the true scalars.
* Over Q this is fraction-free elimination (Bareiss, Math. Comp. 1968) with
  content reduction: a row is updated as a*row - f*pivot_row, a the pivot,
  and divided by the gcd of its entries.  Each int row is a nonzero
  rational multiple of the row the Fraction path would hold, so dividing
  each reduced row by its pivot gives the same rref, and each output entry
  is one canonical Fraction.
"""

import operator
from math import gcd, lcm

from .errors import InvalidInputError
from .fields import INTEGER_CORE


class Matrix:
    """A matrix, or a list of vectors, over field: the value the kernels of
    this module take and return.

    It holds rows, the entries as field scalars, or their lift, int rows
    and a scale, or both, and computes the missing one on its first read
    and keeps it.  Only F_p and Q (fields.INTEGER_CORE) lift: over F_{p^k}
    lifted is None, and a Matrix is built from rows, which the field-method
    paths below read as held (_rows).  The scale rules:

    * rows = ints / scale entry by entry, with scale a nonzero int (prime
      to p over F_p); over F_p the ints are any representatives.
    * A lift made here (fields' lift_rows) is the canonical one: over Q the
      ints over the lcm of every denominator, over F_p the scalars at scale
      1.  rref returns its basis lifted the same way, so every row holds
      the scale at its pivot, which in_row_space reads.
    * Scaling a row does not change the row space, so rank, pivots, rref
      and kernel read int rows at a scale of their own per row; a kernel
      that returns such rows says what they are the rows of.
    * rows is lowered in one lower_vector call; len and indexing read the
      rows as held (_held) and convert nothing.
    """

    __slots__ = ("field", "_rows", "_lifted")

    def __init__(self, field, rows=None, ints=None, scale=1):
        self.field = field
        self._rows = rows
        self._lifted = None if ints is None else (ints, scale)

    @property
    def rows(self):
        if self._rows is None:
            ints, scale = self._lifted
            n = len(ints[0]) if ints else 0
            flat = self.field.lower_vector([x for row in ints for x in row], scale)
            self._rows = [flat[i * n:(i + 1) * n] for i in range(len(ints))]
        return self._rows

    @property
    def lifted(self):
        """(int rows, scale) over F_p and Q, else None."""
        lifted = self._lifted
        if lifted is None and isinstance(self.field, INTEGER_CORE):
            lifted = self._lifted = self.field.lift_rows(self._rows)
        return lifted

    def _held(self):
        """The rows as held: lowered if they are, else as ints."""
        return self._lifted[0] if self._rows is None else self._rows

    def __len__(self):
        return len(self._held())

    def __getitem__(self, i):
        return self._held()[i]


def identity(field, n):
    z, o = field.zero, field.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


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


def _int_mat_mul(a, b):
    """The int product of int matrices, each row a combination of the rows
    of b over the nonzero entries of the row of a."""
    m = len(b[0]) if b else 0
    out = []
    for ai in a:
        row = [0] * m
        for c, bt in zip(ai, b):
            if c:
                row = [x + c * y for x, y in zip(row, bt)]
        out.append(row)
    return out


def intertwiner_mismatch(a, b, c):
    """The first column j in which a b and c a differ, or None if a b = c a,
    for square Matrix values a, b and c.  Over F_p and Q the int products
    are compared as (a b) s_c against (c a) s_b, the common scale s_a
    cancelled, with no entry lowered."""
    field = a.field
    lifted = a.lifted
    if lifted is None:
        a, b, c = a._rows, b._rows, c._rows
        cols = zip(zip(*mat_mul(field, a, b)), zip(*mat_mul(field, c, a)))
        return next((j for j, (u, v) in enumerate(cols) if u != v), None)
    (a, _), (b, sb), (c, sc) = lifted, b.lifted, c.lifted
    p = field.int_modulus
    for j, (u, v) in enumerate(zip(zip(*_int_mat_mul(a, b)), zip(*_int_mat_mul(c, a)))):
        diff = [x * sc - y * sb for x, y in zip(u, v)]
        if any([x % p for x in diff] if p else diff):
            return j
    return None


def mat_vec(m, v):
    """The product m v, as a list.  Over F_p and Q v is lifted once, each
    entry is one int dot product, and the result is lowered once."""
    field = m.field
    lifted = m.lifted
    if lifted is not None:
        rows, scale = lifted
        if not field.int_modulus:
            v, vscale = field.lift_vector(v)
            scale *= vscale
        return field.lower_vector([sum(map(operator.mul, row, v)) for row in rows], scale)
    add, mul, zero = field.add, field.mul, field.zero
    out = []
    for row in m._rows:
        acc = zero
        for c, x in zip(row, v):
            if not field.is_zero(c):
                acc = add(acc, mul(c, x))
        out.append(acc)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def rref(*, rows):
    """Reduced row echelon form of the Matrix rows: (Matrix, pivot
    columns).  rows is passed by keyword: the benchmark's tracer
    (perfbench/tracer.py) counts each call's cells from it."""
    return _echelon(rows)


def pivots(m):
    """The pivot columns of the rref of m, by forward elimination alone: the
    columns where the row space first reaches a new dimension."""
    return _echelon(m, False)[1]


def rank(m):
    return len(_echelon(m, False)[1])


def _echelon(m, reduce=True):
    """(Matrix, pivots): the rref of m, or with reduce False m itself and
    the pivots, found by forward elimination alone.  Over F_p and Q the
    rref is _int_echelon's rows, each over its pivot a_i, lifted to the
    scale lcm |a_i| (a row r / a of it lifts to sign(a) r at |a|: r is
    primitive, so the denominators of r / a have lcm |a|), or over F_p
    reduced mod p at scale 1."""
    field = m.field
    lifted = m.lifted
    if lifted is not None:
        if not lifted[0]:
            return Matrix(field, [], []), []
        rows, piv = _int_echelon(field, list(lifted[0]), reduce)
        if not reduce:
            return m, piv
        p = field.int_modulus
        if p:
            # reduced mod p, the ints are the rref's scalars themselves
            rows = [[x % p for x in row] for row in rows]
            return Matrix(field, rows, rows), piv
        scale = lcm(*[row[c] for row, c in zip(rows, piv)])
        ints = [row if row[c] == scale else [x * (scale // row[c]) for x in row]
                for row, c in zip(rows, piv)]
        return Matrix(field, None, ints, scale), piv
    rows = [list(r) for r in m._rows]
    if not rows:
        return Matrix(field, []), []
    ncols = len(rows[0])
    sub, mul = field.sub, field.mul
    is_zero = field.is_zero
    piv = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if not is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        if rows[r][c] != field.one:
            rows[r] = [mul(inv, x) for x in rows[r]]
        for i in range(0 if reduce else r + 1, len(rows)):
            if i != r and not is_zero(rows[i][c]):
                f = rows[i][c]
                mi, mr = rows[i], rows[r]
                for j in range(c, ncols):
                    mi[j] = sub(mi[j], mul(f, mr[j]))
        piv.append(c)
        r += 1
        if r == len(rows):
            break
    return Matrix(field, rows[:r]) if reduce else m, piv


def _primitive(row):
    """An int row divided by its content."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _int_echelon(field, m, _reduce=True):
    """The reduced echelon rows of lifted rows m, not lowered, and their
    pivot columns; with _reduce=False only the rows below each pivot are
    updated (forward elimination), which is all a rank needs.

    Only the pivot row is normalised before it is used: over F_p it is
    scaled by the modular inverse of its pivot, over Q divided by its
    content.  Every other row is updated as a*row - f*pivot_row, with a the
    pivot (1 over F_p).  Over F_p it collects the update unreduced, each
    adding less than p^2 in size, and is tested for zero mod p; over Q it is
    divided by its content.  A pivot row keeps its pivot, which later
    updates only multiply: each returned row is zero (mod p) in the other
    pivot columns, and its own pivot is 1 mod p over F_p and a nonzero int
    over Q, so row / pivot is the rref row.
    """
    p = field.int_modulus
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(len(m[0])):
        for pr in range(r, nrows):
            if (m[pr][c] % p if p else m[pr][c]):
                break
        else:
            continue
        m[r], m[pr] = m[pr], m[r]
        if p:
            inv = pow(m[r][c], p - 2, p)
            mr = m[r] = [inv * x % p for x in m[r]]
        else:
            mr = m[r] = _primitive(m[r])
        a = mr[c]
        for i in range(0 if _reduce else r + 1, nrows):
            if i != r:
                f = m[i][c] % p if p else m[i][c]
                if f:
                    if p:
                        m[i] = [x - f * y for x, y in zip(m[i], mr)]
                    else:
                        m[i] = _primitive([a * x - f * y for x, y in zip(m[i], mr)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def dependency(field, vectors):
    """The first linear dependency of a sequence v_0, v_1, ...: at the
    first v_d in the span of v_0..v_{d-1}, (comb, kept) with
    0 = sum comb_i v_i over i <= d, comb_d = 1, and kept the rows of
    v_0..v_{d-1} in echelon form (their rref is the canonical basis of the
    span).  vectors may be lazy and is read up to v_d only: each vector is
    reduced against the rows kept so far, which carry their combination of
    the v_i after their entries, and kept if nonzero.  Raises
    InvalidInputError if the sequence ends first."""
    sub, mul, is_zero = field.sub, field.mul, field.is_zero
    rows = []   # (pivot column, entries + combination), pivot entry 1
    for d, v in enumerate(vectors):
        n = len(v)
        # w = entries | combination: entries = sum comb_i v_i, comb_d = 1
        w = list(v) + [field.zero] * d + [field.one]
        for piv, row in rows:
            f = w[piv]
            if not is_zero(f):
                w = [sub(x, mul(f, y)) for x, y in zip(w, row)] + w[len(row):]
        piv = next((c for c in range(n) if not is_zero(w[c])), None)
        if piv is None:
            return w[n:], [row[:n] for _, row in rows]
        inv = field.inv(w[piv])
        rows.append((piv, [mul(inv, x) for x in w]))
    raise InvalidInputError("the sequence ends with no linear dependency")


def _reduce_and_keep(p, kept, w, n):
    """One step of an incremental elimination over F_p (p) or Q (p = 0):
    the int row w reduced against kept, (pivot column, row) pairs of rows
    as long as w, each zero (mod p) in the pivot columns before it.  A
    residual nonzero (mod p) in its first n entries is kept, normalised,
    and None returned; otherwise the residual is.  Over F_p a kept row has
    pivot 1 and w becomes w - f*row; over Q a kept row is primitive and w
    becomes a*w - f*row, a the pivot."""
    for piv, row in kept:
        f = w[piv] % p if p else w[piv]
        if f:
            if p:
                w = [x - f * y for x, y in zip(w, row)]
            else:
                a = row[piv]
                w = [a * x - f * y for x, y in zip(w, row)]
    piv = next((c for c in range(n) if (w[c] % p if p else w[c])), None)
    if piv is None:
        return w
    if p:
        inv = pow(w[piv], p - 2, p)
        kept.append((piv, [inv * x % p for x in w]))
    else:
        kept.append((piv, _primitive(w)))
    return None


def int_dependency(field, lifted):
    """dependency over F_p and Q on lifted vectors, with nothing lowered: at
    the first v_d in the span of v_0..v_{d-1}, (comb, kept) with
    0 = sum comb_i v_i over i <= d as ints, comb_d nonzero (mod p), and kept
    the int rows of v_0..v_{d-1} in echelon form.

    v_d enters _reduce_and_keep as w = ints | 0 .. 0 | scale, entries =
    sum comb_i v_i, once each kept row has a zero coefficient for v_d."""
    p = field.int_modulus
    kept = []
    for d, (ints, scale) in enumerate(lifted):
        n = len(ints)
        for _, row in kept:
            row.append(0)
        w = _reduce_and_keep(p, kept, list(ints) + [0] * d + [scale], n)
        if w is not None:
            return w[n:], [row[:n] for _, row in kept]
    raise InvalidInputError("the sequence ends with no linear dependency")


def int_prefix_solve(field, rows, n):
    """The unique solution of the int system [a | b] in n unknowns, read
    from its first rows: (ints, den) with x = ints / den, or None.

    rows may be lazy, each at any nonzero scale of its own.  Each row is
    reduced against the rows kept so far as it is read (_reduce_and_keep).
    A row that reduces to 0 = b with b != 0 (mod p) makes the system
    inconsistent, and rows that run out before every unknown has a pivot
    leave one free: both give None.  Once all n unknowns have pivots no
    further row is read; the rows read have full column rank, so the whole
    system has at most the returned solution, and the caller decides
    whether the unread rows hold it too.  Over F_p den is 1 and the ints
    are reduced mod p; over Q back-substitution keeps one common
    denominator."""
    p = field.int_modulus
    kept = []
    rows = iter(rows)
    while len(kept) < n:
        w = next(rows, None)
        if w is None:
            return None
        w = _reduce_and_keep(p, kept, w, n)
        if w is not None and (w[n] % p if p else w[n]):
            return None
    # the last row kept is zero in every pivot column but its own, and each
    # earlier one in the pivot columns kept before it, so the unknowns come
    # out last row first
    x, den = [0] * n, 1
    for piv, row in reversed(kept):
        s = row[n] * den - sum(row[c] * v for c, v in enumerate(x) if v)
        if p:
            x[piv] = s % p
        else:
            a = row[piv]
            x = [a * v for v in x]
            x[piv] = s
            den *= a
            g = gcd(den, *x)
            if g > 1:
                x, den = [v // g for v in x], den // g
    return x, den


def reduce_vector(field, basis, pivots, vec):
    """Reduce vec against an rref basis; returns (residual, coefficients).

    The basis is a reduced row echelon basis with its pivot columns, as rref
    returns them.
    """
    v = list(vec)
    coeffs = []
    sub, mul = field.sub, field.mul
    for row, p in zip(basis, pivots):
        c = v[p]
        coeffs.append(c)
        if not field.is_zero(c):
            for j in range(len(v)):
                v[j] = sub(v[j], mul(c, row[j]))
    return v, coeffs


def in_row_space(basis, pivots, vec):
    """Whether vec lies in the row space of basis, an rref Matrix with these
    pivots.  Over F_p and Q vec is lifted and reduced as ints against the
    basis's lift."""
    field = basis.field
    lifted = basis.lifted
    if lifted is None:
        residual, _ = reduce_vector(field, basis._rows, pivots, vec)
        return all(field.is_zero(x) for x in residual)
    rows, a = lifted
    ints = field.lift_vector(vec)[0]
    p = field.int_modulus
    for row, piv in zip(rows, pivots):
        f = ints[piv] % p if p else ints[piv]
        if f:
            ints = ([x - f * y for x, y in zip(ints, row)] if a == 1
                    else [a * x - f * y for x, y in zip(ints, row)])
    return not any([x % p for x in ints] if p else ints)


def kernel(m):
    """Basis of the right kernel {v : m v = 0}, in canonical order, as a
    Matrix: for each free column c of the rref, 1 at c and minus the rref's
    entry in column c at each pivot.  Over F_p and Q that is read off the
    rref's lift, 1 being its scale, and nothing is lowered."""
    held = m._held()
    if not held:
        raise InvalidInputError("kernel of an empty matrix needs a column count")
    field, ncols = m.field, len(held[0])
    basis, piv = rref(rows=m)
    free = [c for c in range(ncols) if c not in piv]
    lifted = basis.lifted
    out = []
    if lifted is not None:
        rows, scale = lifted
        for fc in free:
            v = [0] * ncols
            v[fc] = scale
            for row, c in zip(rows, piv):
                v[c] = -row[fc]
            out.append(v)
        return Matrix(field, None, out, scale)
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for row, c in zip(basis._rows, piv):
            v[c] = field.neg(row[fc])
        out.append(v)
    return Matrix(field, out)


def solve(field, a, b):
    """One solution x of a x = b, free variables set to 0; None if inconsistent."""
    aug = [list(row) + [bb] for row, bb in zip(a, b)]
    basis, piv = rref(rows=Matrix(field, aug))
    n = len(a[0]) if a else 0
    z = field.zero
    x = [z] * n
    for row, p in zip(basis.rows, piv):
        if p == n:
            return None  # 0 = 1 row
        x[p] = row[n]
    return x


def inverse(field, rows):
    n = len(rows)
    aug = [list(r) + list(e) for r, e in zip(rows, identity(field, n))]
    basis, piv = rref(rows=Matrix(field, aug))
    if piv[:n] != list(range(n)):
        return None
    return [row[n:] for row in basis.rows]


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
