"""Finite-dimensional associative algebras given by structure constants.

An Algebra stores a sparse multiplication table over an exact field: for
basis indices i, j the product e_i e_j is the stored list of (k, scalar)
pairs.  Elements are coordinate tuples.  Everything is immutable after
construction.  An algebra built from an explicit table checks that the
table is dim x dim with basis indices in range(dim) and that its unit has
dim coordinates, and verifies associativity and the unit (fully up to
dimension 256, by seeded sampling above that).  The preset constructors
and ideals.corner_algebra build their tables by formula, as tuples, and
skip these checks; tests/test_algebra.py runs them on every family.
"""

import random

from .errors import InvalidInputError, StructuralError, UnsupportedFieldError
from .fields import INTEGER_CORE, PrimeField, ExtensionField, Rationals
from .linalg import charpoly as mat_charpoly
from .linalg import (
    Matrix, dependency, int_dependency, intertwiner_mismatch, kernel, mat_vec,
    rank, rref, solve, transpose,
)
from .poly import Poly, poly_nth_root
from .quadrics import QuadraticForm, first_rational_point, quadric_points

_ASSOC_FULL_LIMIT = 256
_ASSOC_SAMPLES_PER_DIM = 10


def _mult_matrix(f, x, table):
    """The matrix with column j equal to sum_i x_i table[i][j]: table is the
    structure constants for x y, or their transpose for y x, built with the
    field methods over every field."""
    dim = len(table)
    add, mul = f.add, f.mul
    m = [[f.zero] * dim for _ in range(dim)]
    for xi, row in zip(x, table):
        if f.is_zero(xi):
            continue
        for j, entry in enumerate(row):
            for k, c in entry:
                m[k][j] = add(m[k][j], mul(xi, c))
    return m


class Algebra:
    __slots__ = ("field", "dim", "degree", "labels", "table", "unit", "preset",
                 "_closure_gens", "_preset_gens", "_flat", "_flat_scale", "_lift",
                 "_lifted_unit", "_symplectic", "_presentation", "__weakref__")

    def __init__(self, field, table, degree, labels=None, unit=None,
                 preset=None, _trusted=False, _preset_gens=False, _flat=None):
        dim = len(table)
        if degree * degree != dim:
            raise InvalidInputError(f"dimension {dim} is not degree^2 = {degree * degree}")
        self.field = field
        self.dim = dim
        self.degree = degree
        self.labels = tuple(labels) if labels else tuple(f"e{i}" for i in range(dim))
        # a trusted table comes from a constructor of this library and is
        # already a tuple of rows of tuple entries, of the right shape
        if _trusted:
            self.table = table
        else:
            self.table = tuple(tuple(tuple(entry) for entry in row) for row in table)
            self._check_shape(unit)
        self.preset = preset or {"kind": "explicit"}
        self._closure_gens = None
        # (Matrix, kind) of witness.default_symplectic_involution
        self._symplectic = None
        self._presentation = None  # ideals.module_presentation
        # the preset constructors pass True: their algebra_generators are
        # known to generate (tests/test_algebra.py proves it for each family)
        self._preset_gens = _preset_gens
        # Over F_p and Q, mul walks the nonzero structure constants lifted to
        # ints over one scale, flattened per left index i into (j, k, c)
        # triples: e_i e_j has coordinate c / _flat_scale at k.  Over Q it
        # lifts its operands with _lift; over F_p the scalars are ints
        # already and _lift is None.  A constructor that knows the triples
        # passes them as _flat, at scale 1 (make_matrix_algebra).
        flat = _flat
        self._flat = self._flat_scale = self._lift = self._lifted_unit = None
        if isinstance(field, INTEGER_CORE):
            self._lift = None if field.int_modulus else field.lift_vector
            self._flat, self._flat_scale = (flat, 1) if flat else self._flat_table()
        if not _trusted:
            self._check_associativity()
        if unit is None:
            unit = self._find_unit()
        self.unit = tuple(unit)
        if self._flat is not None:
            # the first power of every _int_powers sequence, lifted once
            ints, scale = self._lifted(self.unit)
            self._lifted_unit = tuple(ints), scale
        if not _trusted:
            self._check_unit()

    def _flat_table(self):
        """(_flat, _flat_scale) from the table, every constant lifted."""
        field = self.field
        terms = [(i, j, k, c) for i, row in enumerate(self.table)
                 for j, entry in enumerate(row) for k, c in entry]
        consts, scale = field.lift_vector([t[3] for t in terms])
        p = field.int_modulus
        flat = [[] for _ in range(self.dim)]
        for (i, j, k, _), c in zip(terms, consts):
            if c % p if p else c:
                flat[i].append((j, k, c))
        return tuple(map(tuple, flat)), scale

    # -- construction-time checks -------------------------------------------

    def _check_shape(self, unit):
        dim = self.dim
        for i, row in enumerate(self.table):
            if len(row) != dim:
                raise InvalidInputError(
                    f"row {i} of the structure constants has {len(row)} entries, not {dim}")
            for j, entry in enumerate(row):
                for pair in entry:
                    if len(pair) != 2:
                        raise InvalidInputError(
                            f"product e{i}*e{j} has a term that is not an (index, scalar) pair")
                    k = pair[0]
                    if not isinstance(k, int) or not 0 <= k < dim:
                        raise InvalidInputError(
                            f"product e{i}*e{j} names basis index {k!r}, outside 0..{dim - 1}")
        if unit is not None and len(unit) != dim:
            raise InvalidInputError(f"unit has {len(unit)} coordinates, not {dim}")

    def _check_associativity(self):
        f = self.field
        dim = self.dim
        if dim <= _ASSOC_FULL_LIMIT:
            triples = ((i, j, k) for i in range(dim) for j in range(dim)
                       for k in range(dim))
        else:
            rng = random.Random(0)
            triples = ((rng.randrange(dim), rng.randrange(dim), rng.randrange(dim))
                       for _ in range(_ASSOC_SAMPLES_PER_DIM * dim))
        for i, j, k in triples:
            lhs = {}
            for l, c in self.table[i][j]:
                for m, d in self.table[l][k]:
                    v = f.add(lhs.get(m, f.zero), f.mul(c, d))
                    if f.is_zero(v):
                        lhs.pop(m, None)
                    else:
                        lhs[m] = v
            rhs = {}
            for l, c in self.table[j][k]:
                for m, d in self.table[i][l]:
                    v = f.add(rhs.get(m, f.zero), f.mul(c, d))
                    if f.is_zero(v):
                        rhs.pop(m, None)
                    else:
                        rhs[m] = v
            if lhs != rhs:
                raise InvalidInputError(
                    f"structure constants are not associative at basis triple ({i},{j},{k})")

    def _find_unit(self):
        f = self.field
        dim = self.dim
        rows, rhs = [], []
        for j in range(dim):
            for m in range(dim):
                # sum_i x_i (e_i e_j)_m = delta_{jm} and sum_i x_i (e_j e_i)_m = delta_{jm}
                left = [f.zero] * dim
                right = [f.zero] * dim
                for i in range(dim):
                    for k, c in self.table[i][j]:
                        if k == m:
                            left[i] = f.add(left[i], c)
                    for k, c in self.table[j][i]:
                        if k == m:
                            right[i] = f.add(right[i], c)
                want = f.one if j == m else f.zero
                rows.append(left)
                rhs.append(want)
                rows.append(right)
                rhs.append(want)
        x = solve(f, rows, rhs)
        if x is None:
            raise InvalidInputError("algebra has no unit element")
        return x

    def _check_unit(self):
        for i in range(self.dim):
            e = self.basis_coords(i)
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                raise InvalidInputError("stored unit is not a two-sided unit")

    # -- raw coordinate operations -------------------------------------------

    def basis_coords(self, i):
        f = self.field
        return tuple(f.one if t == i else f.zero for t in range(self.dim))

    def zero_coords(self):
        return (self.field.zero,) * self.dim

    def mul(self, x, y):
        """The product x y of two coordinate tuples.

        Over F_p and Q this is one integer loop over the flat table.  Over Q
        each operand is lifted once to ints over the lcm of its denominators,
        the terms x_i y_j c are summed as exact ints, and each output
        coordinate is lowered once, as the one canonical Fraction equal to
        the sum over the product of the three scales: the result is exact
        and equal to the Fraction path's, with no Fraction arithmetic on the
        way.  Over F_p the scalars are ints already and each coordinate is
        reduced mod p once at the end; every partial sum is congruent to the
        exact one, so the result is the canonical product for any int
        inputs congruent to x and y.  A literal 0 is skipped, since it adds
        nothing.
        """
        if self._flat is not None:
            x, xscale = self._lifted(x)
            y, yscale = self._lifted(y)
            return tuple(self.field.lower_vector(self._int_mul(x, y),
                                                 xscale * yscale * self._flat_scale))
        f = self.field
        add, mulf, is_zero = f.add, f.mul, f.is_zero
        out = [f.zero] * self.dim
        table = self.table
        ys = [(j, yj) for j, yj in enumerate(y) if not is_zero(yj)]
        for i, xi in enumerate(x):
            if is_zero(xi):
                continue
            ti = table[i]
            for j, yj in ys:
                c = mulf(xi, yj)
                for k, ck in ti[j]:
                    out[k] = add(out[k], mulf(c, ck))
        return tuple(out)

    # -- the integer core (only when _flat is set: over F_p and Q) ------------

    def _lifted(self, x):
        """(ints, scale) with x = ints / scale."""
        return (x, 1) if self._lift is None else self._lift(x)

    def _int_mul(self, x, y):
        """The ints of x y for lifted x and y, at the product of their scales
        and _flat_scale."""
        flat = self._flat
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if xi:
                for j, k, c in flat[i]:
                    yj = y[j]
                    if yj:
                        out[k] += xi * yj * c
        return out

    def _int_mult_matrix(self, x, scale, right=False):
        """(int rows, scale) of left multiplication by x = ints / scale, or
        of right multiplication if right, walking the flat table:
        L[k][j] += x_i c and R[k][i] += x_j c over (j, k, c) in _flat[i]."""
        m = [[0] * self.dim for _ in range(self.dim)]
        for i, terms in enumerate(self._flat):
            if right:
                for j, k, c in terms:
                    xj = x[j]
                    if xj:
                        m[k][i] += xj * c
            elif x[i]:
                xi = x[i]
                for j, k, c in terms:
                    m[k][j] += xi * c
        return m, scale * self._flat_scale

    def _int_powers(self, x, xscale):
        """Over F_p and Q, the powers 1, x, x^2, ... of x = ints / xscale as
        (ints, scale) pairs with x^k = ints / scale, every product an int
        one (reduced mod p over F_p), from the unit lifted once per
        algebra."""
        p = self.field.int_modulus
        cur, scale = self._lifted_unit
        step = xscale * self._flat_scale
        while True:
            yield cur, scale
            cur = self._int_mul(cur, x)
            if p:
                cur = [c % p for c in cur]
            scale *= step

    def add(self, x, y):
        f = self.field
        return tuple(f.add(a, b) for a, b in zip(x, y))

    def sub(self, x, y):
        f = self.field
        return tuple(f.sub(a, b) for a, b in zip(x, y))

    def smul(self, c, x):
        f = self.field
        return tuple(f.mul(c, a) for a in x)

    def left_mult_matrix(self, x):
        """Matrix of y -> x y on the coordinate basis (rows act on columns)."""
        return _mult_matrix(self.field, x, self.table)

    def right_mult_matrix(self, x):
        """Matrix of y -> y x."""
        return _mult_matrix(self.field, x, tuple(zip(*self.table)))

    def left_minus_right_matrix(self, x, y):
        """Matrix of u -> x u - u y, by the field methods over every field
        (commutator_rows holds it as int rows over F_p and Q)."""
        sub = self.field.sub
        return [[sub(a, b) for a, b in zip(r, q)]
                for r, q in zip(self.left_mult_matrix(x), self.right_mult_matrix(y))]

    def commutator_rows(self, pairs):
        """The rows of the conditions x u = u y, one block per (x, y) in
        pairs, as a Matrix for linalg's rank and kernel (the intertwiner
        spaces of witness.py are their kernels).  Over F_p and Q it holds
        int rows only: each block is L_x s_y - R_y s_x, x and y lifted once
        (once for both when x = y, where the scales cancel), so it is the
        block of conditions times a nonzero int of its own, which neither
        rank nor kernel sees.  Over other fields it is the stacked
        left_minus_right_matrix."""
        if self._flat is None:
            return Matrix(self.field, [row for x, y in pairs
                                       for row in self.left_minus_right_matrix(x, y)])
        rows = []
        for x, y in pairs:
            lx = self._lifted(x)
            ly = lx if y == x else self._lifted(y)
            (lm, sl), (rm, sr) = self._int_mult_matrix(*lx), self._int_mult_matrix(*ly, right=True)
            if sl == sr:
                rows += [[a - b for a, b in zip(r, q)] for r, q in zip(lm, rm)]
            else:
                rows += [[a * sr - b * sl for a, b in zip(r, q)] for r, q in zip(lm, rm)]
        return Matrix(self.field, None, rows)

    def centralizer_dim(self, x):
        """dim of the centralizer {u : x u = u x}: dim A minus the rank of
        u -> x u - u x, taken over F_p and Q on the int rows L_x - R_x, both
        at the scale of x, with no entry lowered."""
        return self.dim - rank(self.commutator_rows([(x, x)]))

    def sandwich_matrix(self, u, mat, v):
        """The Matrix of y -> u (mat y) v, for the Matrix mat.  Over F_p and
        Q u, v and the columns of mat are read lifted, each column is two
        int products, and nothing is lowered."""
        if self._flat is None:
            return Matrix(self.field, list(zip(*[self.mul(self.mul(u, col), v)
                                                 for col in zip(*mat.rows)])))
        (u, su), (v, sv) = self._lifted(u), self._lifted(v)
        rows, sm = mat.lifted
        images = [self._int_mul(self._int_mul(u, col), v) for col in zip(*rows)]
        return Matrix(self.field, None, [list(r) for r in zip(*images)],
                      su * sm * sv * self._flat_scale ** 2)

    def anti_automorphism_mismatch(self, mat):
        """The first (i, g), over g in closure_generators() and then basis
        indices i, with sigma(e_i g) != sigma(g) sigma(e_i) for the linear
        map sigma of the Matrix mat; None if there is none.  For each g this
        is mat R_g = L_sigma(g) mat, whose column i is that equation
        (linalg.intertwiner_mismatch); over F_p and Q R_g and L_sigma(g) are
        the int multiplication matrices, and nothing is lowered.
        """
        f = self.field
        for g in self.closure_generators():
            sigma_g = mat_vec(mat, g)
            if self._flat is None:
                r_g = Matrix(f, self.right_mult_matrix(g))
                l_sigma_g = Matrix(f, self.left_mult_matrix(sigma_g))
            else:
                r_g = Matrix(f, None, *self._int_mult_matrix(*self._lifted(g), right=True))
                l_sigma_g = Matrix(f, None, *self._int_mult_matrix(*self._lifted(sigma_g)))
            i = intertwiner_mismatch(mat, r_g, l_sigma_g)
            if i is not None:
                return i, g
        return None

    def closure_generators(self):
        """Coordinates of a unital generating set of A.  Cached.

        Tables built by make_matrix_algebra, make_quaternion and
        tensor_product use their preset's candidates (algebra_generators)
        as they are.  On any other table they are kept only if the closure
        of span{1} under right multiplication by them is all of A;
        otherwise the whole basis is used, so a preset that does not match
        the structure constants cannot weaken a closure check.
        """
        if self._closure_gens is None:
            gens = [g.coords for g in algebra_generators(self)]
            if not self._preset_gens and not self._right_closure_is_everything(gens):
                gens = [self.basis_coords(i) for i in range(self.dim)]
            self._closure_gens = tuple(gens)
        return self._closure_gens

    def _right_closure_is_everything(self, gens):
        # Grow span{1} by right products with gens.  Each round multiplies
        # only the rref rows with new pivots: they span the new part modulo
        # the old span, so every direction is multiplied exactly once.
        basis, pivots = rref(rows=Matrix(self.field, [self.unit]))
        frontier = basis.rows
        while frontier and len(pivots) < self.dim:
            prods = [self.mul(v, g) for v in frontier for g in gens]
            old = set(pivots)
            basis, pivots = rref(rows=Matrix(self.field, basis.rows + prods))
            frontier = [r for r, c in zip(basis.rows, pivots) if c not in old]
        return len(pivots) == self.dim

    # -- elements -------------------------------------------------------------

    def element(self, coords):
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise InvalidInputError("coordinate length does not match the dimension")
        return AlgebraElement(self, coords)

    def basis_element(self, i):
        return AlgebraElement(self, self.basis_coords(i))

    @property
    def zero(self):
        return AlgebraElement(self, self.zero_coords())

    @property
    def one(self):
        return AlgebraElement(self, self.unit)

    def from_scalar(self, c):
        return AlgebraElement(self, self.smul(c, self.unit))

    def random_element(self, rng):
        f = self.field
        return AlgebraElement(self, tuple(f.random(rng) for _ in range(self.dim)))

    def inverse(self, x):
        """Two-sided inverse of x, or None, from the first dependency
        c'_0 + c'_1 x + ... + c'_d x^d = 0 of 1, x, x^2, ... (c'_d != 0).
        Then x (c'_1 + c'_2 x + ... + c'_d x^(d-1)) = -c'_0.  If c'_0 = 0,
        x times that polynomial, which is nonzero because 1, ..., x^(d-1)
        are independent, is 0, so x is a zero divisor and has no inverse;
        otherwise the polynomial over -c'_0 is the inverse.  The check
        y x = 1 is kept.

        The dependency is linalg.dependency on the powers, and over F_p and
        Q linalg.int_dependency on the int powers (_int_powers); no rref
        basis is built.  Over F_p and Q a zero divisor returns None with
        nothing lowered, and the inverse is summed from the kept powers as
        ints at the scale of x^(d-1), checked against the unit as an int
        product with x, and lowered once."""
        f = self.field
        powers = []
        if self._flat is None:
            comb, _ = dependency(f, _recorded(_powers(self, x), powers))
            if f.is_zero(comb[0]):
                return None
            scale = f.neg(f.inv(comb[0]))
            y = tuple(mat_vec(Matrix(f, transpose(powers[:-1])),
                              [f.mul(scale, a) for a in comb[1:]]))
            return y if self.mul(y, x) == self.unit else None
        (x, xs), p = self._lifted(x), f.int_modulus
        comb, _ = int_dependency(f, _recorded(self._int_powers(x, xs), powers))
        if not (comb[0] % p if p else comb[0]):
            return None
        top = powers[len(comb) - 2][1]   # the scale of x^(d-1)
        acc = [0] * self.dim
        for c, (ints, scale) in zip(comb[1:], powers):
            if c:
                c *= top // scale
                acc = [a + c * v for a, v in zip(acc, ints)]
        y, ys = [-a for a in acc], comb[0] * top
        # y x = 1: the ints of y x over ys xs t against those of the unit
        unit, us = self._lifted_unit
        yx_scale = ys * xs * self._flat_scale
        diff = [a * us - b * yx_scale for a, b in zip(self._int_mul(y, x), unit)]
        if any([d % p for d in diff] if p else diff):
            return None
        return tuple(f.lower_vector(y, ys))

    def __eq__(self, other):
        return (isinstance(other, Algebra) and other.field == self.field
                and other.table == self.table and other.unit == self.unit)

    def __hash__(self):
        return hash((self.field, self.dim, self.unit))

    def __repr__(self):
        return f"Algebra(dim={self.dim}, degree={self.degree}, preset={self.preset.get('kind')})"


class AlgebraElement:
    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = tuple(coords)

    def __add__(self, other):
        return AlgebraElement(self.algebra, self.algebra.add(self.coords, other.coords))

    def __sub__(self, other):
        return AlgebraElement(self.algebra, self.algebra.sub(self.coords, other.coords))

    def __neg__(self):
        f = self.algebra.field
        return AlgebraElement(self.algebra, tuple(f.neg(c) for c in self.coords))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise InvalidInputError("elements live in different algebras")
            return AlgebraElement(self.algebra, self.algebra.mul(self.coords, other.coords))
        return AlgebraElement(self.algebra, self.algebra.smul(other, self.coords))

    def __rmul__(self, scalar):
        return AlgebraElement(self.algebra, self.algebra.smul(scalar, self.coords))

    def __pow__(self, n):
        if n < 0:
            raise InvalidInputError("negative powers need an explicit inverse")
        result = self.algebra.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self):
        f = self.algebra.field
        return all(f.is_zero(c) for c in self.coords)

    def inverse(self):
        inv = self.algebra.inverse(self.coords)
        if inv is None:
            raise InvalidInputError("element is not invertible")
        return AlgebraElement(self.algebra, inv)

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and other.algebra == self.algebra
                and other.coords == self.coords)

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        nz = [(self.algebra.labels[i], c) for i, c in enumerate(self.coords)
              if not self.algebra.field.is_zero(c)]
        if not nz:
            return "0"
        return " + ".join(f"{c}*{lab}" for lab, c in nz)


def poly_eval_at_element(f, x):
    """Evaluate a Poly at an algebra element by Horner's rule."""
    alg = x.algebra
    acc = alg.zero
    for c in reversed(f.coeffs):
        acc = acc * x + alg.from_scalar(c)
    return acc


def _recorded(vectors, seen):
    """vectors, each appended to seen as it is read."""
    for v in vectors:
        seen.append(v)
        yield v


def _powers(alg, x):
    cur = alg.unit
    while True:
        yield cur
        cur = alg.mul(cur, x)


def matrix_of(A, coords):
    """Read coordinates of a matrix-preset algebra element as an n x n array."""
    if A.preset.get("kind") != "matrix":
        raise InvalidInputError("matrix view needs a matrix preset")
    n = A.preset["n"]
    return [[coords[r * n + c] for c in range(n)] for r in range(n)]


def coords_of_matrix(A, m):
    if A.preset.get("kind") != "matrix":
        raise InvalidInputError("matrix view needs a matrix preset")
    n = A.preset["n"]
    return tuple(m[r][c] for r in range(n) for c in range(n))


# ---------------------------------------------------------------------------
# presets


def make_matrix_algebra(field, n):
    """M_n(field) on the matrix-unit basis E_11, E_12, ..., E_nn."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    dim = n * n
    one = field.one
    # the n^3 nonzero products E_rc E_cs = E_rs; every other one is zero.
    # flat holds them as the (j, k, c) triples of Algebra._flat, E_rc at
    # index r n + c and each constant the int 1, so the int core need not
    # walk the table
    table = []
    for r in range(n):
        for c in range(n):
            row = [()] * dim
            for s in range(n):
                row[c * n + s] = ((r * n + s, one),)
            table.append(tuple(row))
    table = tuple(table)
    flat = tuple(tuple((c * n + s, r * n + s, 1) for s in range(n))
                 for r in range(n) for c in range(n))
    labels = [f"E{r + 1}{c + 1}" for r in range(n) for c in range(n)]
    unit = [one if divmod(i, n)[0] == divmod(i, n)[1] else field.zero for i in range(dim)]
    return Algebra(field, table, n, labels=labels, unit=unit,
                   preset={"kind": "matrix", "n": n}, _trusted=True, _preset_gens=True,
                   _flat=flat)


def make_quaternion(field, a, b):
    """The quaternion algebra (a, b): i^2 = a, j^2 = b, ij = k = -ji."""
    if field.char == 2:
        raise UnsupportedFieldError("quaternion presets need characteristic != 2")
    if field.is_zero(a) or field.is_zero(b):
        raise InvalidInputError("quaternion parameters must be nonzero")
    one, zero = field.one, field.zero
    na, nb = field.neg(a), field.neg(b)
    nab = field.neg(field.mul(a, b))
    # rows: products of basis 1, i, j, k
    t = {
        (0, 0): (0, one), (0, 1): (1, one), (0, 2): (2, one), (0, 3): (3, one),
        (1, 0): (1, one), (1, 1): (0, a), (1, 2): (3, one), (1, 3): (2, a),
        (2, 0): (2, one), (2, 1): (3, field.neg(one)), (2, 2): (0, b), (2, 3): (1, nb),
        (3, 0): (3, one), (3, 1): (2, na), (3, 2): (1, b), (3, 3): (0, nab),
    }
    table = tuple(tuple((t[(i, j)],) for j in range(4)) for i in range(4))
    return Algebra(field, table, 2, labels=["1", "i", "j", "k"],
                   unit=[one, zero, zero, zero],
                   preset={"kind": "quaternion", "a": a, "b": b}, _trusted=True,
                   _preset_gens=True)


def tensor_product(A, B):
    """A tensor B on the product basis, lexicographic (A index major)."""
    if A.field != B.field:
        raise InvalidInputError("tensor factors must share the base field")
    f = A.field
    dim_b = B.dim
    table = []
    for i1 in range(A.dim):
        for i2 in range(B.dim):
            row = []
            for j1 in range(A.dim):
                for j2 in range(B.dim):
                    entries = []
                    for k1, c1 in A.table[i1][j1]:
                        for k2, c2 in B.table[i2][j2]:
                            entries.append((k1 * dim_b + k2, f.mul(c1, c2)))
                    row.append(tuple(entries))
            table.append(tuple(row))
    labels = [f"{la}.{lb}" for la in A.labels for lb in B.labels]
    unit = [f.mul(ca, cb) for ca in A.unit for cb in B.unit]
    return Algebra(f, tuple(table), A.degree * B.degree, labels=labels, unit=unit,
                   preset={"kind": "tensor", "left": A, "right": B}, _trusted=True,
                   _preset_gens=A._preset_gens and B._preset_gens)


def algebra_generators(A):
    """A small unital generating set of A, read off the preset.

    A subspace I is a right ideal iff I g is contained in I for every g in a
    set whose words span A (the empty word being 1): then I w lies in I for
    every word w, hence I A lies in I.  Matrix presets with n >= 2 give the
    shift N = sum E_{i,i+1} and its transpose N^T = sum E_{i+1,i} (E12 and
    E21 at n = 2): N N^T = 1 - E_nn and N^a = sum E_{i,i+a}, so
    N^a (1 - N N^T) (N^T)^b = E_{n-a,n-b} for 0 <= a, b < n, and every
    matrix unit is a combination of words.  Quaternions give i and j,
    tensor products g(x)1 and 1(x)g over the generators g of each factor;
    anything else the whole basis.  The list is only as good as the preset;
    Algebra.closure_generators verifies it on tables that the preset
    constructors did not build.
    """
    kind = A.preset.get("kind")
    if kind == "matrix":
        n = A.preset["n"]
        if n == 1:
            return [A.one]
        f = A.field
        shifts = [[f.zero] * A.dim, [f.zero] * A.dim]
        for i in range(n - 1):
            shifts[0][i * n + i + 1] = shifts[1][(i + 1) * n + i] = f.one
        return [A.element(s) for s in shifts]
    if kind == "quaternion":
        return [A.basis_element(1), A.basis_element(2)]
    if kind == "tensor":
        left, right = A.preset["left"], A.preset["right"]
        dim_b = right.dim
        gens = []
        for g in algebra_generators(left):
            coords = [A.field.zero] * A.dim
            for i, c in enumerate(g.coords):
                for j, u in enumerate(right.unit):
                    coords[i * dim_b + j] = A.field.mul(c, u)
            gens.append(A.element(coords))
        for g in algebra_generators(right):
            coords = [A.field.zero] * A.dim
            for i, c in enumerate(left.unit):
                for j, u in enumerate(g.coords):
                    coords[i * dim_b + j] = A.field.mul(c, u)
            gens.append(A.element(coords))
        return gens
    return [A.basis_element(i) for i in range(A.dim)]


def certified_exponent_divides_2(A):
    """True when the preset shape forces the Brauer class to have order
    dividing 2: matrix algebras, quaternions, and tensor products of such."""
    kind = A.preset.get("kind")
    if kind == "matrix":
        return True
    if kind == "quaternion":
        return True
    if kind == "tensor":
        return (certified_exponent_divides_2(A.preset["left"])
                and certified_exponent_divides_2(A.preset["right"]))
    return False


# ---------------------------------------------------------------------------
# reduced characteristic polynomial


def reduced_char_poly(x):
    """The degree-n reduced characteristic polynomial of x.

    On a matrix preset that make_matrix_algebra built, this is the
    characteristic polynomial of the n x n matrix of x.  Otherwise it is
    the exact n-th root of the characteristic polynomial of left
    multiplication on the n^2-dimensional algebra, which avoids any
    splitting field.  Failure of the root extraction means the algebra is
    not central simple as declared.
    """
    alg = x.algebra
    # _preset_gens: the table is the constructor's matrix-unit table, not a
    # table that only claims the preset
    if alg.preset.get("kind") == "matrix" and alg._preset_gens:
        return Poly(alg.field, mat_charpoly(alg.field, matrix_of(alg, x.coords)))
    cp = mat_charpoly(alg.field, alg.left_mult_matrix(x.coords))
    g = Poly(alg.field, cp)
    try:
        return poly_nth_root(g, alg.degree)
    except Exception as exc:
        raise StructuralError(
            "regular characteristic polynomial is not an exact n-th power; "
            "the algebra is not central simple as declared") from exc


# ---------------------------------------------------------------------------
# index evidence


class SplitWitness:
    """A verified pair (x, y) of nonzero elements with x*y = 0."""

    def __init__(self, x, y):
        if x.is_zero() or y.is_zero() or not (x * y).is_zero():
            raise StructuralError("invalid zero-divisor pair")
        self.x = x
        self.y = y

    def __repr__(self):
        return f"SplitWitness({self.x!r}, {self.y!r})"


class NoWitnessFound:
    """Negative search result; NOT a proof that the algebra is division."""

    def __init__(self, bound):
        self.bound = bound

    def __repr__(self):
        return f"NoWitnessFound(bound={self.bound})"


def index_evidence(A, search_bound=50):
    """Look for a splitting witness (zero divisor).

    Over a finite field something is always found (every central simple
    algebra there is a matrix algebra).  Over Q, only quaternion presets are
    searched, by bounded-height isotropy of the ternary norm form; a negative
    answer is evidence only, never a proof of division.  The first point
    (x, y, z) of the norm conic <1, -a, -b> in quadrics' search of its field
    kind gives u = x + y i + z j with u ubar = 0.
    """
    if search_bound < 0:
        raise InvalidInputError(f"search bound must be >= 0, not {search_bound}")
    field = A.field
    if A.preset.get("kind") == "quaternion":
        a, b = A.preset["a"], A.preset["b"]
        conic = QuadraticForm.diagonal(field, [field.one, field.neg(a), field.neg(b)])
        if isinstance(field, (PrimeField, ExtensionField)):
            sol = next(quadric_points(conic), None)
        elif isinstance(field, Rationals):
            sol = first_rational_point(conic, search_bound)
        else:
            raise UnsupportedFieldError("unsupported field for quaternion search")
        if sol is None:
            return NoWitnessFound(search_bound)
        x, y, z = sol
        u = A.element((x, y, z, field.zero))
        ubar = A.element((x, field.neg(y), field.neg(z), field.zero))
        return SplitWitness(u, ubar)
    if not isinstance(field, (PrimeField, ExtensionField)):
        raise UnsupportedFieldError("general zero-divisor search needs a finite field")
    if A.degree == 1:
        raise InvalidInputError("degree-1 algebras are already split fields")
    # basis elements first, then seeded random elements; a singular left
    # multiplication yields the partner from its kernel
    rng = random.Random(0)
    candidates = (A.basis_element(i) for i in range(A.dim))
    tried = 0
    while True:
        for x in candidates:
            if x.is_zero():
                continue
            lm = A.left_mult_matrix(x.coords)
            ker = kernel(Matrix(field, lm)).rows
            if ker:
                return SplitWitness(x, A.element(ker[0]))
            tried += 1
        if tried > A.dim + 10000:  # pragma: no cover
            raise StructuralError("no zero divisor found over a finite field")
        candidates = (A.random_element(rng) for _ in range(100))
