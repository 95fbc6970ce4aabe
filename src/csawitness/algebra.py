"""Finite-dimensional associative algebras given by structure constants.

An Algebra stores a sparse multiplication table over an exact field: for
basis indices i, j the product e_i e_j is the stored list of (k, scalar)
pairs.  Elements are coordinate tuples.  Everything is immutable after
construction.  Every algebra checks that its table is dim x dim with basis
indices in range(dim) and that its unit has dim coordinates; associativity
and the unit are verified when an untrusted algebra is built (fully up to
dimension 256, by seeded sampling above that).
"""

import random

from .errors import InvalidInputError, StructuralError, UnsupportedFieldError
from .fields import INTEGER_CORE, PrimeField, ExtensionField, Rationals
from .linalg import charpoly as mat_charpoly
from .linalg import kernel, rank, rref, solve
from .poly import Poly, poly_nth_root

_ASSOC_FULL_LIMIT = 256
_ASSOC_SAMPLES_PER_DIM = 10


def _mult_matrix(f, x, table):
    """The matrix with column j equal to sum_i x_i table[i][j]: table is the
    structure constants for x y, or their transpose for y x."""
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
                 "_closure_gens", "_preset_gens", "_flat", "_flat_scale", "_lift")

    def __init__(self, field, table, degree, labels=None, unit=None,
                 preset=None, _trusted=False, _preset_gens=False):
        dim = len(table)
        if degree * degree != dim:
            raise InvalidInputError(f"dimension {dim} is not degree^2 = {degree * degree}")
        self.field = field
        self.dim = dim
        self.degree = degree
        self.labels = tuple(labels) if labels else tuple(f"e{i}" for i in range(dim))
        self.table = tuple(tuple(tuple(entry) for entry in row) for row in table)
        self._check_shape(unit)
        self.preset = preset or {"kind": "explicit"}
        self._closure_gens = None
        # the preset constructors pass True: their algebra_generators are
        # known to generate (tests/test_algebra.py proves it for each family)
        self._preset_gens = _preset_gens
        # Over F_p and Q, mul walks the nonzero structure constants lifted to
        # ints over one scale, flattened per left index i into (j, k, c)
        # triples: e_i e_j has coordinate c / _flat_scale at k.  Over Q it
        # lifts its operands with _lift; over F_p the scalars are ints
        # already and _lift is None.
        self._flat = self._flat_scale = self._lift = None
        if isinstance(field, INTEGER_CORE):
            self._lift = None if field.int_modulus else field.lift_vector
            terms = [(i, j, k, c) for i, row in enumerate(self.table)
                     for j, entry in enumerate(row) for k, c in entry]
            consts, self._flat_scale = field.lift_vector([t[3] for t in terms])
            p = field.int_modulus
            flat = [[] for _ in range(dim)]
            for (i, j, k, _), c in zip(terms, consts):
                if c % p if p else c:
                    flat[i].append((j, k, c))
            self._flat = tuple(map(tuple, flat))
        if not _trusted:
            self._check_associativity()
        if unit is None:
            unit = self._find_unit()
        self.unit = tuple(unit)
        if not _trusted:
            self._check_unit()

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
        flat = self._flat
        if flat is not None:
            lift = self._lift
            if lift is not None:
                x, xscale = lift(x)
                y, yscale = lift(y)
            out = [0] * self.dim
            for i, xi in enumerate(x):
                if xi:
                    for j, k, c in flat[i]:
                        yj = y[j]
                        if yj:
                            out[k] += xi * yj * c
            if lift is None:
                # F_p: the scalars are ints already and every scale is 1
                p = self.field.int_modulus
                return tuple([v % p for v in out])
            return tuple(self.field.lower_vector(out, xscale * yscale * self._flat_scale))
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

    def closure_generators(self):
        """Coordinates of a unital generating set of A.  Cached.

        Tables built by make_matrix_algebra, make_quaternion and
        tensor_product (and extend_scalars of those) use their preset's
        candidates (algebra_generators) as they are.  On any other table
        they are kept only if the closure of span{1} under right
        multiplication by them is all of A; otherwise the whole basis is
        used, so a preset that does not match the structure constants
        cannot weaken a closure check.
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
        basis, pivots = rref(self.field, [self.unit])
        frontier = basis
        while frontier and len(basis) < self.dim:
            prods = [self.mul(v, g) for v in frontier for g in gens]
            old = set(pivots)
            basis, pivots = rref(self.field, basis + prods)
            frontier = [r for r, c in zip(basis, pivots) if c not in old]
        return len(basis) == self.dim

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

    def is_invertible(self, x):
        return rank(self.field, self.left_mult_matrix(x)) == self.dim

    def inverse(self, x):
        """Two-sided inverse of x, or None."""
        lm = self.left_mult_matrix(x)
        y = solve(self.field, lm, list(self.unit))
        if y is None:
            return None
        y = tuple(y)
        if self.mul(y, x) != self.unit:
            return None
        return y

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
    table = []
    for i in range(dim):
        r, c = divmod(i, n)
        row = []
        for j in range(dim):
            r2, c2 = divmod(j, n)
            row.append(((r * n + c2, one),) if c == r2 else ())
        table.append(row)
    labels = [f"E{r + 1}{c + 1}" for r in range(n) for c in range(n)]
    unit = [one if divmod(i, n)[0] == divmod(i, n)[1] else field.zero for i in range(dim)]
    return Algebra(field, table, n, labels=labels, unit=unit,
                   preset={"kind": "matrix", "n": n}, _trusted=True, _preset_gens=True)


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
    table = [[(t[(i, j)],) for j in range(4)] for i in range(4)]
    return Algebra(field, table, 2, labels=["1", "i", "j", "k"],
                   unit=[one, zero, zero, zero],
                   preset={"kind": "quaternion", "a": a, "b": b}, _preset_gens=True)


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
            table.append(row)
    labels = [f"{la}.{lb}" for la in A.labels for lb in B.labels]
    unit = [f.mul(ca, cb) for ca in A.unit for cb in B.unit]
    return Algebra(f, table, A.degree * B.degree, labels=labels, unit=unit,
                   preset={"kind": "tensor", "left": A, "right": B},
                   _preset_gens=A._preset_gens and B._preset_gens)


def extend_scalars(A, new_field, lift):
    """Same structure constants with scalars mapped through lift."""
    table = [[tuple((k, lift(c)) for k, c in entry) for entry in row]
             for row in A.table]
    unit = [lift(c) for c in A.unit]
    preset = {"kind": "explicit"}
    kind = A.preset.get("kind")
    if kind == "matrix":
        preset = dict(A.preset)
    elif kind == "quaternion":
        preset = {"kind": "quaternion", "a": lift(A.preset["a"]), "b": lift(A.preset["b"])}
    elif kind == "tensor":
        preset = {"kind": "tensor",
                  "left": extend_scalars(A.preset["left"], new_field, lift),
                  "right": extend_scalars(A.preset["right"], new_field, lift)}
    # scalars mapped by a field embedding: words in the generators still
    # span, so a trusted preset stays trusted
    return Algebra(new_field, table, A.degree, labels=A.labels, unit=unit,
                   preset=preset, _trusted=True, _preset_gens=A._preset_gens)


def algebra_generators(A):
    """A small unital generating set of A, read off the preset.

    A subspace I is a right ideal iff I g is contained in I for every g in a
    set whose words span A (the empty word being 1): then I w lies in I for
    every word w, hence I A lies in I.  Matrix presets give E_{i,i+1} and
    E_{i+1,i}, quaternions i and j, tensor products g(x)1 and 1(x)g over the
    generators g of each factor; anything else the whole basis.  The list is
    only as good as the preset; Algebra.closure_generators verifies it on
    tables that the preset constructors did not build.
    """
    kind = A.preset.get("kind")
    if kind == "matrix":
        n = A.preset["n"]
        idx = []
        for i in range(n - 1):
            idx.append(i * n + (i + 1))
            idx.append((i + 1) * n + i)
        return [A.basis_element(i) for i in idx] or [A.one]
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

    Computed as the exact n-th root of the characteristic polynomial of left
    multiplication on the n^2-dimensional algebra, which avoids any splitting
    field.  Failure of the root extraction means the algebra is not central
    simple as declared.
    """
    alg = x.algebra
    cp = mat_charpoly(alg.field, alg.left_mult_matrix(x.coords))
    g = Poly(alg.field, cp)
    try:
        return poly_nth_root(g, alg.degree)
    except Exception as exc:
        raise StructuralError(
            "regular characteristic polynomial is not an exact n-th power; "
            "the algebra is not central simple as declared") from exc


def reduced_trace(x):
    """Trd(x) = tr(L_x) / deg(A)."""
    alg = x.algebra
    f = alg.field
    lm = alg.left_mult_matrix(x.coords)
    t = f.zero
    for i in range(alg.dim):
        t = f.add(t, lm[i][i])
    return f.div(t, f.from_int(alg.degree))


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


def _quaternion_norm_search_fq(A):
    field = A.field
    a, b = A.preset["a"], A.preset["b"]
    for x in field.elements():
        for y in field.elements():
            for z in field.elements():
                if field.is_zero(x) and field.is_zero(y) and field.is_zero(z):
                    continue
                val = field.sub(field.mul(x, x),
                                field.add(field.mul(a, field.mul(y, y)),
                                          field.mul(b, field.mul(z, z))))
                if field.is_zero(val):
                    return x, y, z
    return None


def _quaternion_norm_search_q(A, bound):
    from fractions import Fraction
    (a, b), scale = A.field.lift_vector([A.preset["a"], A.preset["b"]])
    # integer solutions suffice by homogeneity; x^2 = a y^2 + b z^2 over Q
    # is scale x^2 = a y^2 + b z^2 on the lifted a, b
    for x in range(0, bound + 1):
        lhs = scale * x * x
        for y in range(-bound, bound + 1):
            rest = lhs - a * y * y
            for z in range(-bound, bound + 1):
                if rest == b * z * z and (x or y or z):
                    return Fraction(x), Fraction(y), Fraction(z)
    return None


def index_evidence(A, search_bound=50):
    """Look for a splitting witness (zero divisor).

    Over a finite field something is always found (every central simple
    algebra there is a matrix algebra).  Over Q, only quaternion presets are
    searched, by bounded-height isotropy of the ternary norm form; a negative
    answer is evidence only, never a proof of division.
    """
    if search_bound < 0:
        raise InvalidInputError(f"search bound must be >= 0, not {search_bound}")
    field = A.field
    if A.preset.get("kind") == "quaternion":
        if isinstance(field, (PrimeField, ExtensionField)):
            sol = _quaternion_norm_search_fq(A)
        elif isinstance(field, Rationals):
            sol = _quaternion_norm_search_q(A, search_bound)
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
            ker = kernel(field, lm)
            if ker:
                return SplitWitness(x, A.element(ker[0]))
            tried += 1
        if tried > A.dim + 10000:  # pragma: no cover
            raise StructuralError("no zero divisor found over a finite field")
        candidates = (A.random_element(rng) for _ in range(100))
