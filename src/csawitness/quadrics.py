"""Quadratic forms, projective points, and the exterior-square models of
2-plane geometry in 4-space.

Forms are stored upper-triangular (coefficients of x_i x_j for i <= j), which
is the characteristic-free encoding: it works verbatim over F_2, where a
symmetric matrix does not determine a quadratic form.  The polar form
b(u, v) = q(u+v) - q(u) - q(v) = sum u_i (B v)_i is read through one kernel,
QuadraticForm.polar (B v), and so is q on polynomial coordinates: with
coefficient vectors v_k, q(sum t^k v_k) = sum t^2k q(v_k)
+ sum_{k<l} t^(k+l) b(v_k, v_l), so eval_polys multiplies no polynomials.
The polar values also pick the auxiliary points of conic segments
(witness.connect_quadric_points) with no rank test: for distinct quadric
points a, b and a quadric point p = alpha a + beta b, q(p) = alpha beta
b(a, b), b(p, a) = beta b(a, b) and b(p, b) = alpha b(a, b), so b(p, a) and
b(p, b) both nonzero put p off the line through a and b.
points_on_quadric enumerates by fibers: over each prefix of the first n-1
coordinates q is a quadratic in the last one, expanded once per prefix.
"""

from .errors import InvalidFormError, InvalidInputError
from .fields import json_get
from .linalg import Matrix, mat_vec, rank, rref
from .poly import Poly


class QuadraticForm:
    __slots__ = ("field", "nvars", "coeffs")

    def __init__(self, field, nvars, coeffs):
        clean = {}
        for (i, j), c in dict(coeffs).items():
            if not (0 <= i <= j < nvars):
                raise InvalidInputError(f"bad monomial index ({i},{j})")
            if not field.is_zero(c):
                clean[(i, j)] = c
        if not clean:
            raise InvalidFormError("the zero form does not define a quadric")
        self.field = field
        self.nvars = nvars
        self.coeffs = dict(sorted(clean.items()))

    @classmethod
    def diagonal(cls, field, diag):
        return cls(field, len(diag), {(i, i): c for i, c in enumerate(diag)})

    def eval(self, vec):
        f = self.field
        acc = f.zero
        for (i, j), c in self.coeffs.items():
            acc = f.add(acc, f.mul(c, f.mul(vec[i], vec[j])))
        return acc

    def polar(self, v):
        """The vector B v with b(u, v) = sum u_i (B v)_i.  B is symmetric,
        with B_ij = B_ji = c_ij for i < j and B_ii = 2 c_ii, which is 0 in
        characteristic 2."""
        f = self.field
        add, mul = f.add, f.mul
        out = [f.zero] * self.nvars
        for (i, j), c in self.coeffs.items():
            if i == j:
                cv = mul(c, v[i])
                out[i] = add(out[i], add(cv, cv))
            else:
                out[i] = add(out[i], mul(c, v[j]))
                out[j] = add(out[j], mul(c, v[i]))
        return out

    def eval_polys(self, coord_polys):
        """q applied to a tuple of Poly coordinates: a Poly identity check.
        With v_k the vector of t^k coefficients, q(sum t^k v_k) =
        sum t^2k q(v_k) + sum_{k<l} t^(k+l) b(v_k, v_l)."""
        f = self.field
        deg = max(p.degree for p in coord_polys)
        vecs = [[p.coeff(k) for p in coord_polys] for k in range(deg + 1)]
        polars = [self.polar(v) for v in vecs[1:]]
        out = [f.zero] * (2 * deg + 1)
        for k, v in enumerate(vecs):
            out[2 * k] = f.add(out[2 * k], self.eval(v))
            if k < deg:
                for l, b in enumerate(mat_vec(Matrix(f, polars[k:]), v), k + 1):
                    out[k + l] = f.add(out[k + l], b)
        return Poly(coord_polys[0].field, out)

    def __eq__(self, other):
        return (isinstance(other, QuadraticForm) and other.field == self.field
                and other.nvars == self.nvars and other.coeffs == self.coeffs)

    def __repr__(self):
        terms = [f"{c}*x{i}x{j}" for (i, j), c in self.coeffs.items()]
        return "QuadraticForm(" + " + ".join(terms) + ")"

    def to_json(self):
        return {"nvars": self.nvars,
                "coeffs": {f"{i},{j}": self.field.to_json(c)
                           for (i, j), c in self.coeffs.items()}}

    @classmethod
    def from_json(cls, field, data):
        coeffs = {}
        for key, val in json_get(data, "coeffs", dict).items():
            try:
                i, j = (int(s) for s in key.split(","))
            except ValueError:
                raise InvalidInputError(f"bad monomial {key!r} in 'coeffs'") from None
            coeffs[(i, j)] = field.parse(val)
        return cls(field, json_get(data, "nvars", int), coeffs)


def normalize_point(field, vec):
    """Canonical projective representative: first nonzero coordinate is 1.
    None for the zero vector."""
    first = None
    for i, c in enumerate(vec):
        if not field.is_zero(c):
            first = i
            break
    if first is None:
        return None
    inv = field.inv(vec[first])
    return tuple(field.mul(inv, c) for c in vec)


def projective_points(field, nvars):
    """All points of P^(nvars-1) over a finite field, canonical reps,
    deterministic order."""
    import itertools
    elems = list(field.elements())

    def gen():
        for lead in range(nvars):
            tail = nvars - lead - 1
            for rest in itertools.product(elems, repeat=tail):
                yield tuple([field.zero] * lead + [field.one] + list(rest))
    return gen()


def points_on_quadric(form):
    """Canonical representatives of the F_q-points of the quadric, in the
    order of projective_points.  That order runs the last coordinate x
    fastest under each prefix of the first n-1, and the prefixes come in the
    order of P^(n-2) before the point (0, ..., 0, 1).  On a prefix, q is
    a x^2 + b x + c, expanded once and scanned over the field."""
    f = form.field
    add, mul, is_zero = f.add, f.mul, f.is_zero
    last = form.nvars - 1
    a = form.coeffs.get((last, last), f.zero)
    linear = [(i, c) for (i, j), c in form.coeffs.items() if i < j == last]
    rest = [(i, j, c) for (i, j), c in form.coeffs.items() if j < last]
    elems = list(f.elements())
    out = []
    for prefix in projective_points(f, last):
        b = f.zero
        for i, c in linear:
            b = add(b, mul(c, prefix[i]))
        c0 = f.zero
        for i, j, c in rest:
            c0 = add(c0, mul(c, mul(prefix[i], prefix[j])))
        for x in elems:
            if is_zero(add(mul(add(mul(a, x), b), x), c0)):
                out.append(prefix + (x,))
    if is_zero(a):
        out.append((f.zero,) * last + (f.one,))
    return out


# ---------------------------------------------------------------------------
# exterior-square models

# Plücker coordinate order for 2-planes in 4-space
PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def plucker_coordinates(field, w1, w2):
    """The six 2x2 minors of the 2x4 matrix with rows w1, w2."""
    out = []
    for i, j in PLUCKER_PAIRS:
        out.append(field.sub(field.mul(w1[i], w2[j]), field.mul(w1[j], w2[i])))
    return tuple(out)


def plucker_form(field):
    """The Plücker quadric p01 p23 - p02 p13 + p03 p12 on coordinates
    p01..p23.  Its zero locus is the decomposable locus in every
    characteristic (the honest wedge square is twice this polynomial)."""
    one = field.one
    return QuadraticForm(field, 6, {(0, 5): one, (1, 4): field.neg(one), (2, 3): one})


def plucker_quadric_value(field, six):
    """The literal wedge square w ^ w, read off on e_0123: twice the Plücker
    polynomial.  Zero exactly on decomposable vectors away from
    characteristic 2."""
    v = plucker_form(field).eval(six)
    return field.add(v, v)


def plucker_embed(field, rows):
    """A 2-dimensional subspace of F^4 (given by two spanning rows) to its
    projective Plücker point, together with the quadric value (always zero
    for a genuine subspace)."""
    if len(rows) != 2 or any(len(r) != 4 for r in rows):
        raise InvalidInputError("need two spanning vectors in F^4")
    basis, pivots = rref(rows=Matrix(field, rows))
    if len(pivots) != 2:
        raise InvalidInputError("vectors do not span a 2-dimensional subspace")
    coords = plucker_coordinates(field, *basis.rows)
    pt = normalize_point(field, coords)
    return pt, plucker_quadric_value(field, coords)


def alternating_form_check(field, omega):
    """Raise InvalidFormError unless omega is a nonsingular alternating
    form on F^4, the only size the models of 2-planes in 4-space take."""
    n = len(omega)
    if any(len(row) != n for row in omega):
        raise InvalidFormError("form matrix is not square")
    if n != 4:
        raise InvalidFormError(f"form matrix is {n}x{n}, not 4x4")
    for i in range(n):
        if not field.is_zero(omega[i][i]):
            raise InvalidFormError("form has nonzero diagonal")
        for j in range(n):
            if omega[i][j] != field.neg(omega[j][i]):
                raise InvalidFormError("form is not alternating")
    if rank(Matrix(field, omega)) < n:
        raise InvalidFormError("alternating form is singular")


def symp_quadric_model(field, omega):
    """The exterior-square quadric plus the hyperplane cut out by an
    alternating form on F^4.

    A 2-plane is totally isotropic for omega exactly when its Plücker point
    satisfies both the quadric and the linear form; the model therefore
    identifies the isotropic-plane variety with a quadric in P^4.
    Characteristic 2 is fine: only the form matrix is used.
    """
    omega = [list(r) for r in omega]
    alternating_form_check(field, omega)
    hyperplane = tuple(omega[i][j] for i, j in PLUCKER_PAIRS)
    return plucker_form(field), hyperplane


def enumerate_rref_subspaces(field, k, m):
    """All k-dimensional subspaces of F^m as canonical rref matrices,
    deterministic order."""
    import itertools
    elems = list(field.elements())
    out = []
    for pivots in itertools.combinations(range(m), k):
        free_positions = []
        for r in range(k):
            for c in range(m):
                if c <= pivots[r] or c in pivots:
                    continue
                free_positions.append((r, c))
        for values in itertools.product(elems, repeat=len(free_positions)):
            mat = [[field.zero] * m for _ in range(k)]
            for r, p in enumerate(pivots):
                mat[r][p] = field.one
            for (r, c), v in zip(free_positions, values):
                mat[r][c] = v
            out.append(tuple(tuple(row) for row in mat))
    return out


def isotropic_two_planes(field, omega):
    """All totally isotropic 2-planes of an alternating form on F^4."""
    alternating_form_check(field, omega)
    out = []
    for mat in enumerate_rref_subspaces(field, 2, 4):
        u, v = mat
        acc = field.zero
        for i in range(4):
            for j in range(4):
                acc = field.add(acc, field.mul(u[i], field.mul(omega[i][j], v[j])))
        if field.is_zero(acc):
            out.append(mat)
    return out
