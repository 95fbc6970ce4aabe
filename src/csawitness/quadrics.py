"""Quadratic forms, projective points, and the exterior-square models of
2-plane geometry in 4-space.

Forms are stored upper-triangular (coefficients of x_i x_j for i <= j), which
is the characteristic-free encoding: it works verbatim over F_2, where a
symmetric matrix does not determine a quadratic form.
"""

from .errors import InvalidFormError, InvalidInputError
from .fields import json_get
from .linalg import rank, rref
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

    def bilinear(self, u, v):
        """b(u, v) = q(u+v) - q(u) - q(v); alternating in characteristic 2."""
        f = self.field
        acc = f.zero
        for (i, j), c in self.coeffs.items():
            acc = f.add(acc, f.mul(c, f.add(f.mul(u[i], v[j]), f.mul(u[j], v[i]))))
        return acc

    def eval_polys(self, coord_polys):
        """q applied to a tuple of Poly coordinates: a Poly identity check."""
        base = coord_polys[0].field
        acc = Poly.zero(base)
        for (i, j), c in self.coeffs.items():
            acc = acc + (coord_polys[i] * coord_polys[j]).scale(c)
        return acc

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
    """Canonical representatives of the F_q-points of the quadric."""
    return [p for p in projective_points(form.field, form.nvars)
            if form.field.is_zero(form.eval(p))]


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
    basis, _ = rref(field, rows)
    if len(basis) != 2:
        raise InvalidInputError("vectors do not span a 2-dimensional subspace")
    coords = plucker_coordinates(field, basis[0], basis[1])
    pt = normalize_point(field, coords)
    return pt, plucker_quadric_value(field, coords)


def alternating_form_check(field, omega):
    n = len(omega)
    if any(len(row) != n for row in omega):
        raise InvalidFormError("form matrix is not square")
    for i in range(n):
        if not field.is_zero(omega[i][i]):
            raise InvalidFormError("form has nonzero diagonal")
        for j in range(n):
            if omega[i][j] != field.neg(omega[j][i]):
                raise InvalidFormError("form is not alternating")
    if rank(field, omega) < n:
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
