"""Involutions of the first kind on structure-constant algebras.

An involution is stored by the matrix of its linear action on the coordinate
basis plus an orthogonal/symplectic tag.  Construction verifies exactly that
the map has order two, that it is an anti-automorphism (checked on 1 and on
the products e_i g of basis elements with the verified generators of
Algebra.closure_generators, which implies it on every basis pair), and that
the tag matches the fixed-space dimension.  Construction and involution_type
read the tag off dim Sym through one helper, and sym_dimension and sym_basis
build sigma - 1 through one helper.  Characteristic 2 is rejected
throughout: the orthogonal/symplectic dichotomy needs 2 invertible.
"""

from .algebra import (
    AlgebraElement, coords_of_matrix, matrix_of, poly_eval_at_element,
    reduced_char_poly,
)
from .errors import (
    InvalidFormError, InvalidInputError, StructuralError, UnsupportedFieldError,
)
from .linalg import (
    identity, inverse, kernel, lift_matrix, mat_mul, mat_vec, rank, rref,
    transpose,
)
from .poly import poly_nth_root

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"


class Involution:
    __slots__ = ("algebra", "mat", "kind", "_lifted")

    def __init__(self, algebra, mat, kind):
        self.algebra = algebra
        self.mat = tuple(tuple(r) for r in mat)
        self.kind = kind
        self._lifted = lift_matrix(algebra.field, self.mat)

    def apply_coords(self, coords):
        return tuple(mat_vec(self.algebra.field, self.mat, coords, self._lifted))

    def __call__(self, x):
        if isinstance(x, AlgebraElement):
            return AlgebraElement(self.algebra, self.apply_coords(x.coords))
        return self.apply_coords(x)

    def __eq__(self, other):
        return (isinstance(other, Involution) and other.algebra == self.algebra
                and other.mat == self.mat)

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"Involution({self.kind}, dim={self.algebra.dim})"


def _require_odd_char(field):
    if field.char == 2:
        raise UnsupportedFieldError("involutions are not supported in characteristic 2")


def _minus_identity(f, mat):
    """mat - 1, whose kernel is the fixed space of mat."""
    return [[f.sub(c, f.one if i == j else f.zero) for j, c in enumerate(row)]
            for i, row in enumerate(mat)]


def sym_dimension(algebra, mat):
    """dim of the fixed space of the linear map given by mat."""
    return algebra.dim - rank(algebra.field, _minus_identity(algebra.field, mat))


def sym_basis(sigma):
    """Canonical (rref) basis of Sym(A, sigma)."""
    f = sigma.algebra.field
    basis, _ = rref(f, kernel(f, _minus_identity(f, sigma.mat)))
    return [tuple(r) for r in basis]


def _kind_from_sym_dimension(deg, d):
    """The tag of an involution of the first kind on a degree-deg algebra
    whose symmetric elements have dimension d; None if d fits neither."""
    if d == deg * (deg + 1) // 2:
        return ORTHOGONAL
    if d == deg * (deg - 1) // 2:
        return SYMPLECTIC
    return None


def involution_from_matrix(algebra, mat, expected_kind=None):
    """Build and fully verify an involution from its coordinate matrix.

    The anti-automorphism property is checked as sigma(1) = 1 and
    sigma(e_i g) = sigma(g) sigma(e_i) for every basis element e_i and every
    g in algebra.closure_generators().  That suffices: the set W of w with
    sigma(x w) = sigma(w) sigma(x) for all x is a subspace, since both sides
    are linear in w (and in x, so basis elements x are enough).  It contains
    1, as sigma(1) = 1, and every g.  It is closed under products: for u, w
    in W, sigma(x u w) = sigma(w) sigma(x u) = sigma(w) sigma(u) sigma(x),
    and x = 1 gives sigma(u w) = sigma(w) sigma(u), so u w is in W.  Hence
    W contains every word in the generators, and closure_generators
    verified that these words span A; so W = A.
    """
    _require_odd_char(algebra.field)
    f = algebra.field
    n = algebra.dim
    mat = [list(r) for r in mat]
    if len(mat) != n or any(len(r) != n for r in mat):
        raise InvalidInputError(
            f"matrix must be {n} x {n}, not rows of lengths {[len(r) for r in mat]}")
    if mat_mul(f, mat, mat) != identity(f, n):
        raise InvalidInputError("map is not of order two")

    lifted = lift_matrix(f, mat)

    def sigma(coords):
        return tuple(mat_vec(f, mat, coords, lifted))

    if sigma(algebra.unit) != algebra.unit:
        raise InvalidInputError("map does not fix the unit")
    images = [sigma(algebra.basis_coords(i)) for i in range(n)]
    for g in algebra.closure_generators():
        sigma_g = sigma(g)
        for i in range(n):
            lhs = sigma(algebra.mul(algebra.basis_coords(i), g))
            if lhs != algebra.mul(sigma_g, images[i]):
                raise InvalidInputError(
                    f"map is not an anti-automorphism at basis element "
                    f"{algebra.labels[i]} and generator {algebra.element(g)!r}")
    d = sym_dimension(algebra, mat)
    kind = _kind_from_sym_dimension(algebra.degree, d)
    if kind is None:
        raise InvalidInputError(
            f"fixed space has dimension {d}, not n(n+1)/2 or n(n-1)/2: "
            "not an involution of the first kind over this field")
    if expected_kind is not None and kind != expected_kind:
        raise InvalidInputError(f"involution is {kind}, expected {expected_kind}")
    return Involution(algebra, mat, kind)


def involution_type(sigma):
    """Recompute the orthogonal/symplectic tag from dim Sym and check it."""
    _require_odd_char(sigma.algebra.field)
    kind = _kind_from_sym_dimension(sigma.algebra.degree,
                                    sym_dimension(sigma.algebra, sigma.mat))
    if kind is None:
        raise StructuralError("stored involution is not of the first kind")
    if kind != sigma.kind:
        raise StructuralError("stored involution tag is inconsistent")
    return kind


def adjoint_involution(A, B):
    """sigma(x) = B^-1 x^T B on a matrix-preset algebra.

    B must be invertible and symmetric (orthogonal case) or alternating
    (symplectic case, n even).
    """
    _require_odd_char(A.field)
    if A.preset.get("kind") != "matrix":
        raise InvalidInputError("adjoint involutions need a matrix preset")
    f = A.field
    n = A.preset["n"]
    B = [list(r) for r in B]
    if len(B) != n or any(len(r) != n for r in B):
        raise InvalidInputError("form has the wrong size")
    Binv = inverse(f, B)
    if Binv is None:
        raise InvalidFormError("form matrix is singular")
    bt = transpose(B)
    symmetric = bt == B
    alternating = (bt == [[f.neg(c) for c in row] for row in B]
                   and all(f.is_zero(B[i][i]) for i in range(n)))
    if not symmetric and not alternating:
        raise InvalidFormError("form is neither symmetric nor alternating")
    if alternating and n % 2 == 1:
        raise InvalidFormError("alternating forms need even rank")
    images = []
    for i in range(A.dim):
        x = matrix_of(A, A.basis_coords(i))
        img = mat_mul(f, mat_mul(f, Binv, transpose(x)), B)
        images.append(coords_of_matrix(A, img))
    mat = transpose(images)
    expected = SYMPLECTIC if alternating else ORTHOGONAL
    return involution_from_matrix(A, mat, expected_kind=expected)


def quaternion_conjugation(A):
    """The canonical symplectic involution: 1 -> 1, i,j,k -> -i,-j,-k."""
    _require_odd_char(A.field)
    if A.preset.get("kind") != "quaternion":
        raise InvalidInputError("quaternion conjugation needs a quaternion preset")
    f = A.field
    o, z = f.one, f.zero
    mat = [[o, z, z, z], [z, f.neg(o), z, z], [z, z, f.neg(o), z], [z, z, z, f.neg(o)]]
    return involution_from_matrix(A, mat, expected_kind=SYMPLECTIC)


def quaternion_reversal(A):
    """The orthogonal involution x -> i conj(x) i^-1 (fixes 1, j, k)."""
    _require_odd_char(A.field)
    if A.preset.get("kind") != "quaternion":
        raise InvalidInputError("needs a quaternion preset")
    f = A.field
    conj = quaternion_conjugation(A)
    i = A.basis_element(1)
    i_inv = i.inverse()
    images = []
    for t in range(4):
        img = i * conj(A.basis_element(t)) * i_inv
        images.append(img.coords)
    mat = transpose(images)
    return involution_from_matrix(A, mat, expected_kind=ORTHOGONAL)


def transpose_involution(A):
    """x -> x^T on a matrix preset (the identity-form adjoint)."""
    return adjoint_involution(A, identity(A.field, A.preset["n"]))


def standard_alternating_matrix(field, n):
    """Block diagonal [[0,1],[-1,0]] pairs; n must be even."""
    if n % 2:
        raise InvalidInputError("alternating forms need even rank")
    z, o = field.zero, field.one
    m = [[z] * n for _ in range(n)]
    for b in range(n // 2):
        m[2 * b][2 * b + 1] = o
        m[2 * b + 1][2 * b] = field.neg(o)
    return m


def tensor_involution(sigma1, sigma2, product_algebra):
    """sigma1 (x) sigma2 acting on a tensor-preset algebra."""
    A = product_algebra
    if A.preset.get("kind") != "tensor":
        raise InvalidInputError("needs a tensor preset")
    left, right = A.preset["left"], A.preset["right"]
    if sigma1.algebra != left or sigma2.algebra != right:
        raise InvalidInputError("involutions do not match the tensor factors")
    f = A.field
    dim_b = right.dim
    images = []
    for i1 in range(left.dim):
        s1 = sigma1.apply_coords(left.basis_coords(i1))
        for i2 in range(right.dim):
            s2 = sigma2.apply_coords(right.basis_coords(i2))
            img = [f.zero] * A.dim
            for k1, c1 in enumerate(s1):
                if f.is_zero(c1):
                    continue
                for k2, c2 in enumerate(s2):
                    if f.is_zero(c2):
                        continue
                    img[k1 * dim_b + k2] = f.mul(c1, c2)
            images.append(tuple(img))
    mat = transpose(images)
    return involution_from_matrix(A, mat)


def twist_by_inner(sigma, u):
    """The involution x -> u sigma(x) u^-1 (u invertible, sigma(u) = +-u)."""
    A = sigma.algebra
    u_inv = A.inverse(u.coords if isinstance(u, AlgebraElement) else u)
    if u_inv is None:
        raise InvalidInputError("twisting element is not invertible")
    uc = u.coords if isinstance(u, AlgebraElement) else tuple(u)
    images = []
    for i in range(A.dim):
        img = A.mul(A.mul(uc, sigma.apply_coords(A.basis_coords(i))), u_inv)
        images.append(img)
    mat = transpose(images)
    return involution_from_matrix(A, mat)


def conjugate_involution(sigma, g):
    """inn_g . sigma . inn_g^-1; preserves the type."""
    A = sigma.algebra
    gc = g.coords if isinstance(g, AlgebraElement) else tuple(g)
    g_inv = A.inverse(gc)
    if g_inv is None:
        raise InvalidInputError("conjugating element is not invertible")
    images = []
    for i in range(A.dim):
        inner = A.mul(A.mul(g_inv, A.basis_coords(i)), gc)
        img = A.mul(A.mul(gc, sigma.apply_coords(inner)), g_inv)
        images.append(img)
    mat = transpose(images)
    return involution_from_matrix(A, mat)


def pfaffian_char_poly(sigma, x):
    """The degree-m polynomial whose square is the reduced characteristic
    polynomial of a symmetric element of a symplectic pair (n = 2m).

    The monic square root is unique, so extracting it from Prd gives the
    Pfaffian characteristic polynomial; x always satisfies it.
    """
    if sigma.kind != SYMPLECTIC:
        raise InvalidInputError("Pfaffian characteristic polynomials need a symplectic involution")
    A = sigma.algebra
    if x.algebra != A:
        raise InvalidInputError("element and involution live on different algebras")
    if sigma.apply_coords(x.coords) != x.coords:
        raise InvalidInputError("element is not symmetric under the involution")
    prd = reduced_char_poly(x)
    try:
        prp = poly_nth_root(prd, 2)
    except Exception as exc:
        raise StructuralError(
            "reduced characteristic polynomial of a symmetric element is not a "
            "perfect square; the involution is not symplectic") from exc
    if not poly_eval_at_element(prp, x).is_zero():
        raise StructuralError("Pfaffian characteristic polynomial does not annihilate")
    return prp
