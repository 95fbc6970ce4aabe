"""Involutions of the first kind on structure-constant algebras.

An involution is stored by the matrix of its linear action on the coordinate
basis plus an orthogonal/symplectic tag.  Construction from a matrix
(involution_from_matrix) verifies exactly that the map has order two
(mat mat = 1, column by column: mat sends its column j to e_j), that it
is an anti-automorphism, and that the tag matches
the fixed-space dimension.  The anti-automorphism
property is checked on 1 and, for each verified generator g of
Algebra.closure_generators, as the matrix identity mat R_g = L_sigma(g) mat
(R_g right multiplication by g, L_x left multiplication by x): column i of
the left side is sigma(e_i g) and column i of the right side is
sigma(g) sigma(e_i), so the identity holds exactly when
sigma(e_i g) = sigma(g) sigma(e_i) for every basis element e_i, which
implies the property on every basis pair.  A twist is certified by its
formula instead: twist_by_inner checks only sigma(u) = +-u and that the
inverse it is handed satisfies u u_inv = 1, and then Int(u) o sigma is an
involution whose tag the sign fixes (its docstring has the proof), so it is
not re-verified.
Construction and involution_type read the tag off dim Sym through one
helper, and sym_dimension and sym_basis build sigma - 1 through one helper.
Characteristic 2 is rejected throughout: the orthogonal/symplectic
dichotomy needs 2 invertible.
"""

from .algebra import (
    AlgebraElement, coords_of_matrix, matrix_of, poly_eval_at_element,
    reduced_char_poly,
)
from .errors import (
    InvalidFormError, InvalidInputError, StructuralError, UnsupportedFieldError,
)
from .linalg import (
    Matrix, identity, inverse, kernel, mat_mul, mat_vec, rank, rref, transpose,
)
from .poly import poly_nth_root

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"


class Involution:
    """An involution by its coordinate matrix, a verified linalg.Matrix
    (_matrix), which apply_coords, sym_basis and twist_by_inner read; over
    F_p and Q lifted, so a twist (Algebra.sandwich_matrix) is lowered only
    when mat is read."""

    __slots__ = ("algebra", "_matrix", "kind", "_mat")

    def __init__(self, algebra, mat, kind):
        self.algebra = algebra
        self._matrix = mat
        self.kind = kind
        self._mat = None

    @property
    def mat(self):
        if self._mat is None:
            self._mat = tuple(map(tuple, self._matrix.rows))
        return self._mat

    def apply_coords(self, coords):
        return tuple(mat_vec(self._matrix, coords))

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
    out = [list(row) for row in mat]
    for i, row in enumerate(out):
        row[i] = f.sub(row[i], f.one)
    return out


def sym_dimension(algebra, mat):
    """dim of the fixed space of the linear map given by mat."""
    return algebra.dim - rank(Matrix(algebra.field, _minus_identity(algebra.field, mat)))


def sym_basis(sigma):
    """Canonical (rref) basis of Sym(A, sigma), the kernel of sigma - 1.
    Over F_p and Q the matrix minus 1 is the lifted matrix minus its scale
    on the diagonal, and the kernel and its rref stay int rows until the
    basis is lowered, once."""
    f = sigma.algebra.field
    lifted = sigma._matrix.lifted
    if lifted is None:
        minus = Matrix(f, _minus_identity(f, sigma.mat))
    else:
        rows, s = lifted
        minus = Matrix(f, None, [[x - s if i == j else x for j, x in enumerate(row)]
                                 for i, row in enumerate(rows)], s)
    basis, _ = rref(rows=kernel(minus))
    return [tuple(r) for r in basis.rows]


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

    The anti-automorphism property is checked as sigma(1) = 1 and as
    mat R_g = L_sigma(g) mat for every g in algebra.closure_generators()
    (Algebra.anti_automorphism_mismatch), that is, as sigma(e_i g) =
    sigma(g) sigma(e_i) for every basis element e_i and every such g; the
    first failing column names the basis element in the error.  That
    suffices: the set W of w with sigma(x w) = sigma(w) sigma(x) for all x
    is a subspace, since both sides are linear in w (and in x, so basis
    elements x are enough).  It contains 1, as sigma(1) = 1, and every g.
    It is closed under products: for u, w in W, sigma(x u w) =
    sigma(w) sigma(x u) = sigma(w) sigma(u) sigma(x), and x = 1 gives
    sigma(u w) = sigma(w) sigma(u), so u w is in W.  Hence W contains every
    word in the generators, and closure_generators verified that these words
    span A; so W = A.
    """
    _require_odd_char(algebra.field)
    f = algebra.field
    n = algebra.dim
    mat = tuple(tuple(r) for r in mat)
    if len(mat) != n or any(len(r) != n for r in mat):
        raise InvalidInputError(
            f"matrix must be {n} x {n}, not rows of lengths {[len(r) for r in mat]}")
    # sigma^2 = 1 iff sigma maps its own j-th column to e_j for every j
    sigma = Matrix(f, mat)
    for j, e_j in enumerate(identity(f, n)):
        if mat_vec(sigma, [r[j] for r in mat]) != e_j:
            raise InvalidInputError("map is not of order two")

    if tuple(mat_vec(sigma, algebra.unit)) != algebra.unit:
        raise InvalidInputError("map does not fix the unit")
    bad = algebra.anti_automorphism_mismatch(sigma)
    if bad is not None:
        i, g = bad
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
    return Involution(algebra, sigma, kind)


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
    n = adjoint_degree(A)
    f = A.field
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


def adjoint_degree(A):
    """n for a matrix preset M_n, the size of an adjoint involution's form;
    InvalidInputError on any other algebra."""
    if A.preset.get("kind") != "matrix":
        raise InvalidInputError("adjoint involutions need a matrix preset")
    return A.preset["n"]


def transpose_involution(A):
    """x -> x^T on a matrix preset (the identity-form adjoint)."""
    return adjoint_involution(A, identity(A.field, adjoint_degree(A)))


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
    # sigma(e_i) is column i of sigma's matrix
    cols2 = list(zip(*sigma2.mat))
    for s1 in zip(*sigma1.mat):
        for s2 in cols2:
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


def twist_by_inner(sigma, u, u_inv):
    """The involution Int(u) o sigma: x -> u sigma(x) u^-1, for u invertible
    with sigma(u) = u or sigma(u) = -u; InvalidInputError otherwise.

    The caller hands the coordinates of u^-1 as u_inv, and the one product
    u u_inv = 1 is checked in place of inverting u.  That suffices, because
    in a finite-dimensional algebra a one-sided inverse is two-sided:
    y -> u y is onto, so injective, and u (u_inv u - 1) = 0 gives
    u_inv u = 1.  A u_inv with u u_inv != 1 (the zero vector always) raises
    "twisting element is not invertible"; the test on sigma(u) runs first.

    Certified by its formula, so involution_from_matrix is not re-run
    (Knus-Merkurjev-Rost-Tignol, The Book of Involutions, Prop. 2.7).  Write
    sigma(u) = eps u, so sigma(u^-1) = eps u^-1, and tau = Int(u) o sigma.
    tau is linear and tau(1) = 1.  It is an anti-automorphism:
    tau(x y) = u sigma(y) u^-1 u sigma(x) u^-1 = tau(y) tau(x).  It has
    order two: tau(tau(x)) = u sigma(u^-1) x sigma(u) u^-1 = u (eps u^-1)
    x (eps u) u^-1 = x.  Its type: tau(u x) = u sigma(x) sigma(u) u^-1 =
    eps u sigma(x), so x -> u x maps Sym(sigma) onto Sym(tau) if eps = 1
    and Skew(sigma) onto Sym(tau) if eps = -1.  In characteristic not 2,
    A = Sym + Skew, so dim Skew(sigma) = n^2 - dim Sym(sigma) swaps
    n(n+1)/2 and n(n-1)/2: tau has sigma's type exactly when sigma(u) = u.
    """
    A = sigma.algebra
    f = A.field
    _require_odd_char(f)
    uc = u.coords if isinstance(u, AlgebraElement) else tuple(u)
    su = sigma.apply_coords(uc)
    if su == uc:
        kind = sigma.kind
    elif su == tuple(f.neg(c) for c in uc):
        kind = SYMPLECTIC if sigma.kind == ORTHOGONAL else ORTHOGONAL
    else:
        raise InvalidInputError("twisting element u has sigma(u) != u and != -u")
    if A.mul(uc, u_inv) != A.unit:
        raise InvalidInputError("twisting element is not invertible")
    # over F_p and Q sigma's matrix goes in lifted and the twist comes out
    # lifted, with no matrix lowered (Algebra.sandwich_matrix)
    return Involution(A, A.sandwich_matrix(uc, sigma._matrix, u_inv), kind)


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
