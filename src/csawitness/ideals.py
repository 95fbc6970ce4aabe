"""Right ideals of structure-constant algebras.

Ideals are stored as reduced row-echelon bases of coordinate rows, so
equality is representation-independent and byte-comparable.  Construction
verifies closure under right multiplication by a verified generating set of
the algebra (Algebra.closure_generators; closure under generators is closure
under all of A) and integrality of the reduced dimension.
"""

from .algebra import Algebra, AlgebraElement
from .errors import InvalidInputError, StructuralError, UnsupportedFieldError
from .linalg import (
    in_row_space, intersect_row_spaces, kernel, lift_matrix, mat_vec, rank,
    reduce_vector, rref, transpose,
)


class RightIdeal:
    __slots__ = ("algebra", "basis", "pivots", "rdim", "_lifted")

    def __init__(self, algebra, rows, _skip_closure_check=False):
        basis, pivots = rref(algebra.field, rows)
        self.algebra = algebra
        self.basis = tuple(tuple(r) for r in basis)
        self.pivots = tuple(pivots)
        if len(self.basis) % algebra.degree != 0:
            raise StructuralError(
                f"subspace dimension {len(self.basis)} is not a multiple of the degree")
        self.rdim = len(self.basis) // algebra.degree
        # the basis lifted once for every membership test (linalg.lift_matrix)
        self._lifted = lift_matrix(algebra.field, self.basis)
        if not _skip_closure_check:
            self._check_closed()

    def _check_closed(self):
        alg = self.algebra
        gens = alg.closure_generators()
        for b in self.basis:
            for g in gens:
                if not in_row_space(alg.field, self.basis, self.pivots,
                                    alg.mul(b, g), self._lifted):
                    raise StructuralError("subspace is not a right ideal")

    def dim(self):
        return len(self.basis)

    def contains(self, coords):
        return in_row_space(self.algebra.field, self.basis, self.pivots, coords,
                            self._lifted)

    def contains_ideal(self, other):
        return all(self.contains(b) for b in other.basis)

    def is_zero(self):
        return not self.basis

    def __eq__(self, other):
        return (isinstance(other, RightIdeal) and other.algebra == self.algebra
                and other.basis == self.basis)

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"RightIdeal(rdim={self.rdim} of degree {self.algebra.degree})"


def zero_ideal(A):
    return RightIdeal(A, [], _skip_closure_check=True)


def full_ideal(A):
    rows = [A.basis_coords(i) for i in range(A.dim)]
    return RightIdeal(A, rows, _skip_closure_check=True)


def ideal_generated(gens):
    """Smallest right ideal containing the generators: span of g * e_j."""
    if not gens:
        raise InvalidInputError("need at least one generator (possibly zero)")
    alg = gens[0].algebra
    rows = []
    for g in gens:
        if g.algebra != alg:
            raise InvalidInputError("generators live in different algebras")
        for j in range(alg.dim):
            rows.append(alg.mul(g.coords, alg.basis_coords(j)))
    return RightIdeal(alg, rows)


def principal_rdim(x):
    """Reduced dimension of the right ideal x A, without building it.

    x A is spanned by the products x e_j, the columns of left multiplication
    by x, so its dimension is rank(L_x).  A rank that is not a multiple of
    the degree raises StructuralError, as RightIdeal does.
    """
    alg = x.algebra
    r = rank(alg.field, alg.left_mult_matrix(x.coords))
    if r % alg.degree != 0:
        raise StructuralError(f"subspace dimension {r} is not a multiple of the degree")
    return r // alg.degree


def splitting_idempotent(ideal):
    """An idempotent e in I with e A = I.

    Solves the linear system 'e is a left unit of I' (e b = b for each basis
    row), which is the closed form of choosing a right-module projection
    A -> I and taking the image of 1.  Any solution works: e^2 = e because
    e lies in I, and e I = I forces e A = I.
    """
    alg = ideal.algebra
    f = alg.field
    m = len(ideal.basis)
    if m == 0:
        return alg.zero
    cols = list(ideal.basis)
    rows, rhs = [], []
    # products b_s * b_r; equation block r: sum_s mu_s (b_s b_r) = b_r
    for b_r in ideal.basis:
        prods = [alg.mul(b_s, b_r) for b_s in cols]
        for coord in range(alg.dim):
            rows.append([prods[s][coord] for s in range(m)])
            rhs.append(b_r[coord])
    from .linalg import solve
    mu = solve(f, rows, rhs)
    if mu is None:
        raise StructuralError("no left unit exists; the input is not a right "
                              "ideal of a semisimple algebra")
    elem = alg.element(mat_vec(f, transpose(cols), mu))
    if not (elem * elem - elem).is_zero():
        raise StructuralError("solved element is not idempotent")  # pragma: no cover
    return elem


def corner_algebra(e):
    """The algebra e A e with unit e; carries a back-reference to (A, e)."""
    alg = e.algebra
    if not (e * e - e).is_zero():
        raise InvalidInputError("corner algebras need an idempotent")
    f = alg.field
    if e.is_zero():
        raise InvalidInputError("the zero idempotent has no corner algebra")
    rows = []
    for j in range(alg.dim):
        rows.append(alg.mul(alg.mul(e.coords, alg.basis_coords(j)), e.coords))
    embed, pivots = rref(f, rows)
    dc = len(embed)
    l = principal_rdim(e)
    if dc != l * l:
        raise StructuralError(
            f"corner dimension {dc} does not equal rdim^2 = {l * l}")
    # structure constants in the corner basis
    table = []
    for r in range(dc):
        row = []
        for s in range(dc):
            prod = alg.mul(embed[r], embed[s])
            residual, coeffs = reduce_vector(f, embed, pivots, prod)
            if any(not f.is_zero(x) for x in residual):
                raise StructuralError("corner subspace is not closed under products")
            row.append(tuple((k, c) for k, c in enumerate(coeffs) if not f.is_zero(c)))
        table.append(row)
    residual, unit_coords = reduce_vector(f, embed, pivots, e.coords)
    if any(not f.is_zero(x) for x in residual):
        raise StructuralError("idempotent does not lie in its own corner")
    return Algebra(f, table, l, unit=unit_coords,
                   preset={"kind": "corner", "parent": alg,
                           "idempotent": e.coords,
                           "embed": tuple(tuple(r) for r in embed),
                           "pivots": tuple(pivots)},
                   _trusted=True)


def corner_to_parent(D, coords):
    return tuple(mat_vec(D.field, transpose(D.preset["embed"]), coords))


def parent_to_corner(D, coords):
    f = D.field
    residual, c = reduce_vector(f, D.preset["embed"], D.preset["pivots"], coords)
    if any(not f.is_zero(x) for x in residual):
        raise InvalidInputError("element does not lie in the corner subspace")
    return tuple(c)


def restrict_to_corner(J, corner):
    """J |-> J e as a right ideal of e A e, for J contained in e A."""
    if corner.preset.get("kind") != "corner":
        raise InvalidInputError("second argument must be a corner algebra")
    parent = corner.preset["parent"]
    if J.algebra != parent:
        raise InvalidInputError("ideal does not live in the corner's parent")
    e = corner.preset["idempotent"]
    big = ideal_generated([parent.element(e)])
    if not big.contains_ideal(J):
        raise InvalidInputError("ideal is not contained in e A")
    rows = [parent_to_corner(corner, parent.mul(b, e)) for b in J.basis]
    return RightIdeal(corner, rows)


def induce_from_corner(K):
    """K |-> K A as a right ideal of the parent algebra."""
    D = K.algebra
    if D.preset.get("kind") != "corner":
        raise InvalidInputError("ideal does not live in a corner algebra")
    parent = D.preset["parent"]
    gens = [parent.element(corner_to_parent(D, b)) for b in K.basis]
    if not gens:
        return zero_ideal(parent)
    return ideal_generated(gens)


def perp(I, sigma):
    """I^perp = right annihilator of sigma(I)."""
    alg = I.algebra
    if sigma.algebra != alg:
        raise InvalidInputError("involution lives on a different algebra")
    if I.is_zero():
        return full_ideal(alg)
    stacked = []
    for b in I.basis:
        stacked.extend(alg.left_mult_matrix(sigma.apply_coords(b)))
    return RightIdeal(alg, kernel(alg.field, stacked))


def radical_is_regular_is_isotropic(I, sigma):
    """(rad(I) = I ∩ I^perp, rad = 0, sigma(I) I = 0)."""
    alg = I.algebra
    f = alg.field
    ip = perp(I, sigma)
    rad_rows = intersect_row_spaces(f, list(I.basis), list(ip.basis))
    rad = RightIdeal(alg, list(rad_rows))
    regular = rad.is_zero()
    if regular:
        # the equivalent direct-sum characterization must agree
        if len(I.basis) + len(ip.basis) != alg.dim:
            raise StructuralError("rad(I) = 0 but dim I + dim I^perp != dim A")
    isotropic = True
    for b in I.basis:
        sb = sigma.apply_coords(b)
        for c in I.basis:
            prod = alg.mul(sb, c)
            if any(not f.is_zero(x) for x in prod):
                isotropic = False
                break
        if not isotropic:
            break
    return rad, regular, isotropic


class Flag:
    """A chain of right ideals with strictly increasing reduced dimensions."""

    __slots__ = ("ideals",)

    def __init__(self, ideals):
        ideals = tuple(ideals)
        if not ideals:
            raise InvalidInputError("a flag needs at least one ideal")
        alg = ideals[0].algebra
        for i in ideals:
            if i.algebra != alg:
                raise InvalidInputError("flag ideals live in different algebras")
        self.ideals = ideals

    @property
    def algebra(self):
        return self.ideals[0].algebra

    @property
    def signature(self):
        return tuple(i.rdim for i in self.ideals)

    def __eq__(self, other):
        return isinstance(other, Flag) and other.ideals == self.ideals

    def __hash__(self):
        return hash(self.ideals)

    def __repr__(self):
        return f"Flag{self.signature}"


def flag_check(flag, signature):
    """True iff the rdims match the signature and containments hold."""
    sig = tuple(signature)
    if flag.signature != sig:
        return False
    if any(a >= b for a, b in zip(sig, sig[1:])):
        return False
    for small, big in zip(flag.ideals, flag.ideals[1:]):
        if not big.contains_ideal(small):
            return False
    return True


# ---------------------------------------------------------------------------
# module presentations A = End of a right D-space, for split and
# matrix-over-quaternion presets; used for pencil constructions and random
# ideal generation.


class ModulePresentation:
    """A as m x m matrices over D acting on the column space V = D^m.

    Vectors in V are flat tuples of base-field coordinates of length
    m * dim(D); slot r occupies positions [r*d2, (r+1)*d2).
    """

    def __init__(self, algebra):
        kind = algebra.preset.get("kind")
        self.algebra = algebra
        self.field = algebra.field
        if kind == "matrix":
            self.m = algebra.preset["n"]
            self.D = None
            self.d2 = 1
            self.ind = 1
        elif kind == "tensor":
            left = algebra.preset["left"]
            right = algebra.preset["right"]
            lk, rk = left.preset.get("kind"), right.preset.get("kind")
            if lk == "matrix" and rk == "quaternion":
                self.m, self.D, self.matrix_major = left.preset["n"], right, True
            elif lk == "quaternion" and rk == "matrix":
                self.m, self.D, self.matrix_major = right.preset["n"], left, False
            else:
                raise UnsupportedFieldError(
                    "no module presentation: tensor preset is not matrix x quaternion")
            self.d2 = 4
            self.ind = 2
        elif kind == "quaternion":
            # D itself, V = D^1
            self.m = 1
            self.D = algebra
            self.matrix_major = True
            self.d2 = 4
            self.ind = 2
        else:
            raise UnsupportedFieldError(
                f"no module presentation for preset {kind!r}")
        self.vlen = self.m * self.d2

    # coordinate layout helpers -------------------------------------------

    def _slot(self, row, col, l):
        """Algebra coordinate index of basis (row, col) x d_l."""
        if self.D is None:
            return row * self.m + col
        mat_idx = row * self.m + col
        if self.algebra.preset.get("kind") == "quaternion":
            return l
        if self.matrix_major:
            return mat_idx * 4 + l
        return l * self.m * self.m + mat_idx

    def column_of(self, coords, col):
        """Column col of an algebra element, as a vector in V."""
        out = [self.field.zero] * self.vlen
        for row in range(self.m):
            for l in range(self.d2):
                out[row * self.d2 + l] = coords[self._slot(row, col, l)]
        return tuple(out)

    def place_in_column(self, vec, col):
        """Algebra coordinates of the element with vec in column col."""
        out = [self.field.zero] * self.algebra.dim
        for row in range(self.m):
            for l in range(self.d2):
                out[self._slot(row, col, l)] = vec[row * self.d2 + l]
        return tuple(out)

    def vec_times_d(self, vec, dcoords):
        """Right multiplication of a vector by an element of D, slotwise."""
        if self.D is None:
            c = dcoords
            return tuple(self.field.mul(x, c) for x in vec)
        out = []
        for row in range(self.m):
            slot = vec[row * self.d2:(row + 1) * self.d2]
            out.extend(self.D.mul(tuple(slot), dcoords))
        return tuple(out)

    def d_basis_coords(self):
        if self.D is None:
            return [self.field.one]
        return [self.D.basis_coords(l) for l in range(4)]

    # subspaces --------------------------------------------------------------

    def image_subspace(self, ideal):
        """F-basis (rref) of the span of all columns of all elements of I,
        closed under the right D-action."""
        rows = []
        dbasis = self.d_basis_coords()
        for b in ideal.basis:
            for col in range(self.m):
                v = self.column_of(b, col)
                for d in dbasis:
                    rows.append(self.vec_times_d(v, d))
        basis, _ = rref(self.field, rows)
        return [tuple(r) for r in basis]

    def d_rank(self, f_span_rows):
        return len(f_span_rows) // self.d2

    def d_basis_of(self, f_span_rows, extend_from=()):
        """Greedy right-D basis of a D-stable F-subspace, extending a given
        partial D-basis; deterministic (rref rows in order)."""
        dbasis = self.d_basis_coords()
        chosen = list(extend_from)
        span_rows = []
        for w in chosen:
            for d in dbasis:
                span_rows.append(self.vec_times_d(w, d))
        span, pivots = rref(self.field, span_rows)
        for cand in f_span_rows:
            if in_row_space(self.field, span, pivots, cand):
                continue
            chosen.append(tuple(cand))
            for d in dbasis:
                span_rows.append(self.vec_times_d(cand, d))
            span, pivots = rref(self.field, span_rows)
        return chosen

    def ideal_from_subspace(self, f_span_rows):
        """The right ideal of all elements whose columns lie in the span."""
        rows = []
        for col in range(self.m):
            for w in f_span_rows:
                rows.append(self.place_in_column(w, col))
        return RightIdeal(self.algebra, rows)


def module_presentation(A):
    return ModulePresentation(A)


def random_ideal(A, rdim, rng):
    """A random right ideal of the requested reduced dimension (seeded)."""
    if rdim == 0:
        return zero_ideal(A)
    if rdim == A.degree:
        return full_ideal(A)
    pres = ModulePresentation(A)
    if rdim % pres.ind != 0 or rdim < 0 or rdim > A.degree:
        raise InvalidInputError(
            f"reduced dimension must be a multiple of {pres.ind} in [0, {A.degree}]")
    r = rdim // pres.ind
    f = A.field
    dbasis = pres.d_basis_coords()
    while True:
        vecs = [tuple(f.random(rng) for _ in range(pres.vlen)) for _ in range(r)]
        rows = [pres.vec_times_d(v, d) for v in vecs for d in dbasis]
        if rank(f, rows) == r * pres.d2:
            basis, _ = rref(f, rows)
            return pres.ideal_from_subspace([tuple(x) for x in basis])


def random_flag(A, signature, rng):
    """A random flag with the given strictly increasing signature."""
    pres = ModulePresentation(A)
    f = A.field
    sig = list(signature)
    if sig != sorted(sig) or len(set(sig)) != len(sig):
        raise InvalidInputError("signature must be strictly increasing")
    dbasis = pres.d_basis_coords()
    for rd in sig:
        if rd % pres.ind:
            raise InvalidInputError(f"rdim {rd} is not a multiple of {pres.ind}")
    vecs = []
    for rd in sig:
        r = rd // pres.ind
        while len(vecs) < r:
            cand = tuple(f.random(rng) for _ in range(pres.vlen))
            rows = [pres.vec_times_d(v, d) for v in vecs + [cand] for d in dbasis]
            if rank(f, rows) == (len(vecs) + 1) * pres.d2:
                vecs.append(cand)
    ideals = []
    for rd in sig:
        r = rd // pres.ind
        rows = [pres.vec_times_d(v, d) for v in vecs[:r] for d in dbasis]
        basis, _ = rref(f, rows)
        ideals.append(pres.ideal_from_subspace([tuple(x) for x in basis]))
    return Flag(ideals)
