"""Right ideals of structure-constant algebras.

Ideals are stored as reduced row-echelon bases of coordinate rows, so
equality is representation-independent and byte-comparable.  Construction
verifies integrality of the reduced dimension, and closure under right
multiplication by a generating set of the algebra (Algebra.closure_generators;
closure under generators is closure under all of A) wherever the rows come
from outside or from another construction: RightIdeal(A, rows), loaded
ideals, ideal_generated and restrict_to_corner.  On M_n the generators are
the two shift matrices, so each basis row costs two products and two
membership tests, whatever n is.

A module presentation writes A as the D-endomorphisms of D^m (D the
quaternion factor, or F for a matrix preset); a right ideal is then the set
of elements with columns in its column space.  The ideal of any right
D-submodule W of D^m is closed by construction (column c of x a is
sum_s col_s(x) a_sc, a right D-combination of the columns of x), so
ModulePresentation.ideal_from_subspace, which random ideals and flags and
the endpoints of every pencil use, skips the check.  It eliminates once, in
V: the columns have disjoint supports, so the rref of W placed in each
column is the rref of the whole ideal, and RightIdeal takes that basis as
it is.  The D-rows that span W are products by four block-diagonal maps of
V, held as one Matrix per presentation; over F_p and Q the vectors are
lifted once for all four, and the rows stay int rows for the eliminations.
The pencils of witness.py (an ideal pencil is the one-level flag pencil) move
D-bases of column spaces, so they need column spaces free over D.
d_basis_of picks its basis from the rows and, where a row falls short, from
sums of two rows, and raises StructuralError when that choice fails, which
only a split quaternion factor allows; the column space may still be free.
"""

import weakref
from operator import mul

from .algebra import Algebra
from .errors import InvalidInputError, StructuralError, UnsupportedFieldError
from .linalg import (
    Matrix, in_row_space, mat_vec, rank, reduce_vector, rref, solve, transpose,
)


class RightIdeal:
    __slots__ = ("algebra", "basis", "pivots", "rdim", "_matrix")

    def __init__(self, algebra, rows, _skip_closure_check=False, _pivots=None):
        # _pivots: rows are already the rref basis with these pivot columns
        # (ModulePresentation.ideal_from_subspace), so no elimination is run.
        # _matrix is the basis as a Matrix, for every membership test: the
        # rref's own, which holds its lift over F_p and Q
        matrix = Matrix(algebra.field, rows)
        if _pivots is None:
            matrix, _pivots = rref(rows=matrix)
        self.algebra = algebra
        self.basis = tuple(tuple(r) for r in matrix.rows)
        self._matrix = matrix
        self.pivots = tuple(_pivots)
        if len(self.basis) % algebra.degree != 0:
            raise StructuralError(
                f"subspace dimension {len(self.basis)} is not a multiple of the degree")
        self.rdim = len(self.basis) // algebra.degree
        if not _skip_closure_check:
            self._check_closed()

    def _check_closed(self):
        alg = self.algebra
        if not all(self.contains(alg.mul(b, g))
                   for g in alg.closure_generators() for b in self.basis):
            raise StructuralError("subspace is not a right ideal")

    def dim(self):
        return len(self.basis)

    def contains(self, coords):
        return in_row_space(self._matrix, self.pivots, coords)

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
    r = rank(Matrix(alg.field, alg.left_mult_matrix(x.coords)))
    if r % alg.degree != 0:
        raise StructuralError(f"subspace dimension {r} is not a multiple of the degree")
    return r // alg.degree


def splitting_idempotent(ideal):
    """An idempotent e in I with e A = I.

    Solves the linear system 'e is a left unit of I' (e b = b for each basis
    row), which is the closed form of choosing a right-module projection
    A -> I and taking the image of 1.  Any solution works: e^2 = e because
    e lies in I, and e I = I forces e A = I.

    Over F_p and Q the system is built on the basis lifted
    (RightIdeal._matrix, b_s = ints_s / s): b_s b_r is Algebra._int_mul of
    ints_s and ints_r over s^2 t, t = Algebra._flat_scale, so block r reads
    sum_s mu_s _int_mul(ints_s, ints_r) = ints_r s t, one int system
    [a | b].  Its rref, held lifted at a scale den that every row holds at
    its pivot (linalg.Matrix), gives the solution with free unknowns 0:
    mu = ints / den, ints the last column at each pivot, and a pivot in the
    last column makes the system inconsistent.  mu gives e = sum mu_r b_r
    as the ints sum ints_mu_r ints_r over den s, and the self-check e^2 = e
    compares _int_mul(e, e) with e at the same scale.  No operand is lifted
    twice, and only e is lowered, once.  F_{p^k} takes the method path.
    """
    alg = ideal.algebra
    f = alg.field
    if not ideal.basis:
        return alg.zero
    no_unit = "no left unit exists; the input is not a right ideal of a semisimple algebra"
    lifted = ideal._matrix.lifted
    if lifted is None:
        rows, rhs = [], []
        for b_r in ideal.basis:
            # block r: sum_s mu_s (b_s b_r) = b_r, one equation per coordinate
            rows.extend(zip(*[alg.mul(b_s, b_r) for b_s in ideal.basis]))
            rhs.extend(b_r)
        mu = solve(f, rows, rhs)
        if mu is None:
            raise StructuralError(no_unit)
        elem = alg.element(mat_vec(Matrix(f, transpose(ideal.basis)), mu))
        idempotent = (elem * elem - elem).is_zero()
    else:
        ints, s = lifted
        scale = s * alg._flat_scale
        aug = []
        for b_r in ints:
            prods = [alg._int_mul(b_s, b_r) for b_s in ints]
            aug.extend([*row, x * scale] for row, x in zip(zip(*prods), b_r))
        n = len(ints)
        echelon, piv = rref(rows=Matrix(f, None, aug))
        if piv[-1:] == [n]:
            raise StructuralError(no_unit)  # a 0 = 1 row
        rows, den = echelon.lifted
        mu = [0] * n
        for row, c in zip(rows, piv):
            mu[c] = row[n]
        x = [sum(map(mul, mu, col)) for col in zip(*ints)]
        xs = den * s
        p = f.int_modulus
        diff = [u - v * xs * alg._flat_scale for u, v in zip(alg._int_mul(x, x), x)]
        idempotent = not any([d % p for d in diff] if p else diff)
        elem = alg.element(f.lower_vector(x, xs))
    if not idempotent:
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
    embed, pivots = rref(rows=Matrix(f, rows))
    embed = embed.rows
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
        table.append(tuple(row))
    residual, unit_coords = reduce_vector(f, embed, pivots, e.coords)
    if any(not f.is_zero(x) for x in residual):
        raise StructuralError("idempotent does not lie in its own corner")
    return Algebra(f, tuple(table), l, unit=unit_coords,
                   preset={"kind": "corner", "parent": alg,
                           "idempotent": e.coords,
                           "embed": tuple(tuple(r) for r in embed),
                           "pivots": tuple(pivots)},
                   _trusted=True)


def corner_to_parent(D, coords):
    return tuple(mat_vec(Matrix(D.field, transpose(D.preset["embed"])), coords))


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
    m * dim(D); slot r occupies positions [r*d2, (r+1)*d2).  The algebra
    coordinate of basis (row, col) x d_l is row*rs + col*cs + l*ls: the
    matrix unit E_(row,col) sits at row*m + col, and a tensor index is left
    index * dim(right) + right index (algebra.tensor_product), so the
    strides (rs, cs, ls) are (m, 1, 0) on M_m, (4m, 4, 1) on M_m x H,
    (m, 1, m^2) on H x M_m and (0, 0, 1) on H alone.  __init__ stores, for
    each column, the coordinates of its entries in V's order (_cols).

    Column col's coordinates are column 0's shifted by col * cs, so one
    order of V sorts them all: _order lists V's positions by their
    coordinate in column 0 (V's own order except on H x M_m, where l runs
    slowest in A), and _sorted_cols lists each column's coordinates in it.
    Right multiplication by the basis element d_l of D acts slot by slot,
    as a block-diagonal vlen x vlen matrix; __init__ stacks the four into
    one Matrix, in V's order (_dmaps) and in _order (_omaps), for d_rows.

    Built once per algebra: use module_presentation(A).  A keeps it, so it
    refers to A weakly, and reference counting frees the two together.
    """

    def __init__(self, algebra):
        kind = algebra.preset.get("kind")
        self._algebra = weakref.ref(algebra)
        self.field = algebra.field
        self.D = None
        if kind == "matrix":
            m = algebra.preset["n"]
            strides = (m, 1, 0)
        elif kind == "quaternion":
            # D is A itself, held weakly as A is; V = D^1
            m, self.D, strides = 1, weakref.proxy(algebra), (0, 0, 1)
        elif kind == "tensor":
            left, right = algebra.preset["left"], algebra.preset["right"]
            kinds = (left.preset.get("kind"), right.preset.get("kind"))
            if kinds == ("matrix", "quaternion"):
                m, self.D = left.preset["n"], right
                strides = (4 * m, 4, 1)
            elif kinds == ("quaternion", "matrix"):
                m, self.D = right.preset["n"], left
                strides = (m, 1, m * m)
            else:
                raise UnsupportedFieldError(
                    "no module presentation: tensor preset is not matrix x quaternion")
        else:
            raise UnsupportedFieldError(
                f"no module presentation for preset {kind!r}")
        self.m = m
        self.d2, self.ind = (1, 1) if self.D is None else (4, 2)
        self.vlen = m * self.d2
        rs, cs, ls = strides
        self._cols = tuple(tuple(row * rs + col * cs + l * ls
                                 for row in range(m) for l in range(self.d2))
                           for col in range(m))
        self._order = tuple(sorted(range(self.vlen), key=self._cols[0].__getitem__))
        self._sorted_cols = tuple(tuple(c[i] for i in self._order) for c in self._cols)
        self._dmaps = self._omaps = None
        if self.D is not None:
            zero = self.field.zero
            maps = []
            for l in range(4):
                block = self.D.right_mult_matrix(self.D.basis_coords(l))
                maps.append([[zero] * (4 * r) + list(b) + [zero] * (self.vlen - 4 * r - 4)
                             for r in range(m) for b in block])
            self._dmaps = Matrix(self.field, [r for rows in maps for r in rows])
            self._omaps = Matrix(self.field, [rows[i] for rows in maps for i in self._order])

    # coordinate layout helpers -------------------------------------------

    def column_of(self, coords, col):
        """Column col of an algebra element, as a vector in V."""
        return tuple(coords[i] for i in self._cols[col])

    def d_rows(self, vecs):
        """F-spanning rows of the right D-span of vecs, as a Matrix for
        linalg's rref and rank: v d for each v in vecs and, inside, each d
        of the F-basis of D, the product by d's block map.  Over F_p and Q
        the vectors are lifted once, to one scale s, and each row is an int
        product by the lifted block maps, at scale s times theirs, with
        nothing lowered.  Over F (no D) the rows are the vectors
        themselves."""
        return self._d_rows(vecs, self._dmaps)

    def _d_rows(self, vecs, maps):
        """d_rows by the stacked block maps maps (_dmaps in V's order,
        _omaps in _order, which is V's own order when there is no D)."""
        f, n = self.field, self.vlen
        vecs = Matrix(f, list(vecs))
        if self.D is None:
            return vecs
        lifted = vecs.lifted
        rows = []
        if lifted is None:
            for v in vecs.rows:
                prods = mat_vec(maps, v)
                rows += [tuple(prods[i:i + n]) for i in range(0, len(prods), n)]
            return Matrix(f, rows)
        (ints, s), (stacked, sm) = lifted, maps.lifted
        for v in ints:
            prods = [sum(map(mul, row, v)) for row in stacked]
            rows += [prods[i:i + n] for i in range(0, len(prods), n)]
        return Matrix(f, None, rows, s * sm)

    # subspaces --------------------------------------------------------------

    def image_subspace(self, ideal):
        """F-basis (rref) of the column space W of I, read off column 0 of
        its basis.  I is {x : every column of x lies in W}, so each w in W
        placed in column 0 is in I, and column 0 alone maps I onto W; W is
        D-stable, so neither its D-span nor the other columns add a row."""
        basis, _ = rref(rows=Matrix(self.field, [self.column_of(b, 0) for b in ideal.basis]))
        return [tuple(r) for r in basis.rows]

    def d_basis_of(self, f_span_rows, extend_from=()):
        """A right-D basis of a D-stable F-subspace given by F-spanning rows
        (image_subspace gives such rows for the column space of a right
        ideal), extending a given partial D-basis; deterministic.

        Each row outside the span so far is taken, in order, when its D-span
        adds d2 = dim_F D dimensions, and passed over when it adds fewer,
        which only a split quaternion factor allows.  A passed-over row
        never becomes usable, as the span only grows, so while rows are left
        outside the span the first sum of two of them that adds d2 is taken.
        Raises StructuralError when no sum does; the subspace may still be
        free."""
        field = self.field
        chosen = list(extend_from)
        span, pivots = rref(rows=self.d_rows(chosen))

        def take(cand):
            nonlocal span, pivots
            grown, grown_pivots = rref(rows=self.d_rows(chosen + [cand]))
            if len(grown_pivots) - len(pivots) != self.d2:
                return False
            chosen.append(cand)
            span, pivots = grown, grown_pivots
            return True

        def outside(row):
            return not in_row_space(span, pivots, row)

        passed = []
        for cand in map(tuple, f_span_rows):
            if outside(cand) and not take(cand):
                passed.append(cand)
        while True:
            passed = [r for r in passed if outside(r)]
            if not passed:
                return chosen
            sums = (tuple(field.add(x, y) for x, y in zip(a, b))
                    for i, a in enumerate(passed) for b in passed[i + 1:])
            if not any(take(cand) for cand in sums):
                raise StructuralError(
                    "D-basis choice failed: no row and no sum of two rows "
                    f"adds {self.d2} dimensions to the D-span")

    def ideal_from_subspace(self, vecs):
        """The ideal of the right D-span W of vecs: the elements whose columns
        all lie in W.

        It is a right ideal for every W, so the closure check is skipped:
        column c of x a is sum_s col_s(x) a_sc, a right D-combination of the
        columns of x.  It is spanned by an F-basis of W placed in each of
        the m columns, and its rref comes from one elimination in V: the
        rref of the D-rows of vecs, with V's positions in _order (over F_p
        and Q int rows, lowered once by the rref).  In that order
        the coordinates of every column increase, so a basis row placed in
        column c has its leading entry at its pivot placed there.  The
        columns have disjoint supports, so no placed row is nonzero at
        another's pivot coordinate, and the placed rows sorted by pivot
        coordinate are the rref of them all.  The rref is unique, so this
        is the basis that eliminating every placed row gives.  Its
        dimension is m * dim W; RightIdeal raises StructuralError when that
        is not a multiple of the degree.
        """
        basis, pivots = rref(rows=self._d_rows(vecs, self._omaps))
        zero, dim = self.field.zero, self._algebra().dim
        rows = basis.rows
        placed = []
        for cols in self._sorted_cols:
            for row, piv in zip(rows, pivots):
                out = [zero] * dim
                for i, x in zip(cols, row):
                    out[i] = x
                placed.append((cols[piv], out))
        placed.sort(key=lambda pair: pair[0])
        return RightIdeal(self._algebra(), [row for _, row in placed],
                          _skip_closure_check=True, _pivots=[c for c, _ in placed])


def module_presentation(A):
    """The module presentation of A, built on the first call and kept in
    Algebra._presentation; a preset without one raises at every call."""
    if A._presentation is None:
        A._presentation = ModulePresentation(A)
    return A._presentation


def random_ideal(A, rdim, rng):
    """A random right ideal of the requested reduced dimension (seeded)."""
    if rdim == 0:
        return zero_ideal(A)
    if rdim == A.degree:
        return full_ideal(A)
    pres = module_presentation(A)
    if rdim % pres.ind != 0 or rdim < 0 or rdim > A.degree:
        raise InvalidInputError(
            f"reduced dimension must be a multiple of {pres.ind} in [0, {A.degree}]")
    r = rdim // pres.ind
    f = A.field
    while True:
        vecs = [tuple(f.random(rng) for _ in range(pres.vlen)) for _ in range(r)]
        # the D-rows of vecs have full rank r * d2 exactly when the ideal,
        # m times their span, has dimension m * r * d2: one elimination
        ideal = pres.ideal_from_subspace(vecs)
        if ideal.dim() == pres.m * r * pres.d2:
            return ideal


def random_flag(A, signature, rng):
    """A random flag with the given strictly increasing signature."""
    pres = module_presentation(A)
    f = A.field
    sig = list(signature)
    if sig != sorted(sig) or len(set(sig)) != len(sig):
        raise InvalidInputError("signature must be strictly increasing")
    for rd in sig:
        if not 0 <= rd <= A.degree:
            raise InvalidInputError(f"rdim {rd} is outside [0, {A.degree}]")
        if rd % pres.ind:
            raise InvalidInputError(f"rdim {rd} is not a multiple of {pres.ind}")
    vecs = []
    for rd in sig:
        r = rd // pres.ind
        while len(vecs) < r:
            cand = tuple(f.random(rng) for _ in range(pres.vlen))
            if rank(pres.d_rows(vecs + [cand])) == (len(vecs) + 1) * pres.d2:
                vecs.append(cand)
    return Flag([pres.ideal_from_subspace(vecs[:rd // pres.ind]) for rd in sig])
