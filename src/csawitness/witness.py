"""Construction and verification of explicit rational-curve witnesses.

A PencilWitness is a machine-checkable parametrized curve: endpoints, the
data defining the point at parameter t, and a validity polynomial whose
nonvanishing at t certifies genuine membership there.  The convention is
fixed globally: t = 1 gives the start object, t = 0 the end.  Validity
polynomials are derived symbolically (rank minors, pencil minimal
polynomials, discriminants), and the verifier re-derives each one.
Constructors do not re-check what verify_witness certifies.

Each witness kind has one record in KINDS, keyed by its JSON tag, holding
all the kind is: its context (the PencilWitness attribute, and JSON key, of
its algebra or form), the JSON shapes of its endpoints and data keys, the
size serialize holds its vectors and polynomial lists to, evaluate(w, t),
derive (the validity re-derivation) and certify (its certificate, per
sample or for every t).

An ideal pencil is the one-level flag pencil: one core builds both from
nested D-bases of the ideals' column spaces (D the quaternion factor, or F
for a matrix preset), and one evaluator reads both back.  A pencil needs
each column space to be free over D; when ModulePresentation.d_basis_of
finds no D-basis, the constructors raise StructuralError.
"""

import random
from fractions import Fraction

from .algebra import AlgebraElement, certified_exponent_divides_2
from .errors import (
    ConstructionFailedError, FieldTooSmallError, InvalidInputError,
    NotEtaleError, StructuralError, UnsupportedFieldError,
)
from .etale import etale_type, generate_etale, is_et_m_point
from .fields import Rationals
from .ideals import Flag, flag_check, module_presentation
from .involutions import (
    SYMPLECTIC, Involution, adjoint_involution, quaternion_conjugation,
    quaternion_reversal, standard_alternating_matrix, sym_basis,
    tensor_involution, transpose_involution, twist_by_inner,
)
from .linalg import Matrix, kernel, mat_vec, pivots, rank, rref, transpose
from .poly import Poly, poly_gcd
from .polyrings import (
    _ZT, _bareiss, _zt_trim, line_coords, pencil_discriminant, polymat_det,
)
from .quadrics import normalize_point

PARAM_CONVENTION = "t1_start_t0_end"

# the JSON shapes of segment values; the last three are endpoint objects
VECTOR, VECTORS, INTS, POLYS, IDEAL, FLAG, SUBALGEBRA = (
    "vector", "vectors", "ints", "polys", "ideal", "flag", "subalgebra")


class PencilWitness:
    """One parametrized segment with endpoints and a validity certificate."""

    __slots__ = ("kind", "record", "algebra", "form", "data", "start", "end",
                 "validity", "meta")

    def __init__(self, kind, start, end, validity, data, algebra=None,
                 form=None, meta=None):
        if validity.is_zero():
            raise ConstructionFailedError("validity polynomial is identically zero")
        self.kind = kind
        self.record = KINDS[kind]
        self.algebra = algebra
        self.form = form
        self.data = data
        self.start = start
        self.end = end
        self.validity = validity
        self.meta = dict(meta or {})

    @property
    def field(self):
        return getattr(self, self.record.context).field

    def evaluate(self, t):
        """The domain object at parameter t; raises on degenerate parameters
        (the verifier only calls this where the validity polynomial is
        nonzero)."""
        return self.record.evaluate(self, t)

    def __repr__(self):
        return f"PencilWitness({self.kind}, validity degree {self.validity.degree})"


class WitnessChain:
    """Segments with matching intermediate endpoints.  A chain without
    segments, the trivial chain of a quadric point, keeps the point and its form."""

    __slots__ = ("segments", "_start", "_end", "form")

    def __init__(self, segments, start=None, end=None, form=None):
        self.segments = tuple(segments)
        self._start = start
        self._end = end
        self.form = form

    @property
    def start(self):
        return self.segments[0].start if self.segments else self._start

    @property
    def end(self):
        return self.segments[-1].end if self.segments else self._end

    def __len__(self):
        return len(self.segments)

    def __repr__(self):
        return f"WitnessChain({len(self.segments)} segments)"


# ---------------------------------------------------------------------------
# witness kinds


def _check_full_rank(pres, dim, lvl, t):
    """Raise unless a level's ideal at t has the dimension m * lvl * dim_F D
    of lvl pencil vectors free over D."""
    if dim != pres.m * lvl * pres.d2:
        raise StructuralError(f"pencil drops rank at t={t}")


def _pencil_vectors_at(f, vecs, vecs_prime, t):
    """t w + (1 - t) w' for each pair.  At the endpoints, which every
    verification evaluates, that is w at t = 1 and w' at t = 0, whose
    scalars the pencil data keeps canonical (as constructed or parsed).
    Elsewhere it is one mat_vec of (t, 1 - t) by the matrix with a row
    (w_i[c], w'_i[c]) for each pair i and coordinate c: over F_p and Q the
    vectors are lifted once for all pairs."""
    if t == f.one:
        return [tuple(v) for v in vecs]
    if f.is_zero(t):
        return [tuple(v) for v in vecs_prime]
    if not vecs:
        return []
    n = len(vecs[0])
    flat = mat_vec(Matrix(f, [row for w, wp in zip(vecs, vecs_prime) for row in zip(w, wp)]),
                   (t, f.sub(f.one, t)))
    return [tuple(flat[i:i + n]) for i in range(0, len(flat), n)]


class _Kind:
    """The defaults of a witness kind's record (see KINDS)."""

    context = "algebra"
    validity_entry = "validity_nonzero"
    meta_keys = ()

    def check_data(self, data):
        pass


class _Pencil(_Kind):
    """Ideal and flag pencils: one right ideal per level, whose column space
    is the D-span of the level's first pencil vectors t w + (1 - t) w'.  A
    sample where the re-derived minor is nonzero is checked by rank alone."""

    validity_entry = "validity_rederived"

    def size(self, A):
        return module_presentation(A).vlen

    def check_data(self, data):
        w, wp = data["pencil_w"], data["pencil_w_prime"]
        if len(w) != len(wp):
            raise InvalidInputError(f"'pencil_w' has {len(w)} vectors but "
                                    f"'pencil_w_prime' has {len(wp)}")

    def levels(self, w):
        # the vector count of each level; an ideal pencil has one, of them all
        return w.data.get("levels", [len(w.data["pencil_w"])])

    def _level_rdims(self, w, t):
        """The reduced dimension of each level's ideal at t, from one rank per
        level.

        The ideal of a level is the set of elements whose columns lie in the
        D-span W of its lvl pencil vectors.  It is spanned by d_rows(vecs)
        placed in each of the m columns; the placements have disjoint
        supports, so it has dimension m * rank(d_rows), and no ideal need be
        built.  Raises what _ideals_at raises, in the same order.
        """
        A = w.algebra
        pres = module_presentation(A)
        vecs = _pencil_vectors_at(A.field, w.data["pencil_w"], w.data["pencil_w_prime"], t)
        rdims = []
        for lvl in self.levels(w):
            dim = pres.m * rank(pres.d_rows(vecs[:lvl]))
            if dim % A.degree:
                raise StructuralError(
                    f"subspace dimension {dim} is not a multiple of the degree")
            _check_full_rank(pres, dim, lvl, t)
            rdims.append(dim // A.degree)
        return rdims

    def _ideals_at(self, w, t):
        """The right ideals of the pencil at t, one per level: the ideal whose
        column space is the D-span of the first lvl pencil vectors, closed by
        construction (ModulePresentation.ideal_from_subspace, one
        elimination in V).  Its dimension is read off that elimination: a
        dimension that is not a multiple of the degree raises there, then a
        span short of full rank lvl * dim_F D raises here.  Only the
        endpoints are built; a sample needs only the ranks."""
        pres = module_presentation(w.algebra)
        vecs = _pencil_vectors_at(w.field, w.data["pencil_w"], w.data["pencil_w_prime"], t)
        ideals = []
        for lvl in self.levels(w):
            ideals.append(pres.ideal_from_subspace(vecs[:lvl]))
            _check_full_rank(pres, ideals[-1].dim(), lvl, t)
        return ideals

    def derive(self, w, start, failure):
        return _subspace_validity(module_presentation(w.algebra), w.data["pencil_w"],
                                  w.data["pencil_w_prime"], self.levels(w))

    def certify(self, w, validity, detail, start, samples):
        return _sampled(w, validity, samples, lambda t: self.check_sample(w, t))


class IdealPencil(_Pencil):
    tag = "ideal_pencil"
    endpoint = IDEAL
    keys = (("pencil_w", VECTORS), ("pencil_w_prime", VECTORS))
    meta_keys = ("rdim",)

    def evaluate(self, w, t):
        return self._ideals_at(w, t)[0]

    def check_sample(self, w, t):
        # w.start is certified by the endpoint_start entry, not on load: when
        # that passes, w.start is the pencil's ideal at t = 1, closed by
        # construction
        want = w.start.rdim
        if w.meta.get("rdim") != want:
            return False, f"stored rdim {w.meta.get('rdim')!r} != {want}"
        rdim, = self._level_rdims(w, t)
        if rdim != want:
            return False, f"rdim {rdim} != {want}"
        return True, ""


class FlagPencil(_Pencil):
    tag = "flag_pencil"
    endpoint = FLAG
    keys = IdealPencil.keys + (("levels", INTS),)
    meta_keys = ("signature",)

    def check_data(self, data):
        super().check_data(data)
        levels, n = data["levels"], len(data["pencil_w"])
        if (not levels or levels[0] < 0 or levels[-1] != n
                or any(a >= b for a, b in zip(levels, levels[1:]))):
            raise InvalidInputError(
                f"'levels' {levels} must be non-empty, at least 0 and strictly "
                f"increasing, and end at the vector count {n}")

    def evaluate(self, w, t):
        return Flag(self._ideals_at(w, t))

    def check_sample(self, w, t):
        """flag_check of the flag at t, from the level ranks alone.

        Once _level_rdims passes, level l has D-rank exactly lvl_l, so its
        rdim m * lvl_l * dim_F D / deg grows strictly with lvl_l.  A strictly
        increasing signature therefore has strictly increasing levels, so
        each level's vectors are a prefix of the next level's, its D-span W_l
        lies in W_(l+1), and its ideal {x : every column of x in W_l} lies in
        the next one.  The containments flag_check tests are implied.
        """
        sig = tuple(w.meta.get("signature", ()))
        rdims = tuple(self._level_rdims(w, t))
        return rdims == sig and all(a < b for a, b in zip(sig, sig[1:])), ""


class EtaleLine(_Kind):
    """The etale subalgebra E(t) generated by t gen_start + (1 - t) gen_end."""

    tag = "etale_line"
    endpoint = SUBALGEBRA
    keys = (("gen_start", VECTOR), ("gen_end", VECTOR))
    meta_keys = ("etale_dim", "maximal", "et_m")

    def size(self, A):
        return A.dim

    def evaluate(self, w, t):
        coords, = _pencil_vectors_at(w.field, [w.data["gen_start"]], [w.data["gen_end"]], t)
        return generate_etale(AlgebraElement(w.algebra, coords))

    def derive(self, w, start, failure):
        """The discriminant of the degree-d pencil minimal polynomial mp(t) of
        x(t) = t gen_start + (1 - t) gen_end, with d = dim E(1), from
        start = E(1) as endpoint_start evaluated it, or None with the
        evaluation's failure.  polyrings.pencil_discriminant takes it, in
        Z[t] over F_p and Q.  Each sample t where it is nonzero carries the
        stored meta checked once, on E(1) (certify).

        Why E(1) speaks for every such t.  mp(1) is monic of degree d and
        kills x(1), whose minimal polynomial has degree d = dim E(1), so it
        is that squarefree minimal polynomial, and t = 1 is such a point.
        Let R be F[t][1/disc] with the roots theta_1..theta_d of mp adjoined
        (an integral extension of F[t][1/disc], in which every
        theta_i - theta_j is a unit), and K its fraction field.  The Lagrange
        idempotents e_i = prod_(j != i) (x - theta_j) / (theta_i - theta_j)
        have coordinates in R; since mp(x) = 0 they are orthogonal
        idempotents summing to 1 in A (x) R, and x = sum theta_i e_i.  Over K
        each e_i is nonzero, or a polynomial of degree d - 1 would kill x.  A
        point t0 with disc(t0) != 0 extends to a homomorphism R -> Fbar
        (lying over), under which the theta_i become the d distinct roots of
        mp(t0) and the e_i orthogonal idempotents of A (x) Fbar summing to 1.
        The maps P_ij: u -> e_i u e_j have matrices over R, so their ranks
        can only drop at t0; but A = sum_ij e_i A e_j is a direct sum both
        over K and at t0, so the ranks sum to dim A on both sides and none
        drops.  P_ii(1) = e_i != 0 over K, so e_i(t0) != 0, and g(x(t0)) = 0
        forces g(theta_i(t0)) = 0 for each i: the minimal polynomial of x(t0)
        is mp(t0), squarefree of degree d, so E(t0) is etale of dim d.  As
        the theta_i(t0) are distinct, u commutes with x(t0) iff e_i u e_j = 0
        for all i != j, so dim C_A(x(t0)) = sum_i rank P_ii(t0), the
        dimension over K.  Dimension, maximality and is_et_m_point (one
        centralizer rank) are therefore the same at t0 as at t = 1.  This
        uses only an associative unital table, and holds in every
        characteristic: the discriminant is the squared Vandermonde
        determinant (polyrings.xpoly_discriminant, which
        pencil_discriminant equals).
        """
        if start is None:
            raise StructuralError(failure)
        disc = pencil_discriminant(w.algebra, w.data["gen_start"], w.data["gen_end"],
                                   start.dim)
        if disc is None:
            raise StructuralError(f"no degree-{start.dim} pencil minimal polynomial")
        return disc

    def _check_meta(self, w, E):
        """The stored meta of an etale line against E = E(1)."""
        d = w.meta.get("etale_dim")
        if d is not None and E.dim != d:
            return False, f"dim {E.dim} != {d}"
        maximal = w.meta.get("maximal")
        if maximal is not None and maximal != E.is_maximal():
            return False, f"maximal is {maximal}, but dim {E.dim} in degree {E.algebra.degree}"
        m = w.meta.get("et_m")
        if m is not None and not is_et_m_point(E, m):
            return False, f"not a balanced type-m={m} subalgebra"
        return True, ""

    def certify(self, w, validity, detail, start, samples):
        outcome = (False, detail) if validity is None else self._check_meta(w, start)
        return _sampled(w, validity, samples, lambda t: outcome)


class QuadricLine(_Kind):
    """A conic segment through aux, certified for every t with no sample:
    its coordinates satisfy the form identically, and each of their common
    zeros is a zero of the validity."""

    tag = "quadric_line"
    context = "form"
    endpoint = VECTOR
    keys = (("coord_polys", POLYS), ("aux", VECTOR))

    def size(self, form):
        return form.nvars

    def evaluate(self, w, t):
        pt = normalize_point(w.field, tuple(p.eval(t) for p in w.data["coord_polys"]))
        if pt is None:
            raise StructuralError(f"curve coordinates vanish at t={t}")
        return pt

    def derive(self, w, start, failure):
        return w.validity  # which the certificate ties to the coordinates

    def certify(self, w, validity, detail, start, samples):
        coord_polys = w.data["coord_polys"]
        # g | v^deg(g) iff every common zero of the coordinates is a zero of v;
        # a constant gcd stays constant, so the loop stops at the first one,
        # and a nonzero constant divides everything
        g = Poly.zero(w.field)
        for p in coord_polys:
            g = poly_gcd(g, p)
            if g.degree == 0:
                break
        return [("on_quadric_identity", w.form.eval_polys(coord_polys).is_zero(), ""),
                ("coord_gcd_divides_validity", not g.is_zero() and (
                    g.degree == 0 or validity.pow_mod(g.degree, g).is_zero()), "")]


KINDS = {kind.tag: kind for kind in (IdealPencil(), FlagPencil(), EtaleLine(), QuadricLine())}


# ---------------------------------------------------------------------------
# verification


class VerificationReport:
    def __init__(self):
        self.checks = []

    def add(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(n, d) for n, ok, d in self.checks if not ok]

    def to_json(self):
        return {"pass": self.passed,
                "checks": [{"name": n, "ok": ok, "detail": d}
                           for n, ok, d in self.checks]}

    def __repr__(self):
        return f"VerificationReport(pass={self.passed}, checks={len(self.checks)})"


def default_samples(field):
    if isinstance(field, Rationals):
        return [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)]
    return list(field.elements())


def _fmt(field, t):
    v = field.to_json(t)
    return v if isinstance(v, str) else ",".join(v)


def _sampled(w, validity, samples, check):
    """A membership entry (check(t), or False and an exception's message)
    per sample t where validity, if there is one, is nonzero."""
    field = w.field
    entries = []
    for t in default_samples(field) if samples is None else samples:
        if validity is not None and field.is_zero(validity.eval(t)):
            continue
        try:
            ok, detail = check(t)
        except Exception as exc:
            ok, detail = False, str(exc)
        entries.append((f"membership@t={_fmt(field, t)}", ok, detail))
    return entries


def verify_witness(w, samples=None):
    """Re-check a witness or chain from scratch.

    Each segment gets the same steps from its kind's record: the endpoints
    evaluated, the validity re-derived (derive), for which the stored one
    must equal it, the endpoint matches as exact object equalities, then the
    kind's certificate (certify), which builds no ideal or subalgebra
    between the endpoints.  An ideal or flag evaluation is closed by
    construction, so a stored endpoint that matches it is a right ideal (or
    a flag of them); loading does not check that (serialize).  Chains also
    get continuity checks.  A chain without segments gets one entry,
    endpoints_equal: start and end are the same nonzero point after
    normalize_point over its form's field.  Failures are report entries,
    never exceptions.
    """
    if isinstance(w, WitnessChain):
        report = VerificationReport()
        if not w.segments:
            ends = ({normalize_point(w.form.field, p) for p in (w.start, w.end)}
                    if w.form is not None else {None})
            ok = len(ends) == 1 and None not in ends
            report.add("endpoints_equal", ok, "" if ok else
                       "start and end are not one nonzero point of the chain's form")
            return report
        for idx, seg in enumerate(w.segments):
            sub = verify_witness(seg, samples)
            for name, ok, detail in sub.checks:
                report.add(f"segment{idx}.{name}", ok, detail)
        for idx in range(len(w.segments) - 1):
            report.add(f"continuity@{idx}",
                       w.segments[idx].end == w.segments[idx + 1].start)
        return report

    report = VerificationReport()
    kind, field = w.record, w.field
    ends = []  # (name, ok, detail, object at t)
    for name, t, target, at in (("endpoint_start", field.one, w.start, "1"),
                                ("endpoint_end", field.zero, w.end, "0")):
        try:
            got = w.evaluate(t)
            ok = got == target
            ends.append((name, ok, "" if ok else
                         f"the stored endpoint differs from the segment at t = {at}", got))
        except Exception as exc:
            ends.append((name, False, f"evaluation failed: {exc}", None))
    _, _, failure, start = ends[0]
    try:
        validity = kind.derive(w, start, failure)
        detail = "" if validity == w.validity else "stored validity differs"
    except Exception as exc:
        validity, detail = None, f"derivation failed: {exc}"
    report.add(kind.validity_entry, not detail, detail)
    for name, ok, entry_detail in ([end[:3] for end in ends]
                                   + kind.certify(w, validity, detail, start, samples)):
        report.add(name, ok, entry_detail)
    return report


# ---------------------------------------------------------------------------
# ideal and flag pencils


def _pencil_validity(pres, wvecs, wpvecs):
    """A single rank minor certifying full span along the pencil.

    Candidate column subsets come from the rref pivots at t = 1 and t = 0; a
    minor that is nonzero at both endpoints is preferred, otherwise the one
    from t = 1 is used (it cannot vanish identically, and the endpoints are
    verified exactly anyway).  A zero level (no vectors) is constant along
    the pencil; its minor is the empty one, 1.

    The minors are minors of the k x vlen matrix t R1 + (1 - t) R0, R1 and
    R0 the D-rows at t = 1 and t = 0.  Over F_p and Q d_rows gives the 2k
    rows as int rows at one scale s, and each minor is one Bareiss
    determinant in Z[t] (_zt_line_minor), lowered once by s^k; over F_p s is
    1 and that int determinant reduced mod p is the one over F_p.  A
    determinant is unique, so it is the Poly that polymat_det gives over
    F[t], which F_{p^k} keeps.
    """
    field = pres.field
    both = pres.d_rows(list(wvecs) + list(wpvecs))
    lifted = both.lifted
    if lifted is None:
        rows = both.rows
        k = len(rows) // 2
        piv1, piv0 = rref(rows=Matrix(field, rows[:k]))[1], rref(rows=Matrix(field, rows[k:]))[1]
        # polynomial matrix of the moving span rows
        prows = [line_coords(field, r1, r0) for r1, r0 in zip(rows[:k], rows[k:])]

        def minor(cols):
            return polymat_det(field, [[row[c] for c in cols] for row in prows])
    else:
        ints = lifted[0]
        k = len(ints) // 2
        # forward elimination suffices for the pivots
        piv1, piv0 = pivots(Matrix(field, None, ints[:k])), pivots(Matrix(field, None, ints[k:]))

        def minor(cols):
            return _zt_line_minor(both, cols)

    v1 = minor(piv1)
    if field.is_zero(v1.eval(field.one)):
        raise ConstructionFailedError("pivot minor vanishes at t=1")  # pragma: no cover
    if not field.is_zero(v1.eval(field.zero)):
        return v1
    if piv0 != piv1:
        v0 = minor(piv0)
        if not field.is_zero(v0.eval(field.one)):
            return v0
    return v1


def _zt_line_minor(rows, cols):
    """The minor at columns cols of t R1 + (1 - t) R0 over F_p or Q, for
    the Matrix rows of R1 then R0, read lifted at scale s: its entries
    e + (a - e) t are Z[t] int lists, and the k x k minor is one Bareiss
    determinant in Z[t], lowered once by s^k."""
    field = rows.field
    ints, s = rows.lifted
    k = len(ints) // 2
    det = _bareiss(_ZT, [[_zt_trim([r0[c], r1[c] - r0[c]]) for c in cols]
                         for r1, r0 in zip(ints[:k], ints[k:])])
    return Poly(field, field.lower_vector(det, s ** k))


def _subspace_validity(pres, wvecs, wpvecs, levels):
    """The validity of a pencil of nested column spaces: the product over the
    levels of their rank minors, or 1 when the pencil is constant.  The
    constructor and the verifier both derive it here."""
    validity = Poly.one(pres.field)
    if wvecs != wpvecs:
        for lvl in levels:
            validity = validity * _pencil_validity(pres, wvecs[:lvl], wpvecs[:lvl])
    return validity


def _subspace_pencil(pres, kind, start, end, ideals, ideals_prime, meta):
    """The pencil of nested column spaces from the ideals of start (t=1) to
    those of end (t=0); an ideal pencil is the one-level case.

    Each level's column space gets a D-basis extending the one below it, so
    containments hold identically in t.  The validity is the product over
    the levels of their rank minors (1 when start equals end), and the
    endpoints are re-evaluated from the pencil data, which also rejects an
    ideal that its column space does not determine.
    """
    A = start.algebra
    wb, wpb, levels = [], [], []
    for I, Ip in zip(ideals, ideals_prime):
        wb = pres.d_basis_of(pres.image_subspace(I), extend_from=wb)
        wpb = pres.d_basis_of(pres.image_subspace(Ip), extend_from=wpb)
        levels.append(len(wb))
    data = {"pencil_w": wb, "pencil_w_prime": wpb, "levels": levels}
    w = PencilWitness(kind, start, end, _subspace_validity(pres, wb, wpb, levels),
                      {key: data[key] for key, _ in KINDS[kind].keys}, algebra=A, meta=meta)
    if w.evaluate(A.field.one) != start or w.evaluate(A.field.zero) != end:
        raise ConstructionFailedError(
            "pencil endpoints do not reproduce the inputs; the module "
            "presentation does not match")
    return w


def connect_ideals(I, Iprime):
    """A degree-1 pencil of right ideals from I (t=1) to I' (t=0).

    Needs a module presentation (split matrix algebra or a matrix-by-
    quaternion tensor preset), equal reduced dimensions and column spaces
    free over D.  The pencil interpolates paired D-bases of the column-space
    images of the two ideals: the one-level case of connect_flags.
    """
    if Iprime.algebra != I.algebra:
        raise InvalidInputError("ideals live in different algebras")
    if I.rdim != Iprime.rdim:
        raise InvalidInputError(f"reduced dimensions differ: {I.rdim} != {Iprime.rdim}")
    return _subspace_pencil(module_presentation(I.algebra), IdealPencil.tag, I, Iprime,
                            (I,), (Iprime,), {"rdim": I.rdim})


def connect_flags(flag, flag_prime):
    """Simultaneous pencils for all levels of two flags of equal signature,
    preserving containment identically in the parameter (nested bases)."""
    A = flag.algebra
    sig = flag.signature
    if flag_prime.signature != sig:
        raise InvalidInputError(
            f"signatures differ: {sig} != {flag_prime.signature}")
    if flag_prime.algebra != A:
        raise InvalidInputError("flags live in different algebras")
    if not flag_check(flag, sig) or not flag_check(flag_prime, sig):
        raise InvalidInputError("input flags fail their own containment checks")
    pres = module_presentation(A)
    for rd in sig:
        if rd % pres.ind:
            raise InvalidInputError(f"rdim {rd} is not a multiple of the index")
    return _subspace_pencil(pres, FlagPencil.tag, flag, flag_prime, flag.ideals,
                            flag_prime.ideals, {"signature": list(sig)})


# ---------------------------------------------------------------------------
# etale lines


def _etale_line_witness(A, gen_start, gen_end, degree, meta, start=None, end=None):
    """An etale_line segment with validity = discriminant of the pencil
    minimal polynomial (a polynomial in t), or None if the line is
    degenerate for this degree.  start and end, when given, are the
    subalgebras the caller has generated from gen_start and gen_end."""
    validity = pencil_discriminant(A, gen_start.coords, gen_end.coords, degree)
    if validity is None or validity.is_zero():
        return None
    start = generate_etale(gen_start) if start is None else start
    end = generate_etale(gen_end) if end is None else end
    return PencilWitness(EtaleLine.tag, start, end, validity,
                         {"gen_start": gen_start.coords,
                          "gen_end": gen_end.coords},
                         algebra=A, meta=meta)


def _random_combination(A, basis, rng):
    """sum c_i b_i over a nonempty basis, with one f.random(rng) draw per
    basis row, in order."""
    f = A.field
    return tuple(mat_vec(Matrix(f, transpose(basis)), [f.random(rng) for _ in basis]))


def _redraw_generator(E, rng):
    """A fresh generator of the same subalgebra: a random combination of the
    basis whose minimal polynomial still has full degree."""
    A = E.algebra
    for _ in range(64):
        cand = AlgebraElement(A, _random_combination(A, E.basis, rng))
        try:
            if generate_etale(cand) == E:
                return cand
        except NotEtaleError:
            continue
    raise FieldTooSmallError("could not redraw a primitive generator")


def connect_max_etale(E1, E2, rng_seed=0):
    """A line of generators linking two maximal separable subalgebras.

    The pencil minimal polynomial always has full degree here, and its
    discriminant is nonzero at t=1, so the first attempt succeeds whenever
    the generators are honest; up to 15 redraws are kept as a safety valve.
    """
    A = E1.algebra
    if E2.algebra != A:
        raise InvalidInputError("subalgebras live in different algebras")
    n = A.degree
    if not E1.is_maximal() or not E2.is_maximal():
        raise InvalidInputError("both subalgebras must be maximal (dim = degree)")
    rng = random.Random(rng_seed)
    a1, a2 = E1.generator, E2.generator
    meta = {"etale_dim": n, "maximal": True}
    for _ in range(16):
        w = _etale_line_witness(A, a1, a2, n, meta)
        if w is not None:
            if w.start != E1 or w.end != E2:
                raise ConstructionFailedError("generator line endpoints moved")
            return w
        a1 = _redraw_generator(E1, rng)
        a2 = _redraw_generator(E2, rng)
    raise FieldTooSmallError(
        "no generator line with nonzero discriminant found within budget")


# ---------------------------------------------------------------------------
# involutions: inner twists and symmetry-preserving constructions


def _intertwiner_space(A, pairs):
    """Kernel of the conditions L(x) u = u R(x) for the (L(x), R(x)) pairs:
    over F_p and Q the kernel of the int commutator rows, with only the
    kernel vectors lowered (Algebra.commutator_rows)."""
    return kernel(A.commutator_rows(pairs)).rows


def _search_invertible(A, space, rng, first, image=tuple):
    """The first invertible image(c) and its inverse, c running over the
    candidates first and then over rounds of eight seeded combinations of
    space, 64 rounds in all (first is the first round); None if none is
    invertible."""
    candidates = first
    for _ in range(64):
        for cand in candidates:
            v = image(cand)
            v_inv = A.inverse(v)
            if v_inv is not None:
                return v, v_inv
        candidates = [_random_combination(A, space, rng) for _ in range(8)]
    return None


def solve_inner_twist(sigma1, sigma2, rng_seed=0):
    """u with sigma2(x) u = u sigma1(x) for all x, invertible, normalized so
    its first nonzero coordinate is 1.  For same-type involutions on a
    central simple algebra the solution space is a line, and u is symmetric
    for sigma1."""
    A = sigma1.algebra
    if sigma2.algebra != A:
        raise InvalidInputError("involutions live on different algebras")
    if sigma1.kind != sigma2.kind:
        raise InvalidInputError("involutions have different types")
    # conditions on a generating set suffice: from those on x and on y,
    # sigma2(xy) u = sigma2(y) sigma2(x) u = sigma2(y) u sigma1(x) = u sigma1(xy)
    pairs = [(sigma2.apply_coords(g), sigma1.apply_coords(g))
             for g in A.closure_generators()]
    space = _intertwiner_space(A, pairs)
    if not space:
        raise StructuralError("no intertwiner exists; the involutions are not "
                              "inner twists of each other")
    found = _search_invertible(A, space, random.Random(rng_seed), space)
    if found is None:
        raise FieldTooSmallError("no invertible intertwiner found within budget")
    return _symmetric_intertwiner(sigma1, found[0])


def _symmetric_intertwiner(sigma1, u):
    """u normalized so its first nonzero coordinate is 1, as an element,
    after checking that it is symmetric for sigma1."""
    A = sigma1.algebra
    f = A.field
    first = next(c for c in u if not f.is_zero(c))
    u = tuple(f.div(c, first) for c in u)
    if sigma1.apply_coords(u) != u:
        raise StructuralError("intertwiner is not symmetric; involution types "
                              "are inconsistent")
    return A.element(u)


def symplectic_fixing_involution(L, tau, rng_seed=0):
    """A symplectic involution fixing a separable subalgebra pointwise.

    An element fixed by a symplectic involution has Prd = Prp^2, the square
    of its Pfaffian characteristic polynomial (Knus-Merkurjev-Rost-Tignol,
    The Book of Involutions, ch. I; involutions.pfaffian_char_poly), so
    every root of its reduced characteristic polynomial has even
    multiplicity.  Those multiplicities are the parts of the type, so a
    subalgebra whose type has an odd part is rejected before any kernel or
    search.
    """
    parts = etale_type(L).parts
    if any(part % 2 for part in parts):
        raise InvalidInputError(
            f"a subalgebra of type {list(parts)} has an odd part, so no "
            "symplectic involution fixes it")
    cent = _intertwiner_space(L.algebra, [(L.generator.coords,) * 2])
    return _symplectic_fixing(L, tau, rng_seed, cent)[0]


def _symplectic_fixing(L, tau, rng_seed, cent):
    """(sigma, v, v^-1): a symplectic involution sigma = Int(v^-1) o tau
    fixing the separable subalgebra L pointwise, with v tau-symmetric.

    Solve u l = tau(l) u on the generator, then adjust u by a centralizer
    element q until v = tau(u q) + u q is invertible; conjugating tau by
    v^-1 fixes the subalgebra and stays symplectic because v is
    tau-symmetric.  The twist is twist_by_inner(tau, v^-1, v), handed the v
    the search already holds, so nothing is inverted outside the searches.
    cent is the centralizer basis of L's generator a, the kernel of
    x -> a x - x a, which every caller has already solved.
    """
    A = tau.algebra
    if tau.kind != SYMPLECTIC:
        raise InvalidInputError("the seed involution must be symplectic")
    if L.algebra != A:
        raise InvalidInputError("subalgebra lives in a different algebra")
    if 2 * L.dim > A.degree:
        # symmetric elements of a symplectic pair satisfy a polynomial of
        # half the degree, so no symplectic involution fixes anything bigger
        raise InvalidInputError(
            f"a subalgebra of dimension {L.dim} cannot be fixed by a "
            f"symplectic involution on a degree-{A.degree} algebra")
    a = L.generator
    ta = tau.apply_coords(a.coords)
    space = _intertwiner_space(A, [(ta, a.coords)])
    if not space:
        raise StructuralError("no intertwiner with the conjugate embedding")
    rng = random.Random(rng_seed)
    found = _search_invertible(A, space, rng, space)
    if found is None:
        raise FieldTooSmallError("no invertible intertwiner found within budget")
    u = found[0]

    def symmetrize(q):
        uq = A.mul(u, q)
        return A.add(tau.apply_coords(uq), uq)

    found = _search_invertible(A, cent, rng, [A.unit] + cent, symmetrize)
    if found is None:
        raise FieldTooSmallError("no invertible symmetrization found within budget")
    v, v_inv = found
    sigma = twist_by_inner(tau, v_inv, v)
    if sigma.kind != SYMPLECTIC:
        raise StructuralError("twisted involution lost symplecticity")
    if sigma.apply_coords(a.coords) != a.coords:
        raise StructuralError("twisted involution does not fix the subalgebra")
    return sigma, v, v_inv


def default_symplectic_involution(A):
    """A canonical symplectic involution for exponent-2 presets, built and
    verified once per algebra object.  A keeps its Matrix and kind, not
    the Involution, which refers to A: that cycle would leave every such
    algebra to the collector."""
    if A._symplectic is None:
        sigma = _default_symplectic_involution(A)
        A._symplectic = sigma._matrix, sigma.kind
    return Involution(A, *A._symplectic)


def _default_symplectic_involution(A):
    kind = A.preset.get("kind")
    if kind == "matrix":
        n = A.preset["n"]
        if n % 2:
            raise InvalidInputError("odd matrix algebras have no symplectic involution")
        return adjoint_involution(A, standard_alternating_matrix(A.field, n))
    if kind == "quaternion":
        return quaternion_conjugation(A)
    if kind == "tensor":
        left, right = A.preset["left"], A.preset["right"]
        try:
            return tensor_involution(default_symplectic_involution(left),
                                     default_orthogonal_involution(right), A)
        except InvalidInputError:
            return tensor_involution(default_orthogonal_involution(left),
                                     default_symplectic_involution(right), A)
    raise UnsupportedFieldError(f"no canonical symplectic involution for preset {kind!r}")


def default_orthogonal_involution(A):
    kind = A.preset.get("kind")
    if kind == "matrix":
        return transpose_involution(A)
    if kind == "quaternion":
        return quaternion_reversal(A)
    if kind == "tensor":
        left, right = A.preset["left"], A.preset["right"]
        return tensor_involution(default_orthogonal_involution(left),
                                 default_orthogonal_involution(right), A)
    raise UnsupportedFieldError(f"no canonical orthogonal involution for preset {kind!r}")


def connect_exp2(L1, L2, rng_seed=0):
    """A chain of at most three generator lines between two half-degree
    separable subalgebras of an exponent-2 algebra.

    Build symplectic involutions fixing each subalgebra, twist one into the
    other by a symmetric unit u, pick a symmetric element a1 whose Pfaffian
    polynomial (and that of u a1) is squarefree, and link through the
    subalgebras generated by a1 and u a1.  Every segment's validity is the
    discriminant in t of the degree-m pencil minimal polynomial.

    Both involutions come from one tau, as sigma_i = Int(v_i^-1) o tau with
    v_i tau-symmetric (_symplectic_fixing), so the twist is read off them
    rather than solved for: u = v2^-1 v1 gives
    sigma2(x) u = v2^-1 tau(x) v2 v2^-1 v1 = v2^-1 tau(x) v1 = u sigma1(x).
    A is central simple for every certified exponent-2 preset, so by
    Skolem-Noether the intertwiners of sigma1 and sigma2 form a line, and u
    normalized to first nonzero coordinate 1 is exactly what
    solve_inner_twist(sigma1, sigma2) returns.  u is sigma1-symmetric,
    sigma1(u) = v1^-1 tau(v1) tau(v2^-1) v1 = u, since tau(v_i) = v_i; that
    is checked, as is the sigma2-symmetry of each u a1.  Each distinct
    endpoint's centralizer basis is solved once, and only after its
    dimension passes: its size is the balance test of is_et_m_point
    (dim C(a) = n^2 - rank), and the same basis seeds the symmetrization
    search.
    """
    A = L1.algebra
    if L2.algebra != A:
        raise InvalidInputError("subalgebras live in different algebras")
    if A.field.char == 2:
        raise UnsupportedFieldError("exponent-2 paths need characteristic != 2")
    if not certified_exponent_divides_2(A):
        raise InvalidInputError(
            "exponent-2 certificate missing: build the algebra from matrix, "
            "quaternion, or tensor presets")
    n = A.degree
    if n % 2:
        raise InvalidInputError("the degree must be even")
    m = n // 2
    cents = []
    for L in (L1,) if L1 == L2 else (L1, L2):
        cent = _intertwiner_space(A, [(L.generator.coords,) * 2]) if L.dim == m else ()
        if len(cent) != n * n // m:
            raise InvalidInputError(
                "endpoints must be half-degree subalgebras of balanced type")
        cents.append(cent)
    meta = {"etale_dim": m, "et_m": m}
    if L1 == L2:
        w = _etale_line_witness(A, L1.generator, L1.generator, m, meta)
        if w is None:
            raise ConstructionFailedError("constant segment failed")
        return WitnessChain([w])
    rng = random.Random(rng_seed)
    tau = default_symplectic_involution(A)
    sigma1, v1, _ = _symplectic_fixing(L1, tau, rng_seed, cents[0])
    sigma2, _, v2_inv = _symplectic_fixing(L2, tau, rng_seed + 1, cents[1])
    u = _symmetric_intertwiner(sigma1, A.mul(v2_inv, v1))
    basis1 = sym_basis(sigma1)
    beta1, beta2 = L1.generator, L2.generator
    for _ in range(64):
        alpha1 = A.element(_random_combination(A, basis1, rng))
        alpha2 = u * alpha1
        if sigma2.apply_coords(alpha2.coords) != alpha2.coords:
            raise StructuralError("u alpha1 is not symmetric for sigma2")
        try:
            E1 = generate_etale(alpha1)
            E2 = generate_etale(alpha2)
            if not is_et_m_point(E1, m) or not is_et_m_point(E2, m):
                continue
        except Exception:
            continue
        # the inner ends are E1 and E2; the outer ones are generated from
        # the inputs' generators, so the endpoint check below still tests them
        seg1 = _etale_line_witness(A, beta1, alpha1, m, meta, end=E1)
        seg2 = _etale_line_witness(A, alpha1, alpha2, m, meta, start=E1, end=E2)
        seg3 = _etale_line_witness(A, alpha2, beta2, m, meta, start=E2)
        if seg1 is None or seg2 is None or seg3 is None:
            continue
        chain = WitnessChain([seg1, seg2, seg3])
        if chain.start != L1 or chain.end != L2:
            raise ConstructionFailedError("chain endpoints do not match the inputs")
        return chain
    raise FieldTooSmallError(
        "no symmetric element with squarefree Pfaffian polynomials found "
        "within budget; extend scalars")


# ---------------------------------------------------------------------------
# quadric linkage


def _quadric_segment(form, p1, p2, aux, b1, b2, b12):
    """The conic through p1 and p2 swept by the secant pencil through aux,
    read off three polar values: b1 = b(p1, aux), b2 = b(p2, aux) and
    b12 = b(p1, p2).  It is phi(t) = lam(t) w(t) - q(w(t)) aux with
    w(t) = p2 + t (p1 - p2) and lam(t) = b(w(t), aux) = b2 + (b1 - b2) t.

    The formula guarantees what verify_witness certifies, so nothing is
    re-checked here.  With b(u, v) = q(u+v) - q(u) - q(v) and q(aux) = 0,
    q(lam w - q(w) aux) = lam^2 q(w) - lam q(w) b(w, aux) + q(w)^2 q(aux) = 0
    identically.  As q(p1) = q(p2) = 0 and b(p, p) = 2 q(p),
    q(w) = t b(p2, p1 - p2) + t^2 q(p1 - p2) = b12 t - b12 t^2, which uses
    nothing else, so it holds in every characteristic and for degenerate
    forms.  Hence
    phi = b2 p2 + (b2 p1 + (b1 - 2 b2) p2 - b12 aux) t
          + ((b1 - b2)(p1 - p2) + b12 aux) t^2,
    with no polynomial evaluated, and phi(1) = b1 p1, phi(0) = b2 p2.  The
    caller picks aux off both tangent hyperplanes, so b1 and b2 are nonzero,
    and p1, p2 are normalized, so the segment's ends are p1 and p2; the
    validity is lam."""
    field = form.field
    add, sub, mul = field.add, field.sub, field.mul
    l1 = sub(b1, b2)
    c1 = sub(b1, add(b2, b2))
    coord_polys = [Poly(field, [mul(b2, y),
                                sub(add(mul(b2, x), mul(c1, y)), mul(b12, a)),
                                add(mul(l1, sub(x, y)), mul(b12, a))])
                   for x, y, a in zip(p1, p2, aux)]
    return PencilWitness(QuadricLine.tag, p1, p2, Poly(field, [b2, l1]),
                         {"coord_polys": coord_polys, "aux": aux},
                         form=form)


def _aux_candidates(form, supplied):
    """Normalized quadric points, lazily: the supplied points that are on the
    quadric, else the quadric's points (over Q, those with coordinates in
    [-3, 3])."""
    field = form.field
    if supplied is not None:
        for v in supplied:
            p = normalize_point(field, v)
            if p is not None and field.is_zero(form.eval(p)):
                yield p
        return
    if isinstance(field, Rationals):
        import itertools
        vals = [Fraction(v) for v in range(-3, 4)]
        for vec in itertools.product(vals, repeat=form.nvars):
            p = normalize_point(field, vec)
            if p is not None and field.is_zero(form.eval(p)):
                yield p
    else:
        from .quadrics import points_on_quadric
        yield from points_on_quadric(form)


def connect_quadric_points(form, p1, p2, points=None):
    """A chain of at most two conic segments on the quadric linking two
    rational points, through auxiliary points off both tangent hyperplanes:
    the points given, else the quadric's points (over Q, those with
    coordinates in [-3, 3]).  Here untrusted data enters: the endpoints are
    checked and normalized, and the candidates filtered, before the search."""
    field = form.field
    for p in (p1, p2):
        if len(p) != form.nvars:
            raise InvalidInputError(f"endpoint has {len(p)} coordinates, "
                                    f"but the form has {form.nvars} variables")
    p1 = normalize_point(field, p1)
    p2 = normalize_point(field, p2)
    for p in (p1, p2):
        if p is None or not field.is_zero(form.eval(p)):
            raise InvalidInputError("endpoints must be points of the quadric")
    return _link_quadric_points(form, p1, p2, _aux_candidates(form, points), {})


def _link_quadric_points(form, p1, p2, candidates, polar):
    """connect_quadric_points on trusted data: p1, p2 and every candidate are
    normalized points of the quadric.  candidates may be lazy; polar maps a
    point to its polar vector B p and is filled here as needed, so a caller
    that links many pairs computes each B p once."""
    if p1 == p2:
        return WitnessChain([], start=p1, end=p2, form=form)
    field = form.field
    is_zero = field.is_zero

    def polar_of(p):
        v = polar.get(p)
        if v is None:
            v = polar[p] = form.polar(p)
        return v

    def segment(a, b, pool):
        """The segment from a to b through the first p of pool off both
        tangent hyperplanes at a and b, two distinct quadric points, or None.
        Such a p is also off the line through a and b, so rank(a, b, p) = 3
        and p is neither a nor b: if p = alpha a + beta b, then
        q(p) = alpha beta b(a, b), b(p, a) = beta b(a, b) and
        b(p, b) = alpha b(a, b), so both polar values nonzero would make
        q(p) nonzero.  This uses only q(a) = q(b) = 0 and b(a, a) = 2 q(a),
        so it holds over any field and for any form, degenerate or in
        characteristic 2."""
        rows = [polar_of(a), polar_of(b)]
        polars = Matrix(field, rows)
        for p in pool:
            ba, bb = mat_vec(polars, p)
            if not (is_zero(ba) or is_zero(bb)):
                return _quadric_segment(form, a, b, p, ba, bb,
                                        mat_vec(Matrix(field, rows[:1]), b)[0])
        return None

    # One lazy pass in candidate order returns the first good point as soon
    # as it is seen.  If no point is good, the pass has seen every
    # candidate, so the fallback below walks the whole list.
    seen = []

    def first_pass():
        for p in candidates:
            seen.append(p)
            yield p

    seg = segment(p1, p2, first_pass())
    if seg is not None:
        return WitnessChain([seg])
    # two segments through an intermediate point
    for r in seen:
        if r in (p1, p2):
            continue
        seg1 = segment(p1, r, seen)
        if seg1 is None:
            continue
        seg2 = segment(r, p2, seen)
        if seg2 is None:
            continue
        return WitnessChain([seg1, seg2])
    raise FieldTooSmallError(
        "no auxiliary point off both tangent hyperplanes; too few points")
