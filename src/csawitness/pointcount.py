"""Finite-field enumeration of variety models, zero cycles, the transfer map,
rational-point searches over Q, and linkage graphs of degree-n cycles at
desk scale.

Models live over a prime base field; points of degree d are computed inside
the canonical extension F_{p^d} (the lexicographically first modulus, given
by _Model.field_at, which every model inherits), so a closed point is
always represented over its own minimal field and no cross-field coercion
is ever needed during enumeration.  The closed-point rule: a closed point
of degree d is the Frobenius orbit of a point over F_{p^d}, stored by the
orbit's least member under _scalar_key; enumeration and transfer_cycle
(which first maps a point over F_{p^n} into F_{p^d}) both apply it, so equal
cycles compare equal.  The model owns the one point list of each degree
(_Model.points): closed points are read off it, and QuadricCurves links
through it, so every curve of a linkage graph takes its auxiliary points
from the model itself.  Connectivity findings are evidence at finitely many
q, never proofs: the underlying statements quantify over all finite
extensions.
"""

import itertools
from fractions import Fraction
from math import gcd

from .arith import first_int_root
from .errors import (
    BudgetExceededError, FieldTooSmallError, InvalidInputError,
    StructuralError, UnsupportedFieldError,
)
from .fields import PrimeField, Rationals, standard_extension
from .linalg import Matrix, rref
from .poly import Poly
from .quadrics import (
    QuadraticForm, enumerate_rref_subspaces, normalize_point, points_on_quadric,
)
from .witness import _link_quadric_points, verify_witness

# the most coordinate vectors a degree-e enumeration may visit
ENUMERATION_BUDGET = 10 ** 7

SCOPE_NOTE = ("desk-scale evidence: checked over finitely many finite fields, "
              "while the corresponding statements quantify over all finite "
              "extensions")


# ---------------------------------------------------------------------------
# variety models


class _Model:
    """A variety model over a prime base field F_p; its points of degree d
    live in the canonical extension field_at(d)."""

    def __init__(self, field):
        if not isinstance(field, PrimeField):
            raise UnsupportedFieldError(
                f"enumeration models need a prime base field F_p, not {field!r}")
        self.base_field = field
        self._points = {}

    def field_at(self, d):
        return self.base_field if d == 1 else standard_extension(self.base_field.p, d)

    def points(self, d):
        """The points over field_at(d), enumerated once per degree."""
        if d not in self._points:
            self._points[d] = self.points_over(self.field_at(d))
        return self._points[d]


class QuadricModel(_Model):
    """A quadric hypersurface in P^(nvars-1) given by an exact form."""

    kind = "quadric"

    def __init__(self, form):
        super().__init__(form.field)
        self.form = form
        self.ambient = form.nvars
        self._forms = {form.field: form}

    def form_at(self, field):
        """The form over field, built once per field."""
        if field not in self._forms:
            lift = field.lift
            self._forms[field] = QuadraticForm(
                field, self.form.nvars,
                {k: lift(c) for k, c in self.form.coeffs.items()})
        return self._forms[field]

    def points_over(self, field):
        return points_on_quadric(self.form_at(field))

    def contains(self, field, coords):
        return field.is_zero(self.form_at(field).eval(coords))

    def normalize(self, field, coords):
        return normalize_point(field, coords)

    def to_json(self):
        return {"kind": self.kind, "form": self.form.to_json()}


class GrassmannianModel(_Model):
    """Gr(k, m): points are canonical rref matrices, flattened."""

    kind = "grassmannian"

    def __init__(self, field, k, m):
        super().__init__(field)
        if not 0 < k < m:
            raise InvalidInputError("need 0 < k < m")
        self.k = k
        self.m = m
        self.ambient = k * m

    def points_over(self, field):
        return [tuple(c for row in mat for c in row)
                for mat in enumerate_rref_subspaces(field, self.k, self.m)]

    def contains(self, field, coords):
        return self.normalize(field, coords) == tuple(coords)

    def normalize(self, field, coords):
        mat = [list(coords[r * self.m:(r + 1) * self.m]) for r in range(self.k)]
        basis, pivots = rref(rows=Matrix(field, mat))
        if len(pivots) != self.k:
            return None
        return tuple(c for row in basis.rows for c in row)

    def to_json(self):
        return {"kind": self.kind, "k": self.k, "m": self.m}


class InvolutionQuadricModel(QuadricModel):
    """A quadric intersected with a hyperplane (the isotropic-plane model)."""

    kind = "involution_quadric"

    def __init__(self, form, hyperplane):
        super().__init__(form)
        if len(hyperplane) != form.nvars:
            raise InvalidInputError("hyperplane length does not match the form")
        self.hyperplane = tuple(hyperplane)

    def _hyperplane_at(self, field):
        if field == self.base_field:
            return self.hyperplane
        return tuple(field.lift(c) for c in self.hyperplane)

    def _lin(self, field, coords):
        acc = field.zero
        for c, x in zip(self._hyperplane_at(field), coords):
            acc = field.add(acc, field.mul(c, x))
        return acc

    def points_over(self, field):
        return [p for p in super().points_over(field)
                if field.is_zero(self._lin(field, p))]

    def contains(self, field, coords):
        return (super().contains(field, coords)
                and field.is_zero(self._lin(field, coords)))

    def to_json(self):
        return {"kind": self.kind, "form": self.form.to_json(),
                "hyperplane": [self.base_field.to_json(c) for c in self.hyperplane]}


# ---------------------------------------------------------------------------
# closed points and cycles


def _scalar_key(c):
    """A scalar's coefficients over F_p, as a tuple: its sort key."""
    return tuple(c) if isinstance(c, tuple) else (c,)


class ClosedPoint:
    """A Frobenius orbit, stored by its lexicographically least member over
    the canonical field of its degree."""

    __slots__ = ("degree", "coords")

    def __init__(self, degree, coords):
        self.degree = degree
        self.coords = tuple(coords)

    def sort_key(self):
        return (self.degree, tuple(_scalar_key(c) for c in self.coords))

    def __eq__(self, other):
        return (isinstance(other, ClosedPoint) and other.degree == self.degree
                and other.coords == self.coords)

    def __hash__(self):
        return hash((self.degree, self.coords))

    def __repr__(self):
        return f"ClosedPoint(deg={self.degree}, {self.coords})"


class ZeroCycle:
    """A formal multiset of closed points with positive multiplicities."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        merged = {}
        for pt, mult in entries:
            if mult < 1:
                raise InvalidInputError("multiplicities must be >= 1")
            merged[pt] = merged.get(pt, 0) + mult
        self.entries = tuple(sorted(merged.items(),
                                    key=lambda pm: pm[0].sort_key()))

    @property
    def degree(self):
        return sum(pt.degree * m for pt, m in self.entries)

    def multiplicity_free(self):
        return all(m == 1 for _, m in self.entries)

    def support(self):
        return tuple(pt for pt, _ in self.entries)

    def __eq__(self, other):
        return isinstance(other, ZeroCycle) and other.entries == self.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "ZeroCycle(" + " + ".join(
            (f"{m}*" if m > 1 else "") + repr(pt) for pt, m in self.entries) + ")"


def frobenius_coords(field, q, coords):
    """Coordinatewise q-power Frobenius; canonical reps stay canonical."""
    return tuple(field.pow(c, q) for c in coords)


def frobenius_orbit(field, q, coords):
    orbit = [tuple(coords)]
    cur = frobenius_coords(field, q, coords)
    while cur != orbit[0]:
        orbit.append(cur)
        cur = frobenius_coords(field, q, cur)
    return orbit


def _least(orbit):
    """The representative of a closed point: the least member of its
    Frobenius orbit in the point's own field, by _scalar_key."""
    return min(orbit, key=lambda c: tuple(_scalar_key(x) for x in c))


def _subfield_table(model, d, n):
    """F_{p^d} inside F_{p^n}, for d | n: a dict from the image of each
    element of field_at(d) to that element.  The embedding sends the
    generator x to theta, the first root of field_at(d)'s modulus in
    field_at(n) (for d | n every irreducible of degree d splits there).  Any
    root would do: the roots are Frobenius conjugates, so another choice
    moves each orbit to itself and leaves its least member unchanged."""
    big, small = model.field_at(n), model.field_at(d)
    powers = [big.one]
    if d > 1:
        theta = _first_root(big, Poly(model.base_field, list(small.modulus)))
        for _ in range(d - 1):
            powers.append(big.mul(powers[-1], theta))
    table = {}
    for a in small.elements():
        image = big.zero
        for c, t in zip(_scalar_key(a), powers):
            image = big.add(image, big.mul(big.from_int(c), t))
        table[image] = a
    return table


def transfer_cycle(model, coords, ext_degree):
    """Push a point over F_{q^n} down to a zero cycle of total degree n: the
    orbit closed point of degree d = orbit size, with multiplicity n/d.  A
    point whose orbit is shorter than n is first mapped into F_{q^d}, so the
    closed point is the one enumerate_points lists."""
    field = model.field_at(ext_degree)
    coords = model.normalize(field, coords)
    if coords is None or not model.contains(field, coords):
        raise InvalidInputError("not a point of the model over this extension")
    p = model.base_field.p
    orbit = frobenius_orbit(field, p, coords)
    d = len(orbit)
    if ext_degree % d != 0:
        raise StructuralError("orbit size does not divide the extension degree")
    if d < ext_degree:
        table = _subfield_table(model, d, ext_degree)
        orbit = frobenius_orbit(model.field_at(d), p,
                                tuple(table[c] for c in coords))
    pt = ClosedPoint(d, _least(orbit))
    return ZeroCycle([(pt, ext_degree // d)])


def _closed_points(model, e):
    """The closed points of exact degree e, each once, sorted: the Frobenius
    orbits of size e in model.points(e)."""
    field = model.field_at(e)
    if field.size ** model.ambient > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"enumerating degree {e} needs {field.size ** model.ambient} states")
    seen = set()
    out = []
    for coords in model.points(e):
        if coords in seen:
            continue
        orbit = frobenius_orbit(field, model.base_field.p, coords)
        seen.update(orbit)
        if len(orbit) != e:
            continue  # lives in a proper subfield; found at its own level
        out.append(ClosedPoint(e, _least(orbit)))
    out.sort(key=lambda pt: pt.sort_key())
    return out


def enumerate_points(model, d):
    """All closed points of degree dividing d, each once, sorted."""
    if d < 1:
        raise InvalidInputError("degree must be >= 1")
    return [pt for e in range(1, d + 1) if d % e == 0
            for pt in _closed_points(model, e)]


def symmetric_power_points(model, n):
    """All multiplicity-free effective cycles of degree n: multisets of
    distinct closed points with degrees summing to n."""
    if n < 0:
        raise InvalidInputError(f"cycle degree must be >= 0, not {n}")
    if n == 0:
        return [ZeroCycle([])]
    points = [pt for e in range(1, n + 1) for pt in _closed_points(model, e)]
    out = []

    def rec(start, remaining, chosen):
        if remaining == 0:
            out.append(ZeroCycle([(pt, 1) for pt in chosen]))
            return
        for i in range(start, len(points)):
            if points[i].degree <= remaining:
                rec(i + 1, remaining - points[i].degree, chosen + [points[i]])

    rec(0, n, [])
    out.sort(key=lambda z: tuple(pm[0].sort_key() for pm in z.entries))
    return out


# ---------------------------------------------------------------------------
# index bounds


class IndexBound:
    def __init__(self, value, status, found_degrees, detail=""):
        self.value = value
        self.status = status  # "divides" or "unknown"
        self.found_degrees = tuple(found_degrees)
        self.detail = detail

    def __repr__(self):
        return f"IndexBound(value={self.value}, status={self.status})"

    def to_json(self):
        return {"value": self.value, "status": self.status,
                "found_degrees": list(self.found_degrees),
                "divides_only_caveat": "the true index divides this value",
                "detail": self.detail}


class QPointSearch:
    """A rational-point search problem for a quadric over Q.

    Height-bounded exhaustive search over primitive integer vectors, plus
    optional extension points given as (modulus, coordinate polynomials)
    and checked by exact substitution modulo the modulus.  The search runs
    by fibers: for each prefix of all but the last coordinate z, the form is
    one quadratic a z^2 + b z + c in ints, and arith.first_int_root gives
    the first z of that fiber.  So it expands O(B^(n-1)) prefixes rather
    than evaluating O(B^n) vectors, and returns the same first zero in the
    same order.
    """

    def __init__(self, form, extension_points=()):
        if not isinstance(form.field, Rationals):
            raise InvalidInputError("rational search needs a form over Q")
        self.form = form
        self.extension_points = list(extension_points)

    def _integer_form(self):
        ints, _ = self.form.field.lift_vector(list(self.form.coeffs.values()))
        return dict(zip(self.form.coeffs, ints))

    def search_rational_point(self, height_bound):
        """The first integer zero with |coords| <= bound, or None, in the
        canonical order: leading zeros, then a positive first coordinate,
        then the remaining coordinates lexicographically in [-bound, bound].
        It is primitive: a zero k w with k > 1 comes after w, whose first
        coordinate is smaller."""
        if height_bound < 0:
            raise InvalidInputError(f"height bound must be >= 0, not {height_bound}")
        coeffs = self._integer_form()
        last = self.form.nvars - 1
        # q(v, z) = a z^2 + (sum of cross terms v_i z) + q(v, 0)
        a = coeffs.get((last, last), 0)
        cross = [(i, c) for (i, j), c in coeffs.items() if i != j == last]
        rest = [(i, j, c) for (i, j), c in coeffs.items() if j != last]
        rng = range(-height_bound, height_bound + 1)
        for first in range(last):
            for head in range(1, height_bound + 1):
                for middle in itertools.product(rng, repeat=last - first - 1):
                    vec = (0,) * first + (head,) + middle
                    z = first_int_root(a, sum(c * vec[i] for i, c in cross),
                                       sum(c * vec[i] * vec[j] for i, j, c in rest),
                                       height_bound)
                    if z is not None:
                        return tuple(Fraction(v) for v in vec + (z,))
        # the vectors (0, ..., 0, head) with head > 0, where q = a head^2
        if height_bound and not a:
            return (Fraction(0),) * last + (Fraction(1),)
        return None

    def verify_extension_point(self, modulus, coord_polys):
        """Substitute polynomial coordinates into the form modulo the modulus;
        returns the extension degree on success."""
        if not modulus.is_monic() or modulus.degree < 1:
            raise InvalidInputError("modulus must be monic of positive degree")
        polys = list(coord_polys)
        if all((p % modulus).is_zero() for p in polys):
            raise InvalidInputError("coordinates vanish modulo the modulus")
        if not (self.form.eval_polys(polys) % modulus).is_zero():
            raise InvalidInputError("point does not satisfy the form")
        return modulus.degree

    def run(self, height_bound):
        found = []
        detail = []
        pt = self.search_rational_point(height_bound)
        if pt is not None:
            found.append(1)
            detail.append(f"rational point {pt}")
        else:
            detail.append(f"no rational point of height <= {height_bound}")
        for modulus, coord_polys in self.extension_points:
            deg = self.verify_extension_point(modulus, coord_polys)
            found.append(deg)
            detail.append(f"verified degree-{deg} extension point")
        if not found:
            return IndexBound(None, "unknown", [], "; ".join(detail))
        g = 0
        for d in found:
            g = gcd(g, d)
        return IndexBound(g, "divides", found, "; ".join(detail))


# ---------------------------------------------------------------------------
# linkage graph of degree-n cycles


class QuadricCurves:
    """Curve supplier for quadric models: verified conic segments over the
    base field and its canonical extensions, through auxiliary points taken
    from the model's own point list.  The endpoints (closed-point
    coordinates, Frobenius images of model points) and the model's points
    are normalized points of the quadric, so they enter the link search as
    trusted data, with one polar table per degree: each point's B p is
    computed at most once per graph."""

    def __init__(self, model):
        self.model = model
        self._polar = {}

    def link(self, d, x, y):
        model = self.model
        form = model.form_at(model.field_at(d))
        try:
            return _link_quadric_points(form, x, y, model.points(d),
                                        self._polar.setdefault(d, {}))
        except FieldTooSmallError:
            return None


class GraphEdge:
    __slots__ = ("u", "v", "move", "witness", "data")

    def __init__(self, u, v, move, witness, data=None):
        self.u = u
        self.v = v
        self.move = move
        self.witness = witness
        self.data = data or {}


class LinkGraphReport:
    def __init__(self, vertices, edges, components, notes):
        self.vertices = vertices
        self.edges = edges
        self.components = components
        self.notes = notes

    @property
    def connected(self):
        return self.components == 1 and self.vertices

    def to_json(self):
        refs = []
        for e in self.edges:
            refs.append({"from": e.u, "to": e.v, "move": e.move,
                         "witness_kind": e.witness.kind if hasattr(e.witness, "kind")
                         else "chain",
                         **e.data})
        return {"vertices": len(self.vertices), "edges": len(self.edges),
                "components": self.components, "witness_refs": refs,
                "scope_note": SCOPE_NOTE, "notes": self.notes}


def _single_swap(a, b):
    """(p, q) when the point sets a and b differ by trading the one point p
    of a for the one point q of b; None otherwise."""
    only_a = a - b
    if len(only_a) != 1:
        return None
    only_b = b - a
    if len(only_b) != 1:
        return None
    return next(iter(only_a)), next(iter(only_b))


def _irreducible_quadratics(field):
    """The monic irreducible quadratics x^2 + c1 x + c0 over a finite field,
    c0 outer and c1 inner in `elements()` order.  A quadratic is irreducible
    exactly when it has no root in the field."""
    elements = list(field.elements())
    out = []
    for c0 in elements:
        for c1 in elements:
            f = Poly(field, [c0, c1, field.one])
            if not any(field.is_zero(f.eval(t)) for t in elements):
                out.append(f)
    return out


def link_graph(model, n, curves):
    """The graph of degree-n multiplicity-free cycles under verified moves.

    Moves: (point) slide one rational support point along a verified curve
    through both positions; (transfer) replace one degree-d closed point by
    another whose F_{q^d} representatives are linked by a curve over that
    extension; (fiber) trade a pair of rational points on a verified curve
    for the closed point swept out at a conjugate parameter pair, via a
    pencil of degree-2 parameter divisors.  Each distinct witness, one per
    ordered (degree, point, point) link, is verified once by verify_witness,
    before its first edge: a conic segment is certified for every parameter,
    any other witness at every element of its field.  A link that fails or
    does not verify adds no edge.  verify_witness checks a quadric_line
    against the form only; the curve stays on a hyperplane-cut model
    (InvolutionQuadricModel) because its auxiliary points come from the
    model's point list and the segment is a linear combination of its two
    endpoints and its auxiliary point.  One component is evidence consistent
    with cycle triviality, never a proof.
    """
    if curves is None:
        raise InvalidInputError("a curve supplier is required")
    vertices = symmetric_power_points(model, n)
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    parent = list(range(len(vertices)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    def add_edge(i, j, move, witness, data=None):
        edges.append(GraphEdge(i, j, move, witness, data))
        union(i, j)

    links = {}

    def verified_link(d, x, y):
        """The curve linking x to y over F_{q^d}, verified, or None."""
        key = (d, x, y)
        if key not in links:
            w = curves.link(d, x, y)
            if w is not None and not verify_witness(w).passed:
                w = None
            links[key] = w
        return links[key]

    base = model.base_field

    # moves (point) and (transfer): vertices differing in one closed point
    supports = [frozenset(v.support()) for v in vertices]
    for i, a in enumerate(supports):
        for j in range(i + 1, len(supports)):
            swap = _single_swap(a, supports[j])
            if swap is None:
                continue
            pa, pb = swap
            if pa.degree != pb.degree:
                continue
            d = pa.degree
            w = verified_link(d, pa.coords, pb.coords)
            if w is None:
                continue
            move = "point" if d == 1 else "transfer"
            add_edge(i, j, move, w, {"degree": d})

    # move (fiber): {Q1, Q2} + gamma <-> {P} + gamma with P quadratic
    ext = model.field_at(2)
    roots = [(g, _first_root(ext, g)) for g in _irreducible_quadratics(base)]
    pairs_by_gamma = {}
    for i, alpha in enumerate(vertices):
        supp = alpha.support()
        rats = [p for p in supp if p.degree == 1]
        for q1, q2 in itertools.combinations(rats, 2):
            gamma = tuple(p for p in supp if p not in (q1, q2))
            pairs_by_gamma.setdefault(gamma, []).append((i, q1, q2))
    for i, beta in enumerate(vertices):
        supp = beta.support()
        quads = [p for p in supp if p.degree == 2]
        for P in quads:
            gamma = tuple(p for p in supp if p != P)
            for (j, q1, q2) in pairs_by_gamma.get(gamma, ()):
                if find(i) == find(j):
                    continue  # already linked; keep the graph lean
                w = verified_link(1, q1.coords, q2.coords)
                if w is None or len(w.segments) != 1:
                    continue
                seg = w.segments[0]
                hit = _fiber_hit(model, seg, roots, ext, P)
                if hit is None:
                    continue
                add_edge(j, i, "fiber", w,
                         {"divisor_pencil": hit.to_json(), "degree": 2})

    comp = len({find(i) for i in range(len(vertices))})
    notes = [f"moves: point/transfer/fiber over F_{base.p}"]
    return LinkGraphReport(vertices, edges, comp, notes)


def _first_root(ext, g):
    """The first root, in elements() order, of a base-field polynomial g in
    the extension ext."""
    g_ext = Poly(ext, [ext.lift(c) for c in g.coeffs])
    return next(t for t in ext.elements() if ext.is_zero(g_ext.eval(t)))


def _fiber_hit(model, seg, roots, ext, target):
    """The first irreducible parameter quadratic g, given with a root tau in
    ext, whose conjugate pair on the curve sweeps out exactly the degree-2
    target P.  The curve phi has coefficients in F_q[t], so phi(tau^q) is
    Frob(phi(tau)): the swept closed point is P exactly when phi(tau) is P
    or its conjugate, whichever root tau is."""
    lift = ext.lift
    phi = [Poly(ext, [lift(c) for c in p.coeffs]) for p in seg.data["coord_polys"]]
    hits = {target.coords,
            frobenius_coords(ext, model.base_field.p, target.coords)}
    for g, tau in roots:
        if model.normalize(ext, tuple(p.eval(tau) for p in phi)) in hits:
            return g
    return None
