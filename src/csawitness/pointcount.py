"""Finite-field enumeration of variety models, zero cycles, the transfer map,
index bounds, and linkage graphs of degree-n cycles at desk scale.

Models live over a prime base field; points of degree d are computed inside
the canonical extension F_{p^d} (the lexicographically first modulus, given
by _Model.field_at, which every model inherits), so a closed point is
always represented over its own minimal field and no cross-field coercion
is ever needed during enumeration.  Connectivity
findings are evidence at finitely many q, never proofs: the underlying
statements quantify over all finite extensions.
"""

import itertools
from fractions import Fraction
from math import gcd

from .errors import (
    BudgetExceededError, InvalidInputError, StructuralError,
    UnsupportedFieldError,
)
from .fields import PrimeField, Rationals, standard_extension
from .linalg import rref
from .poly import Poly
from .quadrics import (
    QuadraticForm, enumerate_rref_subspaces, normalize_point, points_on_quadric,
)
from .witness import verify_witness

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
                "enumeration models need a prime base field; extensions of "
                "extensions would require an embedding tower")
        self.base_field = field

    def field_at(self, d):
        return self.base_field if d == 1 else standard_extension(self.base_field.p, d)


class QuadricModel(_Model):
    """A quadric hypersurface in P^(nvars-1) given by an exact form."""

    kind = "quadric"

    def __init__(self, form):
        super().__init__(form.field)
        self.form = form
        self.ambient = form.nvars

    def form_at(self, field):
        if field == self.base_field:
            return self.form
        lift = field.lift
        return QuadraticForm(field, self.form.nvars,
                             {k: lift(c) for k, c in self.form.coeffs.items()})

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
        basis, _ = rref(field, mat)
        if len(basis) != self.k:
            return None
        return tuple(c for row in basis for c in row)

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


def _subfield_coords(p, coords, big_field, d):
    """Re-represent coordinates known to generate a degree-d subfield of
    F_{p^n} over the canonical F_{p^d}."""
    if d == 1:
        out = []
        for c in coords:
            if isinstance(c, tuple):
                if any(x != 0 for x in c[1:]):
                    raise StructuralError("coordinate is not a base-field constant")
                out.append(c[0])
            else:
                out.append(c)
        return tuple(out)
    small = standard_extension(p, d)
    from .poly import factor
    modulus = Poly(big_field, [big_field.from_int(c) for c in small.modulus])
    _, factors = factor(modulus)
    roots = sorted((g for g, _ in factors if g.degree == 1),
                   key=lambda g: g.sort_key())
    if not roots:
        raise StructuralError("canonical subfield modulus has no root upstairs")
    root = big_field.neg(roots[0].coeffs[0])
    # power-basis embedding matrix over F_p: columns are coords of root^j
    from .linalg import solve
    n = big_field.k
    cols = []
    acc = big_field.one
    for _ in range(d):
        cols.append(acc)
        acc = big_field.mul(acc, root)
    mat = [[cols[j][i] for j in range(d)] for i in range(n)]
    base = PrimeField(p)
    out = []
    for c in coords:
        vec = list(c) if isinstance(c, tuple) else [c] + [0] * (n - 1)
        sol = solve(base, mat, vec)
        if sol is None:
            raise StructuralError("coordinate does not lie in the subfield")
        out.append(tuple(sol))
    return tuple(out)


def transfer_cycle(model, coords, ext_degree):
    """Push a point over F_{q^n} down to a zero cycle of total degree n: the
    orbit closed point of degree d = orbit size, with multiplicity n/d."""
    field = model.field_at(ext_degree)
    coords = model.normalize(field, coords)
    if coords is None or not model.contains(field, coords):
        raise InvalidInputError("not a point of the model over this extension")
    orbit = frobenius_orbit(field, model.base_field.p, coords)
    d = len(orbit)
    if ext_degree % d != 0:
        raise StructuralError("orbit size does not divide the extension degree")
    rep = min(orbit, key=lambda c: tuple(_scalar_key(x) for x in c))
    if d < ext_degree:
        rep = _subfield_coords(model.base_field.p, rep, field, d)
    pt = ClosedPoint(d, rep)
    return ZeroCycle([(pt, ext_degree // d)])


def enumerate_points(model, d, budget=10 ** 7):
    """All closed points of degree dividing d, each once, sorted."""
    if d < 1:
        raise InvalidInputError("degree must be >= 1")
    divisors = [e for e in range(1, d + 1) if d % e == 0]
    out = []
    for e in divisors:
        field = model.field_at(e)
        if field.size ** model.ambient > budget:
            raise BudgetExceededError(
                f"enumerating degree {e} needs {field.size ** model.ambient} states")
        seen = set()
        for coords in model.points_over(field):
            if coords in seen:
                continue
            orbit = frobenius_orbit(field, model.base_field.p, coords)
            seen.update(orbit)
            if len(orbit) != e:
                continue  # lives in a proper subfield; found at its own level
            rep = min(orbit, key=lambda c: tuple(_scalar_key(x) for x in c))
            out.append(ClosedPoint(e, rep))
    out.sort(key=lambda pt: pt.sort_key())
    return out


def symmetric_power_points(model, n, budget=10 ** 7):
    """All multiplicity-free effective cycles of degree n: multisets of
    distinct closed points with degrees summing to n."""
    if n < 0:
        raise InvalidInputError(f"cycle degree must be >= 0, not {n}")
    if n == 0:
        return [ZeroCycle([])]
    points = enumerate_points(model, 1, budget)
    for e in range(2, n + 1):
        for pt in enumerate_points(model, e, budget):
            if pt.degree == e:
                points.append(pt)
    points = [pt for pt in points if pt.degree <= n]
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


def scheme_index_bound(target, degree_bound):
    """gcd of degrees of closed points found up to the bound.

    The true index always divides the result.  For finite-field models the
    search is exhaustive per degree; for rational search specs it is
    height-bounded plus caller-supplied extension points (verified by
    substitution).  Nothing found gives status "unknown" instead of a number.
    """
    if isinstance(target, QPointSearch):
        return target.run(degree_bound)
    found = []
    g = 0
    for d in range(1, degree_bound + 1):
        pts = enumerate_points(target, d)
        if any(pt.degree == d for pt in pts):
            found.append(d)
            g = gcd(g, d)
            if g == 1:
                break
    if not found:
        return IndexBound(None, "unknown", [],
                          f"no closed points of degree <= {degree_bound}")
    return IndexBound(g, "divides", found)


class QPointSearch:
    """A rational-point search problem for a quadric over Q.

    Height-bounded exhaustive search over primitive integer vectors, plus
    optional extension points given as (modulus, coordinate polynomials) and
    checked by exact substitution modulo the modulus.
    """

    def __init__(self, form, extension_points=()):
        if not isinstance(form.field, Rationals):
            raise InvalidInputError("rational search needs a form over Q")
        self.form = form
        self.extension_points = list(extension_points)

    def _integer_form(self):
        lcm = 1
        for c in self.form.coeffs.values():
            lcm = lcm * c.denominator // gcd(lcm, c.denominator)
        return {k: int(c * lcm) for k, c in self.form.coeffs.items()}

    def search_rational_point(self, height_bound):
        """The first primitive integer zero with |coords| <= bound, or None."""
        if height_bound < 0:
            raise InvalidInputError(f"height bound must be >= 0, not {height_bound}")
        coeffs = self._integer_form()
        nv = self.form.nvars
        rng0 = range(0, height_bound + 1)
        rng = range(-height_bound, height_bound + 1)
        for first in range(nv):
            # canonical: leading zeros, then a positive first coordinate
            for head in rng0:
                if head == 0:
                    continue
                for tail in itertools.product(rng, repeat=nv - first - 1):
                    vec = (0,) * first + (head,) + tail
                    acc = 0
                    for (i, j), c in coeffs.items():
                        acc += c * vec[i] * vec[j]
                    if acc == 0:
                        return tuple(Fraction(v) for v in vec)
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
    base field and its canonical extensions."""

    def __init__(self, model):
        self.model = model
        self._cache = {}

    def _points(self, d):
        if d not in self._cache:
            field = self.model.field_at(d)
            self._cache[d] = points_on_quadric(self.model.form_at(field))
        return self._cache[d]

    def link(self, d, x, y):
        from .errors import FieldTooSmallError
        from .witness import connect_quadric_points
        field = self.model.field_at(d)
        form = self.model.form_at(field)
        try:
            return connect_quadric_points(form, x, y, points=self._points(d))
        except FieldTooSmallError:
            return None

    def field_at(self, d):
        return self.model.field_at(d)

    def form_at(self, d):
        return self.model.form_at(self.model.field_at(d))


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


def _cycle_diff(alpha, beta):
    """(points only in alpha, points only in beta) for multiplicity-free
    cycles."""
    a = set(alpha.support())
    b = set(beta.support())
    return sorted(a - b, key=lambda p: p.sort_key()), \
        sorted(b - a, key=lambda p: p.sort_key())


def _irreducible_quadratics(field):
    from .poly import is_irreducible
    out = []
    for c0 in field.elements():
        for c1 in field.elements():
            f = Poly(field, [c0, c1, field.one])
            if is_irreducible(f):
                out.append(f)
    return out


def link_graph(model, n, curves, budget=10 ** 7):
    """The graph of degree-n multiplicity-free cycles under verified moves.

    Moves: (point) slide one rational support point along a verified curve
    through both positions; (transfer) replace one degree-d closed point by
    another whose F_{q^d} representatives are linked by a curve over that
    extension; (fiber) trade a pair of rational points on a verified curve
    for the closed point swept out at a conjugate parameter pair, via a
    pencil of degree-2 parameter divisors.  Every edge re-verifies its
    witness before insertion.  One component is evidence consistent with
    cycle triviality, never a proof.
    """
    if curves is None:
        raise InvalidInputError("a curve supplier is required")
    vertices = symmetric_power_points(model, n, budget)
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

    base = model.base_field

    # moves (point) and (transfer): vertices differing in one closed point
    for i, alpha in enumerate(vertices):
        for j in range(i + 1, len(vertices)):
            beta = vertices[j]
            only_a, only_b = _cycle_diff(alpha, beta)
            if len(only_a) != 1 or len(only_b) != 1:
                continue
            pa, pb = only_a[0], only_b[0]
            if pa.degree != pb.degree:
                continue
            d = pa.degree
            w = curves.link(d, pa.coords, pb.coords)
            if w is None:
                continue
            field = curves.field_at(d)
            rep = verify_witness(w, list(field.elements()))
            if not rep.passed:
                continue
            move = "point" if d == 1 else "transfer"
            add_edge(i, j, move, w, {"degree": d})

    # move (fiber): {Q1, Q2} + gamma <-> {P} + gamma with P quadratic
    quadratics = _irreducible_quadratics(base)
    ext = model.field_at(2)
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
                w = curves.link(1, q1.coords, q2.coords)
                if w is None or len(w.segments) != 1:
                    continue
                seg = w.segments[0]
                rep = verify_witness(w, list(base.elements()))
                if not rep.passed:
                    continue
                hit = _fiber_hit(model, seg, quadratics, ext, P)
                if hit is None:
                    continue
                add_edge(j, i, "fiber", w,
                         {"divisor_pencil": hit.to_json(), "degree": 2})

    comp = len({find(i) for i in range(len(vertices))})
    notes = [f"moves: point/transfer/fiber over F_{base.p}"]
    return LinkGraphReport(vertices, edges, comp, notes)


def _fiber_hit(model, seg, quadratics, ext, target):
    """An irreducible parameter quadratic whose conjugate pair on the curve
    sweeps out exactly the target closed point."""
    base = model.base_field
    lift = ext.lift
    coord_polys_ext = [Poly(ext, [lift(c) for c in p.coeffs])
                       for p in seg.data["coord_polys"]]
    validity_ext = Poly(ext, [lift(c) for c in seg.validity.coeffs])
    for g in quadratics:
        # the first root of g in the quadratic extension, deterministic
        tau = next((t for t in ext.elements()
                    if ext.is_zero(Poly(ext, [lift(c) for c in g.coeffs]).eval(t))),
                   None)
        if tau is None:
            raise StructuralError("irreducible quadratic without a root upstairs")
        if ext.is_zero(validity_ext.eval(tau)):
            continue
        coords = tuple(p.eval(tau) for p in coord_polys_ext)
        pt = model.normalize(ext, coords)
        if pt is None or not model.contains(ext, pt):
            continue
        cycle = transfer_cycle(model, pt, 2)
        if not cycle.multiplicity_free():
            continue
        (pt_closed, _), = cycle.entries
        if pt_closed == target:
            return g
    return None
