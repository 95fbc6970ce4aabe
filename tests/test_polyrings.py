"""The F[t] kernels: Bareiss determinants, pencil discriminants and the
pencil minimal polynomial, each checked against its specialisation at t,
and the Z[t] discriminant of an etale line against the F[t] one."""

import hashlib
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from csawitness import polyrings
from csawitness.algebra import (
    make_matrix_algebra, make_quaternion, poly_eval_at_element,
    reduced_char_poly, tensor_product,
)
from csawitness.fields import QQ, PrimeField, standard_extension
from csawitness.involutions import sym_basis
from csawitness.poly import Poly
from csawitness.polyrings import (
    pencil_discriminant, pencil_min_poly, polymat_det, xpoly_discriminant,
)
from csawitness.witness import default_samples, default_symplectic_involution

F3, F5, F7 = PrimeField(3), PrimeField(5), PrimeField(7)


def random_poly(field, rng, degree):
    return Poly(field, [field.random(rng) for _ in range(degree + 1)])


# ---------------------------------------------------------------------------
# polymat_det


def _det_by_permutations(field, m):
    """The Leibniz expansion of det m (oracle)."""
    total = field.zero
    for perm in itertools.permutations(range(len(m))):
        term = field.one
        for i, j in enumerate(perm):
            term = field.mul(term, m[i][j])
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = field.sub(total, term) if inversions % 2 else field.add(total, term)
    return total


def test_polymat_det_matches_det_at_every_sample():
    rng = random.Random(31)
    for field in (F7, QQ):
        for _ in range(40):
            n = rng.randint(1, 4)
            m = [[random_poly(field, rng, 1) for _ in range(n)] for _ in range(n)]
            d = polymat_det(field, m)
            for t in default_samples(field):
                at_t = [[p.eval(t) for p in row] for row in m]
                assert d.eval(t) == _det_by_permutations(field, at_t)


def test_polymat_det_of_the_empty_matrix_is_one():
    for field in (F7, QQ):
        assert polymat_det(field, []) == Poly.one(field)


def test_polymat_det_singular_pencil_is_zero():
    rng = random.Random(5)
    row = [random_poly(F7, rng, 1) for _ in range(3)]
    m = [row, [random_poly(F7, rng, 1) for _ in range(3)], row]
    assert polymat_det(F7, m).is_zero()


# ---------------------------------------------------------------------------
# xpoly_discriminant


def discriminant(f):
    """disc(f) = (-1)^(m(m-1)/2) res(f, f') / lc(f), the resultant by the
    Euclidean recurrence: an oracle that shares no code with the Hankel
    determinant of xpoly_discriminant."""
    field = f.field
    a, b = f, f.derivative()
    if b.is_zero():
        return field.zero
    res, sign = field.one, field.one
    while b.degree > 0:
        r = a % b
        if r.is_zero():
            return field.zero  # common factor of positive degree
        res = field.mul(res, field.pow(b.leading(), a.degree - r.degree))
        if (a.degree * b.degree) % 2 == 1:
            sign = field.neg(sign)
        a, b = b, r
    res = field.mul(sign, field.mul(res, field.pow(b.coeffs[0], a.degree)))
    res = field.div(res, f.leading())
    m = f.degree
    return field.neg(res) if (m * (m - 1) // 2) % 2 else res


def check_discriminant(field, fc):
    disc = xpoly_discriminant(fc)
    for t in default_samples(field):
        assert disc.eval(t) == discriminant(Poly(field, [c.eval(t) for c in fc]))


def test_xpoly_discriminant_matches_specialisation():
    rng = random.Random(17)
    for field in (F7, QQ):
        for _ in range(30):
            d = rng.randint(1, 4)
            fc = [random_poly(field, rng, rng.randint(0, d - j)) for j in range(d)]
            check_discriminant(field, fc + [Poly.one(field)])


def test_xpoly_discriminant_degree_one_is_one():
    fc = [Poly(F7, [3, 5]), Poly.one(F7)]
    assert xpoly_discriminant(fc) == Poly.one(F7)
    check_discriminant(F7, fc)


def test_xpoly_discriminant_char_divides_degree():
    # over F_3 the power sum p_0 = 3 vanishes, and Newton's identities still
    # give every p_k, since they hold over Z
    rng = random.Random(23)
    for _ in range(30):
        fc = [random_poly(F3, rng, 3 - j) for j in range(3)] + [Poly.one(F3)]
        check_discriminant(F3, fc)
    # x^3 + c(t) is inseparable at every t: its discriminant is 0
    assert xpoly_discriminant([Poly(F3, [1, 2]), Poly.zero(F3), Poly.zero(F3),
                               Poly.one(F3)]).is_zero()


def _sylvester_discriminant(fc):
    """(-1)^(d(d-1)/2) res(f, f') of a monic f with F[t] coefficients, as one
    polymat_det of the (2d - 1) x (2d - 1) Sylvester matrix of f and f': the
    same polynomial from a matrix that shares no entry with the Hankel one."""
    base = fc[0].field
    zero = Poly.zero(base)
    g = [fc[i].scale(base.from_int(i)) for i in range(1, len(fc))]
    while g and g[-1].is_zero():
        g.pop()
    if not g:
        return zero
    d, e = len(fc) - 1, len(g) - 1
    if e == 0:
        res = g[0] ** d
    else:
        size = d + e
        rows = [[zero] * i + fc[::-1] + [zero] * (size - d - 1 - i) for i in range(e)]
        rows += [[zero] * i + g[::-1] + [zero] * (size - e - 1 - i) for i in range(d)]
        res = polymat_det(base, rows)
    return -res if (d * (d - 1) // 2) % 2 else res


def test_xpoly_discriminant_equals_the_sylvester_determinant():
    # F_2 and F_3 include char | d, F_9 the method path of F_{p^k}
    rng = random.Random(41)
    fields = (PrimeField(2), F3, F5, standard_extension(3, 2), QQ)
    for field in fields:
        for d in range(1, 7):
            for _ in range(8):
                fc = [random_poly(field, rng, rng.randint(0, d - j)) for j in range(d)]
                fc.append(Poly.one(field))
                assert xpoly_discriminant(fc) == _sylvester_discriminant(fc)


def test_xpoly_discriminant_takes_one_d_by_d_determinant(monkeypatch):
    shapes = []

    def recording_det(base, rows):
        shapes.append((len(rows), {len(r) for r in rows}))
        return polymat_det(base, rows)

    monkeypatch.setattr(polyrings, "polymat_det", recording_det)
    rng = random.Random(43)
    for d in range(1, 7):
        fc = [random_poly(F7, rng, d - j) for j in range(d)] + [Poly.one(F7)]
        shapes.clear()
        xpoly_discriminant(fc)
        assert shapes == [(d, {d})]


def test_xpoly_discriminant_of_a_constant_is_one():
    # d = 0: no roots, so the empty product, the determinant of the empty
    # Hankel matrix (no caller passes a constant)
    for field in (F7, QQ):
        assert xpoly_discriminant([Poly.one(field)]) == Poly.one(field)


# ---------------------------------------------------------------------------
# pencil_min_poly

def encode(mp):
    return None if mp is None else [c.to_json() for c in mp]


def pinned_algebras():
    H = make_quaternion(QQ, -1, -1)
    return {
        "m3f7": make_matrix_algebra(F7, 3),
        "m4f5": make_matrix_algebra(F5, 4),
        "m2f9": make_matrix_algebra(standard_extension(3, 2), 2),
        "hq": H,
        "m2hq": tensor_product(make_matrix_algebra(QQ, 2), H),
    }


def seeded_lines(name, A):
    """Three lines between random elements, drawn from Random(name)."""
    rng = random.Random(name)
    out = []
    for _ in range(3):
        s = A.random_element(rng).coords
        e = A.random_element(rng).coords
        out.append(encode(pencil_min_poly(A, s, e, A.degree)))
    return out


# sha256 of the JSON of seeded_lines, recorded with the earlier
# implementation (a Poly-entry elimination over F[t])
PINNED = {
    "m3f7": "bb4615ab1d52910ba3df34dbfab910eb28dc201b28a9b1449603b0049e509592",
    "m4f5": "e8ea0944bf1888c8cfb395a3230caa5916d113f043bee32fa6b7f1e92e8d5adb",
    "m2f9": "ac575939f91e14ca968a7936b90fe0674782c194cc3f1eb394c5ca1650c4fa1b",
    "hq": "2c55a57d7332c7a9e3b4770328c672acd3b6623464a5945ed5604ff08bf374a5",
    "m2hq": "4fb6178431da917ba9f8ed20665a4d7a6afa9734ea1864a06bc959e803c133ac",
}


def test_pencil_min_poly_pinned():
    for name, A in pinned_algebras().items():
        lines = seeded_lines(name, A)
        digest = hashlib.sha256(json.dumps(lines).encode()).hexdigest()
        assert digest == PINNED[name], (name, lines)


def test_pencil_min_poly_pinned_values():
    A = pinned_algebras()["hq"]
    assert seeded_lines("hq", A)[0] == [["429/8", "-353/4", "587/16"], ["-5/2", "19/6"], ["1"]]
    A = pinned_algebras()["m2f9"]
    assert seeded_lines("m2f9", A)[1] == [[["0", "0"], ["0", "0"], ["2", "2"]],
                                          [["2", "1"], ["1", "1"]], [["1", "0"]]]


def test_pencil_min_poly_half_degree_line():
    # symmetric elements of a symplectic involution on M4 have degree-2
    # minimal polynomials, and so does every point of a line between two
    A = make_matrix_algebra(F5, 4)
    basis = sym_basis(default_symplectic_involution(A))
    rng = random.Random("half")

    def combination():
        acc = A.zero_coords()
        for b in basis:
            acc = A.add(acc, A.smul(F5.random(rng), b))
        return acc

    s, e = combination(), combination()
    assert encode(pencil_min_poly(A, s, e, 2)) == [["3", "3", "1"], ["4", "3"], ["1"]]
    # a generic line has a degree-4 minimal polynomial, so degree 2 fails
    rng = random.Random(3)
    s, e = A.random_element(rng).coords, A.random_element(rng).coords
    assert pencil_min_poly(A, s, e, 4) is not None
    assert pencil_min_poly(A, s, e, 2) is None


def test_pencil_min_poly_scalar_line():
    for A in (make_matrix_algebra(F7, 3), make_quaternion(QQ, -1, -1)):
        f = A.field
        c = A.smul(f.from_int(3), A.unit)
        for d in range(2, A.degree + 1):
            assert pencil_min_poly(A, c, c, d) is None
        assert pencil_min_poly(A, c, c, 1) == [Poly(f, [f.from_int(-3)]), Poly.one(f)]


@st.composite
def f7_lines(draw):
    """(A, start, end, d) on M2 or M3 over F_7.  A structured line runs
    between diagonal matrices with at most d distinct entries, so its
    minimal polynomial has degree at most d."""
    n = draw(st.sampled_from([2, 3]))
    A = make_matrix_algebra(F7, n)
    d = draw(st.integers(1, n))
    if draw(st.booleans()):
        ends = []
        for _ in range(2):
            vals = draw(st.lists(st.integers(0, 6), min_size=d, max_size=d))
            diag = [vals[min(i, d - 1)] for i in range(n)]
            ends.append(tuple(diag[i] if i == j else 0
                              for i in range(n) for j in range(n)))
        return A, ends[0], ends[1], d
    coords = st.lists(st.integers(0, 6), min_size=n * n, max_size=n * n).map(tuple)
    return A, draw(coords), draw(coords), d


@settings(max_examples=80, deadline=None)
@given(f7_lines())
def test_pencil_min_poly_annihilates_every_point(line):
    A, s, e, d = line
    mp = pencil_min_poly(A, s, e, d)
    if mp is None:
        return
    assert len(mp) == d + 1 and mp[-1] == Poly.one(F7)
    for j, c in enumerate(mp):
        assert c.degree <= d - j
    for t in F7.elements():
        x = A.element(A.add(A.smul(t, s), A.smul(F7.sub(1, t), e)))
        at_t = Poly(F7, [c.eval(t) for c in mp])
        assert poly_eval_at_element(at_t, x).is_zero()
        if d == A.degree:
            assert at_t == reduced_char_poly(x)


def lowered_prefix_solve(A, start, end, d):
    """The minimal polynomial that pencil_discriminant reads over F_p and Q:
    polyrings._pencil_min_poly_ints, which solves the system from the rows
    it needs, lowered to Polys; None where it gives None."""
    solved = polyrings._pencil_min_poly_ints(A, start, end, d)
    if solved is None:
        return None
    f = A.field
    sol = iter(f.lower_vector(*solved))
    return [Poly(f, [next(sol) for _ in range(d - j + 1)]) for j in range(d)] + [Poly.one(f)]


def differential_lines(f, A, rng, count):
    """count lines (start, end, d) on A, cycling through: random ends at
    d = deg A, d - 1 and d + 1; constant lines, of a random element and of
    a scalar; ends in span{1, e} for an idempotent e (a degree-2 line);
    and non-etale ends, a nilpotent start or 1 plus one."""
    n = A.degree
    e = A.basis_coords(0)   # E_11, or E_11 (x) 1: an idempotent
    nil = A.basis_coords(1) if A.preset.get("kind") == "matrix" else A.basis_coords(4)
    scalar = A.smul(f.from_int(3), A.unit)

    def rand():
        return A.random_element(rng).coords

    def in_span(a, b):
        return A.add(A.smul(a, A.unit), A.smul(b, e))

    shapes = [
        lambda: (rand(), rand(), n),
        lambda: (rand(), rand(), n - 1),
        lambda: (rand(), rand(), n + 1),
        lambda: (lambda x: (x, x, n))(rand()),
        lambda: (scalar, scalar, rng.choice([1, n])),
        lambda: (in_span(f.random(rng), f.random(rng)),
                 in_span(f.random(rng), f.random(rng)), rng.choice([1, 2, n])),
        lambda: (nil, rand(), n),
        lambda: (A.add(A.unit, nil), rand(), rng.choice([n - 1, n])),
    ]
    return [shapes[i % len(shapes)]() for i in range(count)]


F11 = PrimeField(11)


@pytest.mark.parametrize("field", [F5, F7, F11, QQ], ids=["F5", "F7", "F11", "Q"])
def test_pencil_min_poly_matches_the_full_elimination(field):
    """The rows-it-needs solve of pencil_discriminant gives what
    pencil_min_poly, which eliminates the whole system, gives, None
    included, on 4 x 32 lines per field (512 in all)."""
    rng = random.Random(f"differential/{field!r}")
    m1 = field.neg(field.one)
    algebras = [make_matrix_algebra(field, n) for n in (2, 3, 4)]
    algebras.append(tensor_product(make_matrix_algebra(field, 2), make_quaternion(field, m1, m1)))
    outcomes = Counter()
    for A in algebras:
        for s, e, d in differential_lines(field, A, rng, 32):
            got = pencil_min_poly(A, s, e, d)
            assert lowered_prefix_solve(A, s, e, d) == got, (A, s, e, d)
            outcomes[got is None] += 1
    assert outcomes[True] >= 32 and outcomes[False] >= 32


def test_pencil_min_poly_is_the_characteristic_polynomial_over_q():
    """On M_n(Q) a degree-n pencil minimal polynomial is the characteristic
    polynomial of the matrix t S + (1 - t) E, computed by sympy."""
    sympy = pytest.importorskip("sympy")
    t, lam = sympy.symbols("t lam")
    rng = random.Random("sympy")
    found = 0
    for n in (2, 3, 4):
        A = make_matrix_algebra(QQ, n)
        for k in range(6):
            s, e = A.random_element(rng).coords, A.random_element(rng).coords
            if k == 5:   # a constant line
                e = s
            mp = pencil_min_poly(A, s, e, n)
            if mp is None:
                continue
            found += 1
            M = sympy.Matrix(n, n, lambda r, c: t * sympy.Rational(str(s[r * n + c]))
                             + (1 - t) * sympy.Rational(str(e[r * n + c])))
            want = M.charpoly(lam).all_coeffs()[::-1]
            got = [sum(sympy.Rational(str(a)) * t ** i for i, a in enumerate(c.coeffs))
                   for c in mp]
            assert len(got) == len(want) == n + 1
            assert all(sympy.expand(g - w) == 0 for g, w in zip(got, want))
    assert found >= 15


# ---------------------------------------------------------------------------
# pencil_discriminant


def _two_step_discriminant(A, s, e, d):
    mp = pencil_min_poly(A, s, e, d)
    return None if mp is None else xpoly_discriminant(mp)


def sweep_algebras():
    """M_n over F_2, F_3, F_5, F_7 and F_11 for n = 2..4, M_n(F_9),
    M2(Q), M4(Q) and M2(Q) (x) (-1, -1)."""
    out = [make_matrix_algebra(PrimeField(p), n)
           for p in (2, 3, 5, 7, 11) for n in (2, 3, 4)]
    F9 = standard_extension(3, 2)
    out += [make_matrix_algebra(F9, n) for n in (2, 3)]
    out += [make_matrix_algebra(QQ, 2), make_matrix_algebra(QQ, 4),
            tensor_product(make_matrix_algebra(QQ, 2), make_quaternion(QQ, -1, -1))]
    return out


@pytest.mark.parametrize("A", sweep_algebras(), ids=lambda A: f"{A.field!r}/{A.degree}")
def test_pencil_discriminant_equals_the_two_steps(A):
    """The Z[t] determinant lowered once gives the F[t] Hankel determinant
    of the lowered minimal polynomial, None included, on 16 lines each:
    random, constant, scalar (d = 1), degree-2 and non-etale ones, at
    d = deg A - 1, deg A and deg A + 1."""
    rng = random.Random(f"discriminant/{A.field!r}/{A.degree}")
    outcomes = Counter()
    for s, e, d in differential_lines(A.field, A, rng, 16):
        got = pencil_discriminant(A, s, e, d)
        assert got == _two_step_discriminant(A, s, e, d), (s, e, d)
        outcomes[got is None] += 1
    assert outcomes[True] and outcomes[False]


def test_pencil_discriminant_edge_cases():
    # d = 1: the empty Hankel determinant, 1, and the scalar line's only
    # degree; over Q with a denominator too
    for A in (make_matrix_algebra(F7, 3), make_matrix_algebra(QQ, 2)):
        f = A.field
        c = A.smul(f.div(f.from_int(3), f.from_int(2)), A.unit)
        assert pencil_discriminant(A, c, c, 1) == Poly.one(f)
        assert pencil_discriminant(A, c, c, 2) is None
    # the characteristic divides d: M2 over F_2, M3 over F_3, M4 over F_2
    for p, n in ((2, 2), (3, 3), (2, 4)):
        F = PrimeField(p)
        A = make_matrix_algebra(F, n)
        rng = random.Random(f"char/{p}/{n}")
        found = 0
        for _ in range(12):
            s, e = A.random_element(rng).coords, A.random_element(rng).coords
            got = pencil_discriminant(A, s, e, n)
            assert got == _two_step_discriminant(A, s, e, n)
            found += got is not None and not got.is_zero()
        assert found
    # degenerate: a generic line has no degree-2 minimal polynomial on M4
    A = make_matrix_algebra(F5, 4)
    rng = random.Random(3)
    s, e = A.random_element(rng).coords, A.random_element(rng).coords
    assert pencil_discriminant(A, s, e, 2) is None
    assert pencil_discriminant(A, s, e, 4) is not None
    # a constant line over Q with a denominator: den != 1, constant result
    H = make_quaternion(QQ, -1, -1)
    x = tuple(QQ.div(QQ.from_int(k), QQ.from_int(3)) for k in (1, 2, 0, 5))
    assert pencil_discriminant(H, x, x, 2) == _two_step_discriminant(H, x, x, 2)
    assert pencil_discriminant(H, x, x, 2).degree == 0


def test_pencil_discriminant_takes_one_d_by_d_integer_determinant(monkeypatch):
    # over F_p and Q: one d x d Bareiss elimination in Z[t] per call, and
    # no F[t] one
    calls = []
    bareiss = polyrings._bareiss

    def recording(ring, rows):
        calls.append((ring is polyrings._ZT, len(rows), {len(r) for r in rows}))
        return bareiss(ring, rows)

    monkeypatch.setattr(polyrings, "_bareiss", recording)
    rng = random.Random(47)
    for field in (F7, QQ):
        for n in (2, 3, 4):
            A = make_matrix_algebra(field, n)
            for _ in range(3):
                s, e = A.random_element(rng).coords, A.random_element(rng).coords
                calls.clear()
                assert pencil_discriminant(A, s, e, n) is not None
                assert calls == [(True, n, {n})]
