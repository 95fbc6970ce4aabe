import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csawitness.algebra import (
    make_matrix_algebra, make_quaternion, matrix_of, poly_eval_at_element,
    reduced_char_poly, tensor_product,
)
from csawitness.errors import (
    InvalidFormError, InvalidInputError, UnsupportedFieldError,
)
from csawitness.fields import QQ, PrimeField, standard_extension
from csawitness.involutions import (
    ORTHOGONAL, SYMPLECTIC, adjoint_involution, involution_from_matrix,
    involution_type, pfaffian_char_poly, quaternion_conjugation,
    quaternion_reversal, standard_alternating_matrix, sym_basis, sym_dimension,
    tensor_involution, transpose_involution, twist_by_inner,
)
from csawitness.linalg import Matrix, identity, mat_mul, mat_vec
from csawitness.poly import Poly

F3, F7 = PrimeField(3), PrimeField(7)
F9 = standard_extension(3, 2)


def test_transpose_on_m3_is_orthogonal():
    A = make_matrix_algebra(QQ, 3)
    s = transpose_involution(A)
    assert s.kind == ORTHOGONAL
    assert len(sym_basis(s)) == 6  # n(n+1)/2


def test_alternating_j_on_m2():
    A = make_matrix_algebra(QQ, 2)
    J = standard_alternating_matrix(QQ, 2)
    s = adjoint_involution(A, J)
    assert s.kind == SYMPLECTIC
    assert len(sym_basis(s)) == 1
    # sigma(x) = tr(x) 1 - x on 2x2 matrices
    rng = random.Random(0)
    for _ in range(20):
        x = A.random_element(rng)
        m = matrix_of(A, x.coords)
        tr = m[0][0] + m[1][1]
        assert s(x) == A.from_scalar(tr) - x


def test_alternating_j_on_m4():
    A = make_matrix_algebra(F7, 4)
    s = adjoint_involution(A, standard_alternating_matrix(F7, 4))
    assert s.kind == SYMPLECTIC
    assert len(sym_basis(s)) == 6  # n(n-1)/2


def test_adjoint_rejects_bad_forms():
    A = make_matrix_algebra(QQ, 2)
    with pytest.raises(InvalidFormError):
        adjoint_involution(A, [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    with pytest.raises(InvalidFormError):
        adjoint_involution(A, [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]])


def test_characteristic_two_rejected():
    F2 = PrimeField(2)
    A = make_matrix_algebra(F2, 2)
    with pytest.raises(UnsupportedFieldError):
        transpose_involution(A)


def test_quaternion_conjugation():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    s = quaternion_conjugation(H)
    assert s.kind == SYMPLECTIC
    one, i, j, k = (H.basis_element(t) for t in range(4))
    assert s(i) == -i and s(j) == -j and s(k) == -k and s(one) == one
    # x sigma(x) is the reduced norm: for x = 1 + i + j it is 3
    x = one + i + j
    assert x * s(x) == H.from_scalar(Fraction(3))
    for t in range(4):
        b = H.basis_element(t)
        assert s(s(b)) == b


def test_quaternion_reversal_is_orthogonal():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    r = quaternion_reversal(H)
    assert r.kind == ORTHOGONAL
    assert len(sym_basis(r)) == 3


def test_involution_type_examples():
    assert involution_type(transpose_involution(make_matrix_algebra(QQ, 2))) == ORTHOGONAL
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    assert involution_type(quaternion_conjugation(H)) == SYMPLECTIC
    A = make_matrix_algebra(F7, 4)
    assert involution_type(adjoint_involution(A, standard_alternating_matrix(F7, 4))) == SYMPLECTIC


def _g_sigma_g(sigma, g):
    """g sigma(g): the twist by it is inn_g . sigma . inn_g^-1, since
    g sigma(g^-1 x g) g^-1 = (g sigma(g)) sigma(x) (g sigma(g))^-1."""
    return sigma.algebra.mul(g, sigma.apply_coords(g))


def test_type_invariant_under_conjugation_seeded():
    rng = random.Random(5)
    A = make_matrix_algebra(F7, 3)
    s = transpose_involution(A)
    B = make_matrix_algebra(F7, 4)
    t = adjoint_involution(B, standard_alternating_matrix(F7, 4))
    for sigma, alg in ((s, A), (t, B)):
        done = 0
        while done < 10:
            g = alg.random_element(rng)
            if alg.inverse(g.coords) is None:
                continue
            u = _g_sigma_g(sigma, g.coords)
            assert twist_by_inner(sigma, u, alg.inverse(u)).kind == sigma.kind
            done += 1


def _conjugate_by_the_loop(sigma, g):
    """The matrix of inn_g . sigma . inn_g^-1, image by image."""
    A = sigma.algebra
    g_inv = A.inverse(g)
    images = []
    for i in range(A.dim):
        inner = A.mul(A.mul(g_inv, A.basis_coords(i)), g)
        images.append(A.mul(A.mul(g, sigma.apply_coords(inner)), g_inv))
    return tuple(zip(*images))


def test_conjugate_involution_is_the_twist_by_g_sigma_g():
    F5 = PrimeField(5)
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    M2H = tensor_product(make_matrix_algebra(QQ, 2), H)
    cases = [transpose_involution(make_matrix_algebra(F7, 3)),
             adjoint_involution(make_matrix_algebra(F5, 4), standard_alternating_matrix(F5, 4)),
             tensor_involution(transpose_involution(make_matrix_algebra(QQ, 2)),
                               quaternion_conjugation(H), M2H),
             quaternion_reversal(H)]
    rng = random.Random(37)
    for sigma in cases:
        A = sigma.algebra
        done = 0
        while done < 3:
            g = A.random_element(rng).coords
            if A.inverse(g) is None:
                continue
            u = _g_sigma_g(sigma, g)
            assert (twist_by_inner(sigma, u, A.inverse(u)).mat
                    == _conjugate_by_the_loop(sigma, g))
            done += 1
        with pytest.raises(InvalidInputError, match="twisting element is not invertible"):
            twist_by_inner(sigma, A.zero, A.unit)


def test_involution_from_matrix_rejects_non_involutions():
    A = make_matrix_algebra(QQ, 2)
    with pytest.raises(InvalidInputError):
        involution_from_matrix(A, identity(QQ, 4))  # identity is an automorphism,
        # but it is not of order-two-anti type: it fixes everything, dim Sym = 4


def test_tensor_involution_types():
    H1 = make_quaternion(F7, 3, 5)
    H2 = make_quaternion(F7, 3, 6)
    T = tensor_product(H1, H2)
    sp_sp = tensor_involution(quaternion_conjugation(H1), quaternion_conjugation(H2), T)
    assert sp_sp.kind == ORTHOGONAL
    sp_orth = tensor_involution(quaternion_conjugation(H1), quaternion_reversal(H2), T)
    assert sp_orth.kind == SYMPLECTIC


def test_pfaffian_identity_element():
    A = make_matrix_algebra(QQ, 2)
    s = adjoint_involution(A, standard_alternating_matrix(QQ, 2))
    assert pfaffian_char_poly(s, A.one) == Poly.from_ints(QQ, [-1, 1])


def test_pfaffian_two_eigenvalue_element():
    # With J pairing rows (1,2) and (3,4), diag(1,1,2,2) is J-symmetric;
    # its reduced charpoly is ((x-1)(x-2))^2 and the Pfaffian part is (x-1)(x-2).
    A = make_matrix_algebra(QQ, 4)
    s = adjoint_involution(A, standard_alternating_matrix(QQ, 4))
    d = [Fraction(0)] * 16
    for t, v in ((0, 1), (5, 1), (10, 2), (15, 2)):
        d[t] = Fraction(v)
    x = A.element(d)
    assert s(x) == x
    assert reduced_char_poly(x) == Poly.from_ints(QQ, [2, -3, 1]) ** 2
    assert pfaffian_char_poly(s, x) == Poly.from_ints(QQ, [2, -3, 1])


def test_pfaffian_rejects_nonsymmetric():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    s = quaternion_conjugation(H)
    x = H.basis_element(1) + H.basis_element(2)  # i + j, anti-symmetric
    with pytest.raises(InvalidInputError):
        pfaffian_char_poly(s, x)


def test_pfaffian_contract_seeded():
    from csawitness.involutions import sym_basis as basis_of
    A = make_matrix_algebra(F7, 4)
    s = adjoint_involution(A, standard_alternating_matrix(F7, 4))
    basis = basis_of(s)
    rng = random.Random(11)
    for _ in range(100):
        coords = [F7.zero] * 16
        for b in basis:
            c = F7.random(rng)
            for t, v in enumerate(b):
                coords[t] = F7.add(coords[t], F7.mul(c, v))
        x = A.element(coords)
        prp = pfaffian_char_poly(s, x)
        assert prp.degree == 2
        assert prp * prp == reduced_char_poly(x)
        assert poly_eval_at_element(prp, x).is_zero()


def test_twist_by_inner():
    A = make_matrix_algebra(F7, 3)
    s = transpose_involution(A)
    # twisting by an invertible symmetric element keeps the type
    d = A.element([(3 if divmod(t, 3)[0] == divmod(t, 3)[1] else 0) for t in range(9)])
    t = twist_by_inner(s, d, A.inverse(d.coords))
    assert t.kind == ORTHOGONAL


# ---------------------------------------------------------------------------
# twists are certified by their formula: an oracle that re-verifies them


def _twist_cases():
    F5 = PrimeField(5)
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    M2 = make_matrix_algebra(QQ, 2)
    M2H = tensor_product(M2, H)
    cases = []
    for f in (F5, F7):
        M3, M4 = make_matrix_algebra(f, 3), make_matrix_algebra(f, 4)
        cases += [transpose_involution(M3), transpose_involution(M4),
                  adjoint_involution(M4, standard_alternating_matrix(f, 4)),
                  quaternion_conjugation(make_quaternion(f, f.from_int(2), f.from_int(3)))]
    # F_{p^k} takes the field-method path of Algebra.sandwich_matrix
    M4F9 = make_matrix_algebra(F9, 4)
    cases += [transpose_involution(M4F9),
              adjoint_involution(M4F9, standard_alternating_matrix(F9, 4))]
    cases += [tensor_involution(transpose_involution(M2), quaternion_conjugation(H), M2H),
              tensor_involution(adjoint_involution(M2, standard_alternating_matrix(QQ, 2)),
                                quaternion_conjugation(H), M2H)]
    return cases


def _twisting_elements(sigma, g):
    """g + sigma(g), g - sigma(g) and g sigma(g): sigma(u) = u, -u and u."""
    A = sigma.algebra
    sg = sigma.apply_coords(g)
    return [A.add(g, sg), A.sub(g, sg), A.mul(g, sg)]


def test_twists_are_the_involutions_their_sign_says():
    rng = random.Random(41)
    checked = Counter()
    for sigma in _twist_cases():
        A = sigma.algebra
        for _ in range(6):
            g = A.random_element(rng).coords
            for u in _twisting_elements(sigma, g):
                if A.inverse(u) is None:
                    continue
                t = twist_by_inner(sigma, u, A.inverse(u))
                assert involution_from_matrix(A, t.mat).kind == t.kind
                assert involution_type(t) == t.kind
                symmetric = sigma.apply_coords(u) == tuple(u)
                assert (t.kind == sigma.kind) == symmetric
                checked[symmetric] += 1
    # both signs occur on every field, so both tags are exercised
    assert checked[True] >= 40 and checked[False] >= 20


def test_twist_by_an_element_neither_symmetric_nor_skew_raises():
    rng = random.Random(43)
    for sigma in _twist_cases():
        A = sigma.algebra
        f = A.field
        while True:
            u = A.random_element(rng).coords
            su = sigma.apply_coords(u)
            if su != u and su != tuple(f.neg(c) for c in u) and A.inverse(u) is not None:
                break
        with pytest.raises(InvalidInputError, match="sigma\\(u\\) != u and != -u"):
            twist_by_inner(sigma, u, A.inverse(u))


def test_twist_handed_its_inverse_checks_one_product():
    rng = random.Random(47)
    for sigma in _twist_cases():
        A = sigma.algebra
        f = A.field
        while True:
            g = A.random_element(rng).coords
            u = A.mul(g, sigma.apply_coords(g))
            u_inv = A.inverse(u)
            if u_inv is not None and A.mul(u, u) != A.unit:
                break
        # a correct inverse gives x -> u sigma(x) u^-1, image by image
        images = [A.mul(A.mul(u, sigma.apply_coords(A.basis_coords(i))), u_inv)
                  for i in range(A.dim)]
        assert twist_by_inner(sigma, u, u_inv).mat == tuple(zip(*images))
        for wrong in (u, A.zero_coords()):
            with pytest.raises(InvalidInputError, match="twisting element is not invertible"):
                twist_by_inner(sigma, u, wrong)
        # the sign test runs before the inverse is looked at
        while True:
            w = A.random_element(rng).coords
            sw = sigma.apply_coords(w)
            if sw != w and sw != tuple(f.neg(c) for c in w):
                break
        for wrong in (w, A.zero_coords()):
            with pytest.raises(InvalidInputError, match="sigma\\(u\\) != u and != -u"):
                twist_by_inner(sigma, w, wrong)


def test_a_second_exp2_chain_verifies_no_involution(monkeypatch):
    from csawitness import involutions, witness
    from csawitness.etale import random_balanced_pair_subalgebra
    A = make_matrix_algebra(F7, 4)
    rng = random.Random(8)
    pairs = [(random_balanced_pair_subalgebra(A, rng), random_balanced_pair_subalgebra(A, rng))
             for _ in range(2)]
    calls = Counter()
    real = involutions.involution_from_matrix

    def counted(*args, **kwargs):
        calls["involution_from_matrix"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(involutions, "involution_from_matrix", counted)
    witness.connect_exp2(*pairs[0], rng_seed=1)
    first = calls["involution_from_matrix"]
    assert first >= 1  # the default symplectic involution, built once
    witness.connect_exp2(*pairs[1], rng_seed=2)
    assert calls["involution_from_matrix"] == first


# ---------------------------------------------------------------------------
# the generator check against the all-pairs definition


def _all_pairs_kind(A, mat):
    """The former definition: order two, sigma(e_i e_j) = sigma(e_j)
    sigma(e_i) on every basis pair, and dim Sym = n(n+1)/2 or n(n-1)/2.
    Returns the kind, or None when the map is rejected."""
    f, n, deg = A.field, A.dim, A.degree
    if mat_mul(f, mat, mat) != identity(f, n):
        return None
    images = [tuple(mat_vec(Matrix(f, mat), A.basis_coords(i))) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = tuple(mat_vec(Matrix(f, mat), A.mul(A.basis_coords(i), A.basis_coords(j))))
            if lhs != A.mul(images[j], images[i]):
                return None
    d = sym_dimension(A, mat)
    return {deg * (deg + 1) // 2: ORTHOGONAL, deg * (deg - 1) // 2: SYMPLECTIC}.get(d)


def _matrix_of_map(A, fn):
    images = [fn(A.basis_coords(j)) for j in range(A.dim)]
    return [[images[j][i] for j in range(A.dim)] for i in range(A.dim)]


def _elementary_conjugate(sigma, a, b, c):
    """T sigma T^-1 with T = 1 + c E_ab: of order two, and fixing 1 when
    the unit has coordinate 0 at b, but in general not an
    anti-automorphism."""
    A = sigma.algebra
    f = A.field

    def t_map(x, c):
        x = list(x)
        x[a] = f.add(x[a], f.mul(c, x[b]))
        return tuple(x)

    return _matrix_of_map(A, lambda x: t_map(sigma.apply_coords(t_map(x, f.neg(c))), c))


def _small_involutions():
    M = make_matrix_algebra(F3, 2)
    Q = make_quaternion(F3, 2, 2)  # (-1,-1)/F_3
    S = make_quaternion(F3, 1, 1)
    T = tensor_product(M, S)
    return {
        "M2(F3)": [transpose_involution(M),
                   adjoint_involution(M, standard_alternating_matrix(F3, 2))],
        "(-1,-1)/F3": [quaternion_conjugation(Q), quaternion_reversal(Q)],
        "(1,1)/F3": [quaternion_conjugation(S), quaternion_reversal(S)],
        "M2x(1,1)/F3": [tensor_involution(transpose_involution(M),
                                          quaternion_conjugation(S), T),
                        tensor_involution(adjoint_involution(
                            M, standard_alternating_matrix(F3, 2)),
                            quaternion_reversal(S), T)],
    }


_SMALL_INVOLUTIONS = _small_involutions()


@pytest.mark.parametrize("name", sorted(_SMALL_INVOLUTIONS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_generator_check_accepts_what_all_pairs_accepts(name, data):
    sigma = data.draw(st.sampled_from(_SMALL_INVOLUTIONS[name]))
    A = sigma.algebra
    f, n = A.field, A.dim
    scalar = st.sampled_from(list(f.elements()))
    unit_scalar = st.sampled_from([c for c in f.elements() if not f.is_zero(c)])
    u = tuple(data.draw(st.lists(scalar, min_size=n, max_size=n)))
    u_inv = A.inverse(u)
    index = st.integers(0, n - 1)
    off_unit = st.sampled_from([k for k in range(n) if f.is_zero(A.unit[k])])
    how = data.draw(st.sampled_from(
        ["as is", "twist", "inner", "entry", "elementary", "tensor"]))
    mat = [list(r) for r in sigma.mat]
    if how == "twist" and u_inv is not None:
        # x -> u sigma(x) u^-1: an anti-automorphism, of order two or not
        mat = _matrix_of_map(A, lambda x: A.mul(A.mul(u, sigma.apply_coords(x)), u_inv))
    elif how == "inner" and u_inv is not None:
        # x -> u x u^-1: an automorphism, never an anti-automorphism here
        mat = _matrix_of_map(A, lambda x: A.mul(A.mul(u, x), u_inv))
    elif how == "entry":
        i, j = data.draw(index), data.draw(index)
        mat[i][j] = f.add(mat[i][j], data.draw(scalar))
    elif how == "elementary":
        b = data.draw(off_unit)
        a = data.draw(st.sampled_from([k for k in range(n) if k != b]))
        mat = _elementary_conjugate(sigma, a, b, data.draw(unit_scalar))
    elif how == "tensor" and A.preset.get("kind") == "tensor":
        # sigma_1 (x) phi for phi of order two fixing 1 on the right factor:
        # it passes the check at the left factor's generators g (x) 1 and
        # fails at a right one when phi is not an anti-automorphism
        s1 = data.draw(st.sampled_from(_SMALL_INVOLUTIONS["M2(F3)"]))
        b = data.draw(st.integers(1, 3))
        a = data.draw(st.sampled_from([k for k in range(4) if k != b]))
        sigma2 = data.draw(st.sampled_from(_SMALL_INVOLUTIONS["(1,1)/F3"]))
        phi = _elementary_conjugate(sigma2, a, b, data.draw(unit_scalar))
        mat = [[f.mul(s1.mat[i1][j1], phi[i2][j2]) for j1 in range(4) for j2 in range(4)]
               for i1 in range(4) for i2 in range(4)]
    try:
        kind = involution_from_matrix(A, mat).kind
    except InvalidInputError:
        kind = None
    assert kind == _all_pairs_kind(A, mat)


def test_anti_automorphism_error_names_the_basis_element_and_generator():
    A = make_matrix_algebra(F3, 2)
    # x -> x has order two and fixes 1, but E12 E21 != E21 E12
    with pytest.raises(InvalidInputError,
                       match="at basis element E11 and generator 1[*]E12"):
        involution_from_matrix(A, identity(F3, 4))


# ---------------------------------------------------------------------------
# the matrix-identity check against the generator loop, over Q and F_p


def _generator_loop_message(A, mat):
    """The check as a loop: the message for the first generator g and then
    basis element e_i with sigma(e_i g) != sigma(g) sigma(e_i), after the
    order-two and unit checks; None if every one of them passes."""
    f, n = A.field, A.dim
    if mat_mul(f, mat, mat) != identity(f, n):
        return "map is not of order two"

    def sigma(x):
        return tuple(mat_vec(Matrix(f, mat), x))

    if sigma(A.unit) != A.unit:
        return "map does not fix the unit"
    for g in A.closure_generators():
        for i in range(n):
            e = A.basis_coords(i)
            if sigma(A.mul(e, g)) != A.mul(sigma(g), sigma(e)):
                return (f"map is not an anti-automorphism at basis element "
                        f"{A.labels[i]} and generator {A.element(g)!r}")
    return None


def _rejection(A, mat):
    try:
        involution_from_matrix(A, mat)
    except InvalidInputError as exc:
        return str(exc)
    return None


def _tensor_with(sigma1, phi):
    f = sigma1.algebra.field
    m, k = len(sigma1.mat), len(phi)
    return [[f.mul(sigma1.mat[i1][j1], phi[i2][j2]) for j1 in range(m) for j2 in range(k)]
            for i1 in range(m) for i2 in range(k)]


def _pinned_rejections():
    """(algebra, map, message).  On M_2, quaternions and tensor products,
    each message as involution_from_matrix gave it when it compared
    sigma(e_i g) with sigma(g) sigma(e_i) one basis element at a time; on
    M_3 and M_4 the generator named is the shift sum E_{i,i+1}."""
    out = []
    at = "map is not an anti-automorphism at basis element "
    shifts = {3: "1*E12 + 1*E23", 4: "1*E12 + 1*E23 + 1*E34"}
    for f, c in ((QQ, Fraction(3, 2)), (F7, 3)):
        for n, shift in shifts.items():
            M = make_matrix_algebra(f, n)
            tr = transpose_involution(M)
            last = n * n - 1
            out.append((M, identity(f, n * n), at + f"E11 and generator {shift}"))
            out.append((M, _elementary_conjugate(tr, 0, 1, c),
                        at + f"E12 and generator {shift}"))
            out.append((M, _elementary_conjugate(tr, last, last - 1, c),
                        at + f"E1{n} and generator {shift}"))
            out.append((M, _elementary_conjugate(tr, n - 1, 1, c),
                        at + f"E21 and generator {shift}"))
        M = make_matrix_algebra(f, 2)
        S = make_quaternion(f, f.one, f.one)
        T = tensor_product(M, S)
        tr = transpose_involution(M)
        out.append((M, identity(f, 4), at + "E11 and generator 1*E12"))
        out.append((M, _elementary_conjugate(tr, 0, 1, c), at + "E12 and generator 1*E12"))
        phi = _elementary_conjugate(quaternion_reversal(S), 1, 3, c)
        out.append((T, _tensor_with(tr, phi), at + "E11.j and generator 1*E11.i + 1*E22.i"))
        phi = _elementary_conjugate(quaternion_conjugation(S), 0, 1, c)
        out.append((T, _tensor_with(tr, phi), at + "E11.i and generator 1*E11.i + 1*E22.i"))
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    out.append((tensor_product(make_matrix_algebra(QQ, 2), H), identity(QQ, 16),
                at + "E11.1 and generator 1*E12.1"))
    out.append((make_quaternion(QQ, Fraction(-3, 2), Fraction(5, 7)), identity(QQ, 4),
                at + "j and generator 1*i"))
    out.append((make_quaternion(F7, 3, 5), identity(F7, 4), at + "j and generator 1*i"))
    return out


@pytest.mark.parametrize("case", range(len(_pinned_rejections())))
def test_rejection_messages_are_the_generator_loop_messages(case):
    A, mat, message = _pinned_rejections()[case]
    assert _generator_loop_message(A, mat) == message
    assert _rejection(A, mat) == message


@pytest.mark.parametrize("f", [QQ, F7, F9], ids=["Q", "F7", "F9"])
def test_order_two_is_checked_column_by_column(f):
    # sigma^2 = 1 iff sigma maps its j-th column to e_j: a map off by one
    # entry in any place, or a scalar other than +-1, is rejected, and
    # every order-two map goes on to the later checks
    A = make_matrix_algebra(f, 4)
    tr = transpose_involution(A)
    n = A.dim
    rng = random.Random(f"order two/{f!r}")
    for _ in range(12):
        mat = [list(r) for r in tr.mat]
        i, j = rng.randrange(n), rng.randrange(n)
        mat[i][j] = f.add(mat[i][j], f.one)
        assert _rejection(A, mat) == _generator_loop_message(A, mat) == "map is not of order two"
    c = next(c for c in iter(lambda: f.random(rng), None) if f.mul(c, c) != f.one)
    scaled = [[f.mul(c, x) for x in r] for r in identity(f, n)]
    assert _rejection(A, scaled) == "map is not of order two"
    assert _rejection(A, tr.mat) is None
    assert _rejection(A, identity(f, n)) == _generator_loop_message(A, identity(f, n))


def _involutions_q_f7():
    out = {}
    for f in (QQ, F7):
        M = make_matrix_algebra(f, 2)
        S = make_quaternion(f, f.one, f.one)
        D = make_quaternion(f, f.div(f.from_int(-3), f.from_int(2)),
                           f.div(f.from_int(5), f.from_int(3)))
        out[f"M2({f})"] = [transpose_involution(M),
                           adjoint_involution(M, standard_alternating_matrix(f, 2))]
        out[f"quaternion({f})"] = [quaternion_conjugation(D), quaternion_reversal(D)]
        out[f"M2x(1,1)({f})"] = [tensor_involution(transpose_involution(M),
                                                   quaternion_conjugation(S),
                                                   tensor_product(M, S))]
    return out


_INVOLUTIONS_Q_F7 = _involutions_q_f7()


@pytest.mark.parametrize("name", sorted(_INVOLUTIONS_Q_F7))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matrix_identity_check_rejects_as_the_generator_loop(name, data):
    sigma = data.draw(st.sampled_from(_INVOLUTIONS_Q_F7[name]))
    A = sigma.algebra
    f, n = A.field, A.dim
    scalar = (st.integers(1, 6).map(f.from_int) if f.char else
              st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 5)))
    off_unit = [k for k in range(n) if f.is_zero(A.unit[k])]
    how = data.draw(st.sampled_from(["as is", "identity", "elementary", "twist"]))
    mat = [list(r) for r in sigma.mat]
    if how == "identity":
        mat = identity(f, n)
    elif how == "elementary":
        b = data.draw(st.sampled_from(off_unit))
        a = data.draw(st.sampled_from([k for k in range(n) if k != b]))
        mat = _elementary_conjugate(sigma, a, b, data.draw(scalar))
    elif how == "twist":
        # x -> u sigma(x) u^-1 for u = 1 + c e_k: order two or not
        u = list(A.unit)
        k = data.draw(st.integers(0, n - 1))
        u[k] = f.add(u[k], data.draw(scalar))
        u_inv = A.inverse(tuple(u))
        if u_inv is not None:
            mat = _matrix_of_map(
                A, lambda x: A.mul(A.mul(tuple(u), sigma.apply_coords(x)), u_inv))
    want = _generator_loop_message(A, mat)
    got = _rejection(A, mat)
    if want is None:
        assert got is None or got.startswith("fixed space has dimension")
    else:
        assert got == want


@pytest.mark.parametrize("field", [QQ, F7])
def test_every_closure_generator_is_checked(field):
    # the identity map fails at g exactly when g is not central, so on a
    # generator list that ends in the only noncentral one it fails there
    for j in (1, 2):
        A = make_matrix_algebra(field, 2)
        A._closure_gens = (A.unit, A.smul(field.from_int(2), A.unit), A.basis_coords(j))
        # E11 E12 = E12 but E12 E11 = 0; E11 E21 = 0 but E21 E11 = E21
        assert A.anti_automorphism_mismatch(Matrix(field, identity(field, 4))) == (0, A.basis_coords(j))
        A._closure_gens = A._closure_gens[:2]
        assert A.anti_automorphism_mismatch(Matrix(field, identity(field, 4))) is None


@pytest.mark.parametrize("case", ["H(-1,-1) x (1,1) over Q", "M4(F7)"])
def test_involution_from_matrix_lifts_its_matrix_once(monkeypatch, case):
    # involution_from_matrix hands the Matrix it holds to
    # Algebra.anti_automorphism_mismatch; accepted and rejected maps are
    # lifted once, and give the same kinds and messages
    if case == "M4(F7)":
        A = make_matrix_algebra(F7, 4)
        sigma = transpose_involution(A)
        bad = _elementary_conjugate(sigma, 0, 1, 3)
        message = ("map is not an anti-automorphism at basis element E12 and "
                   "generator 1*E12 + 1*E23 + 1*E34")
    else:
        H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
        S = make_quaternion(QQ, Fraction(1), Fraction(1))
        A = tensor_product(H, S)
        sigma = tensor_involution(quaternion_conjugation(H), quaternion_conjugation(S), A)
        bad = identity(QQ, A.dim)
        message = _generator_loop_message(A, bad)
    assert message is not None and message == _rejection(A, bad)
    lifts = []
    field_class = type(A.field)
    lift = field_class.lift_rows

    def spy(field, rows):
        lifts.append(tuple(map(tuple, rows)))
        return lift(field, rows)

    monkeypatch.setattr(field_class, "lift_rows", spy)
    assert involution_from_matrix(A, sigma.mat).kind == sigma.kind
    assert lifts.count(sigma.mat) == 1
    assert _rejection(A, bad) == message
    assert lifts.count(tuple(map(tuple, bad))) == 1
