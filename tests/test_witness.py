import ast
import functools
import gc
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from csawitness import polyrings, witness
from csawitness.algebra import (
    Algebra, coords_of_matrix, make_matrix_algebra, make_quaternion,
    tensor_product,
)
from csawitness.errors import (
    FieldTooSmallError, InvalidInputError, NotEtaleError, StructuralError,
)
from csawitness.etale import (
    generate_etale, is_et_m_point, random_balanced_pair_subalgebra,
    random_maximal_etale,
)
from csawitness.fields import QQ, PrimeField, standard_extension
from csawitness.ideals import (
    Flag, ModulePresentation, flag_check, ideal_generated, module_presentation,
    random_flag, random_ideal,
)
from csawitness.involutions import (
    SYMPLECTIC, adjoint_involution, quaternion_conjugation,
    standard_alternating_matrix, transpose_involution,
)
from csawitness.linalg import Matrix, mat_vec, rank
from csawitness.pointcount import InvolutionQuadricModel, QuadricCurves, QuadricModel
from csawitness.poly import Poly, poly_gcd
from csawitness.polyrings import line_coords
from csawitness.quadrics import (
    QuadraticForm, normalize_point, points_on_quadric, symp_quadric_model,
)
from csawitness.witness import (
    PencilWitness, WitnessChain, connect_exp2, connect_flags, connect_ideals, connect_max_etale, connect_quadric_points, default_samples,
    default_symplectic_involution,
    solve_inner_twist, symplectic_fixing_involution, verify_witness,
)

F3, F5, F7 = PrimeField(3), PrimeField(5), PrimeField(7)


def exhaustive(field):
    return list(field.elements())


# ---------------------------------------------------------------------------
# one home per witness kind


def _kind_tag_sites(sources):
    """(file, top-level definition or None, tag) for each kind tag in
    sources, a dict of file name to Python source: a string literal equal to
    a tag of witness.KINDS, or a name, attribute or import of its constant
    (IDEAL_PENCIL for ideal_pencil)."""
    constants = {tag.upper(): tag for tag in witness.KINDS}
    found = []
    for fname, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                names = ([node.id] if isinstance(node, ast.Name)
                         else [node.attr] if isinstance(node, ast.Attribute)
                         else [node.name, node.asname] if isinstance(node, ast.alias) else [])
                tags = [constants[n] for n in names if n in constants]
                if isinstance(node, ast.Constant) and node.value in witness.KINDS:
                    tags.append(node.value)
                found += [(fname, getattr(top, "name", None), tag) for tag in tags]
    return found


def test_each_kind_tag_appears_only_in_its_record():
    src = Path(witness.__file__).resolve().parent
    sources = {p.name: p.read_text() for p in sorted(src.glob("*.py"))}
    assert sorted(_kind_tag_sites(sources)) == sorted(
        ("witness.py", type(kind).__name__, tag) for tag, kind in witness.KINDS.items())
    assert sorted(witness.KINDS) == ["etale_line", "flag_pencil", "ideal_pencil", "quadric_line"]


def test_a_stray_kind_tag_is_caught():
    source = ("from .witness import ETALE_LINE\n\n"
              "class EtaleLine:\n    tag = 'etale_line'\n\n"
              "def is_conic(w):\n    return w.kind == 'quadric_line' or w.kind == mod.FLAG_PENCIL\n")
    assert _kind_tag_sites({"m.py": source}) == [
        ("m.py", None, "etale_line"), ("m.py", "EtaleLine", "etale_line"),
        ("m.py", "is_conic", "quadric_line"), ("m.py", "is_conic", "flag_pencil")]


# ---------------------------------------------------------------------------
# ideal pencils


def test_connect_identical_ideals_constant():
    A = make_matrix_algebra(F3, 2)
    I = ideal_generated([A.basis_element(0)])
    w = connect_ideals(I, I)
    assert w.validity == Poly.one(F3)
    assert verify_witness(w, exhaustive(F3)).passed


def test_connect_row_ideals_m2_f3_exhaustive():
    A = make_matrix_algebra(F3, 2)
    I1 = ideal_generated([A.basis_element(0)])  # row 1
    I2 = ideal_generated([A.basis_element(3)])  # row 2
    w = connect_ideals(I1, I2)
    rep = verify_witness(w, exhaustive(F3))
    assert rep.passed, rep.failures()
    # this pencil never degenerates: every t in F_3 yields a valid rdim-1 ideal
    for t in exhaustive(F3):
        assert w.evaluate(t).rdim == 1


def test_connect_ideals_m4_f5_seeded():
    A = make_matrix_algebra(F5, 4)
    rng = random.Random(7)
    q = F5.size
    for rdim in (1, 2):
        for _ in range(6):
            I1 = random_ideal(A, rdim, rng)
            I2 = random_ideal(A, rdim, rng)
            w = connect_ideals(I1, I2)
            assert w.validity.degree <= 2 * rdim
            rep = verify_witness(w, exhaustive(F5))
            assert rep.passed, rep.failures()
            # projective-line count of valid parameters
            finite_ok = sum(1 for t in exhaustive(F5)
                            if not F5.is_zero(w.validity.eval(t)))
            assert finite_ok + 1 >= q + 1 - w.validity.degree


def test_connect_ideals_rdim_mismatch():
    A = make_matrix_algebra(F5, 4)
    rng = random.Random(1)
    with pytest.raises(InvalidInputError):
        connect_ideals(random_ideal(A, 1, rng), random_ideal(A, 2, rng))


def test_connect_ideals_quaternionic_module():
    H = make_quaternion(F5, 2, 3)
    A = tensor_product(make_matrix_algebra(F5, 2), H)
    rng = random.Random(11)
    I1 = random_ideal(A, 2, rng)
    I2 = random_ideal(A, 2, rng)
    w = connect_ideals(I1, I2)
    rep = verify_witness(w, exhaustive(F5))
    assert rep.passed, rep.failures()


def test_tampered_ideal_witness_fails():
    A = make_matrix_algebra(F3, 2)
    I1 = ideal_generated([A.basis_element(0)])
    I2 = ideal_generated([A.basis_element(3)])
    w = connect_ideals(I1, I2)
    bad = PencilWitness(w.kind, w.start, w.end, w.validity,
                        {"pencil_w": [(F3.one, F3.one)],  # perturbed vector
                         "pencil_w_prime": w.data["pencil_w_prime"]},
                        algebra=A, meta=w.meta)
    rep = verify_witness(bad, exhaustive(F3))
    assert not rep.passed
    assert any(name == "endpoint_start" for name, _ in rep.failures())


def test_ideal_pencil_is_the_one_level_flag_pencil():
    for A in (make_matrix_algebra(F5, 4),
              tensor_product(make_matrix_algebra(F5, 2), make_quaternion(F5, 2, 3))):
        rng = random.Random(13)
        I1, I2 = random_ideal(A, 2, rng), random_ideal(A, 2, rng)
        wi = connect_ideals(I1, I2)
        wf = connect_flags(Flag([I1]), Flag([I2]))
        assert wf.validity == wi.validity
        assert wf.data == dict(wi.data, levels=[len(wi.data["pencil_w"])])
        for t in exhaustive(F5):
            if not F5.is_zero(wi.validity.eval(t)):
                assert wf.evaluate(t) == Flag([wi.evaluate(t)])


@pytest.mark.parametrize("same", [True, False], ids=["same", "distinct"])
def test_ideal_pencil_builds_each_endpoint_ideal_once(monkeypatch, same):
    A = make_matrix_algebra(F5, 4)
    rng = random.Random(7)
    I1 = random_ideal(A, 2, rng)
    I2 = I1 if same else random_ideal(A, 2, rng)
    calls = []
    build = ModulePresentation.ideal_from_subspace
    monkeypatch.setattr(ModulePresentation, "ideal_from_subspace",
                        lambda pres, rows: calls.append(1) or build(pres, rows))
    connect_ideals(I1, I2)
    assert len(calls) == 2


def test_closure_is_checked_only_where_rows_enter(monkeypatch):
    from csawitness.ideals import RightIdeal
    from csawitness.serialize import ideal_from_json, ideal_to_json
    calls = []
    check = RightIdeal._check_closed
    monkeypatch.setattr(RightIdeal, "_check_closed",
                        lambda self: calls.append(1) or check(self))
    # D-span ideals: random ideals and flags, pencil builds and every
    # evaluation of the verifier's sweep
    A = make_matrix_algebra(F5, 4)
    rng = random.Random(7)
    w = connect_ideals(random_ideal(A, 2, rng), random_ideal(A, 2, rng))
    assert verify_witness(w, exhaustive(F5)).passed
    B = make_matrix_algebra(F7, 4)
    rng = random.Random(8)
    fw = connect_flags(random_flag(B, [1, 2, 3], rng), random_flag(B, [1, 2, 3], rng))
    assert calls == []
    # a witness file's endpoints: certified by the verifier's endpoint
    # entries, not on load
    from csawitness.serialize import (
        flag_from_json, flag_to_json, witness_from_json, witness_to_json,
    )
    for pencil in (w, fw):
        witness_from_json(witness_to_json(pencil))
    assert calls == []
    # rows from outside: a loaded ideal, and the checked constructor
    for ideal in (w.start, w.end):
        ideal_from_json(ideal_to_json(ideal))
    assert len(calls) == 2
    RightIdeal(A, w.start.basis)
    assert len(calls) == 3
    # a lone flag checks each of its three ideals
    flag_from_json(flag_to_json(fw.start))
    assert len(calls) == 6


# (2, 3) over F_5 is split, so a column space vector can span fewer than 4
# dimensions over D.  The rdim-1 ideal i's column space is not free, so no
# pencil is built on it.  The rdim-2 ideal j's column space is free
# (F-dimension 4 over D = M_2(F_5)), but its first row spans only 2
# dimensions over D: d_basis_of takes a sum of two rows there, and the
# pencils on j verify
def _split_d_cases():
    H = make_quaternion(F5, 2, 3)
    A = tensor_product(make_matrix_algebra(F5, 2), H)
    i = ideal_generated([H.element([0, 1, 1, 0])])
    j = ideal_generated([A.element([0, 1, 1, 0] + [0] * 8 + [0, 1, 1, 0])])
    r = random_ideal(A, 2, random.Random(3))
    assert (i.rdim, j.rdim) == (1, 2)
    return {"quaternion_rdim_1_to_itself": lambda: connect_ideals(i, i),
            "tensor_rdim_2_to_itself": lambda: connect_ideals(j, j),
            "tensor_rdim_2_to_free": lambda: connect_ideals(j, r),
            "free_to_tensor_rdim_2": lambda: connect_ideals(r, j),
            "tensor_one_level_flags": lambda: connect_flags(Flag([j]), Flag([r]))}


@pytest.mark.parametrize("case", ["quaternion_rdim_1_to_itself"])
def test_split_d_pencil_raises(case):
    with pytest.raises(StructuralError, match="D-basis choice failed"):
        _split_d_cases()[case]()


@pytest.mark.parametrize("case", ["tensor_rdim_2_to_itself", "tensor_rdim_2_to_free",
                                  "free_to_tensor_rdim_2", "tensor_one_level_flags"])
def test_split_d_pencil_verifies(case):
    rep = verify_witness(_split_d_cases()[case](), exhaustive(F5))
    assert rep.passed, rep.failures()


@pytest.mark.parametrize("seed", [0, 23])
def test_random_split_d_ideals_build_verified_pencils(seed):
    # the first seeds whose random rdim-2 ideal has a first row that spans
    # only 2 dimensions over D; its column space is free, so a pencil exists
    A = tensor_product(make_matrix_algebra(F5, 2), make_quaternion(F5, 2, 3))
    I = random_ideal(A, 2, random.Random(seed))
    r = random_ideal(A, 2, random.Random(3))
    for w in (connect_ideals(I, r), connect_ideals(r, I), connect_ideals(I, I)):
        rep = verify_witness(w, exhaustive(F5))
        assert rep.passed, rep.failures()


# ---------------------------------------------------------------------------
# flag pencils


def test_connect_identical_flags():
    A = make_matrix_algebra(F5, 3)
    rng = random.Random(2)
    fl = random_flag(A, (1, 2), rng)
    w = connect_flags(fl, fl)
    assert verify_witness(w, exhaustive(F5)).passed


def test_connect_flags_m3_f5_exhaustive():
    A = make_matrix_algebra(F5, 3)
    rng = random.Random(3)
    for _ in range(5):
        f1 = random_flag(A, (1, 2), rng)
        f2 = random_flag(A, (1, 2), rng)
        w = connect_flags(f1, f2)
        rep = verify_witness(w, exhaustive(F5))
        assert rep.passed, rep.failures()
        # containment holds at every valid parameter
        from csawitness.ideals import flag_check
        for t in exhaustive(F5):
            if not F5.is_zero(w.validity.eval(t)):
                assert flag_check(w.evaluate(t), (1, 2))


def test_connect_flags_quaternionic_module_over_q():
    A = tensor_product(make_matrix_algebra(QQ, 2), make_quaternion(QQ, -1, -1))
    rng = random.Random(5)
    w = connect_flags(random_flag(A, (2, 4), rng), random_flag(A, (2, 4), rng))
    assert w.data["levels"] == [1, 2]
    rep = verify_witness(w)
    assert rep.passed, rep.failures()


def test_connect_flags_signature_mismatch():
    A = make_matrix_algebra(F5, 3)
    rng = random.Random(4)
    f1 = random_flag(A, (1, 2), rng)
    f2 = random_flag(A, (1,), rng)
    with pytest.raises(InvalidInputError):
        connect_flags(f1, f2)


def _flag_pencil_m3f5():
    A = make_matrix_algebra(F5, 3)
    rng = random.Random(3)
    return connect_flags(random_flag(A, (1, 2), rng), random_flag(A, (1, 2), rng))


def _with(w, validity=None, **data):
    """w with its validity or some data fields replaced."""
    return PencilWitness(w.kind, w.start, w.end,
                         w.validity if validity is None else validity,
                         dict(w.data, **data), algebra=w.algebra, form=w.form,
                         meta=w.meta)


def test_flag_pencil_with_replaced_validity_fails():
    w = _flag_pencil_m3f5()
    assert w.validity.degree == 1
    honest = verify_witness(w, exhaustive(F5))
    assert honest.passed and honest.checks[0] == ("validity_rederived", True, "")
    t, one = Poly.x(F5), Poly.one(F5)
    for validity in (t ** 5 - t, one, w.validity * (t - one), w.validity.scale(2)):
        rep = verify_witness(_with(w, validity), exhaustive(F5))
        assert rep.failures() == [("validity_rederived", "stored validity differs")]
        # the sweep skips the roots of the re-derived validity, not the stored one
        assert rep.checks[1:] == honest.checks[1:]


def test_pencil_validity_derivation_failure_is_a_report_entry():
    w = _flag_pencil_m3f5()
    zero = tuple(F5.zero for _ in w.data["pencil_w"][0])
    rep = verify_witness(_with(w, pencil_w=[zero, w.data["pencil_w"][1]]),
                         exhaustive(F5))
    name, detail = rep.failures()[0]
    assert name == "validity_rederived" and detail.startswith("derivation failed")
    # with no validity to trust, every sample is checked
    assert sum(n.startswith("membership@") for n, _, _ in rep.checks) == F5.size


# ---------------------------------------------------------------------------
# pencil samples by rank
#
# A sample of an ideal or flag pencil is checked by the rank of each level's
# D-rows.  The reference checkers below build each level's ideal instead,
# compare its dimension and run flag_check on the flag.  Both must give the
# same (ok, detail) at every sample.


def _built_levels(w, t):
    pres = module_presentation(w.algebra)
    vecs = witness._pencil_vectors_at(w.field, w.data["pencil_w"], w.data["pencil_w_prime"], t)
    ideals = []
    for lvl in w.record.levels(w):
        ideal = pres.ideal_from_subspace(vecs[:lvl])
        if ideal.dim() != pres.m * lvl * pres.d2:
            raise StructuralError(f"pencil drops rank at t={t}")
        ideals.append(ideal)
    return ideals


def _built_ideal_sample(w, t):
    want = w.start.rdim
    if w.meta.get("rdim") != want:
        return False, f"stored rdim {w.meta.get('rdim')!r} != {want}"
    ideal, = _built_levels(w, t)
    if ideal.rdim != want:
        return False, f"rdim {ideal.rdim} != {want}"
    return True, ""


def _built_flag_sample(w, t):
    return flag_check(Flag(_built_levels(w, t)), tuple(w.meta.get("signature", ()))), ""


def _outcome(check, w, t):
    """check(w, t) as verify_witness records it: an exception is a failure
    whose detail is its message."""
    try:
        return check(w, t)
    except Exception as exc:
        return False, str(exc)


def _rank_cases():
    """(witness, samples): honest pencils over F_5, F_7, F_9, Q and M2(H).
    Over a finite field the samples are every element, so they include the
    roots of the validity."""
    F9 = standard_extension(3, 2)
    M2H_F5 = tensor_product(make_matrix_algebra(F5, 2), make_quaternion(F5, 2, 3))
    M2H_Q = tensor_product(make_matrix_algebra(QQ, 2), make_quaternion(QQ, -1, -1))
    rng = random.Random(29)
    cases = []
    for A, rdims in ((make_matrix_algebra(F5, 4), (1, 2)), (make_matrix_algebra(F7, 3), (1,)),
                     (make_matrix_algebra(F9, 2), (1,)), (make_matrix_algebra(QQ, 3), (1, 2)),
                     (M2H_F5, (2,)), (M2H_Q, (2,))):
        for rd in rdims:
            cases.append(connect_ideals(random_ideal(A, rd, rng), random_ideal(A, rd, rng)))
    for A, sig in ((make_matrix_algebra(F5, 3), (1, 2)), (make_matrix_algebra(F7, 4), (1, 2, 3)),
                   (make_matrix_algebra(F9, 3), (0, 1, 2)), (make_matrix_algebra(QQ, 3), (1, 2)),
                   (M2H_F5, (2, 4)), (M2H_Q, (2, 4))):
        cases.append(connect_flags(random_flag(A, sig, rng), random_flag(A, sig, rng)))
    out = []
    for w in cases:
        f = w.field
        if f == QQ:
            # the root of a linear validity, where the pencil drops rank
            c = w.validity.coeffs
            samples = default_samples(f) + ([-c[0] / c[1]] if len(c) == 2 else [])
        else:
            samples = exhaustive(f)
        out.append((w, samples))
    return out


def _tampered(w):
    """w with a wrong stored rdim or signature, with a zero first vector,
    whose pencil drops rank everywhere, and, for a flag, with its levels and
    signature both reversed, which only the strict increase rejects."""
    def with_meta(meta, **data):
        return PencilWitness(w.kind, w.start, w.end, w.validity, dict(w.data, **data),
                             algebra=w.algebra, meta=meta)

    zero = tuple(w.field.zero for _ in w.data["pencil_w"][0])
    out = [_with(w, pencil_w=[zero] + list(w.data["pencil_w"][1:]))]
    if isinstance(w.record, witness.IdealPencil):
        return out + [with_meta({"rdim": w.meta["rdim"] + 1})]
    sig = list(w.meta["signature"])[::-1]
    return out + [with_meta({"signature": sig}),
                  with_meta({"signature": sig}, levels=w.data["levels"][::-1])]


def test_rank_samples_agree_with_built_ideals():
    fires = Counter()
    for w, samples in _rank_cases():
        old = _built_ideal_sample if isinstance(w.record, witness.IdealPencil) else _built_flag_sample
        for v in [w] + _tampered(w):
            for t in samples:
                got = _outcome(v.record.check_sample, v, t)
                assert got == _outcome(old, v, t), (v, t)
                fires[got[1].startswith("pencil drops rank")] += 1
    # every sample is checked, so the roots of the validity drop rank
    assert fires[True] > 0 and fires[False] > 0


def test_rank_samples_give_the_same_reports(monkeypatch):
    for w, samples in _rank_cases()[::3]:
        for v in [w] + _tampered(w):
            new = verify_witness(v, samples).checks
            with monkeypatch.context() as m:
                m.setattr(witness.IdealPencil, "check_sample",
                          lambda self, w, t: _built_ideal_sample(w, t))
                m.setattr(witness.FlagPencil, "check_sample",
                          lambda self, w, t: _built_flag_sample(w, t))
                assert verify_witness(v, samples).checks == new


@pytest.mark.parametrize("field", [F5, F7], ids=["F5", "F7"])
def test_pencil_samples_build_no_ideal(monkeypatch, field):
    A = make_matrix_algebra(field, 4)
    rng = random.Random(7)
    w = connect_ideals(random_ideal(A, 2, rng), random_ideal(A, 2, rng))
    calls = []
    build = ModulePresentation.ideal_from_subspace
    monkeypatch.setattr(ModulePresentation, "ideal_from_subspace",
                        lambda pres, rows: calls.append(1) or build(pres, rows))
    rep = verify_witness(w, exhaustive(field))
    assert rep.passed, rep.failures()
    assert sum(n.startswith("membership@") for n, _, _ in rep.checks) >= field.size - 2
    # the two endpoints, whatever the number of samples
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# maximal etale lines


def test_connect_max_etale_constant():
    A = make_matrix_algebra(F5, 2)
    E = random_maximal_etale(A, random.Random(0))
    w = connect_max_etale(E, E)
    assert verify_witness(w, exhaustive(F5)).passed


def test_connect_max_etale_m2_f5_exhaustive():
    A = make_matrix_algebra(F5, 2)
    d = A.element([1, 0, 0, 3])
    offdiag = A.element([0, 1, 1, 0])
    E1, E2 = generate_etale(d), generate_etale(offdiag)
    w = connect_max_etale(E1, E2)
    rep = verify_witness(w, exhaustive(F5))
    assert rep.passed, rep.failures()


def test_connect_max_etale_m2_q():
    A = make_matrix_algebra(QQ, 2)
    E1 = generate_etale(A.element([Fraction(1), 0, 0, Fraction(2)]))
    # symmetric matrix with eigenvalues 1, -1: [[0,1],[1,0]]
    E2 = generate_etale(A.element([Fraction(0), Fraction(1), Fraction(1), Fraction(0)]))
    w = connect_max_etale(E1, E2)
    samples = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)]
    rep = verify_witness(w, samples)
    assert rep.passed, rep.failures()
    assert not w.validity.is_zero()


def test_connect_max_etale_m3_f7_seeded():
    A = make_matrix_algebra(F7, 3)
    rng = random.Random(5)
    for _ in range(5):
        E1 = random_maximal_etale(A, rng)
        E2 = random_maximal_etale(A, rng)
        w = connect_max_etale(E1, E2)
        rep = verify_witness(w, exhaustive(F7))
        assert rep.passed, rep.failures()


def test_max_etale_requires_maximal():
    A = make_matrix_algebra(QQ, 4)
    coords = [Fraction(0)] * 16
    coords[0] = coords[5] = Fraction(1)  # diag(1,1,0,0)
    E = generate_etale(A.element(coords))
    with pytest.raises(InvalidInputError):
        connect_max_etale(E, E)


# ---------------------------------------------------------------------------
# the etale line certificate against a per-sample rebuild


def _per_sample_outcomes(w, samples):
    """The reference the certificate replaced: at each sample where the
    validity is nonzero, E(t) rebuilt by generate_etale, its meta checked,
    and balance decided by centralizer_dim at t."""
    A, f = w.algebra, w.field
    n = A.degree
    out = {}
    for t in samples:
        if f.is_zero(w.validity.eval(t)):
            continue
        try:
            E = w.evaluate(t)
        except NotEtaleError:
            out[f"membership@t={witness._fmt(f, t)}"] = False
            continue
        m = w.meta.get("et_m")
        out[f"membership@t={witness._fmt(f, t)}"] = (
            E.dim == w.meta.get("etale_dim", E.dim)
            and w.meta.get("maximal", E.is_maximal()) == E.is_maximal()
            and (m is None or (E.dim == m and A.centralizer_dim(E.generator.coords) * m == n * n)))
    return out


def _line(A, a, b, d, meta):
    """The etale line from a to b of degree d, or None unless both ends are
    etale and E(a) has dim d."""
    try:
        w = witness._etale_line_witness(A, a, b, d, meta)
    except NotEtaleError:
        return None
    return w if w is not None and w.start.dim == d else None


def _rank_one_line(A, rng, meta):
    """alpha(t) I + v w(t)^T: every point has minimal polynomial of degree at
    most 2, and of type (n - 1, 1) where it is squarefree."""
    f, n = A.field, A.degree
    v = [f.random(rng) for _ in range(n)]
    ends = []
    for _ in range(2):
        w, alpha = [f.random(rng) for _ in range(n)], f.random(rng)
        ends.append(A.element([f.add(f.mul(v[r], w[c]), alpha if r == c else f.zero)
                               for r in range(n) for c in range(n)]))
    return _line(A, *ends, 2, meta)


def _doubled(A, rng):
    """X (x) I_2 for a random 2 x 2 matrix X: on a line of these, conjugated
    by one g, every point has minimal polynomial of degree at most 2, and
    balanced type (2, 2) where it is squarefree."""
    f = A.field
    X = [[f.random(rng) for _ in range(2)] for _ in range(2)]
    return A.element([X[r // 2][c // 2] if r % 2 == c % 2 else f.zero
                      for r in range(4) for c in range(4)])


def _oracle_lines(field, rng):
    """Random etale lines over field: maximal lines in M2 and M3, and in M4
    quadratic lines of balanced type (2, 2) and of type (3, 1), the latter
    half of the time with a false et_m claim."""
    lines = []
    for n in (2, 3):
        A = make_matrix_algebra(field, n)
        for _ in range(16):
            lines.append(_line(A, A.random_element(rng), A.random_element(rng), n,
                               {"etale_dim": n, "maximal": True}))
    A = make_matrix_algebra(field, 4)
    balanced = {"etale_dim": 2, "et_m": 2}
    for k in range(24):
        g = A.random_element(rng)
        g_inv = A.inverse(g.coords)
        if g_inv is None:
            continue
        a, b = (g * _doubled(A, rng) * A.element(g_inv) for _ in range(2))
        lines.append(_line(A, a, b, 2, balanced))
        lines.append(_rank_one_line(A, rng, balanced if k % 2 else {"etale_dim": 2}))
    return [w for w in lines if w is not None]


def _q_oracle_lines(rng):
    """M3(Q) lines with small integer entries, and the lines between basis
    elements of H(-1,-1) (x) (1,1) whose points stay quadratic."""
    A = make_matrix_algebra(QQ, 3)
    lines = [_line(A, *(A.element([Fraction(rng.randint(-3, 3)) for _ in range(9)])
                        for _ in range(2)), 3, {"etale_dim": 3, "maximal": True})
             for _ in range(12)]
    B = tensor_product(make_quaternion(QQ, Fraction(-1), Fraction(-1)),
                       make_quaternion(QQ, Fraction(1), Fraction(1)))
    for i in range(1, B.dim):
        for j in range(1, B.dim):
            if i != j:
                lines.append(_line(B, B.basis_element(i), B.basis_element(j), 2,
                                   {"etale_dim": 2, "et_m": 2}))
    return [w for w in lines if w is not None]


@functools.cache
def _oracle_cases():
    rng = random.Random(24)
    cases = [(w, exhaustive(f)) for f in (PrimeField(2), F3, F5, F7, standard_extension(3, 2))
             for w in _oracle_lines(f, rng)]
    q_samples = default_samples(QQ) + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                       for _ in range(5)]
    return cases + [(w, q_samples) for w in _q_oracle_lines(rng)]


def _certificate_disagreements():
    """(line, entry) pairs where the report and the per-sample reference
    differ, and the number of samples compared."""
    bad, compared = [], 0
    for w, samples in _oracle_cases():
        rep = verify_witness(w, samples)
        assert rep.checks[0] == ("validity_nonzero", True, "")
        got = {n: ok for n, ok, _ in rep.checks if n.startswith("membership@")}
        want = _per_sample_outcomes(w, samples)
        assert got.keys() == want.keys()
        bad += [(w, n) for n in got if got[n] != want[n]]
        compared += len(got)
    return bad, compared


def test_etale_certificate_agrees_with_the_per_sample_rebuild():
    bad, compared = _certificate_disagreements()
    assert bad == []
    assert len(_oracle_cases()) >= 300 and compared >= 1500
    outcomes = Counter(ok for w, samples in _oracle_cases()
                       for ok in _per_sample_outcomes(w, samples).values())
    # the false et_m claims on (3, 1) lines fail at every sample
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_etale_oracle_catches_a_skipped_et_m_check(monkeypatch):
    monkeypatch.setattr(witness, "is_et_m_point", lambda E, m: True)
    bad, _ = _certificate_disagreements()
    assert bad and all(w.meta.get("et_m") == 2 for w, _ in bad)


@pytest.mark.parametrize("start, detail", [
    # E(1) = F is 1-dimensional, but the line's points are 2-dimensional
    # elsewhere: no degree-1 pencil minimal polynomial exists
    ((3, 0, 0, 3), "no degree-1 pencil minimal polynomial"),
    # a nilpotent start has no etale E(1) to read d from
    ((0, 1, 0, 0), "evaluation failed: minimal polynomial of degree 2 is not squarefree"),
])
def test_etale_line_without_a_derivable_validity_fails(start, detail):
    A = make_matrix_algebra(F5, 2)
    end = generate_etale(A.element([1, 0, 0, 2]))
    w = PencilWitness(witness.EtaleLine.tag, end, end, Poly.one(F5),
                      {"gen_start": start, "gen_end": end.generator.coords}, algebra=A)
    rep = verify_witness(w, exhaustive(F5))
    detail = f"derivation failed: {detail}"
    assert rep.checks[0] == ("validity_nonzero", False, detail)
    samples = [c for c in rep.checks if c[0].startswith("membership@")]
    assert len(samples) == 5 and all(c[1:] == (False, detail) for c in samples)


@pytest.mark.parametrize("field, n, in_f_t", [
    (F7, 3, False), (QQ, 2, False), (standard_extension(3, 2), 2, True),
], ids=["F7", "Q", "F9"])
def test_etale_validity_takes_no_polynomial_determinant_over_fp_and_q(
        monkeypatch, field, n, in_f_t):
    # over F_p and Q the validity is a Z[t] determinant; F_{p^k} keeps one
    # Hankel determinant over F[t] per derivation
    calls = Counter()

    def spy(name):
        fn = getattr(polyrings, name)
        return lambda *args: calls.update([name]) or fn(*args)

    for name in ("polymat_det", "xpoly_discriminant"):
        monkeypatch.setattr(polyrings, name, spy(name))
    monkeypatch.setattr(witness, "pencil_discriminant", spy("pencil_discriminant"))
    A = make_matrix_algebra(field, n)
    rng = random.Random(13)
    samples = default_samples(field) if field is QQ else exhaustive(field)
    for _ in range(3):
        w = connect_max_etale(random_maximal_etale(A, rng), random_maximal_etale(A, rng))
        assert verify_witness(w, samples).passed
    derivations = calls["pencil_discriminant"]
    assert derivations >= 6  # one to construct and one to verify each line
    each = derivations if in_f_t else 0
    assert calls == Counter({"pencil_discriminant": derivations, "polymat_det": each,
                             "xpoly_discriminant": each}) - Counter()


@pytest.mark.parametrize("p", [7, 11])
def test_etale_verify_rebuilds_only_the_endpoints(monkeypatch, p):
    F = PrimeField(p)
    A = make_matrix_algebra(F, 4)
    rng = random.Random(p)
    chain = connect_exp2(random_balanced_pair_subalgebra(A, rng),
                         random_balanced_pair_subalgebra(A, rng), rng_seed=p)
    calls = Counter()
    build, centralizer_dim = witness.generate_etale, Algebra.centralizer_dim
    monkeypatch.setattr(witness, "generate_etale",
                        lambda a: calls.update(["generate_etale"]) or build(a))
    monkeypatch.setattr(Algebra, "centralizer_dim",
                        lambda self, x: calls.update(["centralizer_dim"])
                        or centralizer_dim(self, x))
    for seg in chain.segments:
        calls.clear()
        rep = verify_witness(seg, exhaustive(F))
        assert rep.passed, rep.failures()
        assert sum(n.startswith("membership@") for n, _, _ in rep.checks) >= p - 4
        assert calls == {"generate_etale": 2, "centralizer_dim": 1}


# ---------------------------------------------------------------------------
# inner twists and symmetry-fixing involutions


def test_solve_inner_twist_identity():
    A = make_matrix_algebra(F7, 3)
    s = transpose_involution(A)
    u = solve_inner_twist(s, s)
    assert u == A.one  # normalized scalar solution


def test_solve_inner_twist_adjoint_vs_transpose():
    A = make_matrix_algebra(F7, 3)
    s1 = transpose_involution(A)
    # antidiagonal symmetric B with B^2 = 1: u should be proportional to B
    B = [[F7.zero] * 3 for _ in range(3)]
    B[0][2] = B[1][1] = B[2][0] = F7.one
    s2 = adjoint_involution(A, B)
    u = solve_inner_twist(s1, s2)
    from csawitness.algebra import matrix_of
    um = matrix_of(A, u.coords)
    ratios = {F7.div(um[r][c], B[r][c]) for r in range(3) for c in range(3)
              if not F7.is_zero(B[r][c])}
    assert len(ratios) == 1
    # postcondition on every basis element: sigma2(x) u = u sigma1(x)
    for i in range(A.dim):
        x = A.basis_coords(i)
        assert A.mul(s2.apply_coords(x), u.coords) == A.mul(u.coords, s1.apply_coords(x))


def test_solve_inner_twist_general_symmetric_form():
    A = make_matrix_algebra(F7, 3)
    s1 = transpose_involution(A)
    B = [[F7.from_int(v) for v in row]
         for row in ((1, 0, 0), (0, 2, 0), (0, 0, 3))]
    s2 = adjoint_involution(A, B)
    u = solve_inner_twist(s1, s2)
    for i in range(A.dim):
        x = A.basis_coords(i)
        assert A.mul(s2.apply_coords(x), u.coords) == A.mul(u.coords, s1.apply_coords(x))
    assert s1.apply_coords(u.coords) == u.coords


def test_solve_inner_twist_symplectic_pair():
    A = make_matrix_algebra(F7, 4)
    J = standard_alternating_matrix(F7, 4)
    J2 = [[F7.zero] * 4 for _ in range(4)]
    # a different alternating form: pair (0,3) and (1,2)
    J2[0][3], J2[3][0] = F7.one, F7.neg(F7.one)
    J2[1][2], J2[2][1] = F7.from_int(2), F7.neg(F7.from_int(2))
    s1 = adjoint_involution(A, J)
    s2 = adjoint_involution(A, J2)
    u = solve_inner_twist(s1, s2)
    for i in range(A.dim):
        x = A.basis_coords(i)
        assert A.mul(s2.apply_coords(x), u.coords) == A.mul(u.coords, s1.apply_coords(x))


def test_solve_inner_twist_type_mismatch():
    A = make_matrix_algebra(F7, 4)
    with pytest.raises(InvalidInputError):
        solve_inner_twist(transpose_involution(A),
                          adjoint_involution(A, standard_alternating_matrix(F7, 4)))


def test_symplectic_fixing_trivial_subalgebra():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    tau = quaternion_conjugation(H)
    L = generate_etale(H.one)
    s = symplectic_fixing_involution(L, tau)
    assert s(H.one) == H.one and s.kind == SYMPLECTIC


def test_symplectic_fixing_rejects_oversized_subalgebra():
    # Sym of a symplectic pair on a quaternion algebra is one-dimensional,
    # so no symplectic involution fixes a quadratic subfield like Q(i)
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    tau = quaternion_conjugation(H)
    L = generate_etale(H.basis_element(1))
    with pytest.raises(InvalidInputError):
        symplectic_fixing_involution(L, tau)


def test_symplectic_fixing_genuine_twist_over_q():
    # a half-degree subalgebra of M_4(Q) whose generator the seed involution
    # moves: the construction must produce a genuinely twisted involution
    A = make_matrix_algebra(QQ, 4)
    tau = adjoint_involution(A, standard_alternating_matrix(QQ, 4))
    g = A.element([Fraction(v) for v in
                   (1, 2, 0, 0, 0, 1, 0, 0, 1, 0, 1, 3, 0, 1, 0, 1)])
    assert A.inverse(g.coords) is not None
    diag = A.element([Fraction(1 if i in (0, 5) else 0) +
                      Fraction(2 if i in (10, 15) else 0) for i in range(16)])
    x = g * diag * A.element(A.inverse(g.coords))
    L = generate_etale(x)
    assert L.dim == 2
    assert tau(x) != x  # a genuine twist is needed
    s = symplectic_fixing_involution(L, tau)
    assert s.kind == SYMPLECTIC
    assert s(x) == x
    assert s.mat != tau.mat


def test_symplectic_fixing_m4_f7():
    A = make_matrix_algebra(F7, 4)
    tau = adjoint_involution(A, standard_alternating_matrix(F7, 4))
    E = random_balanced_pair_subalgebra(A, random.Random(8))
    s = symplectic_fixing_involution(E, tau, rng_seed=8)
    assert s.kind == SYMPLECTIC
    assert s(E.generator) == E.generator


def test_symplectic_fixing_inverts_the_winner_once(monkeypatch):
    # each search inverts its candidates; the symmetrization and its inverse
    # are both handed to twist_by_inner, so nothing is inverted outside them
    A = make_matrix_algebra(F7, 4)
    tau = adjoint_involution(A, standard_alternating_matrix(F7, 4))
    E = random_balanced_pair_subalgebra(A, random.Random(8))
    calls = Counter()
    searching = []
    inverse, search = Algebra.inverse, witness._search_invertible

    def counting_inverse(self, x):
        calls["search" if searching else "outside"] += 1
        return inverse(self, x)

    def counting_search(*args):
        searching.append(1)
        try:
            return search(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(Algebra, "inverse", counting_inverse)
    monkeypatch.setattr(witness, "_search_invertible", counting_search)
    s = symplectic_fixing_involution(E, tau, rng_seed=8)
    assert s(E.generator) == E.generator
    assert calls["search"] >= 2 and calls["outside"] == 0


def test_symplectic_fixing_rejects_an_odd_type_before_any_search(monkeypatch):
    # a type-[3, 3] subalgebra of M6(F_7): its generator has eigenvalues of
    # multiplicity 3, and a symplectic involution fixes only elements whose
    # multiplicities are even
    A = make_matrix_algebra(F7, 6)
    tau = adjoint_involution(A, standard_alternating_matrix(F7, 6))
    E = random_balanced_pair_subalgebra(A, random.Random(3))
    calls = Counter()
    inverse = Algebra.inverse

    def counting_inverse(self, x):
        calls["inverse"] += 1
        return inverse(self, x)

    monkeypatch.setattr(Algebra, "inverse", counting_inverse)
    monkeypatch.setattr(witness, "_intertwiner_space", lambda *args: pytest.fail("kernel"))
    with pytest.raises(InvalidInputError, match="odd part"):
        symplectic_fixing_involution(E, tau)
    assert calls["inverse"] == 0


def _random_half_degree(A, rng):
    """A random half-degree subalgebra of balanced type, generated by a
    random conjugate of diag(c_1, c_1, c_2, c_2, ...) on a matrix preset and
    of a basis element (a square root of a nonzero scalar) otherwise."""
    f = A.field
    m = A.degree // 2
    while True:
        if A.preset["kind"] == "matrix":
            cs = [f.random(rng) for _ in range(m)]
            if len(set(cs)) < m:
                continue
            x0 = A.element(coords_of_matrix(
                A, [[cs[i // 2] if i == j else f.zero for j in range(2 * m)]
                    for i in range(2 * m)]))
        else:
            x0 = A.basis_element(rng.choice([1, 2, 3, 4, 8, 12]))
        g = A.random_element(rng)
        g_inv = A.inverse(g.coords)
        if g_inv is not None:
            L = generate_etale(g * x0 * A.element(g_inv))
            assert is_et_m_point(L, m)
            return L


def _centralizer(L):
    return witness._intertwiner_space(L.algebra, [(L.generator.coords,) * 2])


def _biquaternion_hxs():
    return tensor_product(make_quaternion(QQ, Fraction(-1), Fraction(-1)),
                          make_quaternion(QQ, Fraction(1), Fraction(1)))


@pytest.mark.parametrize("make", [
    lambda: make_matrix_algebra(F7, 4), _biquaternion_hxs, lambda: make_quaternion(F5, 2, 3),
], ids=["M4(F7)", "Hx(1,1)", "H(F5)"])
def test_an_algebra_and_its_symplectic_involution_are_freed_by_reference_counting(make):
    # A keeps the involution's parts, not the Involution, whose algebra is A:
    # a cycle would leave every exponent-2 algebra to the collector
    A = make()
    sigma = default_symplectic_involution(A)
    again = default_symplectic_involution(A)
    assert again == sigma and again.kind == SYMPLECTIC and again._matrix is sigma._matrix
    alive = weakref.ref(A)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del A, sigma, again
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name, A, pairs", [
    ("M4(F5)", make_matrix_algebra(F5, 4), 40),
    ("M4(F7)", make_matrix_algebra(F7, 4), 40),
    ("M4(F11)", make_matrix_algebra(PrimeField(11), 4), 40),
    ("M6(F7)", make_matrix_algebra(F7, 6), 40),
    ("M4(Q)", make_matrix_algebra(QQ, 4), 15),
    ("Hx(1,1)", _biquaternion_hxs(), 15),
])
def test_closed_form_twist_matches_the_solved_one(name, A, pairs):
    # both involutions twist one tau, sigma_i = Int(v_i^-1) o tau, so
    # v2^-1 v1 spans the line of intertwiners that solve_inner_twist solves
    f = A.field
    tau = default_symplectic_involution(A)
    rng = random.Random(29)
    for k in range(pairs):
        L1, L2 = _random_half_degree(A, rng), _random_half_degree(A, rng)
        s1, v1, _ = witness._symplectic_fixing(L1, tau, k, _centralizer(L1))
        s2, _, v2_inv = witness._symplectic_fixing(L2, tau, k + 1, _centralizer(L2))
        u = A.mul(v2_inv, v1)
        first = next(c for c in u if not f.is_zero(c))
        u = tuple(f.div(c, first) for c in u)
        assert solve_inner_twist(s1, s2, rng_seed=k + 2).coords == u, (name, k)


# ---------------------------------------------------------------------------
# exponent-2 chains


def test_connect_exp2_same_subalgebra():
    A = make_matrix_algebra(F7, 4)
    L = random_balanced_pair_subalgebra(A, random.Random(1))
    chain = connect_exp2(L, L)
    assert len(chain) == 1
    assert verify_witness(chain, exhaustive(F7)).passed


def test_connect_exp2_m4_f7():
    A = make_matrix_algebra(F7, 4)
    rng = random.Random(21)
    L1 = random_balanced_pair_subalgebra(A, rng)
    L2 = random_balanced_pair_subalgebra(A, rng)
    chain = connect_exp2(L1, L2, rng_seed=21)
    assert len(chain) == 3
    assert chain.start == L1 and chain.end == L2
    rep = verify_witness(chain, exhaustive(F7))
    assert rep.passed, rep.failures()
    # every sampled subalgebra on every segment is a balanced half-degree point
    for seg in chain.segments:
        for t in exhaustive(F7):
            if not F7.is_zero(seg.validity.eval(t)):
                assert is_et_m_point(seg.evaluate(t), 2)


def _exp2_inputs():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    HS = tensor_product(H, make_quaternion(QQ, Fraction(1), Fraction(1)))
    out = {"q_hxs": (generate_etale(HS.basis_element(4)),
                     generate_etale(HS.basis_element(2)), 5)}
    for p in (7, 11):
        rng = random.Random(p)
        A = make_matrix_algebra(PrimeField(p), 4)
        out[f"m4f{p}"] = (random_balanced_pair_subalgebra(A, rng),
                          random_balanced_pair_subalgebra(A, rng), p)
    return out


@pytest.mark.parametrize("name", ["m4f7", "m4f11", "q_hxs"])
def test_connect_exp2_generates_each_kept_subalgebra_once(monkeypatch, name):
    L1, L2, seed = _exp2_inputs()[name]
    made = []
    build = witness.generate_etale
    monkeypatch.setattr(witness, "generate_etale", lambda a: made.append(a.coords) or build(a))
    chain = connect_exp2(L1, L2, rng_seed=seed)
    seg1, seg2, seg3 = chain.segments
    # the inner subalgebras are shared by the segments that meet there ...
    assert seg1.end is seg2.start and seg2.end is seg3.start
    for inner in (seg1.end, seg2.end):
        assert made.count(inner.generator.coords) == 1
    # ... and the outer ones are generated again from the inputs' generators
    assert seg1.start == L1 and seg1.start is not L1 and seg3.end == L2 and seg3.end is not L2
    assert made.count(L1.generator.coords) == made.count(L2.generator.coords) == 1


@pytest.mark.parametrize("name", ["m4f7", "q_hxs"])
def test_connect_exp2_solves_each_centralizer_once_and_no_twist(monkeypatch, name):
    L1, L2, seed = _exp2_inputs()[name]
    A = L1.algebra
    rows, dims = [], []
    space, centralizer_dim = witness._intertwiner_space, Algebra.centralizer_dim

    def counting_space(B, pairs):
        rows.append(len(pairs) * B.dim)
        return space(B, pairs)

    def refused_twist(*args, **kwargs):
        raise AssertionError("connect_exp2 solved an inner twist")

    monkeypatch.setattr(witness, "_intertwiner_space", counting_space)
    monkeypatch.setattr(witness, "solve_inner_twist", refused_twist)
    monkeypatch.setattr(Algebra, "centralizer_dim",
                        lambda self, x: dims.append(tuple(x)) or centralizer_dim(self, x))
    chain = connect_exp2(L1, L2, rng_seed=seed)
    assert chain.start == L1 and chain.end == L2
    # one centralizer per endpoint and one conjugate-embedding kernel per
    # involution, each a single (L(x), R(x)) pair of dim A rows
    assert len(rows) == 4 and max(rows) <= A.dim
    assert L1.generator.coords not in dims and L2.generator.coords not in dims


def test_connect_exp2_split_biquaternion_over_q():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    S = make_quaternion(QQ, Fraction(1), Fraction(1))
    A = tensor_product(H, S)
    # two quadratic subalgebras: Q[i x 1] and Q[1 x j']
    L1 = generate_etale(A.basis_element(1 * 4 + 0))
    L2 = generate_etale(A.basis_element(0 * 4 + 2))
    assert is_et_m_point(L1, 2) and is_et_m_point(L2, 2)
    chain = connect_exp2(L1, L2, rng_seed=5)
    samples = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)]
    rep = verify_witness(chain, samples)
    assert rep.passed, rep.failures()


def test_connect_exp2_requires_certificate():
    from csawitness.algebra import Algebra
    A = make_matrix_algebra(F7, 4)
    explicit = Algebra(F7, A.table, 4, unit=A.unit)  # same algebra, no preset
    x = explicit.element([1 if i in (0, 5) else 0 for i in range(16)])
    y = explicit.element([1 if i in (0, 5, 10) else (2 if i == 15 else 0)
                          for i in range(16)])
    L1, L2 = generate_etale(x), generate_etale(y)
    with pytest.raises(InvalidInputError):
        connect_exp2(L1, L2)


def test_chain_with_mismatched_endpoints_fails_verification():
    A = make_matrix_algebra(F7, 4)
    rng = random.Random(2)
    L1 = random_balanced_pair_subalgebra(A, rng)
    L2 = random_balanced_pair_subalgebra(A, rng)
    L3 = random_balanced_pair_subalgebra(A, rng)
    w1 = connect_exp2(L1, L2, rng_seed=3).segments[0]
    w2 = connect_exp2(L3, L2, rng_seed=4).segments[0]
    rep = verify_witness(WitnessChain([w1, w2]))
    assert not rep.passed
    assert any(name.startswith("continuity") for name, _ in rep.failures())


# ---------------------------------------------------------------------------
# quadric linkage


def test_quadric_points_same_point():
    q = QuadraticForm.diagonal(F5, [F5.one, F5.one, F5.neg(F5.one), F5.neg(F5.one)])
    p = normalize_point(F5, (1, 0, 1, 0))
    chain = connect_quadric_points(q, p, p)
    assert len(chain) == 0 and chain.start == p == chain.end


def _seeded_quadric(name):
    """(form, pairs of its points, auxiliary points or None) for one case of
    the conic test: ten seeded pairs over F_2, where b is alternating, F_3,
    F_5, F_9 and Q, and on the isotropic-plane models of link_graph over F_2
    and F_3; and every pair on xw = yz over F_3 with seven auxiliary points,
    where 14 of the 256 chains take two segments."""
    F2, F9 = PrimeField(2), standard_extension(3, 2)
    if name == "F3_two_segments":
        form = _form(F3, 4, {(0, 3): 1, (1, 2): -1})
        pts = points_on_quadric(form)
        return form, [(p1, p2) for p1 in pts for p2 in pts], pts[:7]
    aux = None
    if name.startswith("model"):
        F = {"model_F2": F2, "model_F3": F3}[name]
        model = InvolutionQuadricModel(*symp_quadric_model(F, standard_alternating_matrix(F, 4)))
        form, pts = model.form, model.points(1)
        aux = pts  # link_graph passes the model's points
    elif name == "Q":
        form = _form(QQ, 4, {(0, 0): 1, (1, 1): 1, (2, 2): -1, (3, 3): -1})
        pts = [tuple(map(Fraction, p)) for p in
               [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1),
                (1, -1, 1, 1), (3, 4, 5, 0), (5, 0, 3, 4)]]
    else:
        form = {"F2": _form(F2, 4, {(0, 1): 1, (2, 3): 1}),
                "F3": _form(F3, 5, {(i, i): 1 for i in range(5)}),
                "F5": _form(F5, 4, {(0, 0): 1, (1, 1): 1, (2, 2): -1, (3, 3): -1}),
                "F9": _form(F9, 3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})}[name]
        pts = points_on_quadric(form)
    rng = random.Random(13)
    return form, [(rng.choice(pts), rng.choice(pts)) for _ in range(10)], aux


@pytest.mark.parametrize("name", ["F2", "F3", "F5", "F9", "Q", "model_F2", "model_F3",
                                  "F3_two_segments"])
def test_quadric_points_seeded(monkeypatch, name):
    """Every segment lies on the quadric and runs from start to end, though
    the constructor checks neither: it reads each segment off polar values,
    with no polynomial evaluated, and never evaluates the segment."""
    calls = Counter()

    def counted(method):
        def wrapper(*args):
            calls[method.__name__] += 1
            return method(*args)
        return wrapper

    monkeypatch.setattr(QuadraticForm, "eval_polys", counted(QuadraticForm.eval_polys))
    monkeypatch.setattr(PencilWitness, "evaluate", counted(PencilWitness.evaluate))
    q, pairs, aux = _seeded_quadric(name)
    f = q.field
    for p1, p2 in pairs:
        calls.clear()
        chain = connect_quadric_points(q, p1, p2, points=aux)
        assert (calls["eval_polys"], calls["evaluate"]) == (0, 0)
        assert len(chain) <= 2
        assert (chain.start, chain.end) == (normalize_point(f, p1), normalize_point(f, p2))
        rep = verify_witness(chain, None if f is QQ else exhaustive(f))
        assert rep.passed, rep.failures()
        for seg in chain.segments:
            assert q.eval_polys(seg.data["coord_polys"]).is_zero()
            assert seg.evaluate(f.one) == seg.start and seg.evaluate(f.zero) == seg.end


def test_quadric_points_hyperbolic_conic_over_q():
    # xz = y^2; the standard parametrization [1 : t : t^2] links the endpoints
    q = QuadraticForm(QQ, 3, {(0, 2): Fraction(1), (1, 1): Fraction(-1)})
    p1 = (Fraction(1), Fraction(0), Fraction(0))
    p2 = (Fraction(0), Fraction(0), Fraction(1))
    chain = connect_quadric_points(q, p1, p2)
    assert 1 <= len(chain) <= 2
    rep = verify_witness(chain)
    assert rep.passed, rep.failures()
    for seg in chain.segments:
        assert max(p.degree for p in seg.data["coord_polys"]) <= 2


def test_quadric_rejects_off_quadric_points():
    q = QuadraticForm.diagonal(F5, [F5.one, F5.one, F5.one])
    with pytest.raises(InvalidInputError):
        connect_quadric_points(q, (1, 0, 0), (0, 1, 0))


# the conic certificate: identity plus gcd instead of a per-t sweep

_CONIC_ENTRIES = ["validity_nonzero", "endpoint_start", "endpoint_end",
                  "on_quadric_identity", "coord_gcd_divides_validity"]


def _swept(seg, samples):
    """The verdict of the per-t sweep the certificate replaced: the endpoints,
    the on-quadric identity, then at every sample where the validity is
    nonzero a nonzero point of the quadric."""
    f, form = seg.field, seg.form
    try:
        if seg.evaluate(f.one) != seg.start or seg.evaluate(f.zero) != seg.end:
            return False
    except StructuralError:
        return False
    if not form.eval_polys(seg.data["coord_polys"]).is_zero():
        return False
    for t in samples:
        if f.is_zero(seg.validity.eval(t)):
            continue
        try:
            pt = seg.evaluate(t)
        except StructuralError:
            return False
        if not f.is_zero(form.eval(pt)):
            return False
    return True


def _form(field, nvars, coeffs):
    return QuadraticForm(field, nvars, {ij: field.from_int(c) for ij, c in coeffs.items()})


def _conic_segments():
    """(segment, samples) for the segments linking the first point of each
    quadric to every other: the F_2 surface of the hgraph goldens over F_4,
    conics over F_3, F_5 and F_9, and over Q the conic xz = y^2 and the
    surface xw = yz.  Both surfaces hold lines through their first point."""
    F4, F9 = standard_extension(2, 2), standard_extension(3, 2)
    out = []
    for form in (_form(F4, 4, {(0, 1): 1, (0, 2): 1, (1, 2): 1, (1, 3): 1, (2, 2): 1}),
                 _form(F3, 3, {(0, 2): 1, (1, 1): 2}),
                 _form(F5, 3, {(0, 1): 3, (0, 2): 4, (1, 1): 3, (2, 2): 2}),
                 _form(F9, 3, {(0, 2): 1, (1, 1): -1})):
        pts = points_on_quadric(form)
        for p2 in pts[1:]:
            for seg in connect_quadric_points(form, pts[0], p2, points=pts).segments:
                out.append((seg, exhaustive(form.field)))
    for coeffs, pts in (({(0, 2): 1, (1, 1): -1}, ((1, 0, 0), (0, 0, 1), (1, 1, 1), (4, -2, 1))),
                        ({(0, 3): 1, (1, 2): -1}, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                                                   (1, 1, 1, 1)))):
        form = _form(QQ, len(pts[0]), coeffs)
        pts = [tuple(map(Fraction, p)) for p in pts]
        for p2 in pts[1:]:
            for seg in connect_quadric_points(form, pts[0], p2).segments:
                out.append((seg, default_samples(QQ)))
    return out


def _coord_gcd(seg):
    return functools.reduce(poly_gcd, seg.data["coord_polys"], Poly.zero(seg.field))


def test_conic_certificate_agrees_with_the_sweep():
    segments = _conic_segments()
    lines = [seg for seg, _ in segments if _coord_gcd(seg).degree > 0]
    assert {str(seg.field) for seg in lines} == {"F_2^2", "Q"}
    for seg in lines:  # phi = lambda w: the gcd is the validity, made monic
        assert _coord_gcd(seg) == seg.validity.monic()
    for seg, samples in segments:
        f = seg.field
        cps = seg.data["coord_polys"]
        bumped = Poly(f, [f.add(cps[0].coeff(0), f.one)] + list(cps[0].coeffs[1:]))
        # t (1 - t), added to a coordinate, keeps both endpoints; the first
        # coordinate where it leaves the quadric
        bend = Poly(f, [f.zero, f.one, f.neg(f.one)])
        arc = next(arc for arc in ([c + bend if j == i else c for j, c in enumerate(cps)]
                                   for i in range(len(cps)))
                   if not seg.form.eval_polys(arc).is_zero())
        cases = [(seg, True), (_with(seg, coord_polys=[bumped] + cps[1:]), None),
                 (_with(seg, coord_polys=arc), False)]
        if _coord_gcd(seg).degree > 0:
            cases.append((_with(seg, Poly.one(f)), False))
        for w, want in cases:
            rep = verify_witness(w)
            assert [n for n, _, _ in rep.checks] == _CONIC_ENTRIES
            assert rep.passed == _swept(w, samples), rep.failures()
            if want is not None:
                assert rep.passed == want, rep.failures()


def test_conic_report_ignores_samples():
    for seg, _ in _conic_segments():
        if seg.field is not QQ:
            continue
        reps = [verify_witness(seg, samples).to_json()
                for samples in (None, [], [Fraction(0)], [Fraction(k, 7) for k in range(-9, 9)])]
        assert reps[0]["pass"] and all(r == reps[0] for r in reps)


def _polar_value(form, u, v):
    """b(u, v) = q(u+v) - q(u) - q(v), as sum u_i (B v)_i."""
    return mat_vec(Matrix(form.field, [form.polar(v)]), u)[0]


def _eager_chain(form, p1, p2, points):
    """(start, end, aux) per segment of the chain connect_quadric_points
    built when it filtered every candidate before the first pass; None where
    it raised FieldTooSmallError."""
    field = form.field
    p1, p2 = normalize_point(field, p1), normalize_point(field, p2)
    if p1 == p2:
        return []

    def good_aux(p, a, b):
        if p is None or p == a or p == b:
            return False
        if not field.is_zero(form.eval(p)):
            return False
        if (field.is_zero(_polar_value(form, p, a))
                or field.is_zero(_polar_value(form, p, b))):
            return False
        return rank(Matrix(field, [list(a), list(b), list(p)])) == 3

    candidates = [p for p in (normalize_point(field, v) for v in points)
                  if p is not None and field.is_zero(form.eval(p))]
    for p in candidates:
        if good_aux(p, p1, p2):
            return [(p1, p2, p)]
    for r in candidates:
        if r in (p1, p2):
            continue
        aux1 = next((p for p in candidates if good_aux(p, p1, r)), None)
        if aux1 is None:
            continue
        aux2 = next((p for p in candidates if good_aux(p, r, p2)), None)
        if aux2 is None:
            continue
        return [(p1, r, aux1), (r, p2, aux2)]
    return None


def test_an_empty_chain_verifies_only_one_nonzero_point():
    # the F_5 conic x0 x2 + 4 x1^2: its trivial chain has one entry, which
    # compares the endpoints as projective points
    q = QuadraticForm(F5, 3, {(0, 2): F5.one, (1, 1): F5.from_int(4)})
    chain = connect_quadric_points(q, (2, 0, 0), (1, 0, 0))
    assert not chain.segments and chain.form is q
    assert verify_witness(chain).checks == [("endpoints_equal", True, "")]
    for start, end, ok in (((1, 0, 0), (3, 0, 0), True),
                           ((1, 0, 0), (0, 0, 1), False),
                           ((1, 0, 0), (1, 2, 0), False),
                           ((0, 0, 0), (0, 0, 0), False)):
        rep = verify_witness(WitnessChain([], start, end, form=q))
        assert [name for name, _, _ in rep.checks] == ["endpoints_equal"]
        assert rep.passed is ok
    # without its form the point cannot be normalized, so nothing passes
    assert not verify_witness(WitnessChain([], (1, 0, 0), (1, 0, 0))).passed


def test_quadric_lazy_candidates_match_eager_filter():
    # xw = yz over F_3; supplied lists mix quadric points with the endpoints,
    # zero vectors and points off the quadric, in random order
    q = QuadraticForm(F3, 4, {(0, 3): F3.one, (1, 2): F3.neg(F3.one)})
    from csawitness.quadrics import points_on_quadric
    on = points_on_quadric(q)
    rng = random.Random(5)
    outcomes = Counter()
    for _ in range(200):
        p1, p2 = rng.choice(on), rng.choice(on)
        junk = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(3)]
        points = rng.sample(on, rng.randrange(6)) + junk + [(0, 0, 0, 0), p1, p2]
        rng.shuffle(points)
        expected = _eager_chain(q, p1, p2, points)
        try:
            chain = connect_quadric_points(q, p1, p2, points=points)
        except FieldTooSmallError:
            got = None
        else:
            got = [(s.start, s.end, s.data["aux"]) for s in chain.segments]
        assert got == expected
        outcomes[None if got is None else len(got)] += 1
    # every branch ran: trivial, one segment, two segments, too few points
    assert set(outcomes) == {0, 1, 2, None}


@pytest.mark.parametrize("name", ["F2", "F3", "F5", "F9", "Q", "model_F2", "model_F3",
                                  "F3_two_segments"])
def test_quadric_points_make_no_rank_test(monkeypatch, name):
    """The auxiliary points are chosen by two polar values alone."""
    q, pairs, aux = _seeded_quadric(name)
    calls = []

    def counted(*args):
        calls.append(args)
        return rank(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("csawitness") and getattr(mod, "rank", None) is rank:
            monkeypatch.setattr(mod, "rank", counted)
    chains = [connect_quadric_points(q, p1, p2, points=aux) for p1, p2 in pairs]
    assert calls == [] and any(chains)


def _small_forms(field, rng):
    """Forms in three and four variables: smooth ones, a line pair, a plane
    pair, a double line (and, in characteristic 2, the diagonal conic, a
    double line too, and the plane pair, a double plane) and three random
    ones."""
    shapes = [(4, {(0, 1): 1, (2, 3): 1}), (3, {(0, 0): 1, (1, 2): 1}),
              (3, {(0, 0): 1, (1, 1): 1, (2, 2): 1}), (3, {(0, 1): 1}),
              (4, {(0, 0): 1, (1, 1): -1}), (3, {(0, 0): 1})]
    forms = [_form(field, n, coeffs) for n, coeffs in shapes]
    elems = list(field.elements())
    while len(forms) < len(shapes) + 3:
        coeffs = {(i, j): rng.choice(elems) for i in range(3) for j in range(i, 3)}
        if any(not field.is_zero(c) for c in coeffs.values()):
            forms.append(QuadraticForm(field, 3, coeffs))
    return forms


def test_polar_tests_imply_rank_three():
    """connect_quadric_points keeps an auxiliary point p for distinct quadric
    points a, b when b(p, a) and b(p, b) are nonzero, with no test of
    rank(a, b, p) = 3 or of p not in {a, b}: the polar values imply both.
    Checked on every on-quadric triple of small forms over F_2, F_3 and F_4,
    degenerate forms included."""
    rng = random.Random(29)
    seen = Counter()
    for field in (PrimeField(2), F3, standard_extension(2, 2)):
        for form in _small_forms(field, rng):
            pts = points_on_quadric(form)
            for a in pts:
                for b in pts:
                    if a == b:
                        continue
                    for p in pts:
                        good = not (field.is_zero(_polar_value(form, p, a))
                                    or field.is_zero(_polar_value(form, p, b)))
                        independent = (p not in (a, b)
                                       and rank(Matrix(field, [list(a), list(b), list(p)])) == 3)
                        assert independent or not good
                        seen[good, independent] += 1
    assert set(seen) == {(True, True), (False, True), (False, False)}


def test_default_symplectic_involution_presets():
    assert default_symplectic_involution(make_matrix_algebra(F7, 4)).kind == SYMPLECTIC
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    assert default_symplectic_involution(H).kind == SYMPLECTIC
    S = make_quaternion(QQ, Fraction(1), Fraction(1))
    assert default_symplectic_involution(tensor_product(H, S)).kind == SYMPLECTIC


def _secant_segment(form, p1, p2, aux):
    """(coord_polys, validity) of the conic segment from p1 to p2 through aux
    as it was built before it was read off polar values: with the secant
    w = t p1 + (1-t) p2, lam = b(w, aux) and q(w) expanded by eval_polys,
    phi = lam w - q(w) aux.  The oracle of the differential test below."""
    field = form.field
    add, sub, mul = field.add, field.sub, field.mul
    w_polys = line_coords(field, p1, p2)
    b2, b1 = mat_vec(Matrix(field, [p2, p1]), form.polar(aux))
    l0, l1 = b2, sub(b1, b2)
    qw = form.eval_polys(w_polys)
    q0, q1, q2 = qw.coeff(0), qw.coeff(1), qw.coeff(2)
    coord_polys = []
    for wp, c in zip(w_polys, aux):
        w0, w1 = wp.coeff(0), wp.coeff(1)
        coord_polys.append(Poly(field, [
            sub(mul(l0, w0), mul(q0, c)),
            sub(add(mul(l0, w1), mul(l1, w0)), mul(q1, c)),
            sub(mul(l1, w1), mul(q2, c))]))
    return coord_polys, Poly(field, [l0, l1])


def _prime_model(form):
    """(QuadricCurves, d) on a model over the prime field whose form over
    F_{p^d} is form, or None when a coefficient of form lies outside the
    prime field."""
    field = form.field
    if isinstance(field, PrimeField):
        return QuadricCurves(QuadricModel(form)), 1
    if any(any(c[1:]) for c in form.coeffs.values()):
        return None
    model = QuadricModel(QuadraticForm(PrimeField(field.p), form.nvars,
                                       {ij: c[0] for ij, c in form.coeffs.items()}))
    assert model.form_at(model.field_at(field.k)) == form
    return QuadricCurves(model), field.k


def test_quadric_segment_matches_the_secant_oracle():
    """Segments read off polar values equal the eval_polys-based oracle, for
    every ordered pair of distinct points and every good auxiliary point of
    small forms over F_2, F_3 and F_4 (degenerate and characteristic-2
    shapes included) and of conics over F_5 and F_9.  Each goes through the
    public constructor, through the trusted core with one polar table per
    form, and, where the form is defined over the prime field, through
    QuadricCurves.link, whose chains may take two segments."""
    rng = random.Random(29)
    F4, F9 = standard_extension(2, 2), standard_extension(3, 2)
    forms = [form for field in (PrimeField(2), F3, F4) for form in _small_forms(field, rng)]
    forms += [_form(F5, 3, {(0, 1): 3, (0, 2): 4, (1, 1): 3, (2, 2): 2}),
              _form(F5, 3, {(0, 0): 1, (1, 1): 1, (2, 2): 1}),
              _form(F9, 3, {(0, 2): 1, (1, 1): -1}),
              _form(F9, 3, {(0, 0): 1, (1, 1): 1, (2, 2): 2})]
    seen = Counter()

    def check(form, seg):
        """seg equals the oracle's segment, and it verifies."""
        coord_polys, validity = _secant_segment(form, seg.start, seg.end, seg.data["aux"])
        assert (seg.data["coord_polys"], seg.validity) == (coord_polys, validity)
        rep = verify_witness(seg)
        assert rep.passed, rep.failures()

    for form in forms:
        field = form.field
        pts = points_on_quadric(form)
        polar = {}
        model = _prime_model(form)
        for p1 in pts:
            for p2 in pts:
                if p1 == p2:
                    continue
                for aux in pts:
                    if (field.is_zero(_polar_value(form, p1, aux))
                            or field.is_zero(_polar_value(form, p2, aux))):
                        continue
                    seg, = connect_quadric_points(form, p1, p2, points=[aux]).segments
                    assert (seg.start, seg.end, seg.data["aux"]) == (p1, p2, aux)
                    check(form, seg)
                    core, = witness._link_quadric_points(form, p1, p2, [aux], polar).segments
                    assert (core.start, core.end, core.data, core.validity) == \
                        (seg.start, seg.end, seg.data, seg.validity)
                    seen["aux", field.char] += 1
                if model is not None:
                    curves, d = model
                    chain = curves.link(d, p1, p2)
                    for seg in chain.segments if chain is not None else ():
                        check(form, seg)
                    seen["model", len(chain) if chain is not None else None] += 1
    assert {key for key in seen if key[0] == "aux"} == {("aux", 2), ("aux", 3), ("aux", 5)}
    # QuadricCurves.link found one segment, or none on degenerate forms
    assert {key for key in seen if key[0] == "model"} == {("model", 1), ("model", None)}


# ---------------------------------------------------------------------------
# ideal-pencil rank minors in Z[t]
#
# Over F_p and Q a rank minor of t R1 + (1 - t) R0 is one Bareiss
# determinant in Z[t] (witness._zt_line_minor); the reference is the F[t]
# determinant of the line coordinates.


def _line_minor_by_polymat_det(field, rows_t1, rows_t0, cols):
    lines = [line_coords(field, r1, r0) for r1, r0 in zip(rows_t1, rows_t0)]
    return polyrings.polymat_det(field, [[row[c] for c in cols] for row in lines])


@pytest.mark.parametrize("field", [PrimeField(2), F5, F7, QQ], ids=["F2", "F5", "F7", "Q"])
def test_zt_line_minors_equal_the_polynomial_determinant(field):
    rng = random.Random(f"zt minors {field}")

    def scalar():
        # over Q, a denominator up to 4 (QQ.random), so the scale is not 1
        return field.random(rng)

    seen = Counter()
    for _ in range(120):
        k, n = rng.randrange(5), rng.randrange(4, 7)
        k = min(k, n)
        rows_t1 = [[scalar() for _ in range(n)] for _ in range(k)]
        rows_t0 = [[scalar() for _ in range(n)] for _ in range(k)]
        if k >= 2 and rng.random() < 0.25:
            # a repeated row pair: the minor vanishes identically in t
            rows_t1[1], rows_t0[1] = rows_t1[0], rows_t0[0]
        cols = sorted(rng.sample(range(n), k))
        rows = Matrix(field, rows_t1 + rows_t0)
        got = witness._zt_line_minor(rows, cols)
        assert got == _line_minor_by_polymat_det(field, rows_t1, rows_t0, cols)
        seen["empty"] += k == 0 and got == Poly.one(field)
        seen["zero"] += k > 0 and got.is_zero()
        seen["scale"] += rows.lifted[1] != 1
    assert seen["empty"] and seen["zero"]
    assert seen["scale"] or field is not QQ


def _ideal_pencils(field_case):
    """Ideal and flag pencils on one algebra, by connect_ideals and
    connect_flags, and its samples."""
    rng = random.Random(f"pencils {field_case}")
    if field_case == "F5":
        A, rds, sig = make_matrix_algebra(F5, 4), (1, 2), (1, 2, 3)
    elif field_case == "F9":
        A, rds, sig = make_matrix_algebra(standard_extension(3, 2), 3), (1, 2), (1, 2)
    else:
        H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
        A, rds, sig = tensor_product(make_matrix_algebra(QQ, 2), H), (2,), (2, 4)
    return A, [lambda rd=rd: connect_ideals(random_ideal(A, rd, rng), random_ideal(A, rd, rng))
               for rd in rds] + [
        lambda: connect_flags(random_flag(A, sig, rng), random_flag(A, sig, rng))]


@pytest.mark.parametrize("field_case", ["F5", "M2(Q) x H", "F9"])
def test_pencil_minors_take_polymat_det_only_over_fpk(monkeypatch, field_case):
    A, builds = _ideal_pencils(field_case)
    det = polyrings.polymat_det
    calls, validity_args = [], []
    for mod in (polyrings, witness):
        monkeypatch.setattr(mod, "polymat_det", lambda *a: calls.append(1) or det(*a))
    pencil_validity = witness._pencil_validity
    monkeypatch.setattr(witness, "_pencil_validity",
                        lambda *a: validity_args.append(a) or pencil_validity(*a))
    samples = default_samples(A.field)
    for build in builds:
        assert verify_witness(build(), samples).passed
    assert validity_args
    if field_case != "F9":
        assert calls == []
        return
    # one determinant per minor: the t = 1 pivot minor, and the t = 0 one
    # where the first vanishes at t = 0 and the pivots differ
    taken = len(calls)
    f = A.field
    minors = 0
    for pres, wv, wpv in validity_args:
        # over F_9 d_rows gives field rows and no lift
        r1, r0 = pres.d_rows(wv).rows, pres.d_rows(wpv).rows
        piv1, piv0 = witness.pivots(Matrix(f, r1)), witness.pivots(Matrix(f, r0))
        v1 = _line_minor_by_polymat_det(f, r1, r0, piv1)
        minors += 1 + (f.is_zero(v1.eval(f.zero)) and piv0 != piv1)
    assert taken == minors


def test_ideal_pencils_eliminate_only_in_the_column_space(monkeypatch):
    # on M4(F_5) the algebra has 16 coordinates and V = F_5^4: building
    # and verifying an ideal pencil eliminates only rows of length 4
    from csawitness import ideals
    A = make_matrix_algebra(F5, 4)
    rng = random.Random(7)
    I1, I2 = random_ideal(A, 2, rng), random_ideal(A, 2, rng)
    widths = Counter()

    def width(rows):
        # the row length of a Matrix, as held
        return len(rows[0]) if len(rows) else 0

    for mod in (ideals, witness):
        for name in ("rref", "rank"):
            fn = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *args, fn=fn, name=name, **kwargs: widths.update(
                [(name, width(*args, *kwargs.values()))]) or fn(*args, **kwargs))
    w = connect_ideals(I1, I2)
    assert verify_witness(w, exhaustive(F5)).passed
    assert widths[("rref", 4)] and widths[("rank", 4)]
    assert {width for _, width in widths} <= {0, 4}


def test_a_pencil_that_drops_rank_at_a_sample_keeps_its_detail():
    # on M3(F_7) the pencil from (e1, e2) at t = 1 to (e2, e1) at t = 0 has
    # the same column space at both ends, and its two vectors at t are
    # dependent exactly where det [[t, 1 - t], [1 - t, t]] = 2t - 1 vanishes,
    # at t = 4; there the ideal's construction and the sample's rank check
    # both fail with the same message, and everywhere else both pass
    A = make_matrix_algebra(F7, 3)
    pres = module_presentation(A)
    e1, e2 = (1, 0, 0), (0, 1, 0)
    wb, wpb = [e1, e2], [e2, e1]
    validity = witness._subspace_validity(pres, wb, wpb, [2])
    assert validity == Poly.from_ints(F7, [-1, 2])
    I = pres.ideal_from_subspace(wb)
    w = PencilWitness(witness.IdealPencil.tag, I, I, validity,
                      {"pencil_w": wb, "pencil_w_prime": wpb}, algebra=A, meta={"rdim": 2})
    for t in exhaustive(F7):
        want = "pencil drops rank at t=4" if t == 4 else None
        try:
            assert w.evaluate(t) == I
            got = None
        except StructuralError as exc:
            got = str(exc)
        assert got == want
        assert _outcome(w.record.check_sample, w, t) == ((False, want) if want else (True, ""))
    report = verify_witness(w, exhaustive(F7))
    assert report.passed
    assert "membership@t=4" not in [n for n, _, _ in report.checks]
    entries = witness._sampled(w, None, [4], lambda t: w.record.check_sample(w, t))
    assert entries == [("membership@t=4", False, "pencil drops rank at t=4")]
