import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csawitness import serialize, witness
from csawitness.algebra import make_matrix_algebra, make_quaternion, tensor_product
from csawitness.errors import InvalidInputError
from csawitness.etale import generate_etale, random_balanced_pair_subalgebra
from csawitness.fields import QQ, PrimeField
from csawitness.ideals import (
    random_flag, random_ideal, zero_ideal,
)
from csawitness.involutions import adjoint_involution, standard_alternating_matrix
from csawitness.quadrics import QuadraticForm
from csawitness.witness import (
    PencilWitness, connect_exp2, connect_flags, connect_ideals, connect_max_etale,
    connect_quadric_points, verify_witness,
)

F5 = PrimeField(5)


def roundtrip(obj, to_json, from_json):
    data = to_json(obj)
    # canonical serialization is byte-stable across a parse/re-serialize loop
    text = serialize.dump_canonical(data)
    back = from_json(data)
    assert serialize.dump_canonical(to_json(back)) == text
    return back


def test_algebra_roundtrips():
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    for A in (make_matrix_algebra(F5, 3), H,
              tensor_product(make_matrix_algebra(QQ, 2), H)):
        back = roundtrip(A, serialize.algebra_to_json, serialize.algebra_from_json)
        assert back == A


def test_explicit_algebra_roundtrip():
    A = make_matrix_algebra(F5, 2)
    from csawitness.algebra import Algebra
    explicit = Algebra(F5, A.table, 2, unit=A.unit)
    back = roundtrip(explicit, serialize.algebra_to_json,
                     serialize.algebra_from_json)
    assert back == explicit


def test_ideal_roundtrip():
    A = make_matrix_algebra(F5, 4)
    I = random_ideal(A, 2, random.Random(5))
    back = roundtrip(I, serialize.ideal_to_json, serialize.ideal_from_json)
    assert back == I


def test_flag_roundtrip():
    A = make_matrix_algebra(F5, 3)
    fl = random_flag(A, (1, 2), random.Random(6))
    back = roundtrip(fl, serialize.flag_to_json, serialize.flag_from_json)
    assert back == fl


def test_etale_roundtrip():
    A = make_matrix_algebra(F5, 3)
    E = generate_etale(A.element([1, 0, 0, 0, 2, 0, 0, 0, 4]))
    back = roundtrip(E, serialize.etale_to_json, serialize.etale_from_json)
    assert back == E


def test_involution_roundtrip():
    A = make_matrix_algebra(F5, 4)
    s = adjoint_involution(A, standard_alternating_matrix(F5, 4))
    back = roundtrip(s, serialize.involution_to_json, serialize.involution_from_json)
    assert back == s


def test_form_roundtrip():
    q = QuadraticForm(F5, 4, {(0, 3): F5.one, (1, 2): F5.neg(F5.one)})
    back = roundtrip(q, serialize.form_to_json, serialize.form_from_json)
    assert back == q


def test_ideal_witness_roundtrip_and_verify():
    A = make_matrix_algebra(F5, 4)
    rng = random.Random(9)
    w = connect_ideals(random_ideal(A, 2, rng), random_ideal(A, 2, rng))
    back = roundtrip(w, serialize.witness_to_json, serialize.witness_from_json)
    assert verify_witness(back, list(F5.elements())).passed


def test_flag_witness_roundtrip():
    A = make_matrix_algebra(F5, 3)
    rng = random.Random(10)
    w = connect_flags(random_flag(A, (1, 2), rng), random_flag(A, (1, 2), rng))
    back = roundtrip(w, serialize.witness_to_json, serialize.witness_from_json)
    assert verify_witness(back, list(F5.elements())).passed


def test_etale_witness_roundtrip():
    A = make_matrix_algebra(F5, 2)
    E1 = generate_etale(A.element([1, 0, 0, 3]))
    E2 = generate_etale(A.element([0, 1, 1, 0]))
    w = connect_max_etale(E1, E2)
    back = roundtrip(w, serialize.witness_to_json, serialize.witness_from_json)
    assert verify_witness(back, list(F5.elements())).passed


def test_quadric_witness_roundtrip():
    q = QuadraticForm(F5, 4, {(0, 3): F5.one, (1, 2): F5.neg(F5.one)})
    from csawitness.quadrics import points_on_quadric
    pts = points_on_quadric(q)
    chain = connect_quadric_points(q, pts[0], pts[5])
    back = roundtrip(chain, serialize.witness_to_json, serialize.witness_from_json)
    assert verify_witness(back, list(F5.elements())).passed


def test_a_segment_reads_and_writes_only_its_own_context():
    q = QuadraticForm(F5, 4, {(0, 3): F5.one, (1, 2): F5.neg(F5.one)})
    from csawitness.quadrics import points_on_quadric
    pts = points_on_quadric(q)
    seg, = connect_quadric_points(q, pts[0], pts[5]).segments
    stray = PencilWitness(seg.kind, seg.start, seg.end, seg.validity, seg.data,
                          algebra=make_matrix_algebra(QQ, 2), form=q)
    assert stray.field == F5
    assert verify_witness(stray).checks == verify_witness(seg).checks
    assert serialize.witness_to_json(stray) == serialize.witness_to_json(seg)


def test_empty_chain_roundtrip():
    q = QuadraticForm(F5, 4, {(0, 3): F5.one, (1, 2): F5.neg(F5.one)})
    from csawitness.quadrics import points_on_quadric
    p = points_on_quadric(q)[0]
    chain = connect_quadric_points(q, p, p)
    data = serialize.witness_to_json(chain, form=q)
    back = serialize.witness_from_json(data)
    assert back.start == p and back.end == p and len(back.segments) == 0


# ---------------------------------------------------------------------------
# malformed shapes: a JSON node of the wrong type is bad input, never a crash


def _witness_docs():
    A = make_matrix_algebra(F5, 2)
    rng = random.Random(2)
    return {
        "et_m": connect_exp2(*_balanced_pair(make_matrix_algebra(F5, 4), rng)),
        "etale_dim": connect_max_etale(generate_etale(A.element([1, 0, 0, 3])),
                                       generate_etale(A.element([0, 1, 1, 0]))),
        "rdim": connect_ideals(random_ideal(A, 1, rng), random_ideal(A, 1, rng)),
        "signature": connect_flags(random_flag(make_matrix_algebra(F5, 3), (1, 2), rng),
                                   random_flag(make_matrix_algebra(F5, 3), (1, 2), rng)),
    }


@pytest.mark.parametrize("key, value", [
    ("et_m", 2.0), ("et_m", "2.5"), ("et_m", 0), ("et_m", True), ("et_m", [2]),
    ("etale_dim", 2.0), ("etale_dim", -1), ("maximal", 1), ("maximal", "true"),
    ("rdim", 1.0), ("rdim", -1), ("signature", 12), ("signature", [1, 2.0]),
    ("signature", "1,2"),
])
def test_mistyped_segment_meta_raises_invalid_input(key, value):
    docs = _witness_docs()
    w = docs["etale_dim" if key == "maximal" else key]
    data = serialize.witness_to_json(w)
    seg = data["segments"][-1]
    assert key in seg["meta"]
    seg["meta"][key] = value
    with pytest.raises(InvalidInputError, match=repr(key)):
        serialize.witness_from_json(data)


def test_segment_meta_reads_decimal_strings_and_a_zero_rdim():
    data = serialize.witness_to_json(_witness_docs()["et_m"])
    for seg in data["segments"]:
        seg["meta"]["et_m"] = "2"
    back = serialize.witness_from_json(data)
    assert all(seg.meta["et_m"] == 2 for seg in back.segments)
    assert verify_witness(back, list(F5.elements())).passed
    # the pencil between zero ideals stores rdim 0 and verifies
    A = make_matrix_algebra(F5, 2)
    w = connect_ideals(zero_ideal(A), zero_ideal(A))
    back = roundtrip(w, serialize.witness_to_json, serialize.witness_from_json)
    assert back.meta["rdim"] == 0 and verify_witness(back).passed


def test_each_kind_reads_only_its_own_meta_keys():
    q = QuadraticForm(F5, 4, {(0, 3): F5.one, (1, 2): F5.neg(F5.one)})
    from csawitness.quadrics import points_on_quadric
    pts = points_on_quadric(q)
    docs = dict(_witness_docs(), conic=connect_quadric_points(q, pts[0], pts[5]))
    values = {"rdim": 1, "signature": [1, 2], "etale_dim": 2, "maximal": True, "et_m": 2,
              "note": "x"}
    declared = {}
    for name, w in docs.items():
        data = serialize.witness_to_json(w)
        seg = data["segments"][-1]
        kind = witness.KINDS[seg["kind"]]
        declared[seg["kind"]] = kind.meta_keys
        assert set(seg["meta"]) <= set(kind.meta_keys)
        for key in set(values) - set(kind.meta_keys):
            bad = copy.deepcopy(data)
            bad["segments"][-1]["meta"][key] = values[key]
            with pytest.raises(InvalidInputError, match=f"meta has no key {key!r}"):
                serialize.witness_from_json(bad)
    assert declared == {"etale_line": ("etale_dim", "maximal", "et_m"),
                        "ideal_pencil": ("rdim",), "flag_pencil": ("signature",),
                        "quadric_line": ()}


def _balanced_pair(A, rng):
    """Two distinct half-degree subalgebras of balanced type."""
    L1 = random_balanced_pair_subalgebra(A, rng)
    L2 = random_balanced_pair_subalgebra(A, rng)
    while L2 == L1:
        L2 = random_balanced_pair_subalgebra(A, rng)
    return L1, L2


def _fuzz_targets():
    F3 = PrimeField(3)
    H = make_quaternion(QQ, Fraction(-1), Fraction(-1))
    A2, A3 = make_matrix_algebra(F5, 2), make_matrix_algebra(F5, 3)
    from csawitness.algebra import Algebra
    from csawitness.fields import standard_extension
    F49 = standard_extension(7, 2)
    from csawitness.quadrics import points_on_quadric
    rng = random.Random(4)
    q = QuadraticForm(F5, 4, {(0, 3): F5.one, (1, 2): F5.neg(F5.one)})
    pts = points_on_quadric(q)
    witnesses = [
        connect_ideals(random_ideal(A2, 1, rng), random_ideal(A2, 1, rng)),
        connect_flags(random_flag(A3, (1, 2), rng), random_flag(A3, (1, 2), rng)),
        connect_max_etale(generate_etale(A2.element([1, 0, 0, 3])),
                          generate_etale(A2.element([0, 1, 1, 0]))),
        connect_quadric_points(q, pts[0], pts[5]),
        connect_exp2(*_balanced_pair(make_matrix_algebra(F3, 4), random.Random(1))),
    ]
    algebras = [Algebra(F3, make_matrix_algebra(F3, 2).table, 2),
                tensor_product(make_matrix_algebra(QQ, 2), H),
                make_quaternion(F49, F49.from_int(3), F49.gen)]
    return ([("witness", serialize.witness_to_json(w)) for w in witnesses]
            + [("algebra", serialize.algebra_to_json(A)) for A in algebras])


_FUZZ_TARGETS = _fuzz_targets()
_WRONG_TYPES = (None, True, "x", [[]], {"x": []})


def _node_paths(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    out = copy.copy(node)
    out[path[0]] = _replaced(node[path[0]], path[1:], value)
    return out


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_swapped_json_types_raise_invalid_input(data):
    kind, doc = data.draw(st.sampled_from(_FUZZ_TARGETS))
    path = data.draw(st.sampled_from(list(_node_paths(doc))))
    original = _at(doc, path)
    value = data.draw(st.sampled_from(
        [v for v in _WRONG_TYPES if type(v) is not type(original)]))
    load = serialize.witness_from_json if kind == "witness" else serialize.algebra_from_json
    try:
        load(_replaced(doc, path, value))
    except InvalidInputError:
        pass
