import json
import random
import subprocess
import sys

import pytest
from click.testing import CliRunner

from csawitness import serialize
from csawitness.algebra import make_matrix_algebra, make_quaternion, tensor_product
from csawitness.cli import main
from csawitness.fields import QQ, PrimeField
from csawitness.ideals import Flag, ideal_generated, random_ideal, zero_ideal


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_end_to_end_ideal_witness(runner, tmp_path):
    a = tmp_path / "a.json"
    i1 = tmp_path / "i1.json"
    i2 = tmp_path / "i2.json"
    w = tmp_path / "w.json"
    r = invoke(runner, ["algebra", "new", "--preset", "matrix", "--n", "4",
                        "--field", "fp:5", "--out", str(a)])
    assert r.exit_code == 0, r.output
    r = invoke(runner, ["ideal", "random", "--algebra", str(a), "--rdim", "2",
                        "--seed", "7", "--out", str(i1)])
    assert r.exit_code == 0, r.output
    r = invoke(runner, ["ideal", "random", "--algebra", str(a), "--rdim", "2",
                        "--seed", "8", "--out", str(i2)])
    assert r.exit_code == 0
    r = invoke(runner, ["witness", "connect-ideals", "--algebra", str(a),
                        "--from", str(i1), "--to", str(i2), "--out", str(w)])
    assert r.exit_code == 0, r.output
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 0, r.output
    assert "pass" in r.output


def _ideal_witness_file(runner, tmp_path):
    a = tmp_path / "a.json"
    i1 = tmp_path / "i1.json"
    i2 = tmp_path / "i2.json"
    w = tmp_path / "w.json"
    for args in (["algebra", "new", "--preset", "matrix", "--n", "2",
                  "--field", "fp:3", "--out", str(a)],
                 ["ideal", "random", "--algebra", str(a), "--rdim", "1",
                  "--seed", "1", "--out", str(i1)],
                 ["ideal", "random", "--algebra", str(a), "--rdim", "1",
                  "--seed", "5", "--out", str(i2)],
                 ["witness", "connect-ideals", "--algebra", str(a),
                  "--from", str(i1), "--to", str(i2), "--out", str(w)]):
        assert invoke(runner, args).exit_code == 0
    return w


def test_verify_tampered_witness_exits_1(runner, tmp_path):
    w = _ideal_witness_file(runner, tmp_path)
    data = json.loads(w.read_text())
    seg = data["segments"][0]
    # tamper with one pencil vector
    vec = seg["pencil_w"][0]
    vec[0] = "2" if vec[0] != "2" else "1"
    w.write_text(json.dumps(data))
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 1


def test_unknown_flag_exits_2(runner, tmp_path):
    r = runner.invoke(main, ["algebra", "new", "--preset", "matrix",
                             "--bogus", "1"])
    assert r.exit_code == 2


def test_invalid_input_exits_2(runner, tmp_path):
    a = tmp_path / "a.json"
    assert invoke(runner, ["algebra", "new", "--preset", "matrix", "--n", "3",
                           "--field", "fp:5", "--out", str(a)]).exit_code == 0
    r = invoke(runner, ["ideal", "random", "--algebra", str(a), "--rdim", "9",
                        "--seed", "0", "--out", str(tmp_path / "i.json")])
    assert r.exit_code == 2


def test_quaternion_and_involution_flow(runner, tmp_path):
    h = tmp_path / "h.json"
    s = tmp_path / "s.json"
    r = invoke(runner, ["algebra", "new", "--preset", "quaternion",
                        "--field", "q", "--a", "-1", "--b", "-1", "--out", str(h)])
    assert r.exit_code == 0
    r = invoke(runner, ["involution", "new", "--algebra", str(h),
                        "--form", "conjugation", "--out", str(s)])
    assert r.exit_code == 0
    r = invoke(runner, ["involution", "type", "--involution", str(s)])
    assert r.exit_code == 0 and "symplectic" in r.output


def test_etale_and_connect_etale(runner, tmp_path):
    a = tmp_path / "a.json"
    e1 = tmp_path / "e1.json"
    e2 = tmp_path / "e2.json"
    w = tmp_path / "w.json"
    assert invoke(runner, ["algebra", "new", "--preset", "matrix", "--n", "3",
                           "--field", "fp:7", "--out", str(a)]).exit_code == 0
    assert invoke(runner, ["etale", "generate", "--algebra", str(a),
                           "--random-maximal", "--seed", "3",
                           "--out", str(e1)]).exit_code == 0
    assert invoke(runner, ["etale", "generate", "--algebra", str(a),
                           "--random-maximal", "--seed", "4",
                           "--out", str(e2)]).exit_code == 0
    r = invoke(runner, ["etale", "type", "--subalgebra", str(e1)])
    assert r.exit_code == 0 and "1, 1, 1" in r.output
    assert invoke(runner, ["witness", "connect-etale", "--algebra", str(a),
                           "--from", str(e1), "--to", str(e2),
                           "--out", str(w)]).exit_code == 0
    assert invoke(runner, ["verify", "--witness", str(w),
                           "--exhaustive"]).exit_code == 0


def _q_algebra_files(runner, tmp_path):
    """M4(Q) and M2(Q) (x) (-1, -1), written by csaw algebra new."""
    m4, m2, h, t = (tmp_path / f"{name}.json" for name in ("m4", "m2", "h", "t"))
    for args in (["--preset", "matrix", "--n", "4", "--out", str(m4)],
                 ["--preset", "matrix", "--n", "2", "--out", str(m2)],
                 ["--preset", "quaternion", "--a", "-1", "--b", "-1", "--out", str(h)],
                 ["--preset", "tensor", "--left", str(m2), "--right", str(h),
                  "--out", str(t)]):
        assert invoke(runner, ["algebra", "new", "--field", "q"] + args).exit_code == 0
    return {"M4(Q)": m4, "M2(Q)xH": t}


@pytest.mark.parametrize("name", ["M2(Q)xH", "M4(Q)"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_etale_type_of_a_random_maximal_subalgebra_over_q(runner, tmp_path, name, seed):
    # a random maximal subalgebra over Q has a quartic minimal polynomial
    # with no rational root; the type needs no factors of it
    a = _q_algebra_files(runner, tmp_path)[name]
    e = tmp_path / "e.json"
    assert invoke(runner, ["etale", "generate", "--algebra", str(a), "--random-maximal",
                           "--seed", str(seed), "--out", str(e)]).exit_code == 0
    r = invoke(runner, ["etale", "type", "--subalgebra", str(e)])
    assert r.exit_code == 0 and r.output == "[1, 1, 1, 1]\n"


def test_etale_type_ignores_a_stored_factor_list(runner, tmp_path):
    # subalgebra files once carried the minimal polynomial's factors as
    # "minpoly_factors"; the key is read like any other unknown key
    a = tmp_path / "a.json"
    e = tmp_path / "e.json"
    assert invoke(runner, ["algebra", "new", "--preset", "matrix", "--n", "4",
                           "--field", "q", "--out", str(a)]).exit_code == 0
    x4_plus_1 = [["0", "0", "0", "-1"], ["1", "0", "0", "0"],
                 ["0", "1", "0", "0"], ["0", "0", "1", "0"]]
    generator = ",".join(c for row in x4_plus_1 for c in row)
    assert invoke(runner, ["etale", "generate", "--algebra", str(a), "--element",
                           generator, "--out", str(e)]).exit_code == 0
    plain = invoke(runner, ["etale", "type", "--subalgebra", str(e)])
    assert plain.exit_code == 0 and plain.output == "[1, 1, 1, 1]\n"
    data = json.loads(e.read_text())
    assert "minpoly_factors" not in data
    data["minpoly_factors"] = [["1", "0", "0", "0", "1"]]
    e.write_text(json.dumps(data))
    r = invoke(runner, ["etale", "type", "--subalgebra", str(e)])
    assert r.exit_code == 0 and r.output == plain.output


def test_connect_quadric_and_samples(runner, tmp_path):
    form = tmp_path / "q.json"
    w = tmp_path / "w.json"
    form.write_text(json.dumps({
        "field": {"kind": "prime", "p": 5}, "nvars": 4,
        "coeffs": {"0,3": "1", "1,2": "4"}}))
    r = invoke(runner, ["witness", "connect-quadric", "--form", str(form),
                        "--p1", "1,0,0,0", "--p2", "0,0,0,1", "--out", str(w)])
    assert r.exit_code == 0, r.output
    assert invoke(runner, ["verify", "--witness", str(w),
                           "--samples", "0,1,2,3,4"]).exit_code == 0


def test_hgraph_and_enumerate(runner, tmp_path):
    form = tmp_path / "q.json"
    pts = tmp_path / "pts.json"
    rep = tmp_path / "graph.json"
    form.write_text(json.dumps({
        "field": {"kind": "prime", "p": 3}, "nvars": 3,
        "coeffs": {"0,2": "1", "1,1": "2"}}))
    r = invoke(runner, ["enumerate", "--model", "quadric", "--form", str(form),
                        "--degree", "2", "--out", str(pts)])
    assert r.exit_code == 0
    data = json.loads(pts.read_text())
    assert len(data["points"]) == 7  # 4 rational + 3 quadratic
    r = invoke(runner, ["hgraph", "--model", "quadric", "--form", str(form),
                        "--n", "2", "--out", str(rep)])
    assert r.exit_code == 0, r.output
    graph = json.loads(rep.read_text())
    assert graph["components"] == 1 and graph["vertices"] == 9


def test_enumerate_grassmannian_without_field_exits_2(runner, tmp_path):
    r = invoke(runner, ["enumerate", "--model", "grassmannian",
                        "--out", str(tmp_path / "pts.json")])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr == "error: --field is required for grassmannian models\n"


@pytest.mark.parametrize("flag, name", [("q", "Q"), ("fq:3:2", "F_3^2")])
def test_enumerate_grassmannian_over_non_prime_field_exits_2(runner, tmp_path,
                                                            flag, name):
    r = invoke(runner, ["enumerate", "--model", "grassmannian", "--field", flag,
                        "--out", str(tmp_path / "pts.json")])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr == (f"error: enumeration models need a prime base field "
                        f"F_p, not {name}\n")


def test_arith_commands(runner):
    r = invoke(runner, ["arith", "vp", "--p", "2", "--r", "2"])
    assert r.exit_code == 0 and r.output.strip() == "3"
    r = invoke(runner, ["arith", "pidegree", "--n", "2", "--m", "2", "--p", "2"])
    assert r.exit_code == 0 and "3" in r.output and "True" in r.output


def test_determinism_double_run():
    # identical inputs and seed give byte-identical outputs, via subprocess
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        outs = []
        for run in range(2):
            a = os.path.join(d, f"a{run}.json")
            i = os.path.join(d, f"i{run}.json")
            for args in ([sys.executable, "-m", "csawitness.cli", "algebra",
                          "new", "--preset", "matrix", "--n", "4",
                          "--field", "fp:5", "--out", a],
                         [sys.executable, "-m", "csawitness.cli", "ideal",
                          "random", "--algebra", a, "--rdim", "2",
                          "--seed", "17", "--out", i]):
                proc = subprocess.run(args, capture_output=True)
                assert proc.returncode == 0, proc.stderr
            with open(i, "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]


@pytest.mark.parametrize("case", ["top_level_list", "no_algebra_or_form"])
def test_malformed_witness_exits_2(runner, tmp_path, case):
    w = _ideal_witness_file(runner, tmp_path)
    if case == "top_level_list":
        w.write_text("[]\n")
    else:
        data = json.loads(w.read_text())
        del data["algebra"]
        w.write_text(json.dumps(data))
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")


def test_verify_rederives_rdim(runner, tmp_path):
    w = _ideal_witness_file(runner, tmp_path)
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 0
    passed = r.stdout
    data = json.loads(w.read_text())
    del data["segments"][0]["meta"]["rdim"]
    w.write_text(json.dumps(data))
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 1
    # same checks, now failing on the missing metadata
    assert r.stdout == passed.replace("pass", "FAIL")
    assert "stored rdim None != 1" in r.stderr
    data["segments"][0]["meta"]["rdim"] = 2
    w.write_text(json.dumps(data))
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 1 and "stored rdim 2 != 1" in r.stderr


def _m4f5_ideal_pencil(runner, tmp_path):
    """The file of an ideal pencil between two rdim-2 ideals of M4(F_5)."""
    steps = [["algebra", "new", "--preset", "matrix", "--n", "4", "--field", "fp:5",
              "--out", "a.json"],
             ["ideal", "random", "--algebra", "a.json", "--rdim", "2", "--seed", "7",
              "--out", "i1.json"],
             ["ideal", "random", "--algebra", "a.json", "--rdim", "2", "--seed", "8",
              "--out", "i2.json"],
             ["witness", "connect-ideals", "--algebra", "a.json", "--from", "i1.json",
              "--to", "i2.json", "--out", "w.json"]]
    for args in steps:
        args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
        assert invoke(runner, args).exit_code == 0
    return tmp_path / "w.json"


def test_verify_rederives_pencil_validity(runner, tmp_path):
    # an ideal pencil whose stored validity vanishes on all of F_5 and whose
    # rdim is gone: the verifier derives the validity 1 from the pencil data
    w = _m4f5_ideal_pencil(runner, tmp_path)
    data = json.loads(w.read_text())
    seg = data["segments"][0]
    assert seg["validity"] == ["1"]
    seg["validity"] = ["0", "4", "0", "0", "0", "1"]  # t^5 - t
    del seg["meta"]["rdim"]
    w.write_text(json.dumps(data))
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 1 and r.stdout.startswith("FAIL")
    assert "failed: validity_rederived stored validity differs" in r.stderr
    assert "membership@t=0 stored rdim None != 2" in r.stderr


def test_meta_keys_of_another_kind_exit_2(runner, tmp_path):
    # an ideal pencil reads rdim only: the etale and flag keys added to its
    # meta, which it would carry unchecked, are refused when the file is read
    w = _m4f5_ideal_pencil(runner, tmp_path)
    data = json.loads(w.read_text())
    meta = data["segments"][0]["meta"]
    assert invoke(runner, ["verify", "--witness", str(w), "--exhaustive"]).exit_code == 0
    added = {"et_m": 3, "maximal": True, "signature": [7]}
    # all three at once, as in the report, then each alone
    for keys in [list(added)] + [[key] for key in added]:
        w.write_text(json.dumps(dict(data, segments=[
            dict(data["segments"][0], meta=dict(meta, **{k: added[k] for k in keys}))])))
        r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
        assert r.exit_code == 2 and r.stdout == ""
        assert r.stderr.splitlines() == [
            f"error: a ideal_pencil segment's meta has no key {keys[0]!r} (it may hold rdim)"]


def test_q_conic_report_ignores_samples(runner, tmp_path):
    form = tmp_path / "q.json"
    form.write_text(json.dumps({"field": {"kind": "rationals"}, "nvars": 3,
                                "coeffs": {"0,2": "1", "1,1": "-1"}}))
    w = tmp_path / "w.json"
    assert invoke(runner, ["witness", "connect-quadric", "--form", str(form),
                           "--p1", "1,0,0", "--p2", "0,0,1",
                           "--out", str(w)]).exit_code == 0
    outs = set()
    for extra in ([], ["--samples", "0"], ["--samples", "1/2,-3,7,2/9"]):
        v = tmp_path / "v.json"
        r = invoke(runner, ["verify", "--witness", str(w), "--out", str(v)] + extra)
        assert r.exit_code == 0 and r.stdout.startswith("pass")
        outs.add((r.stdout, v.read_bytes()))
    assert len(outs) == 1
    assert b"membership" not in next(iter(outs))[1]


_F5 = {"kind": "prime", "p": "5"}
_MALFORMED_ALGEBRAS = {
    "index_out_of_range": ({"field": _F5, "preset": "explicit", "degree": 1,
                            "structure_constants": [[[[3, "1"]]]]},
                           "basis index 3"),
    "ragged_row": ({"field": _F5, "preset": "explicit", "degree": 2,
                    "structure_constants": [[[[0, "1"]]], [], [], []]},
                   "row 0 of the structure constants has 1 entries, not 4"),
    "long_unit": ({"field": _F5, "preset": "explicit", "degree": 1,
                   "structure_constants": [[[[0, "1"]]]], "unit": ["1", "0"]},
                  "unit has 2 coordinates, not 1"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_ALGEBRAS))
def test_malformed_structure_constants_exit_2(runner, tmp_path, case):
    data, message = _MALFORMED_ALGEBRAS[case]
    a = tmp_path / "a.json"
    a.write_text(json.dumps(data))
    r = invoke(runner, ["algebra", "show", "--algebra", str(a)])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")
    assert message in r.stderr


def test_extension_modulus_irreducible_over_f5(runner, tmp_path):
    # x^3 + 4x^2 + x + 1 is irreducible over F_5
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"field": {"kind": "extension", "p": 5,
                                       "modulus": ["1", "1", "4", "1"]},
                             "preset": "matrix", "degree": 2, "params": {"n": 2}}))
    r = invoke(runner, ["algebra", "show", "--algebra", str(a)])
    assert r.exit_code == 0, r.output


def _set(key, value):
    def mutate(data):
        data[key] = value
        return data
    return mutate


def _set_in_segment(key, value):
    def mutate(data):
        data["segments"][0][key] = value
        return data
    return mutate


_MALFORMED_SHAPES = {
    "field_string": ("algebra", _set("field", "q"), "'field'"),
    "field_list": ("algebra", _set("field", []), "'field'"),
    "params_list": ("algebra", _set("params", [2]), "'params'"),
    "degree_of_another_preset": ("algebra", _set("degree", 3), "'degree' 3"),
    "algebra_top_level_list": ("algebra", lambda data: [], "'field'"),
    "segments_string": ("witness", _set("segments", "x"), "'segments'"),
    "segment_list": ("witness", _set("segments", [[]]), "'kind'"),
    "validity_number": ("witness", _set_in_segment("validity", 5), "'validity'"),
    "pencil_w_number": ("witness", _set_in_segment("pencil_w", 3), "'pencil_w'"),
    "algebra_string": ("witness", _set("algebra", "x"), "'algebra'"),
    "empty_without_form": ("witness", _set("kind", "empty"), "form"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_SHAPES))
def test_malformed_json_shapes_exit_2(runner, tmp_path, case):
    target, mutate, message = _MALFORMED_SHAPES[case]
    a = tmp_path / "a.json"
    i1 = tmp_path / "i1.json"
    i2 = tmp_path / "i2.json"
    w = tmp_path / "w.json"
    for args in (["algebra", "new", "--preset", "matrix", "--n", "2",
                  "--field", "fp:5", "--out", str(a)],
                 ["ideal", "random", "--algebra", str(a), "--rdim", "1",
                  "--seed", "1", "--out", str(i1)],
                 ["ideal", "random", "--algebra", str(a), "--rdim", "1",
                  "--seed", "5", "--out", str(i2)],
                 ["witness", "connect-ideals", "--algebra", str(a),
                  "--from", str(i1), "--to", str(i2), "--out", str(w)]):
        assert invoke(runner, args).exit_code == 0
    path = a if target == "algebra" else w
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    if target == "algebra":
        r = invoke(runner, ["algebra", "show", "--algebra", str(a)])
    else:
        r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")
    assert message in r.stderr


@pytest.mark.parametrize("flag", ["fq:5:-1", "fq:5:0"])
def test_extension_degree_below_one_exits_2(runner, tmp_path, flag):
    r = invoke(runner, ["algebra", "new", "--preset", "matrix", "--n", "2",
                        "--field", flag, "--out", str(tmp_path / "a.json")])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")
    assert "extension degree k" in r.stderr


def _shorten_row_0(matrix):
    matrix[0].pop()


def _lengthen_row_1(matrix):
    matrix[1].append("0")


def _drop_last_row(matrix):
    matrix.pop()


@pytest.mark.parametrize("mutate", [_shorten_row_0, _lengthen_row_1, _drop_last_row])
def test_involution_matrix_not_square_exits_2(runner, tmp_path, mutate):
    h = tmp_path / "h.json"
    s = tmp_path / "s.json"
    assert invoke(runner, ["algebra", "new", "--preset", "quaternion", "--field", "fp:5",
                           "--a", "2", "--b", "3", "--out", str(h)]).exit_code == 0
    assert invoke(runner, ["involution", "new", "--algebra", str(h),
                           "--form", "conjugation", "--out", str(s)]).exit_code == 0
    data = json.loads(s.read_text())
    mutate(data["matrix"])
    s.write_text(json.dumps(data))
    r = invoke(runner, ["involution", "type", "--involution", str(s)])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")
    assert "matrix must be 4 x 4" in r.stderr


def _one_error_line(r):
    return (r.exit_code == 2 and r.stdout == "" and len(r.stderr.splitlines()) == 1
            and r.stderr.startswith("error: "))


@pytest.mark.parametrize("form", ["transpose", "alternating"])
@pytest.mark.parametrize("preset", ["quaternion", "tensor"])
def test_adjoint_involution_on_a_non_matrix_preset_exits_2(runner, tmp_path, preset, form):
    h, m, a = (tmp_path / name for name in ("h.json", "m.json", "a.json"))
    assert invoke(runner, ["algebra", "new", "--preset", "quaternion", "--field", "fp:5",
                           "--a", "2", "--b", "3", "--out", str(h)]).exit_code == 0
    if preset == "tensor":
        assert invoke(runner, ["algebra", "new", "--preset", "matrix", "--n", "2",
                               "--field", "fp:5", "--out", str(m)]).exit_code == 0
        assert invoke(runner, ["algebra", "new", "--preset", "tensor", "--field", "fp:5",
                               "--left", str(m), "--right", str(h),
                               "--out", str(a)]).exit_code == 0
        h = a
    s = tmp_path / "s.json"
    r = invoke(runner, ["involution", "new", "--algebra", str(h), "--form", form,
                        "--out", str(s)])
    assert _one_error_line(r)
    assert r.stderr == "error: adjoint involutions need a matrix preset\n"
    assert not s.exists()


def test_negative_index_evidence_bound_exits_2(runner, tmp_path):
    h = tmp_path / "h.json"
    assert invoke(runner, ["algebra", "new", "--preset", "quaternion", "--field", "q",
                           "--a", "-1", "--b", "-1", "--out", str(h)]).exit_code == 0
    r = invoke(runner, ["algebra", "index-evidence", "--algebra", str(h), "--bound", "-1"])
    assert _one_error_line(r) and "search bound" in r.stderr
    # bound 0 is a valid, empty search: "verified, and false" as before
    r = invoke(runner, ["algebra", "index-evidence", "--algebra", str(h), "--bound", "0"])
    assert r.exit_code == 1
    assert r.stdout == "no splitting witness up to height 0 (not a proof of division)\n"


def test_negative_hgraph_degree_exits_2(runner, tmp_path):
    form = tmp_path / "q.json"
    rep = tmp_path / "graph.json"
    form.write_text(json.dumps({
        "field": {"kind": "prime", "p": 3}, "nvars": 3,
        "coeffs": {"0,2": "1", "1,1": "2"}}))
    r = invoke(runner, ["hgraph", "--model", "quadric", "--form", str(form),
                        "--n", "-1", "--out", str(rep)])
    assert _one_error_line(r) and "cycle degree" in r.stderr
    assert not rep.exists()
    r = invoke(runner, ["hgraph", "--model", "quadric", "--form", str(form),
                        "--n", "0", "--out", str(rep)])
    assert r.exit_code == 0 and r.stdout == "1 vertices, 0 edges, 1 component(s)\n"


def _conic_f3(tmp_path):
    form = tmp_path / "q.json"
    form.write_text(json.dumps({
        "field": {"kind": "prime", "p": 3}, "nvars": 3,
        "coeffs": {"0,2": "1", "1,1": "2"}}))
    return form


@pytest.mark.parametrize("p1", ["0,1", "0,0,1,0"], ids=["short", "long"])
def test_connect_quadric_wrong_length_endpoint_exits_2(runner, tmp_path, p1):
    w = tmp_path / "w.json"
    r = invoke(runner, ["witness", "connect-quadric", "--form", str(_conic_f3(tmp_path)),
                        "--p1", p1, "--p2", "0,0,1", "--out", str(w)])
    assert _one_error_line(r)
    assert f"endpoint has {len(p1.split(','))} coordinates" in r.stderr
    assert "3 variables" in r.stderr
    assert not w.exists()


_SEGMENT_TAMPERS = {
    "drop_coord_poly": (lambda s: s["coord_polys"].pop(), "coord_polys has 2 entries"),
    "no_coord_polys": (lambda s: s["coord_polys"].clear(), "coord_polys has 0 entries"),
    "short_start": (lambda s: s["start"].pop(), "start has 2 entries"),
    "long_end": (lambda s: s["end"].append("0"), "end has 4 entries"),
    "short_aux": (lambda s: s["aux"].pop(), "aux has 2 entries"),
}


@pytest.mark.parametrize("case", sorted(_SEGMENT_TAMPERS))
def test_malformed_quadric_segment_exits_2(runner, tmp_path, case):
    w = tmp_path / "w.json"
    assert invoke(runner, ["witness", "connect-quadric", "--form", str(_conic_f3(tmp_path)),
                           "--p1", "1,0,0", "--p2", "0,0,1",
                           "--out", str(w)]).exit_code == 0
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 0 and r.stdout == "pass: 5 checks\n"
    tamper, message = _SEGMENT_TAMPERS[case]
    data = json.loads(w.read_text())
    tamper(data["segments"][0])
    w.write_text(json.dumps(data))
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert _one_error_line(r)
    assert f"quadric_line {message}, but the form has 3 variables" in r.stderr


def test_malformed_empty_chain_exits_2(runner, tmp_path):
    w = tmp_path / "w.json"
    assert invoke(runner, ["witness", "connect-quadric", "--form", str(_conic_f3(tmp_path)),
                           "--p1", "1,0,0", "--p2", "1,0,0",
                           "--out", str(w)]).exit_code == 0
    data = json.loads(w.read_text())
    data["start"].pop()
    w.write_text(json.dumps(data))
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert _one_error_line(r) and "empty chain start has 2 entries" in r.stderr


# the F_5 conic x0 x2 + 4 x1^2 and its trivial chain at (1, 0, 0), with
# end (or both endpoints) replaced; (0, 0, 1) is another point of the conic
# and (1, 2, 0) is off it
_EMPTY_CHAIN_ENDS = {
    "genuine": ({}, 0),
    "other_conic_point": ({"end": ["0", "0", "1"]}, 1),
    "end_off_the_conic": ({"end": ["1", "2", "0"]}, 1),
    "zero_end": ({"end": ["0", "0", "0"]}, 1),
    "start_off_the_conic": ({"start": ["1", "2", "0"], "end": ["1", "2", "0"]}, 2),
}


@pytest.mark.parametrize("case", sorted(_EMPTY_CHAIN_ENDS))
def test_empty_chain_endpoints_are_checked(runner, tmp_path, case):
    form, w = tmp_path / "q.json", tmp_path / "w.json"
    form.write_text(json.dumps({
        "field": {"kind": "prime", "p": 5}, "nvars": 3,
        "coeffs": {"0,2": "1", "1,1": "4"}}))
    assert invoke(runner, ["witness", "connect-quadric", "--form", str(form),
                           "--p1", "1,0,0", "--p2", "1,0,0",
                           "--out", str(w)]).exit_code == 0
    edits, code = _EMPTY_CHAIN_ENDS[case]
    w.write_text(json.dumps({**json.loads(w.read_text()), **edits}))
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == code
    if code == 0:
        assert r.stdout == "trivial chain: endpoints coincide; pass\n"
    elif code == 1:
        assert r.stdout == "FAIL: 1 checks\n" and "failed: endpoints_equal" in r.stderr
    else:
        assert _one_error_line(r) and "empty chain start is not a point" in r.stderr


def test_connect_flags_with_zero_level(runner, tmp_path):
    # signature (0, 1): the zero level is constant along the pencil
    A = make_matrix_algebra(PrimeField(5), 3)
    a = tmp_path / "a.json"
    serialize.save_json(serialize.algebra_to_json(A), a)
    paths = []
    for seed in (1, 2):
        fl = Flag([zero_ideal(A), random_ideal(A, 1, random.Random(seed))])
        paths.append(tmp_path / f"f{seed}.json")
        serialize.save_json(serialize.flag_to_json(fl), paths[-1])
    w = tmp_path / "w.json"
    r = invoke(runner, ["witness", "connect-flags", "--algebra", str(a),
                        "--from", str(paths[0]), "--to", str(paths[1]), "--out", str(w)])
    assert r.exit_code == 0, r.output
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 0, r.output
    assert r.output.startswith("pass")


def test_flag_random_feeds_connect_flags(runner, tmp_path):
    a = tmp_path / "a.json"
    assert invoke(runner, ["algebra", "new", "--preset", "matrix", "--n", "4",
                           "--field", "fp:5", "--out", str(a)]).exit_code == 0
    paths = [tmp_path / "f1.json", tmp_path / "f2.json"]
    for seed, path in zip((1, 2), paths):
        r = invoke(runner, ["flag", "random", "--algebra", str(a), "--signature", "1,2,3",
                            "--seed", str(seed), "--out", str(path)])
        assert r.exit_code == 0, r.output
        assert serialize.flag_from_json(serialize.load_json(path)).signature == (1, 2, 3)
    assert paths[0].read_bytes() != paths[1].read_bytes()
    w = tmp_path / "w.json"
    r = invoke(runner, ["witness", "connect-flags", "--algebra", str(a),
                        "--from", str(paths[0]), "--to", str(paths[1]), "--out", str(w)])
    assert r.exit_code == 0, r.output
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 0, r.output
    assert r.output.startswith("pass")


@pytest.mark.parametrize("signature, message", [
    ("1,x", "not a comma-separated list of integers"),
    ("", "not a comma-separated list of integers"),
    ("2,1", "strictly increasing"),
    ("1,1", "strictly increasing"),
    ("1,5", "outside [0, 4]"),
    ("-1,2", "outside [0, 4]"),
])
def test_flag_random_rejects_a_bad_signature(runner, tmp_path, signature, message):
    a = tmp_path / "a.json"
    serialize.save_json(serialize.algebra_to_json(make_matrix_algebra(PrimeField(5), 4)), a)
    out = tmp_path / "f.json"
    r = invoke(runner, ["flag", "random", "--algebra", str(a), "--signature", signature,
                        "--out", str(out)])
    assert _one_error_line(r) and message in r.stderr
    assert not out.exists()


# Over F_5 the quaternion algebra (2, 3) is split.  The column space of i is
# not free over D, so no pencil is built on it.  That of j is free, though no
# single row spans it over D: d_basis_of takes a sum of two rows, and the
# pencils on j verify
_SPLIT_D_CASES = {
    "quaternion_rdim_1_to_itself": ("h", "connect-ideals", "i", "i"),
    "tensor_rdim_2_to_itself": ("t", "connect-ideals", "j", "j"),
    "tensor_rdim_2_to_free": ("t", "connect-ideals", "j", "r"),
    "tensor_one_level_flags": ("t", "connect-flags", "jf", "rf"),
}


def _connect_split_d(runner, tmp_path, case):
    H = make_quaternion(PrimeField(5), 2, 3)
    T = tensor_product(make_matrix_algebra(PrimeField(5), 2), H)
    for name, A in (("h", H), ("t", T)):
        serialize.save_json(serialize.algebra_to_json(A), tmp_path / f"{name}.json")
    j = ideal_generated([T.element([0, 1, 1, 0] + [0] * 8 + [0, 1, 1, 0])])
    r = random_ideal(T, 2, random.Random(3))
    files = {"i": serialize.ideal_to_json(ideal_generated([H.element([0, 1, 1, 0])])),
             "j": serialize.ideal_to_json(j), "r": serialize.ideal_to_json(r),
             "jf": serialize.flag_to_json(Flag([j])), "rf": serialize.flag_to_json(Flag([r]))}
    for name, data in files.items():
        serialize.save_json(data, tmp_path / f"{name}.json")
    alg, cmd, src, dst = _SPLIT_D_CASES[case]
    w = tmp_path / "w.json"
    res = invoke(runner, ["witness", cmd, "--algebra", str(tmp_path / f"{alg}.json"),
                          "--from", str(tmp_path / f"{src}.json"),
                          "--to", str(tmp_path / f"{dst}.json"), "--out", str(w)])
    return res, w


@pytest.mark.parametrize("case", ["quaternion_rdim_1_to_itself"])
def test_split_d_pencil_exits_2(runner, tmp_path, case):
    res, w = _connect_split_d(runner, tmp_path, case)
    assert _one_error_line(res)
    assert not w.exists()


@pytest.mark.parametrize("case", ["tensor_one_level_flags", "tensor_rdim_2_to_free",
                                  "tensor_rdim_2_to_itself"])
def test_split_d_pencil_verifies(runner, tmp_path, case):
    res, w = _connect_split_d(runner, tmp_path, case)
    assert res.exit_code == 0, res.output
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 0, r.output
    assert r.output.startswith("pass")


@pytest.mark.parametrize("value", [2.0, "two", 0])
def test_mistyped_exp2_meta_exits_2(runner, tmp_path, value):
    from csawitness.etale import random_balanced_pair_subalgebra
    from csawitness.witness import connect_exp2
    A = make_matrix_algebra(PrimeField(5), 4)
    rng = random.Random(3)
    L1 = random_balanced_pair_subalgebra(A, rng)
    L2 = random_balanced_pair_subalgebra(A, rng)
    data = serialize.witness_to_json(connect_exp2(L1, L2))
    w = tmp_path / "w.json"
    serialize.save_json(data, w)
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 0 and r.output.startswith("pass"), r.output
    data["segments"][1]["meta"]["et_m"] = value
    serialize.save_json(data, w)
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert _one_error_line(r) and "'et_m' must be" in r.stderr


# the etale_m3f7 and exp2_m4f7 golden pipelines of tests/test_golden.py
_ETALE_PIPELINES = {
    "etale_m3f7": [
        ["algebra", "new", "--preset", "matrix", "--n", "3", "--field", "fp:7",
         "--out", "a.json"],
        ["etale", "generate", "--algebra", "a.json", "--random-maximal", "--seed", "3",
         "--out", "e1.json"],
        ["etale", "generate", "--algebra", "a.json", "--random-maximal", "--seed", "4",
         "--out", "e2.json"],
        ["witness", "connect-etale", "--algebra", "a.json", "--from", "e1.json",
         "--to", "e2.json", "--seed", "5", "--out", "w.json"]],
    "exp2_m4f7": [
        ["algebra", "new", "--preset", "matrix", "--n", "4", "--field", "fp:7",
         "--out", "a.json"],
        ["etale", "generate", "--algebra", "a.json",
         "--element", "1,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0", "--out", "e1.json"],
        ["etale", "generate", "--algebra", "a.json",
         "--element", "1,0,1,0,0,1,0,0,0,0,2,0,0,0,0,2", "--out", "e2.json"],
        ["witness", "connect-exp2", "--algebra", "a.json", "--from", "e1.json",
         "--to", "e2.json", "--seed", "11", "--out", "w.json"]],
}


def _etale_witness_file(runner, tmp_path, name):
    for args in _ETALE_PIPELINES[name]:
        args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
        assert invoke(runner, args).exit_code == 0
    return tmp_path / "w.json"


def test_etale_line_with_replaced_validity_fails(runner, tmp_path):
    # validity t^7 - t vanishes on all of F_7, so a verifier that trusted it
    # would check no sample; the re-derived discriminant differs from it
    w = _etale_witness_file(runner, tmp_path, "etale_m3f7")
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 0 and r.stdout == "pass: 9 checks\n"
    data = json.loads(w.read_text())
    seg = data["segments"][0]
    seg["validity"] = ["0", "6", "0", "0", "0", "0", "0", "1"]
    del seg["meta"]["etale_dim"], seg["meta"]["maximal"]
    w.write_text(json.dumps(data))
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 1 and r.stdout.startswith("FAIL")
    assert "failed: validity_nonzero stored validity differs" in r.stderr


def _bump(c):
    return str((int(c) + 1) % 7)


# (tamper of one segment, the check that must fail)
_ETALE_TAMPERS = {
    "validity": (lambda seg: seg["validity"].__setitem__(0, _bump(seg["validity"][0])),
                 "validity_nonzero"),
    "etale_dim": (lambda seg: seg["meta"].__setitem__("etale_dim", seg["meta"]["etale_dim"] + 1),
                  "membership@"),
    "maximal": (lambda seg: seg["meta"].__setitem__("maximal", not seg["meta"].get("maximal")),
                "membership@"),
    "et_m": (lambda seg: seg["meta"].__setitem__("et_m", seg["meta"].get("et_m", 1) + 1),
             "membership@"),
    "gen_start": (lambda seg: seg["gen_start"].__setitem__(0, _bump(seg["gen_start"][0])),
                  "endpoint_start"),
    "gen_end": (lambda seg: seg["gen_end"].__setitem__(0, _bump(seg["gen_end"][0])),
                "endpoint_end"),
}


@pytest.mark.parametrize("name", sorted(_ETALE_PIPELINES))
@pytest.mark.parametrize("case", sorted(_ETALE_TAMPERS))
def test_each_etale_field_tamper_fails(runner, tmp_path, name, case):
    w = _etale_witness_file(runner, tmp_path, name)
    honest = json.loads(w.read_text())
    tamper, check = _ETALE_TAMPERS[case]
    for idx in range(len(honest["segments"])):
        data = json.loads(json.dumps(honest))
        tamper(data["segments"][idx])
        w.write_text(json.dumps(data))
        r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
        prefix = f"segment{idx}." if len(honest["segments"]) > 1 else ""
        assert r.exit_code == 2 or (r.exit_code == 1 and r.stdout.startswith("FAIL")
                                    and f"failed: {prefix}{check}" in r.stderr), r.output


def _pencil_file(tmp_path, kind):
    """A canonical M4(F_5) ideal pencil (rdim 2) or flag pencil (signature
    1, 2, 3), or an M2(F_5) maximal etale line, as witness JSON."""
    from csawitness.etale import random_maximal_etale
    from csawitness.ideals import random_flag
    from csawitness.witness import connect_flags, connect_ideals, connect_max_etale
    A = make_matrix_algebra(PrimeField(5), 4)
    rng = random.Random(9)
    if kind == "ideal":
        w = connect_ideals(random_ideal(A, 2, rng), random_ideal(A, 2, rng))
    elif kind == "flag":
        w = connect_flags(random_flag(A, [1, 2, 3], rng), random_flag(A, [1, 2, 3], rng))
    else:
        A = make_matrix_algebra(PrimeField(5), 2)
        w = connect_max_etale(random_maximal_etale(A, rng), random_maximal_etale(A, rng))
    return serialize.witness_to_json(w)


def _drop_last_prime_vector(seg):
    seg["pencil_w_prime"].pop()


def _shorten_first_vector(seg):
    seg["pencil_w"][0] = seg["pencil_w"][0][:3]


# malformed pencil data is bad input, not a pencil that fails verification
_MALFORMED_PENCILS = {
    "negative_level": ("flag", lambda seg: seg.update(levels=[-1, 2, 3]), "'levels'"),
    "level_past_the_vectors": ("flag", lambda seg: seg.update(levels=[1, 2, 9]), "'levels'"),
    "no_levels": ("flag", lambda seg: seg.update(levels=[]), "'levels'"),
    "fewer_prime_vectors": ("ideal", _drop_last_prime_vector,
                            "'pencil_w' has 2 vectors but 'pencil_w_prime' has 1"),
    "short_vector": ("ideal", _shorten_first_vector,
                     "'pencil_w' holds a vector of length 3, not 4"),
    # an etale line's generators have one coordinate per basis element of A
    "long_gen_start": ("etale", lambda seg: seg["gen_start"].append("0"),
                       "'gen_start' holds a vector of length 5, not 4"),
    "short_gen_start": ("etale", lambda seg: seg["gen_start"].pop(),
                        "'gen_start' holds a vector of length 3, not 4"),
    "short_gen_end": ("etale", lambda seg: seg["gen_end"].pop(),
                      "'gen_end' holds a vector of length 3, not 4"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_PENCILS))
def test_malformed_pencil_data_exits_2(runner, tmp_path, case):
    kind, mutate, message = _MALFORMED_PENCILS[case]
    data = _pencil_file(tmp_path, kind)
    w = tmp_path / "w.json"
    serialize.save_json(data, w)
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 0 and r.output.startswith("pass"), r.output
    mutate(data["segments"][0])
    serialize.save_json(data, w)
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert _one_error_line(r) and message in r.stderr, r.output



def _left_ideal_basis(n, cols):
    """The basis of the left ideal of M_n(F_5) whose elements vanish outside
    the first cols columns, as JSON rows: n * cols dimensions, a multiple of
    n, yet not a right ideal."""
    return [["1" if i == r * n + c else "0" for i in range(n * n)]
            for r in range(n) for c in range(cols)]


@pytest.mark.parametrize("kind", ["ideal", "flag"])
def test_a_stored_endpoint_that_is_no_right_ideal_fails_verification(runner, tmp_path, kind):
    # loading a witness does not check closure; the endpoint_start entry
    # compares the stored endpoint with the pencil's ideal at t = 1, which is
    # closed by construction, and fails
    data = _pencil_file(tmp_path, kind)
    start, left = data["segments"][0]["start"], _left_ideal_basis(4, 2)
    (start if kind == "ideal" else start["ideals"][1])["basis"] = left
    w = tmp_path / "w.json"
    serialize.save_json(data, w)
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 1 and r.stdout.startswith("FAIL"), r.output
    assert r.stderr.splitlines() == [
        "  failed: endpoint_start the stored endpoint differs from the segment at t = 1"]
    # the same rows as a lone ideal file are bad input
    i = tmp_path / "i.json"
    serialize.save_json({"basis": left, "algebra": data["algebra"]}, i)
    r = invoke(runner, ["ideal", "check", "--ideal", str(i)])
    assert _one_error_line(r) and "subspace is not a right ideal" in r.stderr, r.output


# on M2(F_5) a basis row has 4 entries; rows of 2 and 6 entries were once cut
# to the shorter length by zip and passed as a valid right ideal, and rows
# of 5 entries ended in an IndexError
_WRONG_LENGTH_ROWS = {
    2: [["1", "0"], ["0", "1"]],
    3: [["1", "0", "4"], ["0", "1", "0"]],
    5: [["1", "0", "4", "0", "1"], ["0", "1", "0", "4", "0"]],
    6: [["1", "0", "4", "0", "0", "0"], ["0", "1", "0", "4", "0", "0"]],
}


def _wrong_length_message(n, dim):
    return [f"error: 'basis' holds a vector of length {n}, not {dim}"]


@pytest.mark.parametrize("n", sorted(_WRONG_LENGTH_ROWS))
def test_an_ideal_file_with_rows_of_the_wrong_length_is_bad_input(runner, tmp_path, n):
    i = tmp_path / "i.json"
    serialize.save_json({"basis": _WRONG_LENGTH_ROWS[n],
                         "algebra": serialize.algebra_to_json(make_matrix_algebra(PrimeField(5), 2))}, i)
    r = invoke(runner, ["ideal", "check", "--ideal", str(i)])
    assert _one_error_line(r) and r.stderr.splitlines() == _wrong_length_message(n, 4), r.output


def test_a_flag_file_with_rows_of_the_wrong_length_is_bad_input(runner, tmp_path):
    A = make_matrix_algebra(PrimeField(5), 2)
    a, f = tmp_path / "a.json", tmp_path / "f.json"
    serialize.save_json(serialize.algebra_to_json(A), a)
    serialize.save_json({"ideals": [{"basis": _WRONG_LENGTH_ROWS[6]}], "signature": [1]}, f)
    r = invoke(runner, ["witness", "connect-flags", "--algebra", str(a), "--from", str(f),
                        "--to", str(f), "--out", str(tmp_path / "w.json")])
    assert _one_error_line(r) and r.stderr.splitlines() == _wrong_length_message(6, 4), r.output


@pytest.mark.parametrize("kind", ["ideal", "flag"])
def test_a_witness_endpoint_with_rows_of_the_wrong_length_is_bad_input(runner, tmp_path, kind):
    # an M4(F_5) endpoint row has 16 entries; one entry short, the file is
    # bad input (exit 2), not a witness that fails verification (exit 1)
    data = _pencil_file(tmp_path, kind)
    start = data["segments"][0]["start"]
    ideal = start if kind == "ideal" else start["ideals"][0]
    ideal["basis"] = [row[:-1] for row in ideal["basis"]]
    w = tmp_path / "w.json"
    serialize.save_json(data, w)
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert _one_error_line(r) and r.stderr.splitlines() == _wrong_length_message(15, 16), r.output


def _honest_witness(runner, tmp_path, name):
    """The witness file of the etale_m3f7 or exp2_m4f7 pipeline, or of the
    F_3 conic pipeline, checked to verify."""
    if name == "conic":
        w = tmp_path / "w.json"
        assert invoke(runner, ["witness", "connect-quadric", "--form", str(_conic_f3(tmp_path)),
                               "--p1", "1,0,0", "--p2", "0,0,1", "--out", str(w)]).exit_code == 0
    else:
        w = _etale_witness_file(runner, tmp_path, name)
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert r.exit_code == 0 and r.stdout.startswith("pass"), r.output
    return w


# what `csaw algebra new --preset matrix --n 2 --field q` writes
_M2Q = serialize.algebra_to_json(make_matrix_algebra(QQ, 2))

# (honest witness, its change, a part of the one-line message)
_MISLABELED_WITNESSES = {
    "no_segments": ("etale_m3f7", lambda d: d.update(segments=[]),
                    "witness kind 'etale_line' should be 'empty'"),
    "no_segments_made_up_kind": ("etale_m3f7", lambda d: d.update(segments=[], kind="bogus"),
                                 "witness kind 'bogus' should be 'empty'"),
    "kind_of_another_segment": ("etale_m3f7", lambda d: d.update(kind="quadric_line"),
                                "witness kind 'quadric_line' should be 'etale_line'"),
    "chain_without_kind": ("exp2_m4f7", lambda d: d.pop("kind"),
                           "witness kind None should be 'etale_line'"),
    "conic_with_an_algebra": ("conic", lambda d: d.update(algebra=_M2Q), "one context"),
    "conic_over_an_algebra": ("conic", lambda d: _replace_form(d, _M2Q),
                              "a quadric_line segment needs the witness's form"),
}


def _replace_form(data, algebra):
    del data["form"]
    data["algebra"] = algebra


@pytest.mark.parametrize("case", sorted(_MISLABELED_WITNESSES))
def test_mislabeled_witness_exits_2(runner, tmp_path, case):
    name, change, message = _MISLABELED_WITNESSES[case]
    w = _honest_witness(runner, tmp_path, name)
    data = json.loads(w.read_text())
    change(data)
    w.write_text(json.dumps(data))
    r = invoke(runner, ["verify", "--witness", str(w), "--exhaustive"])
    assert _one_error_line(r) and message in r.stderr, r.output
