import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

from csawitness.cli import main


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
