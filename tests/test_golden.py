"""Golden outputs: fixed-seed csaw pipelines must stay byte-identical.

The digests below are the sha256 of every file a pipeline writes and of
the stdout of every command, as recorded when this test was written.  A
change that alters any output byte fails here.
"""

import hashlib
import json
import random
from collections import Counter

import pytest
from click.testing import CliRunner

from csawitness import serialize
from csawitness.algebra import make_matrix_algebra, make_quaternion, tensor_product
from csawitness.cli import main
from csawitness.fields import QQ, PrimeField
from csawitness.ideals import random_flag, random_ideal
from csawitness.pointcount import QuadricCurves
from csawitness.quadrics import QuadraticForm
from csawitness.witness import connect_flags, connect_ideals

M4F5 = [
    ("a", ["algebra", "new", "--preset", "matrix", "--n", "4", "--field", "fp:5",
           "--out", "a.json"]),
    ("i1", ["ideal", "random", "--algebra", "a.json", "--rdim", "2", "--seed", "7",
            "--out", "i1.json"]),
    ("i2", ["ideal", "random", "--algebra", "a.json", "--rdim", "2", "--seed", "8",
            "--out", "i2.json"]),
    ("w", ["witness", "connect-ideals", "--algebra", "a.json", "--from", "i1.json",
           "--to", "i2.json", "--out", "w.json"]),
    ("v", ["verify", "--witness", "w.json", "--exhaustive", "--out", "v.json"]),
]

# over Q there is no exhaustive sampling; verify uses the default samples
M2H_Q = [
    ("h", ["algebra", "new", "--preset", "quaternion", "--field", "q",
           "--a", "-1", "--b", "-1", "--out", "h.json"]),
    ("m", ["algebra", "new", "--preset", "matrix", "--n", "2", "--field", "q",
           "--out", "m.json"]),
    ("a", ["algebra", "new", "--preset", "tensor", "--field", "q",
           "--left", "m.json", "--right", "h.json", "--out", "a.json"]),
    ("i1", ["ideal", "random", "--algebra", "a.json", "--rdim", "2", "--seed", "3",
            "--out", "i1.json"]),
    ("i2", ["ideal", "random", "--algebra", "a.json", "--rdim", "2", "--seed", "4",
            "--out", "i2.json"]),
    ("w", ["witness", "connect-ideals", "--algebra", "a.json", "--from", "i1.json",
           "--to", "i2.json", "--out", "w.json"]),
    ("v", ["verify", "--witness", "w.json", "--out", "v.json"]),
]

ETALE_M3F7 = [
    ("a", ["algebra", "new", "--preset", "matrix", "--n", "3", "--field", "fp:7",
           "--out", "a.json"]),
    ("e1", ["etale", "generate", "--algebra", "a.json", "--random-maximal",
            "--seed", "3", "--out", "e1.json"]),
    ("e2", ["etale", "generate", "--algebra", "a.json", "--random-maximal",
            "--seed", "4", "--out", "e2.json"]),
    ("w", ["witness", "connect-etale", "--algebra", "a.json", "--from", "e1.json",
           "--to", "e2.json", "--seed", "5", "--out", "w.json"]),
    ("v", ["verify", "--witness", "w.json", "--exhaustive", "--out", "v.json"]),
]

# an etale line over Q; as with M2H_Q, verify uses the default samples, since
# --exhaustive needs a finite field
ETALE_M2Q = [
    ("a", ["algebra", "new", "--preset", "matrix", "--n", "2", "--field", "q",
           "--out", "a.json"]),
    ("e1", ["etale", "generate", "--algebra", "a.json", "--random-maximal",
            "--seed", "3", "--out", "e1.json"]),
    ("e2", ["etale", "generate", "--algebra", "a.json", "--random-maximal",
            "--seed", "4", "--out", "e2.json"]),
    ("w", ["witness", "connect-etale", "--algebra", "a.json", "--from", "e1.json",
           "--to", "e2.json", "--seed", "5", "--out", "w.json"]),
    ("v", ["verify", "--witness", "w.json", "--out", "v.json"]),
]

# elements with minimal polynomial x(x - 1) and (x - 1)(x - 2), each
# eigenvalue of multiplicity 2, generate balanced quadratic subalgebras
EXP2_M4F7 = [
    ("a", ["algebra", "new", "--preset", "matrix", "--n", "4", "--field", "fp:7",
           "--out", "a.json"]),
    ("e1", ["etale", "generate", "--algebra", "a.json",
            "--element", "1,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0", "--out", "e1.json"]),
    ("e2", ["etale", "generate", "--algebra", "a.json",
            "--element", "1,0,1,0,0,1,0,0,0,0,2,0,0,0,0,2", "--out", "e2.json"]),
    ("w", ["witness", "connect-exp2", "--algebra", "a.json", "--from", "e1.json",
           "--to", "e2.json", "--seed", "11", "--out", "w.json"]),
    ("v", ["verify", "--witness", "w.json", "--exhaustive", "--out", "v.json"]),
]

# the F_3 conic 2y^2 + xz = 0; q.json is written before the steps run
CONIC_F3_FORM = {"field": {"kind": "prime", "p": 3}, "nvars": 3,
                 "coeffs": {"0,2": "1", "1,1": "2"}}
CONIC_F3 = [
    ("w", ["witness", "connect-quadric", "--form", "q.json", "--p1", "1,0,0",
           "--p2", "0,0,1", "--out", "w.json"]),
    ("v", ["verify", "--witness", "w.json", "--exhaustive", "--out", "v.json"]),
]

# a flag pencil of signature (1, 2, 3); its verify report is the one report
# of a witness kind the pipelines above do not pin
FLAGS_M4F5 = [
    ("a", ["algebra", "new", "--preset", "matrix", "--n", "4", "--field", "fp:5",
           "--out", "a.json"]),
    ("f1", ["flag", "random", "--algebra", "a.json", "--signature", "1,2,3",
            "--seed", "7", "--out", "f1.json"]),
    ("f2", ["flag", "random", "--algebra", "a.json", "--signature", "1,2,3",
            "--seed", "8", "--out", "f2.json"]),
    ("w", ["witness", "connect-flags", "--algebra", "a.json", "--from", "f1.json",
           "--to", "f2.json", "--out", "w.json"]),
    ("v", ["verify", "--witness", "w.json", "--exhaustive", "--out", "v.json"]),
]

GOLDEN = {
    "ideals_m4f5": {
        "a.json":
            "18f654e256e640a96e6f3c4923294433efa0927c17062ca44e7bc934054539c3",
        "a.stdout":
            "b04e9ce2f117e7cdad1e15d8667ead990c235cd87d2083ef048342ef4bf4b429",
        "i1.json":
            "57f80139fb1d1834d4fb1acfb86a6943e183ed11e8bb6bbc03d19a132f9ba2c7",
        "i1.stdout":
            "2f268d5c651559c2909244d1af861355ea154cf5982b8d3f6c223dea4bd11387",
        "i2.json":
            "0ef97b27c7c2445f02b40f3c8649b83fa1aae2074ae5d8bd415c59784465c5ca",
        "i2.stdout":
            "8592c1a9b5ecb596023e108644977ffcd9f5f4352c89222a67de00ff8ef20f6d",
        "v.json":
            "e21fdb038caeafb4d61a56c33fb9821e3f744c6919e8ff7b8f1f03c2ba5d4cce",
        "v.stdout":
            "6a2c7d3f69aac1318285e857aee3e46083219b620726441c9df485085de53dc1",
        "w.json":
            "eca55077943434f0daeea6d22cfce8340ebe5bf8ce8fb00cea1f1a9e7d82ae17",
        "w.stdout":
            "81b0c3f4d0db7178d788a25fe644b6bebe1e7bc803f2ca6020d4f7b3d566ac0b",
    },
    "ideals_m2h_q": {
        "a.json":
            "5e093abbc2d0fedff2bd80e92b9198b5a708fdc96598e5b25df748fcdddf4196",
        "a.stdout":
            "b04e9ce2f117e7cdad1e15d8667ead990c235cd87d2083ef048342ef4bf4b429",
        "h.json":
            "c66b8d6fef0edaebbba9750220bf0224dc71518dea516ae40b32ab495dd7cf27",
        "h.stdout":
            "304e12610728b8b9d7d1537872dcf0cf9f90d5f9b8f90d612d2b567a501b22ff",
        "i1.json":
            "9e6c9bfd156fde27d58db59c2f9cc0e67e359de3112dbbc6f8ca16dae12f260e",
        "i1.stdout":
            "2f268d5c651559c2909244d1af861355ea154cf5982b8d3f6c223dea4bd11387",
        "i2.json":
            "491ef36e504f40deb4c1a635d149bbb8aa51fea94553d0901b8daa4359d65109",
        "i2.stdout":
            "8592c1a9b5ecb596023e108644977ffcd9f5f4352c89222a67de00ff8ef20f6d",
        "m.json":
            "08f4e3f1ef0f576f40f41689ad57593db7994afcfc16767b169b304ef9253239",
        "m.stdout":
            "023d64d34f3894a9c5be7dcc6c7ddcf6828672b3ed198d83c1bd312993047476",
        "v.json":
            "9836e3f22c2528abc83a38411f63ebf79b2ced8c981db53aa390ca75d40ae784",
        "v.stdout":
            "6a2c7d3f69aac1318285e857aee3e46083219b620726441c9df485085de53dc1",
        "w.json":
            "5304ed37fd207dc7715d395661b3dab0c7785222ba85c40bd636316f94afba1e",
        "w.stdout":
            "81b0c3f4d0db7178d788a25fe644b6bebe1e7bc803f2ca6020d4f7b3d566ac0b",
    },
    "etale_m3f7": {
        "a.json":
            "8641f837923c5860f3d709cf0310a40c8e3ba2f864f07671d23044b6c10b0cf6",
        "a.stdout":
            "a136ac6181d2d6b76dc77562209e6dda669b11184ef174f9bfdd7b1fe33acaea",
        "e1.json":
            "0d4051f5cd3256804c3303e6d0e5d33ed54ec51f878fcbc65db8d5ae5ecbe9c3",
        "e1.stdout":
            "6b4182300a8d3c405740a157cb014d795f50f5c4ee8c8fa70d40c0d861d12fc1",
        "e2.json":
            "a94ce09f5b65fdcdcc2ddce6dcaafc55bfc72ce59e74011c9eb741e61e9b9b55",
        "e2.stdout":
            "3b29c70cec81de3172a49555484ece6fa3dbecea9a6a9622f1d48c73ea926758",
        "v.json":
            "39e5aa6170050b3d46aa1642059023fc3b5a16d752f0a5788cd7e0f18a631d18",
        "v.stdout":
            "63451a5b103868774461ad1ddb89749170d48dd20b61bab43db91052a8a79d5e",
        "w.json":
            "35afaf7a9a434e0467fb0a4ab6e06563d27076753b0e8b577f79dcee7de85414",
        "w.stdout":
            "81b0c3f4d0db7178d788a25fe644b6bebe1e7bc803f2ca6020d4f7b3d566ac0b",
    },
    "etale_m2q": {
        "a.json":
            "08f4e3f1ef0f576f40f41689ad57593db7994afcfc16767b169b304ef9253239",
        "a.stdout":
            "d37a09c3b6f60f82d4010c4bcf0e7700f91743ceefe36d11db42f6297d3ec7ad",
        "e1.json":
            "c802d32605bbb52cae293d3d3d3fba364e69d02cb40cf657b3ac17eac438d592",
        "e1.stdout":
            "61eda48b281d7139120b38a58e0f0a93dfdc1d07fa96c3f25fb816829cdf3987",
        "e2.json":
            "a1eabf8bf68172896250171829a524d7e5294a041d0e685d01ff8cbaf38eea08",
        "e2.stdout":
            "dc2d5fa45d8c3b3ddaee9f0acf6d3603df3211636a945f3d78cc5daa245ca186",
        "v.json":
            "f2afafb0c4fe3a1227764012bf3a8c94de78a1e29ece88bdd27f102a812694cd",
        "v.stdout":
            "6a2c7d3f69aac1318285e857aee3e46083219b620726441c9df485085de53dc1",
        "w.json":
            "a361b62a4fb8b67fa5d34f043bbbea1d3b9de195b44df3dc3c1f7d5a8b7acd8e",
        "w.stdout":
            "81b0c3f4d0db7178d788a25fe644b6bebe1e7bc803f2ca6020d4f7b3d566ac0b",
    },
    "exp2_m4f7": {
        "a.json":
            "389c4085d216b35996601bdbb803a3bcb1d76b17ef39bf42bd18d8cabbc8760f",
        "a.stdout":
            "b04e9ce2f117e7cdad1e15d8667ead990c235cd87d2083ef048342ef4bf4b429",
        "e1.json":
            "9c1afc02dc8b80ecea11d9a060bb85ac62cfe187f31fb668d1eb4f5758d40605",
        "e1.stdout":
            "61eda48b281d7139120b38a58e0f0a93dfdc1d07fa96c3f25fb816829cdf3987",
        "e2.json":
            "a465aeb232828f5732841173c52cc4fcb100def531b959fa7aec37dfdc527b5f",
        "e2.stdout":
            "dc2d5fa45d8c3b3ddaee9f0acf6d3603df3211636a945f3d78cc5daa245ca186",
        "v.json":
            "a61f470c122e915e34b9e34a993c7f7fb2d088022986af79a168d46b98656593",
        "v.stdout":
            "562f4fe63a25e1f40967705a0c92d5f4182b05d97bc28888cc3889a659479955",
        "w.json":
            "23c4e7b97bebc73ed3017f659dde93e7df93e91cd135b85b02e2bd8282e02588",
        "w.stdout":
            "cc9a0d09b7140d990543345b1d5cb4096b8f05f94587429252c1ce2e8f8f95c7",
    },
    "conic_f3": {
        "q.json":
            "81f3c0ec6e6452305d10cc50ae079edaf2f4a8aed7ee6bbb6f406e7e4fee789e",
        "v.json":
            "c026e2a453ef0f66919f0b1ea70fdcde6d25f3a3baef683bb1bc1cdc7c7ceb31",
        "v.stdout":
            "3cecc778535a79039b3db8e607bdb94d6eeb1ab92b001c50b961f93e5cfeb28f",
        "w.json":
            "76cd67568acfbf63ab600ec1dd7b20ef243ce3c99209690af341c6fc4824c4fa",
        "w.stdout":
            "81b0c3f4d0db7178d788a25fe644b6bebe1e7bc803f2ca6020d4f7b3d566ac0b",
    },
    "flags_m4f5": {
        "a.json":
            "18f654e256e640a96e6f3c4923294433efa0927c17062ca44e7bc934054539c3",
        "a.stdout":
            "b04e9ce2f117e7cdad1e15d8667ead990c235cd87d2083ef048342ef4bf4b429",
        "f1.json":
            "60804669b4d3d5c4d27bba6624ae29920bb452b1b9f3e64e66c41d05c4160732",
        "f1.stdout":
            "2b3911c3990231e976cf9562dc5c1c59189b0c097d4ee260bc23633a220139a3",
        "f2.json":
            "79520d6af6290a46d158db58f04e084129a4b7cad986279a71caa69717f7e038",
        "f2.stdout":
            "9288b04e35edd48273ad8eb061ab39cd6eaffb0695aeb13af10d2cfbf339bc9a",
        "v.json":
            "778c943c1922044c315a36bbeac7e0437061d3ad4d7475068cdabf2b2d1d60cb",
        "v.stdout":
            "dbf4d0e97de8de754a207563a6c82021d67961f52cbcc810911efca5f58f9d30",
        "w.json":
            "6ca555204efe2e28b30e30caad027af11701f6749eea549c32b6ba8fe7c9459a",
        "w.stdout":
            "81b0c3f4d0db7178d788a25fe644b6bebe1e7bc803f2ca6020d4f7b3d566ac0b",
    },
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _digests(steps, workdir):
    """Run the steps in workdir (relative paths keep stdout path-free) and
    hash every stdout and every written file."""
    runner = CliRunner()
    out = {}
    for name, args in steps:
        r = runner.invoke(main, args, catch_exceptions=False)
        assert r.exit_code == 0, (name, r.output)
        out[f"{name}.stdout"] = _sha(r.stdout.encode())
    for path in sorted(workdir.iterdir()):
        out[path.name] = _sha(path.read_bytes())
    return out


def _check(name, steps, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _digests(steps, tmp_path) == GOLDEN[name]


def test_golden_ideals_m4f5(tmp_path, monkeypatch):
    _check("ideals_m4f5", M4F5, tmp_path, monkeypatch)


def test_golden_ideals_m2h_q(tmp_path, monkeypatch):
    _check("ideals_m2h_q", M2H_Q, tmp_path, monkeypatch)


def test_golden_etale_m3f7(tmp_path, monkeypatch):
    _check("etale_m3f7", ETALE_M3F7, tmp_path, monkeypatch)


def test_golden_etale_m2q(tmp_path, monkeypatch):
    _check("etale_m2q", ETALE_M2Q, tmp_path, monkeypatch)


def test_golden_exp2_m4f7(tmp_path, monkeypatch):
    _check("exp2_m4f7", EXP2_M4F7, tmp_path, monkeypatch)


def test_golden_conic_f3(tmp_path, monkeypatch):
    (tmp_path / "q.json").write_text(json.dumps(CONIC_F3_FORM))
    _check("conic_f3", CONIC_F3, tmp_path, monkeypatch)


def test_golden_flags_m4f5(tmp_path, monkeypatch):
    _check("flags_m4f5", FLAGS_M4F5, tmp_path, monkeypatch)


# `csaw hgraph --n 2` on one form of each size the benchmark draws from
HGRAPH_FORMS = {
    "f2_surface": ({"field": {"kind": "prime", "p": 2}, "nvars": 4,
                    "coeffs": {"0,1": "1", "0,2": "1", "1,2": "1", "1,3": "1",
                               "2,2": "1"}},
                   "2cc554501bb8f85052a0ba7006a9400a69cc83f6ed1118c053b669f600e05f98",
                   "efbfaf3d9c366d7be13d8d93927aa15ee6116962311bedbe13c3cb12257f3ea7"),
    "f3_conic": ({"field": {"kind": "prime", "p": 3}, "nvars": 3,
                  "coeffs": {"0,1": "2", "0,2": "1", "1,1": "1", "2,2": "1"}},
                 "3771bb07a58435e68a8a05724344101ad61f30364a84e7cd4e7dc0a2be4c2fab",
                 "035990fe0254b5c23a171bf6f80ca1b54bd3e8547c98d1b4c8d2c2725d28600f"),
    "f5_conic": ({"field": {"kind": "prime", "p": 5}, "nvars": 3,
                  "coeffs": {"0,1": "3", "0,2": "4", "1,1": "3", "2,2": "2"}},
                 "e2d02dd1c330dec3d9a3e8da964a906c8cdcf911d52defba5405427512f18e6a",
                 "f433e45a33dbc9a98aecb562e86afad412f18ae7c0bf111e010db37a4897a0b3"),
}


def _hgraph(tmp_path, monkeypatch, form):
    """(exit code, stdout sha, graph file sha) of `csaw hgraph --n 2` on form."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.json").write_text(json.dumps(form))
    r = CliRunner().invoke(main, ["hgraph", "--model", "quadric", "--form", "q.json",
                                  "--n", "2", "--out", "g.json"], catch_exceptions=False)
    return r.exit_code, _sha(r.stdout.encode()), _sha((tmp_path / "g.json").read_bytes())


@pytest.mark.parametrize("name", sorted(HGRAPH_FORMS))
def test_golden_hgraph(tmp_path, monkeypatch, name):
    form, stdout_sha, graph_sha = HGRAPH_FORMS[name]
    assert _hgraph(tmp_path, monkeypatch, form) == (0, stdout_sha, graph_sha)


def test_golden_hgraph_line_pair(tmp_path, monkeypatch):
    # the degenerate F_3 conic x0 x1, a pair of lines: the run prints
    # "27 vertices, 22 edges, 5 component(s)" and exits 1
    form = {"field": {"kind": "prime", "p": 3}, "nvars": 3, "coeffs": {"0,1": "1"}}
    assert _hgraph(tmp_path, monkeypatch, form) == (
        1, "5a5adfa56e0fd5a3eb156f55e7ab3357a9b6e04826c12506a82051eb749dbaec",
        "89c80867cc71f77bb1a9f4f5b50916aefdd3d921094c399cee91f8808f80781f")


@pytest.mark.parametrize("name", sorted(HGRAPH_FORMS))
def test_hgraph_links_from_one_polar_table(tmp_path, monkeypatch, name):
    """QuadricCurves.link evaluates q at no point, since the model's points
    and the cycles' coordinates are on the quadric by construction, and it
    computes each point's polar vector at most once per degree in a graph;
    the outputs stay the goldens."""
    degrees = []  # the degree of each QuadricCurves.link call in progress
    evals, polars = Counter(), Counter()
    link, evaluate, polar = QuadricCurves.link, QuadraticForm.eval, QuadraticForm.polar

    def counted_link(self, d, x, y):
        degrees.append(d)
        try:
            return link(self, d, x, y)
        finally:
            degrees.pop()

    def counted_eval(self, vec):
        if degrees:
            evals[degrees[-1]] += 1
        return evaluate(self, vec)

    def counted_polar(self, v):
        if degrees:
            polars[degrees[-1], tuple(v)] += 1
        return polar(self, v)

    monkeypatch.setattr(QuadricCurves, "link", counted_link)
    monkeypatch.setattr(QuadraticForm, "eval", counted_eval)
    monkeypatch.setattr(QuadraticForm, "polar", counted_polar)
    form, stdout_sha, graph_sha = HGRAPH_FORMS[name]
    assert _hgraph(tmp_path, monkeypatch, form) == (0, stdout_sha, graph_sha)
    assert evals == Counter()
    assert {d for d, _ in polars} == {1, 2} and set(polars.values()) == {1}


# library witnesses on paths the pipelines above do not reach: a flag pencil
# over a quaternion factor (d2 = 4), and pencils whose start equals their end


def _m2h_q():
    return tensor_product(make_matrix_algebra(QQ, 2), make_quaternion(QQ, -1, -1))


def _flags_m2h_q():
    rng = random.Random(5)
    A = _m2h_q()
    return connect_flags(random_flag(A, (2, 4), rng), random_flag(A, (2, 4), rng))


def _same_ideal(A, seed):
    I = random_ideal(A, 2, random.Random(seed))
    return connect_ideals(I, I)


WITNESS_GOLDEN = {
    "flags_m2h_q": (_flags_m2h_q,
                    "8917cdd41e923d52c4b5735753a77ebc400f12a12482a632719e08736db287c1"),
    "same_ideal_m4f5": (lambda: _same_ideal(make_matrix_algebra(PrimeField(5), 4), 7),
                        "b91208181af3f06c969810dd42a89f9997bae529973dcdd85a13232626bfefa9"),
    "same_ideal_m2h_q": (lambda: _same_ideal(_m2h_q(), 3),
                         "7166fb0a342029f174fa76f1f288038469819fe503f200e40c1cd8ce27a9cd1a"),
}


@pytest.mark.parametrize("name", sorted(WITNESS_GOLDEN))
def test_golden_witness(name):
    build, want = WITNESS_GOLDEN[name]
    data = serialize.dump_canonical(serialize.witness_to_json(build()))
    assert _sha(data.encode()) == want
