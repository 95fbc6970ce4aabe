"""The benchmark's three seeded workloads.

Each workload is a fixed cycle of operation kinds.  An operation's inputs
come from a `random.Random` seeded by (workload seed, kind, per-kind index),
so they do not depend on timing, and they are generated before the
operation's timer starts.  `run` is the timed part: what a user of the
library does (construct, verify, serialize, or call the `csaw` CLI).
`check` is untimed and re-checks the result by means the code under test
does not use for that result; it returns (ok, canonical output bytes).

Kind weights are chosen so that the median and the tail sample fall inside
one kind, not on a boundary between two kinds (see `quantile_kinds` and
test_perfbench.py): on a boundary, the reported latency jumps between kinds
from run to run.  `nominal_ms` is the kind's median latency at the reference
speed (see run.py) on a 2-core x86-64 host with Python 3.11; it only orders
kinds for that check.
"""

import hashlib
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class PackageMissing(RuntimeError):
    """The checkout has no csawitness sources next to the benchmark."""


def load_package():
    """Import csawitness from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "csawitness" / "__init__.py").is_file():
        raise PackageMissing(f"no csawitness package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import csawitness
    if Path(csawitness.__file__).resolve().parent != (src / "csawitness").resolve():
        raise PackageMissing(f"csawitness imported from {csawitness.__file__}, not {src}")
    return csawitness


class Kind:
    __slots__ = ("name", "count", "nominal_ms", "make", "run", "check")

    def __init__(self, name, count, nominal_ms, make, run, check):
        self.name = name
        self.count = count
        self.nominal_ms = nominal_ms
        self.make = make
        self.run = run
        self.check = check


def cycle_order(kinds):
    """The fixed order of one cycle: each kind's operations spread evenly."""
    slots = sorted(((i + 0.5) / k.count, n, k)
                   for n, k in enumerate(kinds) for i in range(k.count))
    return [k for _, _, k in slots]


def op_rng(seed, kind_name, index):
    return random.Random(f"{seed}/{kind_name}/{index}")


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def membership_checks(report):
    return sum(1 for name, _, _ in report.checks if "membership@" in name)


# ---------------------------------------------------------------------------
# build_fp: construct, verify exhaustively and serialize over F_p
#
# Library calls in `run` go through module attributes (wit.connect_ideals),
# never through names bound here, so that the traced run sees them.


def setup_build_fp(ctx, seed):
    from csawitness import algebra, fields
    F5, F7, F11 = fields.PrimeField(5), fields.PrimeField(7), fields.PrimeField(11)
    matrices = algebra.make_matrix_algebra
    ctx.update(F5=F5, F7=F7, F11=F11,
               M4F5=matrices(F5, 4), M6F7=matrices(F7, 6), M4F7=matrices(F7, 4),
               M3F7=matrices(F7, 3), M4F11=matrices(F11, 4))


def _pencil_kind(name, count, nominal_ms, algebra, rdims, samples):
    """connect_ideals between two random right ideals, then verify and
    serialize; `samples` maps the context to the verifier's parameters."""
    from csawitness import ideals, serialize as ser, witness as wit

    def make(rng, ctx):
        A = ctx[algebra]
        rdim = rng.choice(rdims)
        return ideals.random_ideal(A, rdim, rng), ideals.random_ideal(A, rdim, rng)

    def run(inp, ctx):
        w = wit.connect_ideals(*inp)
        report = wit.verify_witness(w, samples(ctx))
        return w, report, ser.dump_canonical(ser.witness_to_json(w))

    def check(inp, res, ctx):
        w, report, out = res
        ok = (report.passed and membership_checks(report) >= 1
              and w.start == inp[0] and w.end == inp[1])
        return ok, out.encode()

    return Kind(name, count, nominal_ms, make, run, check)


def _etale_kind(name, count, nominal_ms, draw, samples):
    """connect_max_etale between two maximal separable subalgebras."""
    from csawitness import serialize as ser, witness as wit

    def make(rng, ctx):
        return draw(rng, ctx), draw(rng, ctx), rng.randrange(1000)

    def run(inp, ctx):
        w = wit.connect_max_etale(inp[0], inp[1], rng_seed=inp[2])
        report = wit.verify_witness(w, samples(ctx))
        return w, report, ser.dump_canonical(ser.witness_to_json(w))

    def check(inp, res, ctx):
        w, report, out = res
        ok = (report.passed and membership_checks(report) >= 1
              and w.start == inp[0] and w.end == inp[1] and w.start.is_maximal())
        return ok, out.encode()

    return Kind(name, count, nominal_ms, make, run, check)


def _random_maximal(algebra):
    from csawitness import etale
    return lambda rng, ctx: etale.random_maximal_etale(ctx[algebra], rng)


def _elements(field):
    return lambda ctx: list(ctx[field].elements())


def _flag_kind(name, count, nominal_ms):
    from csawitness import ideals, serialize as ser, witness as wit

    def make(rng, ctx):
        A = ctx["M4F7"]
        return ideals.random_flag(A, (1, 2, 3), rng), ideals.random_flag(A, (1, 2, 3), rng)

    def run(inp, ctx):
        w = wit.connect_flags(*inp)
        report = wit.verify_witness(w, list(ctx["F7"].elements()))
        return w, report, ser.dump_canonical(ser.witness_to_json(w))

    def check(inp, res, ctx):
        w, report, out = res
        ok = (report.passed and membership_checks(report) >= 1
              and w.start == inp[0] and w.end == inp[1]
              and w.end.signature == (1, 2, 3))
        return ok, out.encode()

    return Kind(name, count, nominal_ms, make, run, check)


def _exp2_kind(name, count, nominal_ms, draw, samples):
    """connect_exp2 between two balanced quadratic-type subalgebras.  The
    check: at most three segments, endpoints equal to the inputs, and on each
    segment the point at the first sample with nonzero validity is balanced
    (type [n/2, n/2]); checking every sample would cost as much as the
    operation itself."""
    from csawitness import etale, serialize as ser, witness as wit

    def make(rng, ctx):
        L1, L2 = draw(rng, ctx)
        return L1, L2, rng.randrange(1000)

    def run(inp, ctx):
        chain = wit.connect_exp2(inp[0], inp[1], rng_seed=inp[2])
        report = wit.verify_witness(chain, samples(ctx))
        return chain, report, ser.dump_canonical(ser.witness_to_json(chain))

    def check(inp, res, ctx):
        chain, report, out = res
        ok = (report.passed and 1 <= len(chain) <= 3
              and chain.start == inp[0] and chain.end == inp[1])
        for seg in chain.segments:
            t = next(t for t in samples(ctx) if not seg.field.is_zero(seg.validity.eval(t)))
            ok = ok and etale.is_et_m_point(seg.evaluate(t), 2)
        return ok, out.encode()

    return Kind(name, count, nominal_ms, make, run, check)


def _balanced_pair_m4f7(rng, ctx):
    from csawitness import etale
    A = ctx["M4F7"]
    L1 = etale.random_balanced_pair_subalgebra(A, rng)
    L2 = etale.random_balanced_pair_subalgebra(A, rng)
    while L2 == L1:
        L2 = etale.random_balanced_pair_subalgebra(A, rng)
    return L1, L2


def kinds_build_fp():
    return [
        _etale_kind("etale_m3f7", 2, 3.5, _random_maximal("M3F7"), _elements("F7")),
        _pencil_kind("ideals_m4f5_r1", 2, 7.3, "M4F5", (1,), _elements("F5")),
        _pencil_kind("ideals_m4f5_r2", 4, 14, "M4F5", (2,), _elements("F5")),
        _etale_kind("etale_m4f11", 1, 16, _random_maximal("M4F11"), _elements("F11")),
        _flag_kind("flags_m4f7", 1, 33),
        _exp2_kind("exp2_m4f7", 1, 122, _balanced_pair_m4f7, _elements("F7")),
        _pencil_kind("ideals_m6f7", 1, 161, "M6F7", (2, 3), _elements("F7")),
    ]


# ---------------------------------------------------------------------------
# build_q: the same constructions over Q


Q_SAMPLES = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1))
EVIDENCE_BOUND = 12


def setup_build_q(ctx, seed):
    from csawitness import algebra, etale, fields
    QQ = fields.QQ
    H = algebra.make_quaternion(QQ, Fraction(-1), Fraction(-1))
    S = algebra.make_quaternion(QQ, Fraction(1), Fraction(1))
    HS = algebra.tensor_product(H, S)
    ctx.update(M2Q=algebra.make_matrix_algebra(QQ, 2),
               M2H=algebra.tensor_product(algebra.make_matrix_algebra(QQ, 2), H),
               # every basis element of H (x) (1,1) but the unit generates a
               # balanced quadratic subalgebra
               HS_lines=[etale.generate_etale(HS.basis_element(i)) for i in range(1, HS.dim)])


def _maximal_m2q(rng, ctx):
    from csawitness import errors, etale
    A = ctx["M2Q"]
    while True:
        coords = tuple(Fraction(rng.randint(-4, 4)) for _ in range(A.dim))
        try:
            E = etale.generate_etale(A.element(coords))
        except errors.NotEtaleError:
            continue
        if E.is_maximal():
            return E


def _q_samples(ctx):
    return list(Q_SAMPLES)


def _idempotent_kind(name, count, nominal_ms):
    from csawitness import ideals

    def make(rng, ctx):
        return ideals.random_ideal(ctx["M2H"], 2, rng)

    def run(inp, ctx):
        return ideals.splitting_idempotent(inp)

    def check(inp, e, ctx):
        A = ctx["M2H"]
        ok = A.mul(e.coords, e.coords) == e.coords and inp.contains(e.coords)
        return ok, canonical([A.field.to_json(c) for c in e.coords])

    return Kind(name, count, nominal_ms, make, run, check)


def _evidence_kind(name, count, nominal_ms, split):
    """index_evidence on a quaternion algebra (a, b) over Q plus a height
    search for a rational point on its norm conic x^2 - a y^2 - b z^2.

    Split inputs are built around a known solution of height <= 6, so both
    searches must find one.  Definite inputs (a, b < 0) have no rational
    point at all, so both must come back empty after the full search."""
    from csawitness import algebra, fields, pointcount, quadrics

    def make(rng, ctx):
        if not split:
            return Fraction(-rng.randint(1, 3)), Fraction(-rng.randint(1, 3))
        while True:
            b = Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]))
            x, y, z = rng.randint(0, 6), rng.randint(1, 4), rng.randint(1, 4)
            a = (x * x - b * z * z) / (y * y)
            if a != 0:
                return a, b

    def run(inp, ctx):
        a, b = inp
        QQ = fields.QQ
        evidence = algebra.index_evidence(algebra.make_quaternion(QQ, a, b),
                                          search_bound=EVIDENCE_BOUND)
        conic = quadrics.QuadraticForm.diagonal(QQ, [Fraction(1), -a, -b])
        return evidence, pointcount.QPointSearch(conic).search_rational_point(EVIDENCE_BOUND)

    def check(inp, res, ctx):
        a, b = inp
        evidence, point = res
        if split:
            ok = (isinstance(evidence, algebra.SplitWitness) and not evidence.x.is_zero()
                  and not evidence.y.is_zero() and (evidence.x * evidence.y).is_zero()
                  and point is not None and any(point)
                  and point[0] ** 2 - a * point[1] ** 2 - b * point[2] ** 2 == 0)
        else:
            ok = isinstance(evidence, algebra.NoWitnessFound) and point is None
        return ok, canonical([str(a), str(b), repr(evidence), repr(point)])

    return Kind(name, count, nominal_ms, make, run, check)


def _hs_line_pair(rng, ctx):
    return rng.sample(ctx["HS_lines"], 2)


def kinds_build_q():
    return [
        _etale_kind("etale_m2q", 8, 4.0, _maximal_m2q, _q_samples),
        _evidence_kind("evidence_split", 1, 6.5, split=True),
        _idempotent_kind("idempotent_m2h", 2, 8.6),
        _evidence_kind("evidence_definite", 1, 54, split=False),
        _pencil_kind("ideals_m2h", 1, 81, "M2H", (2,), _q_samples),
        _exp2_kind("exp2_hxs", 1, 417, _hs_line_pair, _q_samples),
    ]


# ---------------------------------------------------------------------------
# audit_cli: `csaw verify --exhaustive` and `csaw hgraph` through CliRunner


# distinct input files per kind: witness files are costly to build, forms
# are not, and each form's graph costs differently, so the forms' pool is
# larger to keep the mean cost of a run's forms steady across seeds
POOL = 4
FORM_POOL = 16

# nondegenerate quadrics with the known size of their degree-2 cycle graph:
# (prime, variables, coefficients, vertices).  A conic over F_q has q^2
# vertices; the hyperbolic surface over F_2 has C(9, 2) + 8 = 44.
HGRAPH_FORMS = {
    "hgraph_f2_surface": (2, 4, {(0, 3): 1, (1, 2): 1}, 44),
    "hgraph_f3_conic": (3, 3, {(0, 2): 1, (1, 1): 2}, 9),
    "hgraph_f5_conic": (5, 3, {(0, 2): 1, (1, 1): 4}, 25),
}


def random_invertible(p, n, rng):
    """P * D * U with P a permutation, D an invertible diagonal and U upper
    unitriangular: invertible over F_p by construction."""
    perm = list(range(n))
    rng.shuffle(perm)
    diag = [rng.randrange(1, p) for _ in range(n)]
    upper = [[1 if i == j else (rng.randrange(p) if j > i else 0) for j in range(n)]
             for i in range(n)]
    return [[diag[perm[i]] * upper[perm[i]][j] % p for j in range(n)] for i in range(n)]


def transform_form(p, n, coeffs, M):
    """The coefficients of q(M y) for q = sum c_ij x_i x_j (i <= j), mod p."""
    out = {}
    for (i, j), c in coeffs.items():
        for k in range(n):
            for l in range(n):
                key = (min(k, l), max(k, l))
                out[key] = (out.get(key, 0) + c * M[i][k] * M[j][l]) % p
    return {key: c for key, c in sorted(out.items()) if c}


def setup_audit_cli(ctx, seed):
    """Write the canonical witness and form files that the operations read."""
    from click.testing import CliRunner

    from csawitness.algebra import make_matrix_algebra
    from csawitness.cli import main
    from csawitness.etale import random_balanced_pair_subalgebra
    from csawitness.fields import PrimeField, parse_field_flag
    from csawitness.ideals import random_ideal
    from csawitness.quadrics import QuadraticForm, points_on_quadric
    from csawitness.serialize import dump_canonical, form_to_json, witness_to_json
    from csawitness.witness import connect_exp2, connect_ideals, connect_quadric_points

    work = Path(ctx["workdir"])
    F5, F7, F9 = PrimeField(5), PrimeField(7), parse_field_flag("fq:3:2")
    M4F5, M3F9, M4F7 = (make_matrix_algebra(F5, 4), make_matrix_algebra(F9, 3),
                        make_matrix_algebra(F7, 4))
    conic9 = QuadraticForm(F9, 3, {(0, 2): F9.one, (1, 1): F9.neg(F9.one)})
    conic9_points = points_on_quadric(conic9)

    def write(name, text):
        path = work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def ideal_pencil(A, rdims):
        def build(rng):
            rdim = rng.choice(rdims)
            return connect_ideals(random_ideal(A, rdim, rng), random_ideal(A, rdim, rng))
        return build

    def exp2_chain(rng):
        L1 = random_balanced_pair_subalgebra(M4F7, rng)
        L2 = random_balanced_pair_subalgebra(M4F7, rng)
        while L2 == L1:
            L2 = random_balanced_pair_subalgebra(M4F7, rng)
        return connect_exp2(L1, L2, rng_seed=rng.randrange(1000))

    def quadric_chain(rng):
        p1, p2 = rng.sample(conic9_points, 2)
        return connect_quadric_points(conic9, p1, p2, points=conic9_points)

    files = {}
    for kind, build in (("verify_ideals_m4f5", ideal_pencil(M4F5, (2,))),
                        ("verify_ideals_m3f9", ideal_pencil(M3F9, (1,))),
                        ("verify_exp2_m4f7", exp2_chain),
                        ("verify_quadric_f9", quadric_chain)):
        files[kind] = [write(f"{kind}_{i}.json",
                             dump_canonical(witness_to_json(build(op_rng(seed, kind, i)))))
                       for i in range(POOL)]
    for kind, (p, n, coeffs, _) in HGRAPH_FORMS.items():
        field = PrimeField(p)
        paths = []
        for i in range(FORM_POOL):
            M = random_invertible(p, n, op_rng(seed, kind, i))
            form = QuadraticForm(field, n, transform_form(p, n, coeffs, M))
            paths.append(write(f"{kind}_{i}.json", dump_canonical(form_to_json(form))))
        files[kind] = paths
    ctx.update(files=files, runner=CliRunner(), main=main)


def _verify_cli_kind(name, count, nominal_ms):
    def make(rng, ctx):
        return ctx["files"][name][rng.randrange(POOL)]

    def run(path, ctx):
        return ctx["call"]("cli.invoke", ctx["runner"].invoke, ctx["main"],
                           ["verify", "--witness", path, "--exhaustive"])

    def check(path, result, ctx):
        ok = (result.exit_code == 0 and result.exception is None
              and result.output.startswith("pass: "))
        return ok, canonical([os.path.basename(path), result.exit_code, result.output])

    return Kind(name, count, nominal_ms, make, run, check)


def _hgraph_cli_kind(name, count, nominal_ms):
    expected_vertices = HGRAPH_FORMS[name][3]

    def make(rng, ctx):
        return ctx["files"][name][rng.randrange(FORM_POOL)]

    def run(path, ctx):
        out = Path(ctx["workdir"]) / f"{name}.graph.json"
        result = ctx["call"]("cli.invoke", ctx["runner"].invoke, ctx["main"],
                             ["hgraph", "--model", "quadric", "--form", path,
                              "--n", "2", "--out", str(out)])
        return result, out

    def check(path, res, ctx):
        result, out = res
        graph = out.read_bytes()
        report = json.loads(graph)
        ok = (result.exit_code == 0 and result.exception is None
              and report["vertices"] == expected_vertices and report["components"] == 1
              and result.output.startswith(f"{expected_vertices} vertices, "))
        return ok, canonical([os.path.basename(path), result.exit_code,
                              result.output]) + graph

    return Kind(name, count, nominal_ms, make, run, check)


def kinds_audit_cli():
    return [
        _verify_cli_kind("verify_quadric_f9", 2, 1.0),
        _hgraph_cli_kind("hgraph_f3_conic", 1, 11.9),
        _verify_cli_kind("verify_ideals_m4f5", 4, 12.3),
        _verify_cli_kind("verify_ideals_m3f9", 1, 12.4),
        _verify_cli_kind("verify_exp2_m4f7", 1, 64),
        _hgraph_cli_kind("hgraph_f2_surface", 1, 104),
        _hgraph_cli_kind("hgraph_f5_conic", 1, 170),
    ]


# The kinds a run's median and tail sample may fall on: one kind, or a tier
# of kinds whose latencies are close enough to interleave.  steady.py fails
# a run whose quantiles land elsewhere.
QUANTILE_KINDS = {
    "build_fp": {"median": {"ideals_m4f5_r2"}, "tail": {"exp2_m4f7", "ideals_m6f7"}},
    "build_q": {"median": {"etale_m2q"}, "tail": {"exp2_hxs"}},
    "audit_cli": {"median": {"hgraph_f3_conic", "verify_ideals_m4f5", "verify_ideals_m3f9"},
                  "tail": {"hgraph_f5_conic"}},
}


WORKLOADS = {
    "build_fp": (setup_build_fp, kinds_build_fp),
    "build_q": (setup_build_q, kinds_build_q),
    "audit_cli": (setup_audit_cli, kinds_audit_cli),
}


def digest(outputs):
    h = hashlib.sha256()
    for kind_name, data in outputs:
        h.update(kind_name.encode())
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()
