"""How often the build_q benchmark converts between Fractions and ints.

Over Q the integer kernels (Algebra._int_mul, linalg's _int_echelon and the
int_* functions) work on (ints, scale) pairs, and Rationals.lift_vector,
lift_rows and lower_vector convert to and from Fraction tuples.  A value
that one int kernel produces and another consumes stays lifted, and is
lowered where it leaves the library.  This test counts the three calls in
the timed operations (kind.run) of the first two seed-1 build_q cycles of
perfbench, loaded as tests/test_bench_digests.py loads it, and pins each
cycle's total, so that a conversion added or removed shows up here.

Counted by site on the seed-1 cycles, first cycle / second cycle.  The first
builds each setup algebra's default symplectic involution once; the second
is what every later cycle makes.

    site                                  before          after
    etale power basis (generate_etale)    336 / 336       42 / 42
    commutator and sandwich kernels       174 / 174       23 / 25
    ModulePresentation.d_rows             136 / 136       15 / 15
    witness._pencil_vectors_at             93 / 93         9 / 9
    everything else                       437 / 275      304 / 182
    total                                1176 / 1014     393 / 273

"Before" is the tree where every kernel lowered its result and the next
lifted it again: the powers and rref basis of each etale subalgebra, each
commutator row of connect_exp2 and each D-row were lowered, and each
vector of a pencil at t was lifted once per pair.  "After": an etale
subalgebra keeps its powers, basis and minimal polynomial lifted and lifts
its element once; the commutator rows go to an int kernel that lowers only
the kernel vectors, once; a twisted involution keeps its matrix lifted;
the D-rows of a set of vectors are int products of the vectors lifted
once; and a pencil's endpoints are its stored vectors.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CONVERSIONS_PER_CYCLE = [393, 273]


def test_seed_1_build_q_conversions_per_cycle(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("run", None)
    run = importlib.import_module("run")
    run.workloads.load_package()
    from csawitness.fields import QQ
    timed = [False]
    calls = []
    # on the one Rationals instance, QQ, which an instance attribute left by
    # another test's monkeypatch would shadow a class patch on
    for name in ("lift_vector", "lift_rows", "lower_vector"):
        def counted(*args, _orig=getattr(QQ, name)):
            if timed[0]:
                calls[-1] += 1
            return _orig(*args)
        monkeypatch.setattr(QQ, name, counted)
    kinds, ctx = run.setup("build_q", 1, tmp_path)
    ops_per_cycle = len(run.workloads.cycle_order(kinds))
    done = [0]

    def timed_run(kind_run):
        def wrapped(inp, ctx):
            if done[0] % ops_per_cycle == 0:
                calls.append(0)
            timed[0] = True
            try:
                return kind_run(inp, ctx)
            finally:
                timed[0] = False
                done[0] += 1
        return wrapped

    for kind in kinds:
        monkeypatch.setattr(kind, "run", timed_run(kind.run))
    _, attempted, failed, _ = run.run_loop("build_q", 1, kinds, ctx, cycles=2)
    assert attempted == 2 * ops_per_cycle and failed == 0
    assert calls == CONVERSIONS_PER_CYCLE
