"""How often the build_q benchmark converts between Fractions and ints.

Over Q the integer kernels (Algebra._int_mul, linalg's _int_echelon and the
int_* functions) work on ints, handed between linalg's kernels as the lift
of one linalg.Matrix value, and Rationals.lift_vector, lift_rows and
lower_vector convert to and from Fraction tuples.  A value that one int
kernel produces and another consumes stays lifted, and is lowered where it
leaves the library.  This test counts the three calls in
the timed operations (kind.run) of the first two seed-1 build_q cycles of
perfbench, loaded as tests/test_bench_digests.py loads it, and pins each
cycle's total, so that a conversion added or removed shows up here.

Counted by site on the seed-1 cycles, first cycle / second cycle.  The first
builds each setup algebra's default symplectic involution once; the second
is what every later cycle makes.

    site                                    pairs         one Matrix
    module presentation eliminations        61 / 61       32 / 31
    RightIdeal and splitting_idempotent      6 / 6         4 / 4
    involutions.sym_basis                    6 / 6         1 / 1
    everything else                        320 / 200     320 / 200
    total                                  393 / 273     357 / 236

The module presentation eliminations are ideal_from_subspace,
image_subspace, d_basis_of and the D-rows they eliminate.  "Pairs" is the
tree where the kernels handed ints on as (ints, scale) pairs and
lift_matrix results: rref lowered each basis row in a call of its own,
d_basis_of lowered each grown span and lifted it back for its membership
tests, every RightIdeal lifted its basis when built, and sym_basis lowered
each rref row.  "One Matrix": rref returns its basis as a lifted Matrix,
lowered in one call on its first read; d_basis_of tests membership on that
lift; a RightIdeal keeps the Matrix it was built from and lifts it only
for a membership test or a splitting idempotent.  An earlier tree, where
every kernel lowered its result and the next lifted it again, made 1176 /
1014.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CONVERSIONS_PER_CYCLE = [357, 236]


def test_seed_1_build_q_conversions_per_cycle(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("run", None)
    run = importlib.import_module("run")
    run.workloads.load_package()
    from csawitness.fields import Rationals
    timed = [False]
    calls = []
    for name in ("lift_vector", "lift_rows", "lower_vector"):
        def counted(*args, _orig=getattr(Rationals, name)):
            if timed[0]:
                calls[-1] += 1
            return _orig(*args)
        monkeypatch.setattr(Rationals, name, counted)
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
