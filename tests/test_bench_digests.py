"""The benchmark's operations produce the recorded output, byte for byte.

perfbench/run.py hashes the output of the first two cycles of each workload
into `output_digest`.  A change that only makes the program faster must leave
those bytes alone; this test pins the seed-1 digests so that a change of
output fails the suite instead of waiting for a benchmark run.  It imports
the benchmark's run.py and workloads.py as they are.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SEED_1_DIGESTS = {
    "build_fp": "23189bca5757f8267c1568b76e3f06a2187b550d280d76aaa9992ca9e7780d05",
    "build_q": "641bbe35a127adbc316847e071c02657b80ecbf63ab77ec8742e5daa7af2e040",
    "audit_cli": "ddd0170fbe23b21d108574e030fa4a3babdf2713a3565460403f1323e3869ea8",
}


def load_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("run", None)
    return importlib.import_module("run")


@pytest.mark.parametrize("name", sorted(SEED_1_DIGESTS))
def test_seed_1_output_digest(name, monkeypatch, tmp_path):
    run = load_run(monkeypatch)
    run.workloads.load_package()  # csawitness from this checkout's src/
    kinds, ctx = run.setup(name, 1, tmp_path)
    _, attempted, failed, outputs = run.run_loop(name, 1, kinds, ctx, cycles=2)
    assert attempted and failed == 0
    assert run.workloads.digest(outputs) == SEED_1_DIGESTS[name]
