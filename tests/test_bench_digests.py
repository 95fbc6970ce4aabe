"""The benchmark's operations produce the recorded output, byte for byte.

perfbench/run.py hashes the output of the first two cycles of each workload
into `output_digest`.  A change that only makes the program faster must leave
those bytes alone; this test pins the seed-1 digests so that a change of
output fails the suite instead of waiting for a benchmark run, and the
digests at seeds 2, 3 and 9001 as well, which a change of output is checked
against too.  It imports the benchmark's run.py and workloads.py as they are.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SEED_1_DIGESTS = {
    "build_fp": "23189bca5757f8267c1568b76e3f06a2187b550d280d76aaa9992ca9e7780d05",
    "build_q": "4e34daf0f308e2803df63ddc01d141ed69a2efb2053a75611f542944badd5138",
    "audit_cli": "566f14f1031c1c1711408185950f2fa84cfe59049df9f30b4ec8afcf12ed2f3f",
}

MORE_DIGESTS = {
    2: {
        "build_fp": "232e3b49a69f279f6846d39eed62f7af1941a0958ae822cbcd716070e3dc13bb",
        "build_q": "cbd42f65435f22aaf032451798e39c891c3b65f169dc9825fd8586f8d5615f6b",
        "audit_cli": "d4f1c805ba865025961c64156eab4183203eb72ee0a42e6ef88c38261691b122",
    },
    3: {
        "build_fp": "92832784ad4ebf5311b6ef43e76e49fb466375855fb7d5bc4d7085d108439310",
        "build_q": "786e05f03c27fef69123c380195d4c2e336622b201fb7588513f19e6f87a9de1",
        "audit_cli": "d9005dcbbde9b189b2891804b0c3bf959e8bef656f2be1131118a9abe002128b",
    },
    9001: {
        "build_fp": "2486d14417a8826add6dc3968a3405ef2a5eb1a7d13f9bada492404cdf3b7531",
        "build_q": "b8d3857160fa43b1c5337d726c077d62f413e459d444dfcba5f04f68879e933c",
        "audit_cli": "3f1c169e2d9631e03e99fa66c964bfa6c54446849293e826457737c7248a122d",
    },
}


def load_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("run", None)
    return importlib.import_module("run")


def output_digest(name, seed, monkeypatch, tmp_path):
    """The digest of the first two cycles of a workload at a seed."""
    run = load_run(monkeypatch)
    run.workloads.load_package()  # csawitness from this checkout's src/
    kinds, ctx = run.setup(name, seed, tmp_path)
    _, attempted, failed, outputs = run.run_loop(name, seed, kinds, ctx, cycles=2)
    assert attempted and failed == 0
    return run.workloads.digest(outputs)


@pytest.mark.parametrize("name", sorted(SEED_1_DIGESTS))
def test_seed_1_output_digest(name, monkeypatch, tmp_path):
    assert output_digest(name, 1, monkeypatch, tmp_path) == SEED_1_DIGESTS[name]


@pytest.mark.parametrize("seed, name", [(seed, name) for seed in sorted(MORE_DIGESTS)
                                        for name in sorted(MORE_DIGESTS[seed])])
def test_output_digest_at_more_seeds(seed, name, monkeypatch, tmp_path):
    assert output_digest(name, seed, monkeypatch, tmp_path) == MORE_DIGESTS[seed][name]
