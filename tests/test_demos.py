"""The demo scripts run and print exactly what they printed when pinned.

Each demo runs in a subprocess with the package source on PYTHONPATH; the
digests are the sha256 of its stdout.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "01_splitting_idempotents.py":
        "d7119ef02ffe1236aff5eb97f3f56b4736dceedba3562b12c74216e17624764f",
    "02_ideal_pencils.py":
        "bb7c5a3413a0467e20f6ab030ea907f2439120b1cc52df8dc6ced0f0dcd2f59a",
    "03_etale_types_and_lines.py":
        "ff11e63537baa0ec4e170fbab4870eeefa0370f007f12f2930f401c861bbe76d",
    "04_exponent_two_chain.py":
        "215fe3fcb263fc9ee4ab5005cbab623c7cfdd18920f9d7204cd57af09113ee11",
    "05_quadrics_and_cycles.py":
        "93afcb7fe3e00da8a20eb036a07433003adb38da35c535244175fd8037958e96",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
