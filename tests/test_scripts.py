"""The example scripts run end to end at their smallest settings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,header", [
    ("e6_index_sweep.py", ["--max-d", "0", "--degree-cap", "1"],
     "index\tcommon\tj1\tdim m=1"),
    ("split_vs_twisted.py", ["--types", "A2", "--primes", "3",
                             "--degree-cap", "1"],
     "type\tp\tindex\tdegree\tdim split\tdim twisted"),
])
def test_script_runs_and_prints_its_header(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()
