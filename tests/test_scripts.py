"""The example scripts run end to end at their smallest settings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120, env=env)


@pytest.mark.parametrize("script,args,header", [
    ("e6_index_sweep.py", ["--max-d", "0", "--degree-cap", "1"],
     "index\tcommon\tj1\tdim m=1"),
    ("split_vs_twisted.py", ["--types", "A2", "--primes", "3",
                             "--degree-cap", "1"],
     "type\tp\tindex\tdegree\tdim split\tdim twisted"),
])
def test_script_runs_and_prints_its_header(script, args, header):
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()


@pytest.mark.parametrize("args,reason", [
    (["--types", "A2", "--primes", "4"], "modulus 4 is not prime"),
    (["--types", "Q9"], "unknown type letter 'Q'"),
    (["--types", "E8"], "exceeds the size guard"),
    # a bad entry after a good one still prints nothing
    (["--types", "A2", "Q9"], "unknown type letter 'Q'"),
    (["--types", "A2", "--primes", "3", "4"], "modulus 4 is not prime"),
])
def test_split_vs_twisted_names_a_bad_input_and_exits_2(args, reason):
    proc = run_script("split_vs_twisted.py", *args, "--degree-cap", "1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert reason in proc.stderr and "Traceback" not in proc.stderr
