"""The benchmark's traced child still finds the library names it wraps.

Traced mode patches classes and functions by attribute name, so a rename
in the library breaks it; this runs one small traced command end to end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MARKER = "perfbench-child "


def test_traced_child_reports_the_library_spans():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "cli", "--trace",
         "verify-theorem", "--type", "A2", "--prime", "3", "--index", "9",
         "--no-banner"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    reports = [json.loads(line[len(MARKER):])
               for line in proc.stderr.splitlines()
               if line.startswith(MARKER)]
    assert len(reports) == 1, proc.stderr
    names = {span[0] for span in reports[0]["spans"]}
    assert {"kgamma.steinberg", "rootdata.lattice"} <= names
