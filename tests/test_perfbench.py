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


def traced_report(*args: str) -> dict:
    """The report of one traced ``perfbench/child.py cli`` run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "cli", "--trace", *args,
         "--no-banner"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    reports = [json.loads(line[len(MARKER):])
               for line in proc.stderr.splitlines()
               if line.startswith(MARKER)]
    assert len(reports) == 1, proc.stderr
    return reports[0]


def traced_span_names(*args: str) -> set[str]:
    """Span names of one traced ``perfbench/child.py cli`` run."""
    return {span[0] for span in traced_report(*args)["spans"]}


def test_traced_child_reports_the_library_spans():
    names = traced_span_names("verify-theorem", "--type", "A2", "--prime",
                              "3", "--index", "9")
    assert {"kgamma.steinberg", "rootdata.lattice"} <= names


def test_traced_child_reports_the_formal_bundle_spans():
    names = traced_span_names("oracle", "--verify", "gammatoc",
                              "--max-bundles", "2", "--max-mult", "2",
                              "--max-i", "2")
    assert "formal_bundles.gammatoc" in names


def test_traced_child_reports_the_weyl_enumeration():
    report = traced_report("weyl", "--type", "A2")
    assert "weyl.enumerate" in {span[0] for span in report["spans"]}
    assert report["counts"]["weyl.elements"] == 6


def test_traced_e6_image_keeps_the_frozen_counters():
    # the BFS and the Steinberg walk stop at 77 elements here, but the
    # frozen weyl.elements counter reads len(group), the order of W, and
    # the other counters the filled degrees
    report = traced_report("restriction-image", "--type", "E6", "--prime",
                           "5", "--index", "25", "--degree", "2")
    counts = report["counts"]
    assert counts["weyl.elements"] == 51840
    assert counts["kgamma.pivots.m1"] == 6
    assert counts["kgamma.pivots.m2"] == 20
    assert counts["kgamma.ideal_dim.m2"] == 20
    assert "kgamma.steinberg" in {span[0] for span in report["spans"]}


def test_traced_e6_verify_theorem_keeps_the_frozen_counters():
    # the pass stops at its root-lattice ceiling mod 3, 5 of 6 dimensions,
    # so the walk reads 77 elements; every frozen counter is unchanged
    report = traced_report("verify-theorem", "--type", "E6", "--prime", "3",
                           "--index", "9", "--max-degree", "3")
    counts = report["counts"]
    assert counts["weyl.elements"] == 51840
    for m, (basis, pivots, ideal) in enumerate(
            [(6, 5, 5), (20, 14, 19), (50, 30, 49)], start=1):
        assert counts[f"schubert.basis_dim.m{m}"] == basis
        assert counts[f"kgamma.pivots.m{m}"] == pivots
        assert counts[f"kgamma.ideal_dim.m{m}"] == ideal
