#!/usr/bin/env python3
"""Freeze the reference outputs that perfbench/run.py checks against.

    python3 perfbench/freeze.py

Run from the root of a checkout at the commit whose outputs are the
reference.  Every command any workload can issue runs once as a fresh
`python -m gammaflag` process; its exit code and stdout sha256 are
recorded.  Then one traced pass of every workload variant runs against
those digests (so the in-process session capture must give the same bytes
as a pipe), and its exact counters are recorded; they must agree across
variants.  Writes perfbench/catalogue.json.
"""

from __future__ import annotations

import json
import random
import sys
import time

import run


def main() -> int:
    argvs = {run.argv_key(run.RSS_CHECK_ARGV): run.RSS_CHECK_ARGV}
    for n_variants, build in run.WORKLOADS.values():
        for variant in range(n_variants):
            for kind, _, arg in build(variant, random.Random(0)):
                for argv in ([arg] if kind == "cli" else arg):
                    argvs[run.argv_key(argv)] = argv
    recorder = run.Runner(None, time.monotonic() + 3600)
    for argv in argvs.values():
        recorder.cli(argv, False)
    commands = recorder.recorded
    bad = [k for k, v in commands.items() if v["rc"] != 0]
    if recorder.failed or bad:
        print("freeze: commands failed:", recorder.notes, bad,
              file=sys.stderr)
        return 1

    checker = run.Runner(commands, time.monotonic() + 3600)
    counts = {}
    for name, (n_variants, build) in run.WORKLOADS.items():
        seen = []
        for variant in range(n_variants):
            selfs, counts_seen = {}, {}
            for step in build(variant, random.Random(0)):
                res = run.run_step(checker, step, True)
                for span, t in res.get("selfs", {}).items():
                    selfs[span] = selfs.get(span, 0.0) + t
                for c, n in res.get("counts", {}).items():
                    counts_seen[c] = counts_seen.get(c, 0) + n
            seen.append(run.count_metrics(
                run.layer_metrics(selfs, counts_seen)))
        if any(c != seen[0] for c in seen):
            print(f"freeze: {name}: counts differ between variants: {seen}",
                  file=sys.stderr)
            return 1
        counts[name] = seen[0]
    if checker.failed:
        print("freeze: traced passes disagree with the digests:",
              checker.notes, file=sys.stderr)
        return 1

    with open(run.CATALOGUE, "w") as fh:
        json.dump({"commands": commands, "counts": counts}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"froze {len(commands)} commands and counts of "
          f"{len(counts)} workloads into {run.CATALOGUE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
