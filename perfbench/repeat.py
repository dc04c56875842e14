#!/usr/bin/env python3
"""Repeat perfbench/run.py over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload e6_p3_cli --seeds 1-10 \
        --seconds 10 [--trace 0|1] [--out FILE]

Run from the root of a checkout.  Runs one after another, each with its
own seed, and prints for every metric the median, the quartiles and the
spread (interquartile distance over the median) of the per-run values,
as statistics.quantiles(values, n=4) gives them.  --out also writes the
summary and every run's values, stamp and printed report as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--out")
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("need at least two seeds for quartiles")

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace], capture_output=True, text=True)
        lines = proc.stdout.strip().split("\n")
        if proc.returncode != 0 or not lines[-1].startswith('{"correct"'):
            print(f"seed {seed}: run failed (exit {proc.returncode})\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["stamp"] = json.loads(lines[0])["stamp"]
        result["log"] = lines[1:-1]
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in
                         list(result["metrics"].items())[:4]), flush=True)

    metrics = {}
    for name, m in runs[0]["metrics"].items():
        metrics[name] = dict(summary([r["metrics"][name]["value"]
                                      for r in runs]), unit=m["unit"])
    for name, s in metrics.items():
        spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{name:28s} median {s['median']:.6g} {s['unit']:6s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread} "
              f"(n={s['n']})")
    ok = all(r["correct"] for r in runs)
    print(f"all runs correct: {ok}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "all_correct": ok,
                       "metrics": metrics, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
