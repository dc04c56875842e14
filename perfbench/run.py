#!/usr/bin/env python3
"""Benchmark of the gammaflag command line and library.

Run from the root of a checkout (the package is taken from ./src):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Load: a closed loop with one client.  Each command starts after the
previous one has returned, so only one command runs at a time.  A run
cycles through its workload's steps (one pass is one round of them) until
``--seconds`` have elapsed, and reports each step's median over its runs;
a pass time is the sum of its steps' medians.  End-to-end times are
corrected for host drift by a fixed reference job timed between the steps
(see REF_S); the unscaled times are printed too.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs each step untraced and then traced, in which case
child.py wraps the public library API in spans, and reports the
per-layer metrics.  Metric names and units come from BENCHMARK.json.

Every command's stdout is checked against a sha256 and exit code frozen
in catalogue.json (see freeze.py), and the exact counters of the traced
run against frozen counts.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it say
what was run and print each metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
CATALOGUE = os.path.join(HERE, "catalogue.json")
CMD_TIMEOUT = 120.0  # one command
HARD_LIMIT = 170.0   # the whole run: later commands are cut to fit
MB = 1024.0          # VmHWM is in kB
# The host's speed drifts by a third over minutes (seen on a 2-vCPU cloud
# VM), far past any bound on a raw time.  So a run also times a fixed
# reference job (``reference``, in this process) between steps, for about
# 1/REF_EVERY of the time the steps take, and every end-to-end time is
# reported as measured wall * (REF_S / the run's median reference wall)
# ** REF_POWER.  The power is 1/2 because the E6 commands follow the
# reference's drift only about half as much as the small types do: over
# ten sets of 5-10 runs, the largest quartile spread of wall_s or main_s
# was 0.29 with full scaling (on E6), 0.27 with none (on every workload,
# in drifting phases) and 0.17 with half.  REF_S is about the
# reference's wall on a quiet host; REF_S and REF_POWER are fixed for
# good, since changing either rescales every recorded time.
REF_S = 0.2
REF_POWER = 0.5
REF_EVERY = 5
WARMUP_S = 1.0  # of untimed reference jobs before a run's first step

# -- workloads --
#
# A pass is a list of steps (kind, role, argv or argv list).  "cli" runs
# one fresh `python -m gammaflag` process; "session" runs several commands
# in one fresh process through gammaflag.cli.main.  Role "probe" is the
# set-up probe (setup_s), role "main" the workload's main command (main_s).


def e6_probe(p: int) -> list[str]:
    # split model, degree 1: interpreter start, import, root data, the full
    # Weyl traversal, the Steinberg weights and key dedup, and almost no
    # work of degree >= 2
    return ["restriction-image", "--type", "E6", "--prime", str(p),
            "--degree", "1", "--format", "tsv"]


def e6_p3_cli(variant: int, rng: random.Random) -> list:
    i = str((9, 27)[variant])
    return [
        ("cli", "probe", e6_probe(3)),
        ("cli", "main", ["verify-theorem", "--type", "E6", "--prime", "3",
                         "--index", i, "--max-degree", "3",
                         "--format", "json"]),
        ("cli", "", ["jconstrain", "--type", "E6", "--prime", "3",
                     "--index", i]),
        ("cli", "", ["steinberg", "--type", "E6", "--format", "tsv"]),
    ]


def e6_p5_image(variant: int, rng: random.Random) -> list:
    j = str((25, 125)[variant])
    return [
        ("cli", "probe", e6_probe(5)),
        ("cli", "main", ["restriction-image", "--type", "E6", "--prime", "5",
                         "--index", j, "--degree", "2",
                         "--format", "pretty"]),
    ]


SMALL_TYPES = ("A1/2", "A2/3", "A3/2", "A4/5", "A5/2", "A5/3", "B2/2",
               "B3/2", "B4/2", "B5/2", "C3/2", "C4/2", "C5/2", "D4/2", "D5/2")
SMALL_PROBE = ["restriction-image", "--type", "B5", "--prime", "2",
               "--degree", "1", "--format", "tsv"]


def small_catalogue() -> list[list[str]]:
    cat = []
    for entry in SMALL_TYPES:
        t, p = entry.split("/")
        q = int(p)
        for index in (q, q * q):
            cat.append(["verify-theorem", "--type", t, "--prime", p,
                        "--index", str(index), "--format", "json"])
        cat.append(["restriction-image", "--type", t, "--prime", p,
                    "--index", p, "--degree", str(min(q, 3)),
                    "--format", "pretty"])
    for t, d in (("B4", 8), ("D5", 8), ("A5", 8), ("F4", 8), ("G2", 5)):
        cat.append(["chow", "--type", t, "--degree", str(d), "--basis",
                    "--products", "--format", "pretty"])
    cat.append(["jconstrain", "--type", "E6", "--prime", "3", "--index", "9",
                "--format", "pretty"])
    cat.append(["oracle", "--verify", "firsteq", "--max-i", "5",
                "--max-n", "6", "--format", "pretty"])
    cat.append(["oracle", "--verify", "gammatoc", "--max-bundles", "6",
                "--max-mult", "3", "--max-i", "4", "--format", "pretty"])
    cat.append(["oracle", "--verify", "binomial", "--max-mult", "6",
                "--format", "pretty"])
    return cat


def small_session(variant: int, rng: random.Random) -> list:
    # every pass runs the whole catalogue, in a fresh seeded order, so the
    # seed moves the order and not the amount of work
    cat = small_catalogue()
    rng.shuffle(cat)
    return [("cli", "probe", SMALL_PROBE), ("session", "main", cat)]


# name -> (number of seed-chosen variants, pass builder)
WORKLOADS = {
    "e6_p3_cli": (2, e6_p3_cli),
    "e6_p5_image": (2, e6_p5_image),
    "small_session": (1, small_session),
}
RSS_CHECK_ARGV = ["rootinfo", "--type", "A2", "--format", "tsv"]

# -- per-layer metric families --

SPAN_LAYERS = (
    "rootdata.root_system", "rootdata.lattice", "brauer.model",
    "brauer.common_index", "weyl.enumerate", "weyl.truncated",
    "kgamma.steinberg", "kgamma.engine_init", "kgamma.image", "kgamma.ideal",
    "schubert.char_ideal", "schubert.products", "jinv.kac_presentation",
    "jinv.j1_constraints", "jinv.report", "formal_bundles.firsteq",
    "formal_bundles.gammatoc", "formal_bundles.binomial",
)
COUNTERS = ("weyl.elements", "kgamma.pivots", "kgamma.ideal_dim",
            "schubert.basis_dim")
# these are also reported per degree, as .m1 .. .m3; higher degrees count
# only in the totals
BY_DEGREE = ("kgamma.image", "kgamma.ideal", "schubert.char_ideal",
             "kgamma.pivots", "kgamma.ideal_dim", "schubert.basis_dim")
PER_DEGREE = 3
_DEGREE = re.compile(r"^(.*)\.m(\d+)$")


def argv_key(argv: list[str]) -> str:
    return " ".join(argv)


def self_times(spans: list) -> dict[str, float]:
    """Self time per span name: duration minus the children's durations."""
    dur = [end - start for _, start, end, _ in spans]
    own = list(dur)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            own[parent] -= dur[i]
    out: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        out[name] = out.get(name, 0.0) + t
    return out


def layer_metrics(selfs: dict[str, float],
                  counts: dict[str, int]) -> dict[str, float]:
    """Fold span self times and counters into the per-layer metric names."""
    out: dict[str, float] = {}
    for base in SPAN_LAYERS:
        out[base + "_s"] = 0.0
    for base in COUNTERS:
        out[base] = 0
    for base in BY_DEGREE:
        key = base + "_s" if base in SPAN_LAYERS else base
        for m in range(1, PER_DEGREE + 1):
            out[f"{key}.m{m}"] = 0.0 if base in SPAN_LAYERS else 0
    for name, t in selfs.items():
        hit = _DEGREE.match(name)
        base = hit.group(1) if hit else name
        if base not in SPAN_LAYERS:
            raise RuntimeError(f"span {name!r} belongs to no layer metric")
        out[base + "_s"] += t
        if hit and int(hit.group(2)) <= PER_DEGREE:
            out[f"{base}_s.m{hit.group(2)}"] += t
    for name, k in counts.items():
        hit = _DEGREE.match(name)
        base = hit.group(1) if hit else name
        if base not in COUNTERS:
            raise RuntimeError(f"counter {name!r} belongs to no metric")
        out[base] += k
        if hit and int(hit.group(2)) <= PER_DEGREE:
            out[name] += k
    return out


def count_metrics(metrics: dict[str, float]) -> dict[str, int]:
    """The exact counters among the metrics."""
    out = {}
    for key, v in metrics.items():
        hit = _DEGREE.match(key)
        if (hit.group(1) if hit else key) in COUNTERS:
            out[key] = v
    return out


# -- running commands --


class Runner:
    """Runs child processes one at a time and checks what they print."""

    def __init__(self, expected: dict | None, deadline: float):
        self.expected = expected  # None: record digests instead (freeze.py)
        self.recorded: dict[str, dict] = {}
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        src = os.path.abspath("src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]]
                     if os.environ.get("PYTHONPATH") else []))

    def _timeout(self) -> float:
        return max(1.0, min(CMD_TIMEOUT, self.deadline - time.monotonic()))

    def _fail(self, argv: list[str], why: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(f"{argv_key(argv)}: {why}")

    def check(self, argv: list[str], rc: int, digest: str) -> None:
        self.attempted += 1
        if self.expected is None:
            self.recorded[argv_key(argv)] = {"rc": rc, "sha256": digest}
            return
        want = self.expected.get(argv_key(argv))
        if want is None:
            self._fail(argv, "no frozen output for this command")
        elif rc != want["rc"]:
            self._fail(argv, f"exit code {rc}, expected {want['rc']}")
        elif digest != want["sha256"]:
            self._fail(argv, "stdout differs from the frozen digest")

    def _spawn(self, args: list[str], stdin: bytes | None):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, *args], input=stdin,
                capture_output=True, env=self.env, timeout=self._timeout())
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, proc

    def cli(self, argv: list[str], trace: bool):
        """One fresh `python -m gammaflag ARGV`: (wall, child report)."""
        wall, proc = self._spawn(
            ["cli", *(["--trace"] if trace else []), *argv], None)
        if proc is None:
            self.attempted += 1
            self._fail(argv, "timed out")
            return wall, None
        self.check(argv, proc.returncode,
                   hashlib.sha256(proc.stdout).hexdigest())
        tail = proc.stderr.decode(errors="replace").rstrip("\n")
        line = tail.rsplit("\n", 1)[-1]
        if not line.startswith("perfbench-child "):
            self.notes.append(f"{argv_key(argv)}: no child report: "
                              f"{tail[-300:]}")
            return wall, None
        return wall, json.loads(line[len("perfbench-child "):])

    def session(self, argvs: list[list[str]], trace: bool):
        """ARGVS in one fresh process: (wall, child report)."""
        wall, proc = self._spawn(
            ["session", *(["--trace"] if trace else [])],
            json.dumps(argvs).encode())
        report = None
        if proc is not None and proc.returncode == 0:
            try:
                report = json.loads(proc.stdout.decode().rsplit("\n", 2)[-2])
            except (ValueError, IndexError):
                pass
        if report is None:
            why = ("timed out" if proc is None else
                   f"session exited {proc.returncode}: "
                   f"{proc.stderr.decode(errors='replace')[-300:]}")
            for argv in argvs:
                self.attempted += 1
                self._fail(argv, why)
            return wall, None
        for argv, res in zip(argvs, report["results"]):
            self.check(argv, res["rc"], res["sha256"])
            if res["rc"] and res["stderr"]:
                self.notes.append(f"{argv_key(argv)}: {res['stderr']}")
        return wall, report


def reference(n: int = 8) -> tuple[int, int]:
    """A fixed pure-Python job that does not depend on gammaflag: the
    breadth-first closure of the permutations of n points under adjacent
    transpositions, with a dict of word lengths, then an integer fold over
    it.  Its work resembles the Weyl traversal (tuples, dicts, small ints),
    so its wall time tracks how fast the host runs such code right now.
    Never change it: the end-to-end times are scaled by it."""
    start = tuple(range(n))
    seen = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            d = seen[p] + 1
            for i in range(n - 1):
                q = p[:i] + (p[i + 1], p[i]) + p[i + 2:]
                if q not in seen:
                    seen[q] = d
                    nxt.append(q)
        frontier = nxt
    acc = 0
    for p, d in seen.items():
        acc = (acc * 31 + d * p[0] + p[-1]) % 1_000_003
    return len(seen), acc


def time_reference() -> float:
    """Wall time of one run of the reference job, checked."""
    t0 = time.perf_counter()
    out = reference()
    wall = time.perf_counter() - t0
    if out != (40320, 486512):
        raise RuntimeError(f"reference job gave {out}")
    return wall


def run_step(runner: Runner, step: tuple, trace: bool) -> dict:
    """Run one step; its wall time is measured here, outside the child."""
    kind, _, arg = step
    run = runner.cli if kind == "cli" else runner.session
    wall, rep = run(arg, trace)
    res = {"wall": wall, "rss_kb": rep["vmhwm_kb"] if rep else 0}
    if trace and rep is not None:
        spans = rep["spans"]
        inside = sum(e - s for _, s, e, parent in spans if parent < 0)
        res.update(outside=wall - inside, selfs=self_times(spans),
                   counts=rep["counts"])
    return res


def run_steps(runner: Runner, build, variant: int, rng: random.Random,
              seconds: float, trace: bool) -> tuple[list, list, list]:
    """Cycle through the workload's steps, one command at a time, until
    ``seconds`` have elapsed; with ``trace`` each step runs untraced and
    then traced.  The reference job runs before every step, more often
    before long ones (see REF_EVERY).  Every step runs at least once.
    After that a step starts only if its last duration still fits before
    the deadline, so a run ends close to ``seconds`` whatever its steps
    cost.  Returns the steps, per step {traced: [run_step results]}, and
    the reference walls."""
    modes = (False, True) if trace else (False,)
    steps = build(variant, rng)
    done = [{m: [] for m in modes} for _ in steps]
    refs: list[float] = []
    t0 = time.monotonic()
    while time.monotonic() - t0 < WARMUP_S:
        time_reference()
    t0 = time.monotonic()
    i = 0
    while True:
        k = i % len(steps)
        n_ref = 1
        if i >= len(steps):
            step = sum(done[k][m][-1]["wall"] for m in modes)
            n_ref = max(1, round(step / (REF_EVERY * refs[-1])))
            if time.monotonic() - t0 + n_ref * refs[-1] + step > seconds:
                break
            if k == 0:  # a new pass: the seed may order it afresh
                steps = build(variant, rng)
        refs.extend(time_reference() for _ in range(n_ref))
        for m in modes:
            done[k][m].append(run_step(runner, steps[k], m))
        i += 1
    return steps, done, refs


# -- run-level measurements --


def calibrate() -> float:
    """A fixed pure-Python loop, reported as host drift, never used to
    rescale anything."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def rss_selfcheck(runner: Runner) -> tuple[bool, str]:
    """The VmHWM a child reports must not depend on the runner's own RSS:
    read a small command's peak before and after the runner grows by
    128 MB.  Returns (passed, what was seen)."""
    _, before = runner.cli(RSS_CHECK_ARGV, False)
    ballast = bytearray(b"\x01") * (128 << 20)
    _, after = runner.cli(RSS_CHECK_ARGV, False)
    del ballast
    if before is None or after is None:
        return False, "rss self-check: child gave no report"
    a, b = before["vmhwm_kb"] / MB, after["vmhwm_kb"] / MB
    return (abs(a - b) <= 4.0 and b <= 64.0,
            f"rss self-check: child peak {a:.2f} MB alone, {b:.2f} MB "
            "beside a 128 MB runner")


def git_rev() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "none"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(".git", ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(seed: int) -> dict:
    files = sorted(
        os.path.join(d, f) for d, _, fs in os.walk(os.path.join("src",
                                                                "gammaflag"))
        for f in fs if f.endswith(".py"))
    digest = hashlib.sha256()
    loc = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(path.encode() + b"\0" + data)
        loc += data.count(b"\n")
    return {
        "seed": seed, "git_rev": git_rev(),
        "src_sha256": digest.hexdigest()[:16], "src_loc": loc,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 catalogue: dict, spec: dict, t_start: float) -> dict:
    n_variants, build = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    variant = rng.randrange(n_variants)
    runner = Runner(catalogue["commands"], t_start + HARD_LIMIT)
    problems = []
    calib = calibrate()

    steps, done, refs = run_steps(runner, build, variant, rng, seconds,
                                  trace)

    # after the steps, so that the ballast cannot disturb them
    rss_ok, rss_seen = rss_selfcheck(runner)
    if not rss_ok:
        problems.append(rss_seen)

    # Every time is the median over a step's runs; a pass is the sum of
    # its steps' medians, so a run may stop between the steps of a pass.
    def med(k, key, traced=False):
        return median([r[key] for r in done[k][traced]])

    role = {r: k for k, (_, r, _) in enumerate(steps) if r}
    ks = range(len(steps))
    ref = median(refs)
    raw = {"wall_s": sum(med(k, "wall") for k in ks),
           "setup_s": med(role["probe"], "wall"),
           "main_s": med(role["main"], "wall")}
    metrics = {}
    if not trace:
        for key, t in raw.items():
            metrics[key] = t * (REF_S / ref) ** REF_POWER
        metrics["max_rss_mb"] = max(r["rss_kb"] for d in done
                                    for r in d[False]) / MB
    else:
        traced = [[r for r in d[True] if "selfs" in r] for d in done]
        if not all(traced):
            raise RuntimeError(f"{name}: a step has no traced report")
        selfs: dict[str, float] = {}
        counts: dict[str, int] = {}
        for runs in traced:
            for span in {s for r in runs for s in r["selfs"]}:
                selfs[span] = selfs.get(span, 0.0) + median(
                    [r["selfs"].get(span, 0.0) for r in runs])
            if any(r["counts"] != runs[0]["counts"] for r in runs):
                problems.append("counts differ between traced runs of a step")
            for c, n in runs[0]["counts"].items():
                counts[c] = counts.get(c, 0) + n
        metrics = layer_metrics(selfs, counts)
        frozen = catalogue["counts"][name]
        got = count_metrics(metrics)
        if got != frozen:
            diff = {k: (got.get(k), frozen.get(k))
                    for k in set(got) | set(frozen)
                    if got.get(k) != frozen.get(k)}
            problems.append(f"counts differ from frozen (got, frozen): {diff}")
        metrics["host.calib_s"] = calib
        metrics["host.ref_s"] = ref
        metrics["cli.overhead_s"] = sum(
            median([r["outside"] for r in runs]) for runs in traced)
        metrics["trace.overhead_frac"] = (
            sum(med(k, "wall", True) for k in ks)
            / sum(med(k, "wall") for k in ks) - 1.0)

    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"{name}: metrics not measured: {missing}")
    return {
        "name": name, "variant": variant,
        "samples": min(len(d[trace]) for d in done),
        "calib": calib, "ref": ref, "refs": len(refs), "raw": raw,
        "rss_seen": rss_seen, "runner": runner,
        "problems": problems,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
        "steps": [f"{r or 'step'} [" + ", ".join(
            f"{x['wall']:.3f}" for x in d[False]) + "]"
            for (_, r, _), d in zip(steps, done)],
        "purpose": purpose(name, role, traced) if trace else None,
    }


def purpose(name: str, role: dict, traced: list) -> str:
    """Does the workload stress what it was chosen for?  Reported only."""
    def self_sum(runs, keys):
        return median([sum(t for k, t in r["selfs"].items()
                           if any(k == x or k.startswith(x + ".m")
                                  for x in keys)) for r in runs])

    main = traced[role["main"]]
    if name == "e6_p3_cli":
        lhs = self_sum(main, ("weyl.enumerate", "kgamma.steinberg"))
        rhs = median([r["wall"] for r in main]) / 2
        what = "weyl.enumerate_s + kgamma.steinberg_s in verify-theorem"
        than = "1/2 of its wall"
    elif name == "e6_p5_image":
        lhs = self_sum(main, ("kgamma.image",))
        rhs = median([r["wall"] for r in main]) / 2
        what = "kgamma.image_s in restriction-image --degree 2"
        than = "1/2 of its wall"
    else:
        prefixes = ("formal_bundles.", "schubert.", "kgamma.ideal.")
        lhs = sum(median([sum(t for k, t in r["selfs"].items()
                              if k.startswith(prefixes)) for r in runs])
                  for runs in traced)
        rhs = sum(median([r["wall"] for r in runs]) for runs in traced) / 4
        what = "formal_bundles.* + kgamma.ideal_s + schubert.*"
        than = "1/4 of wall_s"
    verdict = "yes" if lhs > rhs else "NO"
    return f"{what} = {lhs:.3f} s > {than} = {rhs:.3f} s: {verdict}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    if not os.path.isfile(os.path.join("src", "gammaflag", "__init__.py")):
        print("perfbench: run from the root of a gammaflag checkout "
              "(src/gammaflag not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(CATALOGUE) as fh:
        catalogue = json.load(fh)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(json.dumps({"stamp": stamp(args.seed)}))
    results = []
    for name in names:
        r = run_workload(name, args.seed, args.seconds, bool(args.trace),
                         catalogue, spec,
                         t_start if len(names) == 1 else time.monotonic())
        results.append(r)
        runner = r["runner"]
        frac = runner.failed / max(runner.attempted, 1)
        print(f"{name}: variant {r['variant']}, >= {r['samples']} runs "
              f"of each step, "
              f"host.calib_s {r['calib']:.4f}, attempted "
              f"{runner.attempted}, failed {runner.failed}, "
              f"failed_frac {frac:.4f}")
        print(f"  {r['rss_seen']}")
        print(f"  reference job: median {r['ref']:.4f} s over {r['refs']} "
              f"runs; unscaled " + ", ".join(
                  f"{k} {v:.4f} s" for k, v in r["raw"].items()))
        print("  untraced step walls: " + "; ".join(r["steps"]))
        for key, m in r["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        if r["purpose"]:
            print(f"  chosen for: {r['purpose']}")
        for note in runner.notes + r["problems"]:
            print(f"  ! {note}")

    correct = all(not r["problems"] and r["runner"].failed == 0
                  for r in results)
    attempted = sum(r["runner"].attempted for r in results)
    failed = sum(r["runner"].failed for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['name']}.{k}": m for r in results
                   for k, m in r["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
