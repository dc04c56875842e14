"""One child process of the gammaflag benchmark.

    python3 child.py cli [--trace] ARGS...
        Runs ``python -m gammaflag ARGS`` in this process (stdout untouched),
        then writes one line ``perfbench-child {json}`` to stderr.

    python3 child.py session [--trace] < argv_list.json
        Runs each argv of a JSON list through ``gammaflag.cli.main`` in this
        process with stdout captured, then prints one JSON line with each
        command's exit code and stdout sha256.

Both report ``vmhwm_kb``, this process's own peak RSS from
/proc/self/status.  It is read here, not by the parent through wait4 or
RUSAGE_CHILDREN, because on Linux those carry the parent's high-water mark
across fork+exec.

With ``--trace`` the public library API (names in ``gammaflag.__all__``)
is wrapped before anything runs, and the spans {name, start, end, parent}
and counters are kept in memory and written out with the report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
import time
import traceback


def vmhwm_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Tracer:
    """Spans and counters recorded around calls into the library."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._counted: set = set()
        self._keep: list = []         # keeps ids in _counted from being reused

    def count(self, name: str, k: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def count_once(self, owner, name: str, k: int) -> None:
        """Count a cached result only the first time its owner returns it."""
        key = (id(owner), name)
        if key not in self._counted:
            self._counted.add(key)
            self._keep.append(owner)
            self.count(name, k)

    def wrap(self, fn, name, after=None, top_only=False):
        """``name`` is a string or a function of the call's arguments
        (None: no span); ``top_only`` records only calls made outside every
        other span, i.e. directly by the front end."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if label is None or (top_only and stack):
                out = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append([label, time.perf_counter(), None,
                              stack[-1] if stack else -1])
                stack.append(idx)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = time.perf_counter()
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return traced

    def install(self) -> None:
        import gammaflag
        import gammaflag.cli  # noqa: F401  (loads every module to patch)

        g = gammaflag
        count, once = self.count, self.count_once

        def method(cls, attr, name, after=None, top_only=False):
            setattr(cls, attr, self.wrap(getattr(cls, attr), name, after,
                                         top_only))

        def classmethods(cls, attrs, name):
            for attr in attrs:
                fn = cls.__dict__[attr].__func__
                setattr(cls, attr, classmethod(self.wrap(fn, name)))

        def function(fn, name):
            traced = self.wrap(fn, name)
            for modname, mod in list(sys.modules.items()):
                if modname == "gammaflag" or modname.startswith("gammaflag."):
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, traced)

        def per_degree(prefix):
            return lambda _self, m, *a, **k: f"{prefix}.m{m}"

        def weyl_name(_self, rs, max_length=None, *a, **k):
            return "weyl.enumerate" if max_length is None else "weyl.truncated"

        def weyl_after(_out, group, *a, **k):
            count("weyl.elements", len(group))

        def chow_after(_out, chow, *a, **k):
            for m in range(1, min(chow.degree_cap, 3) + 1):
                count(f"schubert.basis_dim.m{m}", chow.basis_dim(m))

        def image_after(piece, engine, m, *a, **k):
            once(engine, f"kgamma.pivots.m{m}", piece.subspace.dim)

        def ideal_after(sub, engine, m, *a, **k):
            once(engine, f"kgamma.ideal_dim.m{m}", sub.dim)

        method(g.RootSystem, "__init__", "rootdata.root_system")
        method(g.CharacterLattice, "__init__", "rootdata.lattice")
        classmethods(g.BrauerModel, ("uniform", "split", "from_labels"),
                     "brauer.model")
        function(g.common_index, "brauer.common_index")
        method(g.WeylGroup, "__init__", weyl_name, weyl_after)
        method(g.ChowRing, "__init__", None, chow_after)
        method(g.ChowRing, "chevalley", "schubert.products", top_only=True)
        method(g.ChowRing, "char_ideal",
               lambda _self, _lat, m, *a, **k: f"schubert.char_ideal.m{m}")
        method(g.SteinbergTable, "__init__", "kgamma.steinberg")
        method(g.RestrictionImage, "__init__", "kgamma.engine_init")
        method(g.RestrictionImage, "image", per_degree("kgamma.image"),
               image_after)
        method(g.RestrictionImage, "ideal", per_degree("kgamma.ideal"),
               ideal_after)
        function(g.kac_presentation, "jinv.kac_presentation")
        function(g.j1_constraints, "jinv.j1_constraints")
        function(g.ideal_equality_report, "jinv.report")
        function(g.check_gamma1_product_chern, "formal_bundles.firsteq")
        function(g.check_gamma_chern_scaling, "formal_bundles.gammatoc")
        function(g.binomial_gamma_expansion, "formal_bundles.binomial")


def check_import_root() -> None:
    """Refuse to measure a gammaflag other than the one under ./src."""
    import gammaflag

    want = os.path.realpath(os.path.join("src", "gammaflag"))
    got = os.path.realpath(os.path.dirname(gammaflag.__file__))
    if got != want:
        raise SystemExit(f"child: imported gammaflag from {got}, not {want}")


def run_cli(args: list[str], tracer: Tracer | None) -> int:
    sys.argv = ["gammaflag", *args]
    try:
        runpy.run_module("gammaflag", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None
                                                       else 1)
    sys.stdout.flush()
    extra = {"vmhwm_kb": vmhwm_kb()}
    if tracer is not None:
        extra.update(spans=tracer.spans, counts=tracer.counts)
    sys.stderr.write("\nperfbench-child " + json.dumps(extra) + "\n")
    return code


def run_session(argvs: list[list[str]], tracer: Tracer | None) -> None:
    from gammaflag.cli import main

    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
            except Exception:  # one broken command must not end the session
                traceback.print_exc()
                code = "exception"
        results.append({
            "rc": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue()[-300:] if code else "",
        })
    report = {"results": results, "vmhwm_kb": vmhwm_kb()}
    if tracer is not None:
        report.update(spans=tracer.spans, counts=tracer.counts)
    print(json.dumps(report))


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    tracer = None
    if rest[:1] == ["--trace"]:
        rest = rest[1:]
        tracer = Tracer()
    check_import_root()
    if tracer is not None:
        tracer.install()
    if mode == "cli":
        return run_cli(rest, tracer)
    if mode == "session":
        run_session(json.load(sys.stdin), tracer)
        return 0
    raise SystemExit(f"child: unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
