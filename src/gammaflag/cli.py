"""Command-line front end: config ingestion, scenario runs, report writing.

Every subcommand is a pure function of its ScenarioConfig: for a fixed
config and package version the bytes on stdout are identical across runs.
The only environment-dependent output is a version banner on stderr,
suppressed with --no-banner.

This module is the part every command shares: the parser, the config, the
renderers and the entry points.  Each command's report is built by its
own module in ``gammaflag.commands``, imported only when the command runs,
so a process compiles no other command's code.

Exit codes: 0 success, 1 verification failure or a stdout closed by its
reader, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from collections import namedtuple

from . import __version__
from .brauer import BrauerModel, is_prime

__all__ = ["ScenarioConfig", "UsageError", "parse_config", "run", "main"]

_FORMATS = ("json", "tsv", "pretty")

# Every config-file key with its default.  The flag of the same name (its
# dest) wins over the file; ScenarioConfig has a field of the same name.
_CONFIG = {
    "type": "E6",
    "lattice": "adjoint",   # a keyword or a list of weight lists
    "prime": 3,
    "brauer": None,         # {"ind": {label: index}}, per-class indices
    "index": None,          # one index for every non-identity class
    "degree": None, "max_degree": None,
    "kac": None,            # {"degrees": [...], "exponents": [...]}
    "format": "pretty",
}
# The inputs only a flag gives, with their defaults.
_FLAG_ONLY = {
    "no_banner": False, "count_by_length": False, "max_length": None,
    "basis": False, "products": False, "verify": None,
    "max_i": None, "max_n": None, "max_bundles": None, "max_mult": None,
}
# One fully validated invocation: the command, then every input above.
ScenarioConfig = namedtuple(
    "ScenarioConfig", ["command", *_CONFIG, *_FLAG_ONLY],
    defaults=[*_CONFIG.values(), *_FLAG_ONLY.values()])

# Inclusive (least, largest) value of every integer input.  The oracle caps
# keep a run under a second (at the caps on a 2-vCPU Xeon: gammatoc 0.33 s,
# firsteq 0.24 s, binomial 0.14 s wall); 120 = l(w_0) of E8, the longest
# supported type; p and index caps keep arithmetic cheap.
_INT_BOUNDS = {
    "prime": (2, 1000),
    "index": (1, 10**9),
    "degree": (1, 120),
    "max_degree": (1, 120),
    "max_length": (0, 120),
    "max_i": (1, 6),
    "max_n": (1, 10),
    "max_bundles": (1, 6),
    "max_mult": (1, 24),
}


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""



class Report:
    """One command's output in every format; _render reads one of them
    once, so any field may be a generator (in the payload, one that
    stands for a JSON array).  ``failed`` is read after rendering, so a
    generator may set it once it has run out."""

    __slots__ = ("payload", "rows", "lines", "failed")

    def __init__(self, payload: dict, rows, lines, failed: bool = False):
        self.payload = payload
        self.rows = rows    # tuples of raw values; _cell formats each one
        self.lines = lines  # strings
        self.failed = failed


# -- config ingestion --------------------------------------------------------


def _check_int(name: str, value, bounds: str | None = None) -> int:
    """Reject a non-integer (bools included) or a value outside
    ``_INT_BOUNDS[bounds or name]``; ``name`` is what the message calls it."""
    lo, hi = _INT_BOUNDS[bounds or name]
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{name} must be an integer")
    if not lo <= value <= hi:
        raise UsageError(f"{name} must be between {lo} and {hi}")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys are all distinct, at any depth."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"key {key!r} given twice")
        data[key] = value
    return data


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"config {path}: {e.strerror or e}")
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise UsageError(f"config {path}: line {e.lineno}: {e.msg}")
    except ValueError as e:  # bytes not UTF-8, a repeated key, a huge int
        raise UsageError(f"config {path}: {e}")
    if not isinstance(data, dict):
        raise UsageError(f"config {path}: top level must be a JSON object")
    for key in data:
        if key not in _CONFIG:
            raise UsageError(f"config {path}: unknown key {key!r}")
    return data


def _check_index_map(brauer) -> dict[str, int]:
    if not isinstance(brauer, dict) or set(brauer) != {"ind"}:
        raise UsageError('config field "brauer" must be {"ind": {...}}')
    ind = brauer["ind"]
    if not isinstance(ind, dict) or not ind:
        raise UsageError('config field "brauer.ind" must be a non-empty object')
    return {str(label): _check_int(f"brauer.ind[{label!r}]", value, "index")
            for label, value in ind.items()}


def _check_kac(kac) -> None:
    if (not isinstance(kac, dict) or set(kac) != {"degrees", "exponents"}
            or not all(isinstance(kac[k], list) and kac[k]
                       for k in ("degrees", "exponents"))):
        raise UsageError(
            'config field "kac" must be {"degrees": [ints], "exponents": [ints]}'
        )
    for key, values in kac.items():
        for j, x in enumerate(values):
            _check_int(f"kac.{key}[{j}]", x, "degree")


def parse_config(args: argparse.Namespace) -> ScenarioConfig:
    """Merge the defaults, a JSON config file and the flags given (flags
    win; a null counts as a key left out) into one dict and validate it."""
    given = dict(vars(args))
    path = given.pop("config", None)
    data = _read_config_file(path) if path else {}
    cfg = dict(_CONFIG)
    for source in (data, given):
        cfg.update((k, v) for k, v in source.items() if v is not None)

    if cfg["format"] not in _FORMATS:
        raise UsageError(
            f"unknown format {cfg['format']!r}: expected one of {_FORMATS}")

    # every integer input; the oracle ones never come from a config file
    for name in _INT_BOUNDS:
        if cfg.get(name) is not None:
            _check_int(name, cfg[name])
    prime = cfg["prime"]
    if not is_prime(prime):
        raise UsageError("p must be prime")

    if not isinstance(cfg["type"], str):
        raise UsageError('config field "type" must be a string like "E6"')

    lattice = cfg["lattice"]
    if isinstance(lattice, list):
        if not all(isinstance(w, list) and all(
                isinstance(x, int) and not isinstance(x, bool) for x in w)
                for w in lattice):
            raise UsageError(
                'config field "lattice" must be a keyword or a list of '
                "integer weight vectors"
            )
        cfg["lattice"] = tuple(tuple(w) for w in lattice)
    elif not isinstance(lattice, str):
        raise UsageError('config field "lattice" must be a string or a list')

    if cfg["brauer"] is not None:
        cfg["brauer"] = _check_index_map(cfg["brauer"])
        if cfg["index"] is not None:
            raise UsageError(
                "give either a uniform index or a brauer map, not both")

    if cfg["kac"] is not None:
        _check_kac(cfg["kac"])

    # ideal comparisons happen in degrees <= p, where (m-1)! is a unit
    cap = {"restriction-image": cfg["degree"],
           "verify-theorem": cfg["max_degree"]}.get(args.command)
    if cap is not None and cap > prime:
        raise UsageError(f"degree cap {cap} exceeds p = {prime}; ideal "
                         "comparisons need degree <= p")

    return ScenarioConfig(**cfg)


# -- shared builders ---------------------------------------------------------


def _model(cfg: ScenarioConfig, rs: RootSystem) -> BrauerModel:
    fg = rs.fundamental_group()
    if cfg.brauer is not None:
        return BrauerModel.from_labels(fg, cfg.brauer, cfg.prime)
    # no index given: split, index 1 everywhere
    return BrauerModel.uniform(fg, cfg.index or 1, cfg.prime)


def _lattice(cfg: ScenarioConfig, rs: RootSystem) -> CharacterLattice:
    """The config's lattice; the adjoint one is the root system's own,
    built once with its fundamental group."""
    from .rootdata import CharacterLattice

    if cfg.lattice == "adjoint":
        return rs.fundamental_group()
    return CharacterLattice(rs, cfg.lattice)


def _engine(cfg: ScenarioConfig, degree_cap: int) -> RestrictionImage:
    from .kgamma import RestrictionImage
    from .rootdata import root_system
    from .schubert import ChowRing
    from .weyl import weyl_group

    rs = root_system(cfg.type)
    chow = ChowRing(weyl_group(rs), degree_cap=degree_cap)
    return RestrictionImage(chow, _model(cfg, rs))


# Each command with its module in gammaflag.commands, whose build(cfg)
# gives the command's Report; run imports it only when it is dispatched.
_COMMANDS = {
    "rootinfo": "rootinfo",
    "weyl": "weyl",
    "chow": "chow",
    "steinberg": "steinberg",
    "restriction-image": "restriction_image",
    "jconstrain": "jconstrain",
    "verify-theorem": "verify_theorem",
    "oracle": "oracle",
}


# -- rendering and entry points ----------------------------------------------


def _cell(value) -> str:
    """TSV cell: None -> "-", bool -> true/false, sequence -> a,b or "-"."""
    if isinstance(value, str):
        return value
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(map(str, value)) or "-"
    return str(value)


class _JsonArray(list):
    """json ``default`` for any other iterable: a list holding its first
    item only, so it is empty exactly when the iterable is, whose iteration
    draws the rest.  With an indent the encoder yields chunk by chunk, so
    each item is drawn only as it is encoded."""

    def __init__(self, items):
        self._rest = iter(items)
        super().__init__(itertools.islice(self._rest, 1))

    def __iter__(self):
        return itertools.chain(super().__iter__(), self._rest)


# Characters gathered per out.write: one write(2) each to an unbuffered
# stdout, instead of one per tsv row, pretty line or json chunk.
_BLOCK = 8192


def _tsv_line(row) -> str:
    try:  # text cells need no _cell
        return "\t".join(row) + "\n"
    except TypeError:
        return "\t".join(map(_cell, row)) + "\n"


def _render(report: Report, fmt: str, out) -> None:
    """Write the report in one format to ``out`` as it is produced, in
    blocks of at least _BLOCK characters (the last one may be shorter)."""
    if fmt == "json":  # the encoder and chunks json.dump would write
        encoder = json.JSONEncoder(indent=2, sort_keys=True,
                                   default=_JsonArray)
        pieces = itertools.chain(encoder.iterencode(report.payload), ["\n"])
    elif fmt == "tsv":
        pieces = map(_tsv_line, report.rows)
    else:
        pieces = (line + "\n" for line in report.lines)
    block, size = [], 0
    for piece in pieces:
        block.append(piece)
        size += len(piece)
        if size >= _BLOCK:
            out.write("".join(block))
            block, size = [], 0
    if block:
        out.write("".join(block))


def run(cfg: ScenarioConfig, out=None) -> int:
    """Execute one scenario; report to ``out`` (default stdout).  This is
    the one place library ValueError/LookupError become usage errors."""
    out = sys.stdout if out is None else out
    if not cfg.no_banner:
        print(f"gammaflag {__version__}", file=sys.stderr)
    try:
        command = __import__(f"commands.{_COMMANDS[cfg.command]}",
                             globals(), None, ["build"], 1)
        report = command.build(cfg)
    except (ValueError, LookupError) as e:
        raise UsageError(str(e))
    _render(report, cfg.format, out)
    return 1 if report.failed else 0


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammaflag",
        description="Chow rings of flag varieties, gamma-filtration "
        "characteristic classes, and index-twisted restriction checks.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def int_option(sp, flag: str, metavar: str, help_text: str) -> None:
        lo, hi = _INT_BOUNDS[flag[2:].replace("-", "_")]
        sp.add_argument(flag, type=int, metavar=metavar,
                        help=f"{help_text}; {lo} to {hi}")

    def add(name: str, help_text: str, *, model: bool = False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="FILE",
                        help="JSON config file; flags override its fields")
        sp.add_argument("--type", metavar="XN",
                        help="Dynkin type, e.g. E6 (default E6)")
        sp.add_argument("--lattice", metavar="KIND",
                        help="adjoint (default) or simply_connected")
        int_option(sp, "--prime", "P", "prime modulus (default 3)")
        sp.add_argument("--format", choices=_FORMATS,
                        help="output format (default pretty)")
        sp.add_argument("--no-banner", action="store_true",
                        help="suppress the version banner on stderr")
        if model:
            int_option(sp, "--index", "N", "uniform index for every "
                       "non-identity class (default: split, index 1 "
                       "everywhere)")
        return sp

    add("rootinfo", "Cartan data, fundamental group, lattice summary")

    sp = add("weyl", "enumerate the Weyl group")
    sp.add_argument("--count-by-length", action="store_true",
                    help="emit the length -> count table")
    int_option(sp, "--max-length", "L",
               "truncate the enumeration at this length")

    sp = add("chow", "Schubert basis and divisor products")
    int_option(sp, "--degree", "M", "top degree (default 3)")
    sp.add_argument("--basis", action="store_true",
                    help="list the Schubert basis of the top degree")
    sp.add_argument("--products", action="store_true",
                    help="list divisor products into the top degree")

    add("steinberg", "per-element twisting weights and their classes")

    sp = add("restriction-image", "mod-p image and ideal of the "
             "restriction map in one degree", model=True)
    int_option(sp, "--degree", "M", "degree to compute (default 1)")

    add("jconstrain", "admissible degree-1 exponents from index data",
        model=True)

    sp = add("verify-theorem", "compare split and twisted ideals degree "
             "by degree", model=True)
    int_option(sp, "--max-degree", "M",
               "highest degree to compare (default p)")

    sp = add("oracle", "formal identities on line-bundle sums")
    sp.add_argument("--verify", required=True,
                    choices=("firsteq", "gammatoc", "binomial"),
                    help="which identity family to run")
    int_option(sp, "--max-i", "I", "largest chern degree")
    int_option(sp, "--max-n", "N", "largest number of variables (firsteq)")
    int_option(sp, "--max-bundles", "B",
               "largest total line-bundle count (gammatoc)")
    int_option(sp, "--max-mult", "M",
               "largest multiplicity (gammatoc, binomial)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args)
        code = run(cfg)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: send what is left,
        # the flush at exit included, to devnull instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
