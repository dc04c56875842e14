"""Command-line front end: config ingestion, scenario runs, report writing.

Every subcommand is a pure function of its ScenarioConfig: for a fixed
config and package version the bytes on stdout are identical across runs.
The only environment-dependent output is a version banner on stderr,
suppressed with --no-banner.

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
from array import array
from collections import namedtuple

from . import __version__
from .brauer import BrauerModel, is_prime
from .kgamma import RestrictionImage, SteinbergTable
from .rootdata import CharacterLattice, RootSystem, root_system
from .schubert import ChowRing
from .weyl import weyl_group

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

# Frozen classification values for the E6 adjoint family at p = 3, keyed by
# the common index; jconstrain cross-checks its derived output against them.
_E6_REFERENCE_J1 = {1: (0,), 3: (1,), 9: (2,), 27: (2,)}


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


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"config {path}: {e.strerror or e}")
    try:
        data = json.loads(text)  # decodes the bytes itself
    except json.JSONDecodeError as e:
        raise UsageError(f"config {path}: line {e.lineno}: {e.msg}")
    except ValueError as e:  # not UTF-8, or an integer past the digit limit
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
        model = BrauerModel.from_labels(fg, cfg.brauer, cfg.prime)
    else:  # no index given: split, index 1 everywhere
        model = BrauerModel.uniform(fg, cfg.index or 1, cfg.prime)
    return model.require_valid()


def _engine(cfg: ScenarioConfig, degree_cap: int) -> RestrictionImage:
    rs = root_system(cfg.type)
    chow = ChowRing(weyl_group(rs), degree_cap=degree_cap)
    lattice = CharacterLattice(rs, cfg.lattice)
    return RestrictionImage(chow, _model(cfg, rs), lattice)


def _sigma(word) -> str:
    return f"sigma[{','.join(map(str, word))}]"


# -- subcommands -------------------------------------------------------------


def _cmd_rootinfo(cfg: ScenarioConfig) -> Report:
    rs = root_system(cfg.type)
    lattice = CharacterLattice(rs, cfg.lattice)
    fg = rs.fundamental_group()
    g = fg.quotient
    omega_labels = {
        str(i): g.label(fg.omega_classes[i - 1]) for i in range(1, rs.rank + 1)
    }
    payload = {
        "type": rs.name,
        "rank": rs.rank,
        "cartan": rs.cartan,
        "positive_roots": len(rs.positive_roots),
        "degrees": rs.degrees,
        "weyl_order": rs.weyl_order,
        "fundamental_group": {
            "factors": g.factors,
            "elements": [g.label(e) for e in g.elements()],
        },
        "omega_classes": omega_labels,
        "lattice": {
            "kind": lattice.kind,
            "index_in_weight_lattice": lattice.index_in_weight_lattice,
            "quotient_factors": lattice.quotient.factors,
        },
    }
    rows = [
        ("type", rs.name),
        ("rank", rs.rank),
        ("positive_roots", len(rs.positive_roots)),
        ("weyl_order", rs.weyl_order),
        ("fundamental_group", g.factors or 1),
        ("lattice_kind", lattice.kind),
        ("lattice_index", lattice.index_in_weight_lattice),
    ]
    deg = "*".join(str(d) for d in rs.degrees)
    lines = [
        f"type {rs.name}  rank {rs.rank}",
        "cartan:",
        *(f"  {' '.join(f'{x:3d}' for x in row)}" for row in rs.cartan),
        f"positive roots: {len(rs.positive_roots)}",
        f"weyl order: {rs.weyl_order} = {deg}",
        "fundamental group: "
        + (" x ".join(f"Z/{f}" for f in g.factors) or "trivial")
        + f"  elements: {', '.join(g.label(e) for e in g.elements())}",
        "omega classes: "
        + ", ".join(f"omega_{i} -> {omega_labels[str(i)]}"
                    for i in range(1, rs.rank + 1)),
        f"lattice {lattice.kind}: index {lattice.index_in_weight_lattice} "
        f"in the weight lattice",
    ]
    return Report(payload, rows, lines)


def _cmd_weyl(cfg: ScenarioConfig) -> Report:
    rs = root_system(cfg.type)
    group = weyl_group(rs, max_length=cfg.max_length)
    payload = {"type": rs.name, "complete": group.is_full,
               "elements": len(group), "degree_product": rs.weyl_order}
    rows = [("type", rs.name), ("elements", len(group)),
            ("complete", group.is_full)]
    lines = [f"type {rs.name}: {len(group)} elements"
             + ("" if group.is_full else f" (truncated at length {cfg.max_length})")]
    if group.is_full:
        payload["order"] = len(group)
        lines.append(f"order {len(group)}  (degree product {rs.weyl_order})")
    if cfg.count_by_length:
        counts = [(m, len(group.range_of_length(m)))  # none enumerated
                  for m in range(group.longest_length + 1)]
        payload["count_by_length"] = counts
        rows = [("length", "count"), *counts]
        lines.append("length  count")
        lines.extend(f"{l:6d}  {c}" for l, c in counts)
    return Report(payload, rows, lines)


def _cmd_chow(cfg: ScenarioConfig) -> Report:
    degree = cfg.degree if cfg.degree is not None else 3
    rs = root_system(cfg.type)
    group = weyl_group(rs, max_length=degree)
    chow = ChowRing(group, degree_cap=degree)
    dims = [(m, chow.basis_dim(m)) for m in range(0, chow.degree_cap + 1)]
    payload = {"type": rs.name, "degree": chow.degree_cap, "dims": dims}
    rows = [("degree", "dim"), *dims]
    lines = [f"type {rs.name}, degrees 0..{chow.degree_cap}"]
    lines.extend(f"dim CH^{m} = {d}" for m, d in dims)
    top = chow.degree_cap
    word = functools.cache(group.word)  # an element is listed up to 3 times

    if cfg.basis:
        payload["basis"] = [
            {"index": k, "word": word(k)} for k in chow.basis(top)
        ]
        lines.append(f"basis of CH^{top}:")
        lines.extend(f"  {_sigma(word(k))}" for k in chow.basis(top))
    if cfg.products:
        products = []
        lines.append(f"divisor products into CH^{top}:")
        for i in range(1, rs.rank + 1):
            for k in chow.basis(top - 1):
                res = chow.chevalley(
                    chow.single(k), rs.fundamental_weight(i))
                terms = sorted(res.terms.items())
                products.append({
                    "h": i,
                    "word": word(k),
                    "result": [(c, word(j)) for j, c in terms],
                })
                rhs = " + ".join(
                    f"{c}*{_sigma(word(j))}" for j, c in terms) or "0"
                lines.append(f"  h_{i} * {_sigma(word(k))} = {rhs}")
        payload["products"] = products
    return Report(payload, rows, lines)


# The buckets of _WeightCount, one per residue of a shifted weight: a
# prime, so that every coordinate moves the residue.
_BUCKETS = 251


class _WeightCount:
    """Counts the distinct packed weights of rank n <= 8 it is given, in
    16 bytes each instead of a set of ints (about 72).  A packed weight
    sum_j v_j 2^(16 j) plus the packer's bias sum_j 2^(16 j + 15) has the
    fields v_j + 2^15 in [0, 2^16), so it is an int in [0, 2^128), kept
    exactly as its two unsigned 64-bit halves.  The halves go to one of
    _BUCKETS bucket pairs by the int's residue mod _BUCKETS, and the
    distinct pairs are counted one bucket at a time, so the set that
    counts them holds one bucket."""

    def __init__(self, n: int):
        if not 1 <= n <= 8:
            raise ValueError(f"rank {n} outside 1..8")
        self._bias = sum(1 << 16 * j + 15 for j in range(n))
        self._buckets = [(array("Q"), array("Q")) for _ in range(_BUCKETS)]

    def add(self, weights) -> None:
        bias, buckets = self._bias, self._buckets
        for x in weights:
            x += bias
            hi, lo = buckets[x % _BUCKETS]
            hi.append(x >> 64)
            lo.append(x & 0xFFFFFFFFFFFFFFFF)

    def __len__(self) -> int:
        return sum(len(set(zip(hi, lo))) for hi, lo in self._buckets)


def _steinberg_elements(table: SteinbergTable,
                        seen: _WeightCount | None = None):
    """(word, packed rho_w, class) of every element in order.  A word is
    its letters joined by commas, "" for the identity, built as its
    parent's word, "," and its letter; one length's words are kept.
    Each length's weights are added to ``seen``, if given, before any of
    its elements is yielded."""
    after = [f",{i}" for i in range(table.rs.rank + 1)]
    words = [""]
    for m, (parents, letters, rhos, classes) in enumerate(table.lengths()):
        if seen is not None:
            seen.add(rhos)
        if m == 1:
            words = [str(i) for i in letters]
        elif m:
            words = [words[j] + after[i] for j, i in zip(parents, letters)]
        yield from zip(words, rhos, classes)


def _cmd_steinberg(cfg: ScenarioConfig) -> Report:
    group = weyl_group(root_system(cfg.type))
    table = SteinbergTable(group)
    name, order, n = group.rs.name, len(group), group.rs.rank
    unpack, label = group.packer.unpack, functools.cache(
        table.fg.quotient.label)
    report = Report({}, (), ())

    if cfg.format == "tsv":
        rho_text = " ".join(["%d"] * n)

        def rows():
            # packed weights are equal exactly when the weights are, so only
            # they are counted for the collision check, decided after the
            # last row
            yield "word", "rho", "class"
            seen = _WeightCount(n)
            for word, rho, cls in _steinberg_elements(table, seen):
                yield word or "-", rho_text % unpack(rho), label(cls)
            report.failed = len(seen) < order

        report.rows = rows()
        return report
    # json and pretty state the verdict before any element: a first pass
    # over the weights alone
    seen = _WeightCount(n)
    for _, _, rhos, _ in table.lengths():
        seen.add(rhos)
    distinct = len(seen) == order
    report.failed = not distinct
    # one digit per letter (rank <= 8): the digits' values, commas dropped
    digits = bytes.maketrans(b"123456789", bytes(range(1, 10)))
    report.payload = {
        "type": name,
        "order": order,
        "distinct": distinct,
        "entries": (
            {"index": k, "word": list(word.encode().translate(digits, b",")),
             "rho": unpack(rho), "class": label(cls)}
            for k, (word, rho, cls) in enumerate(_steinberg_elements(table))
        ),
    }
    rho_text = ", ".join(["%d"] * n)
    report.lines = itertools.chain(
        [f"type {name}: {order} elements, "
         + ("all weights distinct" if distinct else "WEIGHT COLLISION")],
        (f"  sigma[{word}]  rho=({rho_text % unpack(rho)})  class {label(cls)}"
         for word, rho, cls in _steinberg_elements(table)),
    )
    return report


def _cmd_restriction_image(cfg: ScenarioConfig) -> Report:
    degree = cfg.degree if cfg.degree is not None else 1
    engine = _engine(cfg, degree_cap=degree)
    piece = engine.image(degree)
    ideal = engine.ideal(degree)
    ambient = engine.chow.basis_dim(degree)
    name, kind = engine.chow.rs.name, engine.lattice.kind
    payload = {
        "type": name,
        "lattice": kind,
        "prime": engine.p,
        "degree": degree,
        "ambient_dim": ambient,
        "image_dim": piece.subspace.dim,
        "ideal_dim": ideal.dim,
        "image_basis": piece.subspace.rows(),
        "ideal_basis": ideal.rows(),
        "pivots": [{"scalar": s, "weights": ws} for s, ws in piece.pivots],
    }
    rows = [("degree", "ambient", "image_dim", "ideal_dim"),
            (degree, ambient, piece.subspace.dim, ideal.dim)]
    lines = [
        f"type {name} lattice {kind} p={engine.p}",
        f"degree {degree}: ambient dim {ambient}, "
        f"image dim {piece.subspace.dim}, ideal dim {ideal.dim}",
    ]
    if piece.subspace.dim:
        lines.append("image basis rows (mod p):")
        lines.extend("  " + " ".join(map(str, r))
                     for r in piece.subspace.rows())
    return Report(payload, rows, lines)


def _cmd_jconstrain(cfg: ScenarioConfig) -> Report:
    from .jinv import j1_constraints, kac_presentation

    rs = root_system(cfg.type)
    lattice = CharacterLattice(rs, cfg.lattice)
    model = _model(cfg, rs)
    user_data = (None if cfg.kac is None
                 else {f"{rs.name}:{lattice.kind}:{cfg.prime}": cfg.kac})
    pres = kac_presentation(rs, lattice, cfg.prime, user_data)
    report, constraints = j1_constraints(model, lattice, pres)
    s = pres.degree_one_count()
    higher = [
        {"position": s + j + 1, "degree": d, "k": k,
         "admissible_range": list(range(0, k + 1))}
        for j, (d, k) in enumerate(
            zip(pres.degrees[s:], pres.exponents[s:]))
    ]
    frozen = (rs.name, lattice.kind, cfg.prime) == ("E6", "adjoint", 3)
    expected = (_E6_REFERENCE_J1.get(report.value)
                if frozen and report.defined else None)
    crosscheck = None if expected is None else {
        "applied": True, "expected": expected,
        "matches": constraints[0].admissible == expected}
    payload = {
        "type": rs.name,
        "lattice": lattice.kind,
        "prime": cfg.prime,
        "presentation": pres._asdict(),
        "common_index": report._asdict(),
        "degree_one": [c._asdict() for c in constraints],
        "higher": higher,
        "crosscheck": crosscheck,
    }

    rows = [("position", "omega", "k", "admissible")]
    rows.extend((c.position, c.omega_index, c.k, c.admissible)
                for c in constraints)
    rows.extend((h["position"], None, h["k"], h["admissible_range"])
                for h in higher)
    lines = [
        f"type {rs.name} lattice {lattice.kind} p={cfg.prime}",
        f"presentation degrees {list(pres.degrees)} "
        f"exponents {list(pres.exponents)}",
        "common index: "
        + (f"{report.value} (valuation {report.valuation}, witness "
           f"{list(report.witness)})" if report.defined else "undefined (no "
           "degree-1 generators; constraints are vacuous)"),
    ]
    for c in constraints:
        lines.append(
            f"j_{c.position} (omega_{c.omega_index}, k={c.k}): "
            f"admissible {set(c.admissible)}"
        )
        lines.extend(f"    {note}" for note in c.notes)
    for h in higher:
        lines.append(
            f"j_{h['position']} (degree {h['degree']}, k={h['k']}): "
            f"range {set(h['admissible_range'])} (no finer constraint)"
        )
    if crosscheck is not None:
        lines.append(
            "cross-check against the frozen E6 table: "
            + ("match" if crosscheck["matches"] else
               f"MISMATCH (expected {set(crosscheck['expected'])})")
        )
    failed = crosscheck is not None and not crosscheck["matches"]
    return Report(payload, rows, lines, failed=failed)


def _cmd_verify_theorem(cfg: ScenarioConfig) -> Report:
    from .jinv import ideal_equality_report

    cap = cfg.max_degree if cfg.max_degree is not None else cfg.prime
    engine = _engine(cfg, degree_cap=min(cap, cfg.prime))
    report = ideal_equality_report(engine, max_degree=cap)
    name, kind = engine.chow.rs.name, engine.lattice.kind
    payload = {
        "type": name,
        "lattice": kind,
        "prime": report.prime,
        "common_index": report.common._asdict(),
        "degrees": [d._asdict() for d in report.degrees],
        "vacuous": report.vacuous,
        "verified": report.verified,
        "failures": report.failures(),
    }
    rows = [("m", "applicable", "dim_char", "dim_twisted", "equal")]
    rows.extend((d.m, d.applicable, d.dim_char, d.dim_twisted, d.equal)
                for d in report.degrees)
    ci = report.common
    lines = [
        f"type {name} lattice {kind} p={report.prime}",
        "common index: "
        + (f"{ci.value} (valuation {ci.valuation})"
           if ci.defined else "undefined"),
    ]
    for d in report.degrees:
        if not d.applicable:
            lines.append(f"m={d.m}: not applicable (valuation too small)")
        else:
            verdict = "equal" if d.equal else "NOT EQUAL"
            lines.append(
                f"m={d.m}: dim I = {d.dim_char}, "
                f"dim I_xi = {d.dim_twisted} -> {verdict}"
            )
    if report.vacuous:
        lines.append("verdict: vacuous (no applicable degree)")
    else:
        lines.append("verdict: " + ("verified" if report.verified
                                    else "FAILED"))
    return Report(payload, rows, lines, failed=not report.verified)


def _gammatoc_cases(max_bundles: int, max_mult: int, max_i: int):
    """Multiplicity multisets (non-increasing, entries <= max_mult, sum <=
    max_bundles, in lexicographic order), each paired with every chern
    degree i <= max_i."""
    top = min(max_mult, max_bundles)
    multisets = sorted(
        m for k in range(1, max_bundles + 1)
        for m in itertools.combinations_with_replacement(range(top, 0, -1), k)
        if sum(m) <= max_bundles)
    return ((m, i) for m in multisets for i in range(1, max_i + 1))


def _oracle_cases(cfg: ScenarioConfig):
    """(payload case, tsv label, pretty label, verdict text) of every case
    of the chosen identity family, in order."""
    from .formal_bundles import (
        binomial_gamma_expansion,
        check_gamma1_product_chern,
        check_gamma_chern_scaling,
    )

    def verdict(out) -> str:
        return "pass" if out.ok else f"FAIL {out.detail}"

    if cfg.verify == "firsteq":
        max_i = cfg.max_i if cfg.max_i is not None else 5
        max_n = cfg.max_n if cfg.max_n is not None else 6
        for i in range(1, max_i + 1):
            for n in range(i, max_n + 1):
                out = check_gamma1_product_chern(i, n)
                yield ({"i": i, "n": n, "ok": out.ok, "label": out.label},
                       f"i={i},n={n}", f"i={i} n={n}", verdict(out))
    elif cfg.verify == "gammatoc":
        max_bundles = cfg.max_bundles if cfg.max_bundles is not None else 6
        max_mult = cfg.max_mult if cfg.max_mult is not None else 3
        max_i = cfg.max_i if cfg.max_i is not None else 4
        for mults, i in _gammatoc_cases(max_bundles, max_mult, max_i):
            n = len(mults)
            lines = [tuple(int(k == a) for k in range(n))
                     for a, m in enumerate(mults) for _ in range(m)]
            out = check_gamma_chern_scaling(n, lines, i)
            name = "+".join(str(m) for m in mults)
            yield ({"multiplicities": mults, "i": i, "ok": out.ok,
                    "label": out.label},
                   f"mults={name},i={i}", f"mults ({name}) i={i}", verdict(out))
    elif cfg.verify == "binomial":
        top = cfg.max_mult if cfg.max_mult is not None else 6
        for mult in range(0, top + 1):
            try:
                coeffs = binomial_gamma_expansion(mult)
                ok, text = True, f"pass [{','.join(map(str, coeffs))}]"
            except AssertionError as e:
                ok, coeffs, text = False, None, f"FAIL {e}"
            yield ({"multiplicity": mult, "ok": ok, "binomials": coeffs},
                   f"mult={mult}", f"mult={mult}", text)
    else:
        raise UsageError(f"unknown oracle {cfg.verify!r}")


def _cmd_oracle(cfg: ScenarioConfig) -> Report:
    cases, rows, lines = [], [("case", "ok")], []
    for case, tsv_label, pretty_label, text in _oracle_cases(cfg):
        cases.append(case)
        rows.append((tsv_label, case["ok"]))
        lines.append(f"  {pretty_label}: {text}")
    passed = sum(1 for c in cases if c["ok"])
    failed = len(cases) - passed
    payload = {"check": cfg.verify, "cases": cases,
               "passed": passed, "failed": failed}
    lines.insert(0, f"oracle {cfg.verify}: {passed} passed, {failed} failed")
    return Report(payload, rows, lines, failed=failed > 0)


_COMMANDS = {
    "rootinfo": _cmd_rootinfo,
    "weyl": _cmd_weyl,
    "chow": _cmd_chow,
    "steinberg": _cmd_steinberg,
    "restriction-image": _cmd_restriction_image,
    "jconstrain": _cmd_jconstrain,
    "verify-theorem": _cmd_verify_theorem,
    "oracle": _cmd_oracle,
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
        report = _COMMANDS[cfg.command](cfg)
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
