"""``gammaflag verify-theorem``: the split and twisted ideals compared
degree by degree."""

from __future__ import annotations

from ..cli import Report, ScenarioConfig, _engine, _lattice
from ..jinv import ideal_equality_report


def build(cfg: ScenarioConfig) -> Report:
    # parse_config has refused a cap above p
    engine = _engine(cfg, degree_cap=cfg.max_degree or cfg.prime)
    lattice = _lattice(cfg, engine.chow.rs)
    report = ideal_equality_report(engine, lattice)
    name, kind = lattice.rs.name, lattice.kind
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
