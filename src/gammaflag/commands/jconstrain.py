"""``gammaflag jconstrain``: admissible degree-1 exponents of the
J-invariant from index data."""

from __future__ import annotations

from ..cli import Report, ScenarioConfig, _lattice, _model
from ..jinv import j1_constraints, kac_presentation
from ..rootdata import root_system

# Frozen classification values for the E6 adjoint family at p = 3, keyed by
# the common index; jconstrain cross-checks its derived output against them.
_E6_REFERENCE_J1 = {1: (0,), 3: (1,), 9: (2,), 27: (2,)}


def build(cfg: ScenarioConfig) -> Report:
    rs = root_system(cfg.type)
    lattice = _lattice(cfg, rs)
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
