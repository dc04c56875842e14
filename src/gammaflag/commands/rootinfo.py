"""``gammaflag rootinfo``: Cartan data, fundamental group, lattice summary."""

from __future__ import annotations

from ..cli import Report, ScenarioConfig, _lattice
from ..rootdata import root_system


def build(cfg: ScenarioConfig) -> Report:
    rs = root_system(cfg.type)
    lattice = _lattice(cfg, rs)
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
