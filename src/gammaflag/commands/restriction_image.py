"""``gammaflag restriction-image``: the mod-p image and ideal of the
twisted restriction map in one degree."""

from __future__ import annotations

from ..cli import Report, ScenarioConfig, _engine, _lattice


def build(cfg: ScenarioConfig) -> Report:
    degree = cfg.degree if cfg.degree is not None else 1
    engine = _engine(cfg, degree_cap=degree)
    rs = engine.chow.rs
    name, kind = rs.name, _lattice(cfg, rs).kind
    piece = engine.image(degree)
    ideal = engine.ideal(degree)
    ambient = engine.chow.basis_dim(degree)
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
