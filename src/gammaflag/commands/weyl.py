"""``gammaflag weyl``: the Weyl group's size and its length counts."""

from __future__ import annotations

from ..cli import Report, ScenarioConfig
from ..rootdata import root_system
from ..weyl import weyl_group


def build(cfg: ScenarioConfig) -> Report:
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
