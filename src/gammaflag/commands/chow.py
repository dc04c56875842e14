"""``gammaflag chow``: Schubert basis dimensions and divisor products."""

from __future__ import annotations

import functools

from ..cli import Report, ScenarioConfig
from ..rootdata import root_system
from ..schubert import ChowRing
from ..weyl import weyl_group


def _sigma(word) -> str:
    return f"sigma[{','.join(map(str, word))}]"


def build(cfg: ScenarioConfig) -> Report:
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
