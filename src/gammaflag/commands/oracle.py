"""``gammaflag oracle``: formal identities on sums of line bundles."""

from __future__ import annotations

import itertools

from ..cli import Report, ScenarioConfig, UsageError
from ..formal_bundles import (
    binomial_gamma_expansion,
    check_gamma1_product_chern,
    check_gamma_chern_scaling,
)


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


def build(cfg: ScenarioConfig) -> Report:
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
