"""Sweep the E6 adjoint scenario over generator indices 3^0..3^3.

For each index the script reports the common index of the twisted form,
the admissible first exponent of its J-invariant, and the degree-by-degree
comparison of the characteristic ideal with the twisted-restriction ideal.

    python scripts/e6_index_sweep.py
    python scripts/e6_index_sweep.py --max-d 2 --degree-cap 2
"""

import argparse
import time
from dataclasses import dataclass

from gammaflag import (
    BrauerModel,
    ChowRing,
    RestrictionImage,
    common_index,
    degree1_generators,
    ideal_equality_report,
    j1_constraints,
    kac_presentation,
    root_system,
    weyl_group,
)


@dataclass(frozen=True)
class SweepConfig:
    max_d: int = 3          # indices 3^0 .. 3^max_d
    degree_cap: int = 3     # ideal degrees compared, <= p


def run(cfg: SweepConfig) -> None:
    rs = root_system("E6")
    p = 3
    t0 = time.perf_counter()
    chow = ChowRing(weyl_group(rs), degree_cap=cfg.degree_cap)
    # the adjoint lattice, built once with the fundamental group it carries
    lattice = fg = rs.fundamental_group()
    pres = kac_presentation(lattice, p)
    gens = degree1_generators(lattice, p)
    gen_names = ", ".join(f"omega_{i}" for i in gens)
    print(f"E6 adjoint, p = {p}, degree-1 generators: {gen_names}")
    print(f"setup {time.perf_counter() - t0:.1f}s")
    print()
    header = ["index", "common", "j1"]
    header += [f"dim m={m}" for m in range(1, cfg.degree_cap + 1)]
    print("\t".join(header))
    for d in range(cfg.max_d + 1):
        index = p**d
        model = BrauerModel.uniform(fg, index, p)
        found = common_index(model, gens)
        _, constraints = j1_constraints(model, lattice, pres)
        j1 = "/".join(str(v) for v in constraints[0].admissible)
        engine = RestrictionImage(chow, model, lattice)
        outcome = ideal_equality_report(engine)
        cells = [str(index), str(found.value), j1]
        for entry in outcome.degrees:
            if not entry.applicable:
                cells.append("-")
            else:
                tag = "=" if entry.equal else "!="
                cells.append(f"{entry.dim_twisted}{tag}{entry.dim_char}")
        print("\t".join(cells))
    print()
    print(f"total {time.perf_counter() - t0:.1f}s "
          "(cells show twisted vs characteristic ideal dimension; "
          "'-' = common-index premise not met)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-d", type=int, default=3,
                        help="largest exponent d in index 3^d (default 3)")
    parser.add_argument("--degree-cap", type=int, default=3,
                        help="compare ideal degrees 1..cap, cap <= 3")
    args = parser.parse_args()
    if not 0 <= args.max_d <= 6:
        parser.error("--max-d must be in 0..6")
    if not 1 <= args.degree_cap <= 3:
        parser.error("--degree-cap must be in 1..3 (p = 3)")
    run(SweepConfig(max_d=args.max_d, degree_cap=args.degree_cap))


if __name__ == "__main__":
    main()
