"""Compare split and twisted restriction images across small types.

For each (type, prime) pair the split form (all indices 1) and the
maximally twisted uniform form (index = exponent of the fundamental
group restricted to the lattice quotient, capped at a p-power) are run
through the same engine, and the image dimensions in each degree are
printed side by side.

    python scripts/split_vs_twisted.py
    python scripts/split_vs_twisted.py --types A2 B2 --primes 2 3
"""

import argparse
from dataclasses import dataclass

from gammaflag import (
    BrauerModel,
    CharacterLattice,
    ChowRing,
    RestrictionImage,
    root_system,
    vp,
    weyl_group,
)

DEFAULT_TYPES = ("A1", "A2", "A3", "B2", "G2", "D4")
DEFAULT_PRIMES = (2, 3)


@dataclass(frozen=True)
class CompareConfig:
    types: tuple[str, ...] = DEFAULT_TYPES
    primes: tuple[int, ...] = DEFAULT_PRIMES
    degree_cap: int = 2
    lattice_kind: str = "adjoint"


def twist_index(fg, p: int) -> int:
    # largest p-power order among fundamental-group elements; 1 = no twist
    best = 1
    for g in fg.quotient.elements():
        n = fg.quotient.element_order(g)
        best = max(best, p ** vp(n, p))
    return best


def run(cfg: CompareConfig) -> None:
    # every type and prime is checked before the first line is printed,
    # so a bad one leaves stdout empty; the engines compute nothing yet
    pairs = []
    for name in cfg.types:
        rs = root_system(name)
        chow = ChowRing(weyl_group(rs), degree_cap=cfg.degree_cap)
        lattice = CharacterLattice(rs, cfg.lattice_kind)
        fg = rs.fundamental_group()
        for p in cfg.primes:
            index = twist_index(fg, p)
            split = RestrictionImage(
                chow, BrauerModel.uniform(fg, 1, p), lattice)
            twisted = RestrictionImage(
                chow, BrauerModel.uniform(fg, index, p), lattice)
            pairs.append((name, p, index, split, twisted))
    print("type\tp\tindex\tdegree\tdim split\tdim twisted")
    for name, p, index, split, twisted in pairs:
        for m in range(1, min(p, cfg.degree_cap) + 1):
            dim_s = split.image(m).subspace.dim
            dim_t = twisted.image(m).subspace.dim
            print(f"{name}\t{p}\t{index}\t{m}\t{dim_s}\t{dim_t}")
    print()
    print("index 1 means the fundamental group has no p-part, so both "
          "models are split and the columns agree by construction")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--types", nargs="+", default=list(DEFAULT_TYPES),
                        help="Cartan types to sweep (default %(default)s)")
    parser.add_argument("--primes", nargs="+", type=int,
                        default=list(DEFAULT_PRIMES),
                        help="primes to sweep (default %(default)s)")
    parser.add_argument("--degree-cap", type=int, default=2,
                        help="largest Chow degree compared (default 2)")
    parser.add_argument("--lattice", default="adjoint",
                        choices=["adjoint", "simply_connected"],
                        help="character lattice (default adjoint)")
    args = parser.parse_args()
    if args.degree_cap < 1:
        parser.error("--degree-cap must be positive")
    try:
        run(CompareConfig(types=tuple(args.types), primes=tuple(args.primes),
                          degree_cap=args.degree_cap,
                          lattice_kind=args.lattice))
    except (ValueError, LookupError) as e:  # bad type or prime, size guard
        parser.error(str(e))


if __name__ == "__main__":
    main()
