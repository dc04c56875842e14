"""Sweep uniform index models: one tsv row per type, prime, index, degree.

For each type, each prime p dividing |Lambda/Lambda_r|, each uniform index
p^d (d = 0..3) on the adjoint lattice and each degree m = 1..p:

    common     the common index over the degree-1 generators
    j1         the admissible values of the first J-invariant exponent
    image_dim  the dimension of the twisted restriction image in CH^m mod p
    ideal      the twisted ideal's dimension, = or != the characteristic
               ideal's

'-' marks a degree where the common-index premise is not met (ideal), or
a type and prime with no bundled presentation (j1).  Every row is built
before the first is printed, so bad input prints nothing and exits 2.

    python scripts/index_sweep.py
    python scripts/index_sweep.py --types A2 E6
"""

import argparse
import os
import sys

from gammaflag import (
    BrauerModel,
    ChowRing,
    RestrictionImage,
    ideal_equality_report,
    j1_constraints,
    kac_presentation,
    root_system,
    weyl_group,
)
from gammaflag.brauer import is_prime

DEFAULT_TYPES = ("A1", "A2", "A3", "B2", "D4", "E6")
HEADER = ("type", "p", "index", "common", "j1", "m", "image_dim", "ideal")


def rows(name: str):
    """The rows of one type, prime by prime, index by index."""
    rs = root_system(name)
    # the adjoint lattice: the model's classes and the characteristic ideal
    fg = rs.fundamental_group()
    order = fg.quotient.order
    for p in filter(is_prime, range(2, order + 1)):
        if order % p:
            continue
        chow = ChowRing(weyl_group(rs), degree_cap=p)
        try:
            pres = kac_presentation(fg, p)
        except LookupError:
            pres = None
        for index in (p**d for d in range(4)):
            model = BrauerModel.uniform(fg, index, p)
            engine = RestrictionImage(chow, model)
            report = ideal_equality_report(engine, fg)
            j1 = None if pres is None else "/".join(map(str, j1_constraints(
                model, fg, pres)[1][0].admissible))
            for d in report.degrees:
                ideal = (f"{d.dim_twisted}{'=' if d.equal else '!='}"
                         f"{d.dim_char}" if d.applicable else None)
                yield (name, p, index, report.common.value, j1, d.m,
                       engine.image(d.m).subspace.dim, ideal)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--types", nargs="+", default=list(DEFAULT_TYPES),
                        metavar="XN", help="Dynkin types (default %(default)s)")
    args = parser.parse_args()
    try:
        table = [HEADER, *(row for name in args.types for row in rows(name))]
    except (ValueError, LookupError) as e:  # a bad type, the size guard
        parser.error(str(e))
    try:
        sys.stdout.write("".join(
            "\t".join("-" if c is None else str(c) for c in row) + "\n"
            for row in table))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left, as `| head` does: send the flush at exit to
        # devnull instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
