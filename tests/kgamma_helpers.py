"""Shared builder for fully wired restriction-image engines."""

from gammaflag import (
    BrauerModel,
    ChowRing,
    RestrictionImage,
    root_system,
    weyl_group,
)


def engine_for(name: str, p: int, index: int,
               cap: int | None = None) -> RestrictionImage:
    """Uniform-index engine over the full flag variety of the given type."""
    rs = root_system(name)
    chow = ChowRing(weyl_group(rs), degree_cap=cap if cap is not None else p)
    return RestrictionImage(chow, BrauerModel.uniform(
        rs.fundamental_group(), index, p))
