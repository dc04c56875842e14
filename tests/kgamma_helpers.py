"""Shared builder for fully wired restriction-image engines."""

from gammaflag import (
    BrauerModel,
    CharacterLattice,
    ChowRing,
    RestrictionImage,
    root_system,
    weyl_group,
)


def engine_for(name: str, lattice_kind, p: int, index: int,
               cap: int | None = None) -> RestrictionImage:
    """Uniform-index engine over the full flag variety of the given type."""
    rs = root_system(name)
    chow = ChowRing(weyl_group(rs), degree_cap=cap if cap is not None else p)
    model = BrauerModel.uniform(rs.fundamental_group(), index, p)
    lattice = CharacterLattice(rs, lattice_kind)
    return RestrictionImage(chow, model, lattice)
