"""Exact-arithmetic gamma-filtration and Chow-ring invariants of flag
varieties under twisting by abstract index data."""

from .brauer import BrauerModel, CommonIndexReport, common_index, vp
from .formal_bundles import (
    FormalBundle,
    TruncatedChowPoly,
    binomial_gamma_expansion,
    check_gamma1_product_chern,
    check_gamma_chern_scaling,
    chern_component,
    gamma1,
    gamma_of_sum,
    total_chern,
)
from .jinv import (
    JConstraint,
    KacPresentation,
    TheoremReport,
    deglex_less,
    deglex_weight,
    degree1_generators,
    ideal_equality_report,
    j1_constraints,
    kac_presentation,
)
from .kgamma import RestrictionImage, SteinbergTable
from .rootdata import (
    CharacterLattice,
    FiniteAbelianGroup,
    RootSystem,
    build_root_system,
    root_system,
)
from .schubert import ChowRing, SchubertClass, SubspaceBasis
from .weyl import WeylGroup, weyl_group

__version__ = "0.1.0"

__all__ = [
    "BrauerModel", "CommonIndexReport", "common_index", "vp",
    "FormalBundle", "TruncatedChowPoly", "binomial_gamma_expansion",
    "check_gamma1_product_chern", "check_gamma_chern_scaling",
    "chern_component", "gamma1", "gamma_of_sum", "total_chern",
    "JConstraint", "KacPresentation", "TheoremReport",
    "deglex_less", "deglex_weight", "degree1_generators",
    "ideal_equality_report", "j1_constraints", "kac_presentation",
    "RestrictionImage", "SteinbergTable",
    "CharacterLattice", "FiniteAbelianGroup",
    "RootSystem", "build_root_system", "root_system",
    "ChowRing", "SchubertClass", "SubspaceBasis",
    "WeylGroup", "weyl_group",
    "__version__",
]
