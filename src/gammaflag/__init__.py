"""Exact-arithmetic gamma-filtration and Chow-ring invariants of flag
varieties under twisting by abstract index data.

Each public name is imported from its submodule on first use, so a
process loads only the modules it reaches.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in [
    ("brauer", "BrauerModel CommonIndexReport common_index vp"),
    ("formal_bundles", "FormalBundle TruncatedChowPoly "
     "binomial_gamma_expansion check_gamma1_product_chern "
     "check_gamma_chern_scaling chern_component gamma1 gamma_of_sum "
     "total_chern"),
    ("jinv", "JConstraint KacPresentation TheoremReport deglex_less "
     "deglex_weight degree1_generators ideal_equality_report "
     "j1_constraints kac_presentation"),
    ("kgamma", "RestrictionImage SteinbergTable"),
    ("rootdata", "CharacterLattice FiniteAbelianGroup RootSystem "
     "build_root_system root_system"),
    ("schubert", "ChowRing SchubertClass SubspaceBasis"),
    ("weyl", "WeylGroup weyl_group"),
] for name in names.split()}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    """Import a public name from its submodule and keep it here."""
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(__import__(module, globals(), None, [name], 1), name)
    globals()[name] = value
    return value
