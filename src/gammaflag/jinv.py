"""Constraints on the motivic J-invariant from index data.

Ch(G; F_p) is a truncated polynomial algebra F_p[x_1..x_r]/(x_i^{p^{k_i}})
with generator degrees d_1 <= ... <= d_r; the J-invariant of a twisted
form is the r-tuple of exponents, ordered by DegLex, singled out by that
presentation.  Only the degree-1 generators are constrained here: their
possible values are pinned between an upper bound from the Tits-algebra
index of the matching fundamental weight and lower bounds from the
common-index criterion.

The bundled presentation table deliberately contains a single entry (E6,
adjoint lattice, p = 3); anything else must be supplied as user data.
"""

from __future__ import annotations

from collections import namedtuple

from .brauer import BrauerModel, CommonIndexReport, common_index, vp
from .kgamma import RestrictionImage
from .rootdata import CharacterLattice, RootSystem
from .schubert import ChowRing, SubspaceBasis

__all__ = [
    "KacPresentation",
    "kac_presentation",
    "degree1_generators",
    "deglex_weight",
    "deglex_less",
    "JConstraint",
    "j1_constraints",
    "TheoremDegree",
    "TheoremReport",
    "ideal_equality_report",
]


class KacPresentation(namedtuple("KacPresentation", "degrees exponents")):
    """Generator degrees d_i and exponent bounds k_i (x_i^{p^{k_i}} = 0)."""

    __slots__ = ()

    def __new__(cls, degrees: tuple[int, ...], exponents: tuple[int, ...]):
        if len(degrees) != len(exponents):
            raise ValueError("degrees and exponents must have equal length")
        if any(d < 1 for d in degrees) or any(k < 1 for k in exponents):
            raise ValueError("degrees and exponents must be positive")
        if list(degrees) != sorted(degrees):
            raise ValueError("degrees must be non-decreasing")
        return super().__new__(cls, degrees, exponents)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def degree_one_count(self) -> int:
        return sum(1 for d in self.degrees if d == 1)


# The one presentation quotable from bundled sources.  Everything else is
# user data by design: silent extrapolation would be worse than an error.
_BUNDLED: dict[tuple[str, str, int], KacPresentation] = {
    ("E6", "adjoint", 3): KacPresentation(degrees=(1, 4), exponents=(2, 1)),
}


def kac_presentation(rs: RootSystem, lattice: CharacterLattice, p: int,
                     user_data: dict | None = None) -> KacPresentation:
    """Look up the presentation for (root system, lattice, prime).

    ``user_data`` maps "<type>:<lattice-kind>:<p>" to dicts with keys
    "degrees" and "exponents"; it is consulted before the bundled table so
    callers can extend or override.
    """
    key = (rs.name, lattice.kind, p)
    if user_data:
        tag = f"{rs.name}:{lattice.kind}:{p}"
        entry = user_data.get(tag)
        if entry is not None:
            pres = KacPresentation(
                degrees=tuple(entry["degrees"]),
                exponents=tuple(entry["exponents"]),
            )
            _check_presentation(pres, lattice, p)
            return pres
    pres = _BUNDLED.get(key)
    if pres is None:
        raise LookupError(
            f"no bundled presentation for {rs.name}/{lattice.kind}/p={p}; "
            "supply one as user data (keys 'degrees' and 'exponents' under "
            f"'{rs.name}:{lattice.kind}:{p}')"
        )
    _check_presentation(pres, lattice, p)
    return pres


def _check_presentation(pres: KacPresentation, lattice: CharacterLattice,
                        p: int) -> None:
    want = lattice.fp_dim(p)
    got = pres.degree_one_count()
    if got != want:
        raise ValueError(
            f"presentation has {got} degree-1 generators but the character "
            f"lattice quotient has F_{p}-dimension {want}"
        )


def degree1_generators(lattice: CharacterLattice, p: int) -> tuple[int, ...]:
    """Fundamental-weight indices whose classes span (Lambda/T*) mod p.

    Greedy from the lowest index, keeping a weight only when its class is
    F_p-independent of those already chosen; deterministic by construction.
    """
    dim = lattice.fp_dim(p)
    picked: list[int] = []
    if dim == 0:
        return ()
    span = SubspaceBasis(p, dim)
    for i in range(1, lattice.rs.rank + 1):
        cls = lattice.fp_class(lattice.rs.fundamental_weight(i), p)
        if span.insert(cls):
            picked.append(i)
            if len(picked) == dim:
                break
    return tuple(picked)


# -- DegLex order on exponent tuples ----------------------------------------


def deglex_weight(pres: KacPresentation, m) -> int:
    m = tuple(m)
    if len(m) != pres.rank:
        raise ValueError("tuple length does not match the presentation rank")
    return sum(d * x for d, x in zip(pres.degrees, m))


def deglex_less(pres: KacPresentation, m, n) -> bool:
    """Strict DegLex: smaller weighted degree wins; ties compare the entry
    at the greatest position where the tuples differ (strictly)."""
    m, n = tuple(m), tuple(n)
    wm, wn = deglex_weight(pres, m), deglex_weight(pres, n)
    if wm != wn:
        return wm < wn
    for i in range(pres.rank - 1, -1, -1):
        if m[i] != n[i]:
            return m[i] < n[i]
    return False


# -- constraints on the degree-1 exponents -----------------------------------


# position: 1-based slot among the degree-1 generators; omega_index: the
# fundamental weight providing the class; k: the exponent bound from the
# presentation; upper_sharp = min(k, v_p(ind of that weight's class));
# upper_coarse = min(k, max v_p over all elements)
JConstraint = namedtuple("JConstraint", "position omega_index k upper_sharp "
                         "upper_coarse admissible notes")


def j1_constraints(model: BrauerModel, lattice: CharacterLattice,
                   pres: KacPresentation) -> tuple[
                       CommonIndexReport, tuple[JConstraint, ...]]:
    """Admissible values for each degree-1 exponent of the J-invariant."""
    model.require_valid()
    p = model.p
    fg = lattice.rs.fundamental_group()
    model.check_group(fg)
    gens = degree1_generators(lattice, p)
    s = pres.degree_one_count()
    if len(gens) != s:
        raise ValueError(
            f"presentation expects {s} degree-1 generators, lattice gives "
            f"{len(gens)}"
        )
    report = common_index(model, fg, gens)
    coarse_cap = model.max_valuation()
    out = []
    for slot, omega_i in enumerate(gens, start=1):
        k = pres.exponents[slot - 1]
        iw = model.ind[fg.omega_classes[omega_i - 1]]
        upper_sharp = min(k, vp(iw, p))
        upper_coarse = min(k, coarse_cap)
        admissible = set(range(0, upper_sharp + 1))
        notes = [
            f"upper bound min(k={k}, v_{p}(ind(class of omega_{omega_i}))"
            f"={vp(iw, p)})",
        ]
        if report.defined and report.valuation is not None:
            v = report.valuation
            if v > 0 and k > 0 and 0 in admissible:
                admissible.discard(0)
                notes.append(
                    f"common index valuation {v} > 0 rules out 0"
                )
            if v > 1 and k > 1 and 1 in admissible:
                admissible.discard(1)
                notes.append(
                    f"common index valuation {v} > 1 rules out 1"
                )
        if s == 1 and coarse_cap > 0 and 0 in admissible:
            # a non-split algebra forces some degree-1 exponent positive;
            # with a single generator that pins this one
            admissible.discard(0)
            notes.append(
                "some algebra is non-split and the generator is unique, "
                "ruling out 0"
            )
        if not admissible:
            raise ValueError(
                f"no admissible exponent for degree-1 generator {slot} "
                f"(omega_{omega_i}): constraints are inconsistent"
            )
        out.append(JConstraint(
            position=slot,
            omega_index=omega_i,
            k=k,
            upper_sharp=upper_sharp,
            upper_coarse=upper_coarse,
            admissible=tuple(sorted(admissible)),
            notes=tuple(notes),
        ))
    return report, tuple(out)


# -- index hypothesis: equality of the split and twisted ideals --------------


# the dimensions and ``equal`` are None where the degree is not applicable
TheoremDegree = namedtuple("TheoremDegree",
                           "m applicable dim_char dim_twisted equal")


class TheoremReport(namedtuple("TheoremReport", "prime common degrees")):
    """The CommonIndexReport and one TheoremDegree per compared degree."""

    __slots__ = ()

    @property
    def vacuous(self) -> bool:
        return all(not d.applicable for d in self.degrees)

    @property
    def verified(self) -> bool:
        return all(d.equal for d in self.degrees if d.applicable)

    def failures(self) -> tuple[int, ...]:
        return tuple(d.m for d in self.degrees if d.applicable and not d.equal)


def ideal_equality_report(engine: RestrictionImage,
                          max_degree: int | None = None) -> TheoremReport:
    """Compare the characteristic-map ideal with the twisted-restriction
    ideal, degree by degree, where the common-index premise applies.

    Degrees run from 1 to min(p, Chow cap, max_degree).  Degree 1 needs
    common-index valuation > 0; degrees 2..p need valuation > 1.
    """
    chow: ChowRing = engine.chow
    lattice: CharacterLattice = engine.lattice
    p = engine.p
    fg = lattice.rs.fundamental_group()
    gens = degree1_generators(lattice, p)
    report = common_index(engine.model, fg, gens)
    top = engine.max_degree if max_degree is None else min(max_degree,
                                                           engine.max_degree)
    v = report.valuation if report.defined else None
    entries = []
    for m in range(1, top + 1):
        applicable = v is not None and (v > 0 if m == 1 else v > 1)
        if not applicable:
            entries.append(TheoremDegree(m, False, None, None, None))
            continue
        split_side = chow.char_ideal(lattice, m, p)
        twisted_side = engine.ideal(m)
        entries.append(TheoremDegree(
            m=m,
            applicable=True,
            dim_char=split_side.dim,
            dim_twisted=twisted_side.dim,
            equal=split_side == twisted_side,
        ))
    return TheoremReport(prime=p, common=report, degrees=tuple(entries))
