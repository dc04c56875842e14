"""Constraints on the motivic J-invariant from index data.

Ch(G; F_p) is a truncated polynomial algebra F_p[x_1..x_r]/(x_i^{p^{k_i}})
with generator degrees d_1 <= ... <= d_r; the J-invariant of a twisted
form is the r-tuple of exponents, ordered by DegLex, singled out by that
presentation.  Only the degree-1 generators are constrained here: their
possible values are pinned between an upper bound from the Tits-algebra
index of the matching fundamental weight and lower bounds from the
common-index criterion.

The bundled presentation table deliberately contains a single entry (E6,
adjoint lattice, p = 3); for anything else the caller builds a
``KacPresentation`` (on the command line, the config key "kac").
"""

from __future__ import annotations

from collections import namedtuple

from .brauer import BrauerModel, CommonIndexReport, common_index, vp
from .rootdata import CharacterLattice
from .schubert import SubspaceBasis

__all__ = [
    "KacPresentation",
    "kac_presentation",
    "degree1_generators",
    "JConstraint",
    "j1_constraints",
    "TheoremDegree",
    "TheoremReport",
    "ideal_equality_report",
]


class KacPresentation(namedtuple("KacPresentation", "degrees exponents")):
    """Generator degrees d_i and exponent bounds k_i (x_i^{p^{k_i}} = 0)."""

    __slots__ = ()

    def __new__(cls, degrees, exponents):
        degrees, exponents = tuple(degrees), tuple(exponents)
        if len(degrees) != len(exponents):
            raise ValueError("degrees and exponents must have equal length")
        if any(d < 1 for d in degrees) or any(k < 1 for k in exponents):
            raise ValueError("degrees and exponents must be positive")
        if list(degrees) != sorted(degrees):
            raise ValueError("degrees must be non-decreasing")
        return super().__new__(cls, degrees, exponents)

    def degree_one_count(self) -> int:
        return sum(1 for d in self.degrees if d == 1)


# The one presentation quotable from bundled sources.  Everything else is
# given by the caller by design: silent extrapolation would be worse than
# an error.
_BUNDLED: dict[tuple[str, str, int], KacPresentation] = {
    ("E6", "adjoint", 3): KacPresentation(degrees=(1, 4), exponents=(2, 1)),
}


def kac_presentation(lattice: CharacterLattice, p: int) -> KacPresentation:
    """The bundled presentation for (the lattice's root system, its kind,
    p); ``j1_constraints`` checks it against the lattice."""
    name, kind = lattice.rs.name, lattice.kind
    pres = _BUNDLED.get((name, kind, p))
    if pres is None:
        raise LookupError(
            f"no bundled presentation for {name}/{kind}/p={p}; give one "
            'under the config key "kac" as {"degrees": [...], '
            '"exponents": [...]}'
        )
    return pres


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
    factors = lattice.quotient.factors
    for i, cls in enumerate(lattice.omega_classes, 1):
        # the image of omega_i in (Lambda/T*) tensor F_p
        if span.insert([c % p for c, d in zip(cls, factors) if d % p == 0]):
            picked.append(i)
            if len(picked) == dim:
                break
    return tuple(picked)


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
    p = model.p
    if model.fg.rs != lattice.rs:
        raise ValueError("index model belongs to a different root system")
    gens = degree1_generators(lattice, p)
    s = pres.degree_one_count()
    if len(gens) != s:
        raise ValueError(
            f"presentation has {s} degree-1 generators but the character "
            f"lattice quotient has F_{p}-dimension {len(gens)}"
        )
    report = common_index(model, gens)
    coarse_cap = model.max_valuation()
    out = []
    for slot, omega_i in enumerate(gens, start=1):
        k = pres.exponents[slot - 1]
        iw = model.ind[model.fg.omega_classes[omega_i - 1]]
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
                          lattice: CharacterLattice) -> TheoremReport:
    """Compare the characteristic ideal of ``lattice`` with the engine's
    twisted ideal, degree by degree, where the common-index premise
    applies.  A lattice of another root system is refused first, also
    where no degree applies.

    Degrees run from 1 to the engine's ``max_degree``, min(p, Chow cap).
    Degree 1 needs common-index valuation > 0; degrees 2..p need
    valuation > 1.
    """
    chow: ChowRing = engine.chow
    chow._check_lattice(lattice)
    p = engine.p
    report = common_index(engine.model, degree1_generators(lattice, p))
    v = report.valuation if report.defined else None
    entries = []
    for m in range(1, engine.max_degree + 1):
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
