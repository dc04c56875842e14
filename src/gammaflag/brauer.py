"""Abstract index data for twisting torsors.

A model assigns to every element of the fundamental group (the class
group of Tits algebras) a positive integer index, constrained only by
the axioms that hold for Schur indices of Brauer classes:

    ind(0) = 1,   ind(g) = ind(-g),   ind(g+h) | ind(g) * ind(h).

Whether a model arises from an actual torsor over some field is out of
scope; everything downstream consumes just these numbers.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .rootdata import CharacterLattice, Weight

__all__ = ["BrauerModel", "CommonIndexReport", "common_index", "is_prime", "vp"]


def vp(n: int, p: int) -> int:
    """p-adic valuation of a positive integer."""
    if n <= 0:
        raise ValueError("valuation needs a positive integer")
    if p < 2:
        raise ValueError("p must be >= 2")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_prime(n: int) -> bool:
    """Exact primality by trial division up to isqrt(n)."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


class BrauerModel(namedtuple("BrauerModel", "group ind p")):
    """Index assignment on a finite abelian group, at a chosen prime:
    ``ind`` maps each element of ``group`` to its index."""

    __slots__ = ()

    def validate(self) -> list[str]:
        """All axiom violations (empty list = valid)."""
        problems = []
        g = self.group
        elements = g.elements()
        missing = [e for e in elements if e not in self.ind]
        if missing:
            problems.append(
                "missing index values for elements: "
                + ", ".join(g.label(e) for e in missing)
            )
            return problems
        extra = [e for e in self.ind if e not in set(elements)]
        if extra:
            problems.append(f"index map has entries outside the group: {extra}")
        if any(v < 1 for v in self.ind.values()):
            problems.append("indices must be positive integers")
            return problems
        if self.ind[g.identity()] != 1:
            problems.append(
                f"ind(identity) = {self.ind[g.identity()]}, expected 1"
            )
        for e in elements:
            if self.ind[e] != self.ind[g.neg(e)]:
                problems.append(
                    f"ind({g.label(e)}) != ind(-{g.label(e)}) "
                    f"({self.ind[e]} vs {self.ind[g.neg(e)]})"
                )
        for a, b in itertools.product(elements, repeat=2):
            s = g.add(a, b)
            if (self.ind[a] * self.ind[b]) % self.ind[s] != 0:
                problems.append(
                    f"ind({g.label(s)}) = {self.ind[s]} does not divide "
                    f"ind({g.label(a)}) * ind({g.label(b)}) = "
                    f"{self.ind[a] * self.ind[b]}"
                )
        return problems

    def require_valid(self) -> "BrauerModel":
        problems = self.validate()
        if problems:
            raise ValueError("invalid index model: " + "; ".join(problems))
        return self

    def check_group(self, fg: CharacterLattice) -> None:
        if self.group.factors != fg.quotient.factors:
            raise ValueError(
                f"index model group {self.group.factors} does not match the "
                f"fundamental group {fg.quotient.factors} of the root system"
            )

    def index_of(self, e: tuple[int, ...]) -> int:
        return self.ind[e]

    def tits_index(self, fg: CharacterLattice, w: Weight) -> int:
        """Index of the Tits algebra attached to a weight's class."""
        self.check_group(fg)
        return self.ind[fg.class_of(w)]

    def max_valuation(self) -> int:
        return max(vp(v, self.p) for v in self.ind.values())

    @classmethod
    def uniform(cls, fg: CharacterLattice, index: int, p: int) -> "BrauerModel":
        """Every non-identity element gets the same index (axioms hold for
        any positive value)."""
        g = fg.quotient
        ind = {e: (1 if e == g.identity() else index) for e in g.elements()}
        return cls(group=g, ind=ind, p=p)

    @classmethod
    def split(cls, fg: CharacterLattice, p: int) -> "BrauerModel":
        return cls.uniform(fg, 1, p)

    @classmethod
    def from_labels(cls, fg: CharacterLattice, labelled: dict[str, int],
                    p: int) -> "BrauerModel":
        g = fg.quotient
        ind = {g.parse_label(k): int(v) for k, v in labelled.items()}
        return cls(group=g, ind=ind, p=p)


class CommonIndexReport(namedtuple(
        "CommonIndexReport", "defined value valuation generators witness")):
    """gcd of indices over combinations of the degree-1 generator classes.

    ``generators`` are 1-based fundamental-weight indices and ``witness``
    the exponent tuple of least p-valuation; ``value``, ``valuation`` and
    ``witness`` are None when the report is not ``defined``.
    """

    __slots__ = ()

    @property
    def vacuous(self) -> bool:
        return not self.defined


def common_index(model: BrauerModel, fg: CharacterLattice,
                 generators) -> CommonIndexReport:
    """Common index over the degree-1 generators omega_{i_1}..omega_{i_s}.

    Runs over exponent tuples (a_1..a_s) with residues modulo the group
    exponent and at least one a_l coprime to p, taking the gcd of
    ind(sum a_l * class(omega_{i_l})).  With no generators the quantity is
    undefined and the report says so (downstream statements are vacuous).
    """
    model.check_group(fg)
    gens = tuple(generators)
    if not gens:
        return CommonIndexReport(False, None, None, gens, None)
    g = fg.quotient
    classes = [fg.omega_classes[i - 1] for i in gens]
    e = g.exponent
    best: tuple[int, tuple[int, ...]] | None = None
    acc = 0
    for pows in itertools.product(range(e), repeat=len(gens)):
        if not any(math.gcd(a, model.p) == 1 for a in pows):
            continue
        s = g.identity()
        for a, c in zip(pows, classes):
            s = g.add(s, g.scale(a, c))
        val = model.ind[s]
        acc = math.gcd(acc, val)
        key = vp(val, model.p)
        if best is None or key < best[0]:
            best = (key, pows)
    assert acc > 0 and best is not None
    return CommonIndexReport(
        defined=True,
        value=acc,
        valuation=vp(acc, model.p),
        generators=gens,
        witness=best[1],
    )
