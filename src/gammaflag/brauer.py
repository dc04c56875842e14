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
import types
from collections import namedtuple

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


def _axiom_violations(fg: CharacterLattice, ind: dict) -> list[str]:
    """Every axiom the index map breaks (empty: none)."""
    if fg.kind != "adjoint":
        return [f"index data lives on the fundamental group (the adjoint "
                f"lattice), not on the {fg.kind} lattice"]
    problems = []
    g = fg.quotient
    elements = g.elements()
    missing = [e for e in elements if e not in ind]
    if missing:
        problems.append(
            "missing index values for elements: "
            + ", ".join(g.label(e) for e in missing)
        )
        return problems
    extra = [e for e in ind if e not in set(elements)]
    if extra:
        problems.append(f"index map has entries outside the group: {extra}")
    if any(type(v) is not int or v < 1 for v in ind.values()):
        problems.append("indices must be positive integers")
        return problems
    if ind[g.identity()] != 1:
        problems.append(f"ind(identity) = {ind[g.identity()]}, expected 1")
    for e in elements:
        if ind[e] != ind[g.neg(e)]:
            problems.append(
                f"ind({g.label(e)}) != ind(-{g.label(e)}) "
                f"({ind[e]} vs {ind[g.neg(e)]})"
            )
    for a, b in itertools.product(elements, repeat=2):
        s = g.add(a, b)
        if (ind[a] * ind[b]) % ind[s] != 0:
            problems.append(
                f"ind({g.label(s)}) = {ind[s]} does not divide "
                f"ind({g.label(a)}) * ind({g.label(b)}) = {ind[a] * ind[b]}"
            )
    return problems


class BrauerModel(namedtuple("BrauerModel", "fg ind p")):
    """Index data at a prime: ``ind`` maps each element of the fundamental
    group ``fg.quotient`` to its index, where ``fg`` is the adjoint
    lattice of the root system ``fg.rs``.  The constructor (``_replace``
    too) refuses a p that is not prime and index data that breaks an
    axiom, and keeps ``ind`` read-only, so a model is always valid."""

    __slots__ = ()

    def __new__(cls, fg: CharacterLattice, ind: dict, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        ind = types.MappingProxyType(dict(ind))
        problems = _axiom_violations(fg, ind)
        if problems:
            raise ValueError("invalid index model: " + "; ".join(problems))
        return super().__new__(cls, fg, ind, p)

    @classmethod
    def _make(cls, iterable) -> "BrauerModel":
        return cls(*iterable)

    def max_valuation(self) -> int:
        return max(vp(v, self.p) for v in self.ind.values())

    @classmethod
    def uniform(cls, fg: CharacterLattice, index: int, p: int) -> "BrauerModel":
        """Every non-identity element gets the same index (axioms hold for
        any positive value)."""
        g = fg.quotient
        ind = {e: (1 if e == g.identity() else index) for e in g.elements()}
        return cls(fg, ind, p)

    @classmethod
    def split(cls, fg: CharacterLattice, p: int) -> "BrauerModel":
        return cls.uniform(fg, 1, p)

    @classmethod
    def from_labels(cls, fg: CharacterLattice, labelled: dict[str, int],
                    p: int) -> "BrauerModel":
        g = fg.quotient
        ind, labels = {}, {}
        for label, value in labelled.items():
            e = g.parse_label(label)
            if labels.setdefault(e, label) != label:
                raise ValueError(f"labels {labels[e]!r} and {label!r} both "
                                 f"name the class {g.label(e)}")
            ind[e] = int(value)
        return cls(fg, ind, p)


class CommonIndexReport(namedtuple(
        "CommonIndexReport", "defined value valuation generators witness")):
    """gcd of indices over combinations of the degree-1 generator classes.

    ``generators`` are 1-based fundamental-weight indices and ``witness``
    the exponent tuple of least p-valuation; ``value``, ``valuation`` and
    ``witness`` are None when the report is not ``defined``.
    """

    __slots__ = ()


def common_index(model: BrauerModel, generators) -> CommonIndexReport:
    """Common index over the degree-1 generators omega_{i_1}..omega_{i_s}
    of the model's root system.

    Runs over exponent tuples (a_1..a_s) with residues modulo the group
    exponent and at least one a_l coprime to p, taking the gcd of
    ind(sum a_l * class(omega_{i_l})).  With no generators the quantity is
    undefined and the report says so (downstream statements are vacuous).
    """
    gens = tuple(generators)
    if not gens:
        return CommonIndexReport(False, None, None, gens, None)
    fg = model.fg
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
