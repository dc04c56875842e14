"""Steinberg line-bundle basis and twisted-form restriction images.

The K-theory of a full flag variety is free on line-bundle classes
g_w = [L(rho_w)] indexed by Weyl elements, with

    rho_w = w(sum of omega_i over the descent set of w).

For a twisted form, only multiples survive restriction: the image of the
m-th gamma-filtration quotient in CH^m mod p is spanned by

    binom(i_{w_1}, a_1) * ... * binom(i_{w_k}, a_k)
        * c_1(g_{w_1})^{a_1} * ... * c_1(g_{w_k})^{a_k},
    a_1 + ... + a_k = m,

where i_w is the index attached to the class of rho_w (the leading
(m-1)! factor is a unit mod p for m <= p and is dropped).  Generators are
deduplicated on (c_1(g_w) mod p, binomials mod p): both factors of a
generator's contribution are multilinear or binomial in exactly that
data, so by Lucas' theorem the key i_w mod p^2 (equivalently, the reduced
binomials up to degree p) loses nothing.  Multi-part generators are
streamed as (single part) x (pivot generator of the lower-degree image),
an exact span identity that keeps the enumeration bounded even for
|W| = 51840.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .brauer import BrauerModel, is_prime
from .rootdata import CharacterLattice, Weight
from .schubert import ChowRing, SubspaceBasis
from .weyl import WeylGroup

__all__ = [
    "SteinbergTable",
    "RestrictionImage",
    "ImagePiece",
    "gamma_generator_multisets",
    "gamma_generator_count",
]


class SteinbergTable:
    """rho_w, its first Chern coordinates and its Brauer class, for all w."""

    def __init__(self, group: WeylGroup):
        if not group.is_full:
            raise ValueError(
                "the Steinberg basis needs the full Weyl enumeration"
            )
        self.group = group
        self.rs = group.rs
        self.fg = group.rs.fundamental_group()
        n = self.rs.rank
        omegas = [self.rs.fundamental_weight(i) for i in range(1, n + 1)]
        rhos = []
        classes = []
        gcls = self.fg.group
        ocls = self.fg.omega_classes
        for k in range(len(group)):
            ds = group.descent_set(k)
            if ds:
                tot = [0] * n
                c = gcls.identity()
                for i in ds:
                    w = omegas[i - 1]
                    for j in range(n):
                        tot[j] += w[j]
                    c = gcls.add(c, ocls[i - 1])
                rhos.append(group.act(k, tuple(tot)))
                classes.append(c)
            else:
                rhos.append((0,) * n)
                classes.append(gcls.identity())
        self.rhos: list[Weight] = rhos
        self.classes: list[tuple[int, ...]] = classes

    def __len__(self) -> int:
        return len(self.rhos)

    def rho(self, k: int) -> Weight:
        return self.rhos[k]

    def brauer_class(self, k: int) -> tuple[int, ...]:
        return self.classes[k]

    def tits_index(self, k: int, model: BrauerModel) -> int:
        model.check_group(self.fg)
        return model.index_of(self.classes[k])


def gamma_generator_multisets(group: WeylGroup, m: int):
    """Multisets of Weyl elements of size m: the split-side degree-m
    generator stream (each factor contributing one c_1(g_w))."""
    return itertools.combinations_with_replacement(range(len(group)), m)


def gamma_generator_count(group: WeylGroup, m: int) -> int:
    return math.comb(len(group) + m - 1, m)


@dataclass(frozen=True)
class ImagePiece:
    """One computed degree: the subspace plus the raw generators whose
    insertion grew it (each raw generator is scalar * product of c_1's)."""

    degree: int
    subspace: SubspaceBasis
    pivots: tuple[tuple[int, tuple[Weight, ...]], ...]


class RestrictionImage:
    """Degree-by-degree mod-p image of restriction from a twisted form.

    Also assembles the ideal generated by all lower-degree images, the
    object the index hypothesis constrains.
    """

    def __init__(self, chow: ChowRing, steinberg: SteinbergTable,
                 model: BrauerModel, lattice: CharacterLattice):
        if chow.group is not steinberg.group:
            raise ValueError("Chow ring and Steinberg table disagree on W")
        model.require_valid()
        model.check_group(steinberg.fg)
        if lattice.rs != chow.rs:
            raise ValueError("lattice belongs to a different root system")
        p = model.p
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.chow = chow
        self.steinberg = steinberg
        self.model = model
        self.lattice = lattice
        self.p = p
        self.max_degree = min(chow.degree_cap, p)
        self._keys = self._dedup_keys()
        self._images: dict[int, ImagePiece] = {}
        self._ideals: dict[int, SubspaceBasis] = {}

    def _dedup_keys(self) -> list[tuple[Weight, tuple[int, ...]]]:
        """Distinct (c_1(g_w) mod p, binomials binom(i_w, 1..D) mod p)."""
        p = self.p
        top = self.max_degree
        seen = {}
        st = self.steinberg
        ind = self.model.ind
        for k in range(len(st)):
            i_w = ind[st.classes[k]]
            rho_p = tuple(x % p for x in st.rhos[k])
            # exact binomials on the true index, reduced afterwards
            binoms = tuple(math.comb(i_w, j) % p for j in range(1, top + 1))
            if any(binoms):
                seen.setdefault((rho_p, binoms), None)
        return [key for key in seen]

    # -- restriction image, one degree at a time --------------------------

    def image(self, m: int) -> ImagePiece:
        if not 1 <= m <= self.p:
            raise ValueError(
                f"degree {m} unavailable: the leading (m-1)! factor is only "
                f"a unit mod {self.p} for m <= {self.p}"
            )
        if m > self.max_degree:
            raise ValueError(
                f"degree {m} beyond the configured Chow degree cap"
            )
        got = self._images.get(m)
        if got is not None:
            return got
        p = self.p
        chow = self.chow
        sub = SubspaceBasis(p, chow.basis_dim(m))
        pivots: list[tuple[int, tuple[Weight, ...]]] = []

        def feed(scalar: int, weights: tuple[Weight, ...]) -> None:
            scalar %= p
            if not scalar:
                return
            cls = chow.monomial(weights, p)
            if cls.is_zero():
                return
            vec = tuple(x * scalar % p for x in chow.vector(cls, p))
            if sub.insert(vec):
                pivots.append((scalar, weights))

        # one part of size m
        for rho_p, binoms in self._keys:
            b = binoms[m - 1]
            if b:
                feed(b, (rho_p,) * m)
        # a part of size j times a generator of the degree-(m-j) image
        for j in range(1, m):
            lower = self.image(m - j)
            for rho_p, binoms in self._keys:
                b = binoms[j - 1]
                if not b:
                    continue
                part = (rho_p,) * j
                for scalar, wts in lower.pivots:
                    feed(b * scalar, tuple(sorted(wts + part)))

        piece = ImagePiece(m, sub, tuple(pivots))
        self._images[m] = piece
        return piece

    def image_subspace(self, m: int) -> SubspaceBasis:
        return self.image(m).subspace

    # -- the ideal the images generate -------------------------------------

    def ideal(self, m: int) -> SubspaceBasis:
        """Degree-m piece of the ideal generated by all restriction images:
        sum over j < m of CH^(m-j) * image(j), plus image(m)."""
        got = self._ideals.get(m)
        if got is not None:
            return got
        p = self.p
        chow = self.chow
        sub = SubspaceBasis(p, chow.basis_dim(m))
        for row in self.image(m).subspace.rows():
            sub.insert(row)
        for j in range(1, m):
            piece = self.image(j)
            for u in chow.basis(m - j):
                su = chow.single(u)
                for scalar, wts in piece.pivots:
                    cls = chow.extend_by_weights(su, wts, p)
                    if cls.is_zero():
                        continue
                    vec = tuple(
                        x * scalar % p for x in chow.vector(cls, p)
                    )
                    sub.insert(vec)
        self._ideals[m] = sub
        return sub
