"""Steinberg line-bundle basis and twisted-form restriction images.

The K-theory of a full flag variety is free on line-bundle classes
g_w = [L(rho_w)] indexed by Weyl elements, with

    rho_w = w(lambda_D),   lambda_D = sum of omega_i over i in D(w).

The descent set D(w) is the set of negative coordinates of w^-1(rho), so
lambda_D is their 0/1 indicator.  W acts trivially on Lambda/Lambda_r,
so the Brauer class of rho_w is the class of lambda_D, looked up once
per distinct descent set.

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
an exact span identity.

Before any Chevalley product, the parts of each size j are filtered in
Sym^j(F_p^n) = F_p[h_1..h_n]_j, where h_i = c_1(L(omega_i)): a part is
the polynomial binom(i_w, j) * (rho_w . h)^j, and one pass in key order
keeps only the parts that grow the span of those before them.  A dropped
part is an F_p-combination of earlier kept ones; since F_p[h] -> CH* mod p
is a ring homomorphism, so is its product with any lower pivot, and its
generators could never have grown the image.  Feed order is unchanged,
so pivots and RREF rows are exactly those of the unfiltered stream.  At
j = p the Frobenius kills every mixed multinomial coefficient mod p; that
is right, because the Chow products are taken mod p as well.  The pass,
the image and the ideal all stop once their subspace is the whole
ambient space.
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
        self.fg = fg = group.rs.fundamental_group()
        rhos = []
        classes = []
        class_of_d: dict[Weight, tuple[int, ...]] = {}
        for k, v in enumerate(group.inv_rho):
            lam = tuple(1 if x < 0 else 0 for x in v)
            rhos.append(group.act(k, lam))
            if lam not in class_of_d:
                class_of_d[lam] = fg.class_of(lam)
            classes.append(class_of_d[lam])
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
        self._kept: dict[int, list[tuple[Weight, int]]] = {}
        self._images: dict[int, ImagePiece] = {}
        self._ideals: dict[int, SubspaceBasis] = {}

    def _dedup_keys(self) -> list[tuple[Weight, tuple[int, ...]]]:
        """Distinct (c_1(g_w) mod p, binomials binom(i_w, 1..D) mod p)."""
        p = self.p
        top = self.max_degree
        # exact binomials on the true index, reduced afterwards; one tuple
        # per Brauer class, shared by every key of that class
        binoms = {
            cls: tuple(math.comb(i_w, j) % p for j in range(1, top + 1))
            for cls, i_w in self.model.ind.items()
        }
        seen = {}
        st = self.steinberg
        for rho, cls in zip(st.rhos, st.classes):
            b = binoms[cls]
            if any(b):
                seen.setdefault((tuple(x % p for x in rho), b), None)
        return [key for key in seen]

    def _parts(self, j: int) -> list[tuple[Weight, int]]:
        """Parts (rho_p, binom(i_w, j) mod p), in key order, whose
        polynomial b * (rho_p . h)^j grows the span they have in
        Sym^j(F_p^n); the pass stops once that span is all of Sym^j."""
        got = self._kept.get(j)
        if got is not None:
            return got
        p = self.p
        # coordinates against the monomials h^alpha, |alpha| = j, whose
        # multinomial coefficient is a unit mod p: the others (every mixed
        # one at j = p) are zero for every part
        monos = []
        for mono in itertools.combinations_with_replacement(
                range(self.chow.rs.rank), j):
            c = math.factorial(j)
            for i in set(mono):
                c //= math.factorial(mono.count(i))
            if c % p:
                monos.append((c % p, mono))
        span = SubspaceBasis(p, len(monos))
        kept = []
        for rho_p, binoms in _until_full(span, self._keys):
            b = binoms[j - 1]
            if b and span.insert([
                b * c * math.prod(rho_p[i] for i in mono) % p
                for c, mono in monos
            ]):
                kept.append((rho_p, b))
        self._kept[j] = kept
        return kept

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

        lower = {j: self.image(m - j).pivots for j in range(1, m)}

        def generators():
            # one part of size m
            for rho_p, b in self._parts(m):
                yield b, (rho_p,) * m
            # a part of size j times a generator of the degree-(m-j) image
            for j, lower_pivots in lower.items():
                for rho_p, b in self._parts(j):
                    part = (rho_p,) * j
                    for scalar, wts in lower_pivots:
                        yield b * scalar, tuple(sorted(wts + part))

        for scalar, weights in _until_full(sub, generators()):
            scalar %= p
            if not scalar:
                continue
            cls = chow.monomial(weights, p)
            if cls.is_zero():
                continue
            vec = tuple(x * scalar % p for x in chow.vector(cls, p))
            if sub.insert(vec):
                pivots.append((scalar, weights))

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
        top = self.image(m)  # computes every lower image as well

        def vectors():
            yield from top.subspace.rows()
            for j in range(1, m):
                piece = self.image(j)
                for u in chow.basis(m - j):
                    su = chow.single(u)
                    for scalar, wts in piece.pivots:
                        cls = chow.extend_by_weights(su, wts, p)
                        if not cls.is_zero():
                            yield tuple(
                                x * scalar % p for x in chow.vector(cls, p)
                            )

        for vec in _until_full(sub, vectors()):
            sub.insert(vec)
        self._ideals[m] = sub
        return sub


def _until_full(sub: SubspaceBasis, items):
    """Yield items until sub is the whole ambient space: past that point
    no insertion can grow it."""
    for item in items:
        if sub.dim == sub.ambient:
            return
        yield item
