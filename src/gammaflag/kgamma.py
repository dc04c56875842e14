"""Steinberg line-bundle basis and twisted-form restriction images.

The K-theory of a full flag variety is free on line-bundle classes
g_w = [L(rho_w)] indexed by Weyl elements, with

    rho_w = w(lambda_D),   lambda_D = sum of omega_i over i in D(w).

The descent set D(w) is the set of negative coordinates of w^-1(rho), so
lambda_D is their 0/1 indicator.  W acts trivially on Lambda/Lambda_r,
so the Brauer class of rho_w is the class of lambda_D.  One table per
engine holds all 2^n pairs (D, class of lambda_D), the class summed from
those of the omega_i and the pair keyed by the sign bits of w^-1(rho),
so each element's D(w) and class are one lookup.  The packed columns
w(omega_j) are carried down the BFS tree: for w = u s_i only column i
changes, to u(omega_i - alpha_i), and rho_w is the sum of the columns in
D(w).  An element's n columns are one int, each packed column in a block
of 8 n + 8 bits (8 guard bits over its 8-bit fields), so the column
update and rho_w are each one product with a constant of the table, read
off one block.  The carry is a window of one length: the keys w^-1(rho)
and columns of the last walked length.  ``SteinbergTable.step`` takes it
to the next length through ``WeylGroup.step``, which names each new
element's parent in the window and its letter i, and stores nothing;
whoever walks keeps the window.  So a walk never grows the group, and a
walk of all of W needs memory for its widest length only (3,662 of the
51,840 elements of E6).

For a twisted form, only multiples survive restriction: the image of the
m-th gamma-filtration quotient in CH^m mod p is spanned by

    binom(i_{w_1}, a_1) * ... * binom(i_{w_k}, a_k)
        * c_1(g_{w_1})^{a_1} * ... * c_1(g_{w_k})^{a_k},
    a_1 + ... + a_k = m,

where i_w is the index attached to the class of rho_w (the leading
(m-1)! factor is a unit mod p for m <= p and is dropped).  Multi-part
generators are streamed as (single part) x (pivot generator of the
lower-degree image), an exact span identity.  Each pivot keeps its
class, so a generator's class is its lower pivot's class times
c_1(rho)^j, j Chevalley steps with the part's pairings; the single parts
of degree m multiply the unit class.  A generator whose sorted weights
its degree has already fed has the same class and is skipped.  The ideal
the images generate is one ``ChowRing.ideal``: the rows of image(m),
then the lower pivots' weights as monomials.

Before any Chevalley product, the parts of each size j are filtered in
Sym^j(F_p^n) = F_p[h_1..h_n]_j, where h_i = c_1(L(omega_i)): a part is
the polynomial binom(i_w, j) * (rho_w . h)^j, and one pass in element
order keeps only the parts that grow the span of those before them.  It
tests each distinct (rho_w mod p, binom(i_w, j) mod p) once: equal pairs
are the same polynomial.  A dropped part is an F_p-combination of
earlier kept ones; since F_p[h] -> CH* mod p is a ring homomorphism, so
is its product with any lower pivot, and its generators could never have
grown the image.  Feed order is unchanged, so pivots and RREF rows are
exactly those of the unfiltered stream.  At j = p the Frobenius kills
every mixed multinomial coefficient mod p; that is right, because the
Chow products are taken mod p as well.  The image and the ideal stop
once their subspace is the whole ambient space.

Each pass stops at a ceiling that can lie below all of Sym^j.  rho_w
lies in lambda_D + Lambda_r, so every part of size j has rho_w mod p in

    V_j = Lambda_r + span{lambda_D : binom(i_class(lambda_D), j) != 0 mod p}

taken mod p, and its polynomial lies in the span of (v . h)^j over V_j:
Sym^j(V_j), of dimension binom(d + j - 1, j) with d = dim V_j, when j! is a
unit (polarization), and V_j itself in the pure powers h_i^p at j = p,
where v_i^p = v_i.  When p divides |Lambda/Lambda_r| the root lattice mod
p is a proper subspace, so V_j can be too.  Each pass walks a Steinberg
stream of its own, one whole BFS length at a time, and stops short of W
once it reaches its ceiling; a pass whose binomials are all zero walks
nothing.  The engine keeps only finished results, so a pass that an
exception interrupts leaves nothing behind and the next call walks
again from the identity.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .brauer import BrauerModel
from .rootdata import Weight
from .schubert import ChowRing, SubspaceBasis, _until_full

__all__ = [
    "SteinbergTable",
    "RestrictionImage",
    "ImagePiece",
]


class SteinbergTable:
    """rho_w and its Brauer class for every w, one whole BFS length at a
    time and stored nowhere: ``step`` takes a window of one length to the
    next, and the caller keeps the window, so any number of walks share a
    table.  A walk never grows the group."""

    def __init__(self, group: WeylGroup):
        if not group.is_full:
            raise ValueError(
                "the Steinberg basis needs the full Weyl enumeration"
            )
        self.group = group
        self.rs = rs = group.rs
        self.fg = fg = rs.fundamental_group()
        # every D with the class of lambda_D, added up from the omega_i,
        # keyed by the sign bits of a w^-1(rho) negative exactly at D
        n, packer, q = rs.rank, group.packer, fg.quotient
        lambdas = [((), q.identity())]
        for i, omega in enumerate(fg.omega_classes):
            lambdas += [(d + (i,), q.add(cls, omega)) for d, cls in lambdas]
        # The packed columns c_j = w(omega_j) of an element are one int
        # sum_j c_j X^j, X = 2^width.  Each |c_j| < 2^(8n), and the
        # products below have coefficients that are sums of columns with
        # multipliers of total absolute value at most 8 (|D| ones, or a
        # column of C, whose absolute values sum to at most 5), so 8 guard
        # bits keep every coefficient in [-X/2, X/2).  The coefficient of
        # X^(n-1), raised by X/2 and the blocks below it by X^(n-1)/2, is
        # then one shift and mask away, exactly: in the product with
        # sum_{j in D} X^(n-1-j) it is rho_w = sum_{j in D} c_j.
        width = 8 * n + 8
        top = width * (n - 1)
        half = 1 << width - 1
        # that shift, the two raises, the mask of one block, and X/2
        self._read = (top, (half << top) + (1 << top >> 1), (1 << width) - 1,
                      half)
        self._lambdas = {packer.sign_bits(packer.pack(
            [-1 if j in d else 1 for j in range(n)])): (
                d, cls, sum(1 << top - width * j for j in d))
            for d, cls in lambdas}
        # w = u s_i: w(omega_i) = -u(omega_i) - sum_{j != i} C_ji u(omega_j),
        # so block i gains -sum_j C_ji c_j, the coefficient of X^(n-1) in
        # the product with -sum_j C_ji X^(n-1-j)
        self._update = [
            (sum(-row[i] << top - width * j
                 for j, row in enumerate(rs.cartan)), width * i)
            for i in range(n)]
        # the identity's columns, the omega_j
        self._omegas = sum(packer.pack(rs.fundamental_weight(j + 1))
                           << width * j for j in range(n))

    def step(self, window):
        """The length after ``window`` (None: before the identity) as
        (window, parents, letters, packed rho_w, classes): per element, its
        parent's position in ``window``, the letter i of w = u s_i (none at
        the identity), rho_w and the class of lambda_D."""
        packer = self.group.packer
        top, bias, block, half = self._read
        if window is None:
            keys = [packer.pack((1,) * self.rs.rank)]
            cols = [self._omegas]
            parents = letters = ()
        else:
            old_keys, old_cols = window
            keys, parents, letters = self.group.step(old_keys)
            update, cols = self._update, []
            for j, letter in zip(parents, letters):
                c = old_cols[j]
                mult, shift = update[letter - 1]
                cols.append(
                    c + ((c * mult + bias >> top & block) - half << shift))
        lambdas, sign_bits, rhos, classes = (
            self._lambdas, packer.sign_bits, [], [])
        for x, c in zip(keys, cols):
            _, cls, mult = lambdas[sign_bits(x)]
            rhos.append((c * mult + bias >> top & block) - half)
            classes.append(cls)
        return (keys, cols), parents, letters, rhos, classes

    def lengths(self):
        """Every BFS length in turn, as ``step`` gives it less the window."""
        window = None
        for _ in range(self.group.longest_length + 1):
            window, *length = self.step(window)
            yield tuple(length)


class ImagePiece(namedtuple("ImagePiece", "subspace pivots classes")):
    """One computed degree: the SubspaceBasis plus the raw generators
    whose insertion grew it, as (scalar, weights) pairs (each raw
    generator is scalar * product of c_1's), and in ``classes`` each
    pivot's product of c_1's mod p, without its scalar."""

    __slots__ = ()


class RestrictionImage:
    """Degree-by-degree mod-p image of restriction from a twisted form.

    Also assembles the ideal generated by all lower-degree images, the
    object the index hypothesis constrains.  Both read only the model's
    indices and p, never a character lattice.  The Steinberg table is
    the engine's own, over the Chow ring's group, which must be full;
    each Sym^j pass walks a stream of it.  The engine holds finished
    results only: the kept parts, images and ideals by degree.
    """

    def __init__(self, chow: ChowRing, model: BrauerModel):
        self.steinberg = SteinbergTable(chow.group)
        if model.fg.rs != chow.rs:
            raise ValueError("index model belongs to a different root system")
        p = model.p
        self.chow = chow
        self.model = model
        self.p = p
        self.max_degree = min(chow.degree_cap, p)
        # exact binomials of the true index mod p, one tuple per class
        self._binoms = {
            cls: tuple(math.comb(i_w, j) % p
                       for j in range(1, self.max_degree + 1))
            for cls, i_w in model.ind.items()
        }
        self._kept: dict[int, list[tuple[Weight, int]]] = {}
        self._images: dict[int, ImagePiece] = {}
        self._ideals: dict[int, SubspaceBasis] = {}

    def _rho_space(self, j: int) -> SubspaceBasis:
        """V_j in F_p^n: Lambda_r plus every lambda_D whose class has
        binom(i, j) != 0 mod p, mod p.  It holds rho_w mod p for every
        part of size j."""
        rs, p = self.chow.rs, self.p
        n = rs.rank
        room = SubspaceBasis(p, n)
        for i in range(1, n + 1):
            room.insert(rs.simple_root(i))
        for d, cls, _ in self.steinberg._lambdas.values():
            if room.dim < n and self._binoms[cls][j - 1]:
                room.insert(dict.fromkeys(d, 1))
        return room

    def _ceiling(self, j: int) -> int:
        """Dimension of the span of the (v . h)^j, v in V_j, against the
        unit-multinomial monomials: Sym^j(V_j) for j < p; V_j in the pure
        powers at j = p.  No part of size j lies outside it."""
        d = self._rho_space(j).dim
        return d if j == self.p else math.comb(d + j - 1, j)

    def _parts(self, j: int) -> list[tuple[Weight, int]]:
        """Parts (rho_p, binom(i_w, j) mod p), in element order, whose
        polynomial b * (rho_p . h)^j grows the span they have in
        Sym^j(F_p^n); the pass walks a Steinberg stream of its own and
        stops once that span reaches its ceiling."""
        got = self._kept.get(j)
        if got is not None:
            return got
        p, binoms = self.p, self._binoms
        monos = _unit_monomials(self.chow.rs.rank, j, p)
        span = SubspaceBasis(p, len(monos))
        kept = []

        def parts():
            # equal (rho_p, b) are the same polynomial: test each once
            seen = set()
            unpack_all = self.steinberg.group.packer.unpack_all
            for _, _, rhos, classes in self.steinberg.lengths():
                for rho, cls in zip(unpack_all(rhos), classes):
                    b = binoms[cls][j - 1]
                    if b:
                        part = (tuple(map(p.__rmod__, rho)), b)
                        if part not in seen:
                            seen.add(part)
                            yield part

        # when binom(i, j) = 0 mod p for every class, every part is zero
        if any(b[j - 1] for b in binoms.values()):
            for rho_p, b in _until_full(span, parts(), self._ceiling(j)):
                if span.insert([
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
        p, chow = self.p, self.chow
        sub = SubspaceBasis(p, chow.basis_dim(m))
        # what a part of size j multiplies: the unit class for j = m, else
        # the pivots of image(m - j) with their classes
        lower = [(m, ((1, ()),), (chow.single(0),))]
        for j in range(1, m):
            piece = self.image(m - j)
            lower.append((j, piece.pivots, piece.classes))

        def generators():
            fed = set()
            for j, pivots, classes in lower:
                for rho_p, b in self._parts(j):
                    part = (rho_p,) * j
                    pairings = chow._pairings(rho_p, p)
                    for (scalar, wts), cls in zip(pivots, classes):
                        weights = tuple(sorted(wts + part))
                        # the same weights give the same class, which
                        # cannot grow the span a second time
                        if weights not in fed:
                            fed.add(weights)
                            for _ in part:
                                cls = chow._times(cls, pairings, p)
                            yield b * scalar % p, weights, cls

        # every scalar is a unit mod p (parts keep b != 0, and p is
        # prime), so a generator is fed without it: scaling by a unit
        # changes neither the span nor whether it grows
        pivots, classes = [], []
        for scalar, weights, cls in _until_full(sub, generators()):
            if sub.insert(chow.coords(cls)):
                pivots.append((scalar, weights))
                classes.append(cls)

        piece = ImagePiece(sub, tuple(pivots), tuple(classes))
        self._images[m] = piece
        return piece

    # -- the ideal the images generate -------------------------------------

    def ideal(self, m: int) -> SubspaceBasis:
        """Degree-m piece of the ideal generated by all restriction images:
        sum over j < m of CH^(m-j) * image(j), plus image(m).  A pivot's
        scalar is a unit, so its monomial alone generates as much."""
        got = self._ideals.get(m)
        if got is None:
            rows = self.image(m).subspace.rows()  # every lower image too
            monomials = [wts for j in range(1, m)
                         for _, wts in self.image(j).pivots]
            got = self._ideals[m] = self.chow.ideal(m, self.p, monomials,
                                                    rows)
        return got


def _unit_monomials(n: int, j: int, p: int) -> list[tuple[int, tuple]]:
    """(multinomial mod p, mono) for the monomials h^mono, |mono| = j, in
    n variables whose multinomial coefficient is a unit mod p: the others
    (every mixed one at j = p) are zero for every part."""
    monos = []
    for mono in itertools.combinations_with_replacement(range(n), j):
        c = math.factorial(j)
        for i in set(mono):
            c //= math.factorial(mono.count(i))
        if c % p:
            monos.append((c % p, mono))
    return monos
