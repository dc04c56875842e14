"""Chow groups of the full flag variety in a band of low degrees.

CH^m(X) is the free abelian group on Schubert classes sigma_w indexed by
length-m Weyl elements.  Multiplication by a first Chern class of a line
bundle L(lambda) follows the divisor rule

    sigma_u * c_1(L(lambda)) =
        sum over positive roots alpha with len(u*s_alpha) = len(u)+1
        of <lambda, alpha^vee> * sigma_{u*s_alpha},

which is all the product structure needed here: every ideal computed
downstream is generated by products of first Chern classes.  Coefficient
arithmetic is exact over Z; mod-p reduction happens either per class (the
p argument) or at the subspace level, never through floats.
"""

from __future__ import annotations

from collections import namedtuple

from .rootdata import CharacterLattice, RootSystem, Weight
from .weyl import WeylGroup

__all__ = ["SchubertClass", "ChowRing", "SubspaceBasis"]


class SchubertClass(namedtuple("SchubertClass", "degree terms")):
    """Homogeneous class of the given degree; terms map element index ->
    integer coefficient (nonzero).  Without terms the class is zero, with
    a dict of its own."""

    __slots__ = ()

    def __new__(cls, degree: int, terms: dict[int, int] | None = None):
        return super().__new__(cls, degree, {} if terms is None else terms)

    def is_zero(self) -> bool:
        return not self.terms

    def scaled(self, c: int) -> "SchubertClass":
        if c == 0:
            return SchubertClass(self.degree, {})
        return SchubertClass(self.degree, {k: c * v for k, v in self.terms.items()})

    def plus(self, other: "SchubertClass") -> "SchubertClass":
        if self.degree != other.degree:
            raise ValueError("cannot add classes of different degrees")
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return SchubertClass(self.degree, out)

    def reduced(self, p: int) -> "SchubertClass":
        out = {k: v % p for k, v in self.terms.items()}
        return SchubertClass(self.degree, {k: v for k, v in out.items() if v})


class ChowRing:
    """Degree-capped Chow groups of G/B with the divisor product rule.

    Requires the Weyl enumeration to reach degree_cap (a full enumeration
    always qualifies; a truncated one must have max_length >= degree_cap).
    """

    def __init__(self, group: WeylGroup, degree_cap: int = 4):
        if degree_cap < 1:
            raise ValueError("degree_cap must be >= 1")
        if not group.is_full and (group.max_length or 0) < degree_cap:
            raise ValueError(
                "Weyl enumeration truncated below the requested degree cap"
            )
        # degrees past the longest length of a full group are empty,
        # so products there simply vanish; no clamping needed
        self.group = group
        self.rs: RootSystem = group.rs
        self.degree_cap = degree_cap
        self._covers: dict[int, tuple[tuple[int, int], ...]] = {}
        self._monomial_cache: dict = {}

    # -- bases -----------------------------------------------------------

    def basis(self, m: int) -> range:
        """Element indices of the degree-m Schubert basis, in canonical order."""
        if m < 0 or m > self.degree_cap:
            raise ValueError(f"degree {m} outside 0..{self.degree_cap}")
        return self.group.elements_of_length(m)

    def basis_dim(self, m: int) -> int:
        return len(self.basis(m))

    def vector(self, cls: SchubertClass, p: int | None = None) -> tuple[int, ...]:
        """Coordinates of a class against the degree-(cls.degree) basis."""
        b = self.basis(cls.degree)
        out = [0] * len(b)
        for k, v in cls.terms.items():
            out[k - b.start] = v % p if p else v
        return tuple(out)

    def single(self, k: int) -> SchubertClass:
        return SchubertClass(self.group.length(k), {k: 1})

    def h(self, i: int) -> SchubertClass:
        """Schubert divisor sigma_{s_i}."""
        return self.single(self.group.right_mul(0, i))

    # -- products ----------------------------------------------------------

    def covers(self, u: int) -> tuple[tuple[int, int], ...]:
        """Pairs (root index, element index of u*s_alpha) raising length by 1."""
        got = self._covers.get(u)
        if got is None:
            got = self._covers[u] = self.group.covers(u)
        return got

    def chevalley(self, cls: SchubertClass, lam: Weight,
                  p: int | None = None) -> SchubertClass:
        """Multiply by c_1(L(lam)) via the divisor rule."""
        m = cls.degree
        if m + 1 > self.degree_cap:
            raise ValueError(
                f"product degree {m + 1} exceeds the degree cap {self.degree_cap}"
            )
        roots = self.rs.positive_roots
        coeffs = [
            sum(x * d for x, d in zip(lam, r.coroot_coords)) for r in roots
        ]
        if p:
            coeffs = [c % p for c in coeffs]
        out: dict[int, int] = {}
        for u, cu in cls.terms.items():
            for ri, t in self.covers(u):
                c = coeffs[ri]
                if c:
                    out[t] = out.get(t, 0) + cu * c
        if p:
            out = {k: v % p for k, v in out.items()}
        return SchubertClass(m + 1, {k: v for k, v in out.items() if v})

    def monomial(self, weights, p: int | None = None) -> SchubertClass:
        """Product of first Chern classes c_1(L(w)) over the given weights.

        The result does not depend on the order of the factors; the cache
        key sorts them (after mod-p reduction when p is given, which is
        sound because the product is multilinear in the weights).
        """
        ws = [self.rs.check_weight(w) for w in weights]
        if p:
            ws = [tuple(x % p for x in w) for w in ws]
        key = (tuple(sorted(ws)), p)
        return self._monomial_sorted(key)

    def _monomial_sorted(self, key) -> SchubertClass:
        got = self._monomial_cache.get(key)
        if got is not None:
            return got
        ws, p = key
        if not ws:
            out = self.single(0)
        else:
            prefix = self._monomial_sorted((ws[:-1], p))
            out = self.chevalley(prefix, ws[-1], p)
        self._monomial_cache[key] = out
        return out

    def extend_by_weights(self, cls: SchubertClass, weights,
                          p: int | None = None) -> SchubertClass:
        out = cls
        for w in weights:
            out = self.chevalley(out, w, p)
        return out

    # -- characteristic map -------------------------------------------------

    def divisor_class(self, lam: Weight,
                      lattice: CharacterLattice | None = None) -> SchubertClass:
        """Degree-1 image sum a_i * sigma_{s_i} of lam = sum a_i omega_i.

        When a character lattice is given, lam must belong to it (the map
        is only defined on characters of the torus actually present).
        """
        lam = self.rs.check_weight(lam)
        if lattice is not None and not lattice.contains(lam):
            raise ValueError(
                f"weight {lam} is not in the {lattice.kind} character lattice"
            )
        terms = {}
        for i, a in enumerate(lam, start=1):
            if a:
                terms[self.group.right_mul(0, i)] = a
        return SchubertClass(1, terms)

    def char_ideal(self, lattice: CharacterLattice, m: int,
                   p: int) -> "SubspaceBasis":
        """Degree-m piece (mod p) of the ideal generated by the image of the
        characteristic map: the row space of sigma_u * c_1(L(b)) over basis
        characters b and length-(m-1) elements u."""
        if m < 1:
            raise ValueError("ideal degrees start at 1")
        sub = SubspaceBasis(p, self.basis_dim(m))
        for u in self.basis(m - 1):
            su = self.single(u)
            for b in lattice.basis:
                cls = self.chevalley(su, b, p)
                sub.insert(self.vector(cls, p))
        return sub


class SubspaceBasis:
    """Subspace of F_p^ambient kept in reduced row echelon form.

    Exact small-prime Gaussian elimination; rows are canonical, so two
    subspaces are equal iff their row tuples are equal.
    """

    def __init__(self, p: int, ambient: int):
        if p < 2:
            raise ValueError("modulus must be >= 2")
        self.p = p
        self.ambient = ambient
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vec) -> list[int]:
        p = self.p
        v = [x % p for x in vec]
        if len(v) != self.ambient:
            raise ValueError("vector has the wrong ambient dimension")
        for row, piv in zip(self._rows, self._pivots):
            c = v[piv]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def insert(self, vec) -> bool:
        """Add a vector; returns True iff the dimension grew."""
        v = self._reduce(vec)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = pow(v[piv], -1, self.p)
        v = [x * inv % self.p for x in v]
        for row in self._rows:
            c = row[piv]
            if c:
                row[:] = [(a - c * b) % self.p for a, b in zip(row, v)]
        at = next(
            (k for k, q in enumerate(self._pivots) if q > piv), len(self._pivots)
        )
        self._rows.insert(at, v)
        self._pivots.insert(at, piv)
        return True

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec))

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(r) for r in self._rows)

    def is_subspace_of(self, other: "SubspaceBasis") -> bool:
        return all(other.contains(r) for r in self._rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceBasis)
            and (self.p, self.ambient) == (other.p, other.ambient)
            and self.rows() == other.rows()
        )

    def __repr__(self) -> str:
        return f"SubspaceBasis(p={self.p}, dim={self.dim}/{self.ambient})"
