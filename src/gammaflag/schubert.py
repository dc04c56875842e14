"""Chow groups of the full flag variety in a band of low degrees.

CH^m(X) is the free abelian group on Schubert classes sigma_w indexed by
length-m Weyl elements.  Multiplication by a first Chern class of a line
bundle L(lambda) follows the divisor rule

    sigma_u * c_1(L(lambda)) =
        sum over positive roots alpha with len(u*s_alpha) = len(u)+1
        of <lambda, alpha^vee> * sigma_{u*s_alpha},

which is all the product structure needed here: every ideal computed
downstream is generated by products of first Chern classes, and one
routine, ``ChowRing.ideal``, spans each from its generators.  Coefficient
arithmetic is exact over Z; mod-p reduction happens either per class (the
p argument) or at the subspace level, never through floats.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, repeat

from .rootdata import CharacterLattice, RootSystem, Weight

__all__ = ["SchubertClass", "ChowRing", "SubspaceBasis"]


class SchubertClass(namedtuple("SchubertClass", "degree terms")):
    """Homogeneous class of the given degree; terms map element index ->
    integer coefficient (nonzero).  Without terms the class is zero, with
    a dict of its own."""

    __slots__ = ()

    def __new__(cls, degree: int, terms: dict[int, int] | None = None):
        return super().__new__(cls, degree, {} if terms is None else terms)


class ChowRing:
    """Degree-capped Chow groups of G/B with the divisor product rule.

    Requires the Weyl enumeration to reach degree_cap (a full enumeration
    always qualifies; a truncated one must have max_length >= degree_cap).
    """

    def __init__(self, group: WeylGroup, degree_cap: int):
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
        # row i: the alpha_i^vee-coordinate of every positive coroot
        self._coroot_rows = tuple(zip(*(
            r.coroot_coords for r in self.rs.positive_roots)))

    # -- bases -----------------------------------------------------------

    def basis(self, m: int) -> range:
        """Element indices of the degree-m Schubert basis, in canonical order."""
        if m < 0 or m > self.degree_cap:
            raise ValueError(f"degree {m} outside 0..{self.degree_cap}")
        return self.group.elements_of_length(m)

    def basis_dim(self, m: int) -> int:
        return len(self.basis(m))

    def coords(self, cls: SchubertClass) -> dict[int, int]:
        """Nonzero coordinates {position in basis(cls.degree): value}."""
        b = self.basis(cls.degree)
        terms = cls.terms
        if all(map(isinstance, terms, repeat(int))):
            fits = not terms or b.start <= min(terms) and max(terms) < b.stop
        else:  # 3.0 is in a range as well
            fits = all(k in b for k in terms)
        if not fits:
            raise ValueError(f"class has terms not of length {cls.degree}")
        return {k - b.start: v for k, v in cls.terms.items()}

    def single(self, k: int) -> SchubertClass:
        return SchubertClass(self.group.length(k), {k: 1})

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
        return self._times(cls, self._pairings(lam, p), p)

    def _pairings(self, lam: Weight, p: int | None = None) -> list[int]:
        """<lam, alpha^vee> for every positive root alpha, in root order
        (mod p when p is given): the coefficients of the divisor rule."""
        coeffs = [0] * len(self.rs.positive_roots)
        for x, row in zip(self.rs.check_weight(lam), self._coroot_rows):
            if x:
                coeffs = [c + x * d for c, d in zip(coeffs, row)]
        if p:
            coeffs = [c % p for c in coeffs]
        return coeffs

    def _times(self, cls: SchubertClass, coeffs: list[int],
               p: int | None = None) -> SchubertClass:
        """cls times the divisor whose pairings are coeffs (``_pairings``);
        the caller checks the product's degree."""
        m = cls.degree
        out: dict[int, int] = {}
        for u, cu in cls.terms.items():
            for ri, t in self.covers(u):
                c = coeffs[ri]
                if c:
                    out[t] = out.get(t, 0) + cu * c
        if p:
            out = {k: v % p for k, v in out.items()}
        return SchubertClass(m + 1, {k: v for k, v in out.items() if v})

    # -- characteristic map -------------------------------------------------

    def char_ideal(self, lattice: CharacterLattice, m: int,
                   p: int) -> "SubspaceBasis":
        """Degree-m piece (mod p) of the ideal generated by the image of the
        characteristic map: the span of sigma_u * c_1(L(b)) over basis
        characters b and length-(m-1) elements u."""
        self._check_lattice(lattice)
        if m < 1:
            raise ValueError("ideal degrees start at 1")
        return self.ideal(m, p, [(b,) for b in lattice.basis])

    def ideal(self, m: int, p: int, monomials, rows=()) -> "SubspaceBasis":
        """Degree-m piece mod p of the ideal generated by the monomials
        c_1(L(w_1)) ... c_1(L(w_j)), one for each tuple of j weights in
        monomials, plus the degree-m vectors rows.  The rows go in first,
        then sigma_u times each monomial of j weights for every u of
        length m - j, for j in increasing order and the monomials of one
        j in their given order; the coroot pairings of each weight are
        taken once, and nothing is drawn once the span is the whole
        space."""
        sub = SubspaceBasis(p, self.basis_dim(m))
        by_degree: dict[int, list] = {}
        for wts in monomials:
            by_degree.setdefault(len(wts), []).append(wts)

        def vectors():
            yield from rows
            pairings = {}
            for j, monos in sorted(by_degree.items()):
                for w in chain(*monos):
                    if w not in pairings:
                        pairings[w] = self._pairings(w, p)
                for u in self.basis(m - j):
                    su = self.single(u)
                    for wts in monos:
                        cls = su
                        for w in wts:
                            cls = self._times(cls, pairings[w], p)
                        yield self.coords(cls)

        for vec in _until_full(sub, vectors()):
            sub.insert(vec)
        return sub

    def _check_lattice(self, lattice: CharacterLattice) -> None:
        if lattice.rs != self.rs:
            raise ValueError("lattice belongs to a different root system")


class SubspaceBasis:
    """Subspace of F_p^ambient kept in reduced row echelon form.

    Exact small-prime Gaussian elimination; rows are canonical, so two
    subspaces are equal iff their rows are.  A row is kept as {column:
    value} off its pivot, where it is 1, and ``_where`` lists per column
    the pivots whose rows are nonzero there.  A vector comes dense or as
    {column: value}.
    """

    def __init__(self, p: int, ambient: int):
        if p < 2:
            raise ValueError("modulus must be >= 2")
        if not isinstance(ambient, int) or ambient < 0:
            raise ValueError(f"ambient dimension {ambient!r} is not >= 0")
        self.p = p
        self.ambient = ambient
        self._rows: dict[int, dict[int, int]] = {}
        self._where: dict[int, set[int]] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vec) -> dict[int, int]:
        """The nonzero entries mod p of vec minus its combination of rows.
        A row is zero at every other pivot, so vec's entries at the
        pivots give the combination."""
        n = self.ambient
        if isinstance(vec, dict):
            fits = all(map(isinstance, vec, repeat(int))) and (
                not vec or 0 <= min(vec) and max(vec) < n)
        else:
            vec = dict(enumerate(vec))
            fits = len(vec) == n
        if not fits:
            raise ValueError("vector does not lie in the ambient space")
        if not all(map(isinstance, vec.values(), repeat(int))):
            raise ValueError("vector entries must be integers")
        v = {c: x for c, x in vec.items() if x}
        rows = self._rows
        for q in [q for q in v if q in rows]:
            c = v.pop(q)
            for col, x in rows[q].items():
                v[col] = v.get(col, 0) - c * x
        p = self.p
        return {col: y for col, x in v.items() if (y := x % p)}

    def insert(self, vec) -> bool:
        """Add a vector; returns True iff the dimension grew."""
        v = self._reduce(vec)
        if not v:
            return False
        p, rows, where = self.p, self._rows, self._where
        piv = min(v)
        inv = pow(v.pop(piv), -1, p)
        new = rows[piv] = {col: x * inv % p for col, x in v.items()}
        for col in new:
            where.setdefault(col, set()).add(piv)
        # back-substitute into the rows nonzero at the new pivot only
        for q in where.pop(piv, ()):
            row = rows[q]
            c = row.pop(piv)
            for col, x in new.items():
                y = (row.get(col, 0) - c * x) % p
                if y:
                    row[col] = y
                    where[col].add(q)
                elif row.pop(col, None) is not None:
                    where[col].discard(q)
        return True

    def rows(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for q in sorted(self._rows):
            row = [0] * self.ambient
            row[q] = 1
            for col, x in self._rows[q].items():
                row[col] = x
            out.append(tuple(row))
        return tuple(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceBasis)
            and (self.p, self.ambient) == (other.p, other.ambient)
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"SubspaceBasis(p={self.p}, dim={self.dim}/{self.ambient})"


def _until_full(sub: SubspaceBasis, items, ceiling: int | None = None):
    """Yield items until sub reaches the dimension ceiling, by default the
    whole ambient space.  Every item lies in a subspace of that dimension,
    so past that point no insertion can grow sub and no item is drawn."""
    top = sub.ambient if ceiling is None else ceiling
    if sub.dim < top:
        for item in items:
            yield item
            if sub.dim == top:
                return
