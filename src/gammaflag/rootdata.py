"""Root systems of types A-G (rank <= 8) over the weight lattice.

Coordinates
-----------
Weights are integer tuples of coordinates in the basis of fundamental
weights: ``coords[i]`` is the pairing of the weight against the i-th
simple coroot.  With that convention the j-th simple root is column j of
the Cartan matrix, and the simple reflection s_i acts by

    s_i(w) = w - coords[i] * alpha_i.

The Cartan matrix convention is ``cartan[i][j] = <alpha_j, alpha_i^vee>``
(pairing of the j-th simple root against the i-th simple coroot).

All indices in the public API are 1-based, matching the usual labelling
of Dynkin diagrams (Bourbaki numbering).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache, lru_cache
from itertools import repeat

from . import intmat

Weight = tuple[int, ...]

__all__ = [
    "RootSystem",
    "PositiveRoot",
    "FiniteAbelianGroup",
    "CharacterLattice",
    "root_system",
    "build_root_system",
]


# Fundamental degrees of the Weyl group invariants; their product is |W|.
_DEGREES = {
    "A": lambda n: tuple(range(2, n + 2)),
    "B": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "C": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "D": lambda n: tuple(range(2, 2 * n - 1, 2)) + (n,),
    "E": {6: (2, 5, 6, 8, 9, 12),
          7: (2, 6, 8, 10, 12, 14, 18),
          8: (2, 8, 12, 14, 18, 20, 24, 30)},
    "F": {4: (2, 6, 8, 12)},
    "G": {2: (2, 6)},
}

_RANK_RANGE = {
    "A": (1, 8),
    "B": (2, 8),
    "C": (3, 8),
    "D": (4, 8),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _chain_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


def _cartan_matrix(letter: str, n: int) -> tuple[tuple[int, ...], ...]:
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i: int, j: int, down: int = -1, up: int = -1) -> None:
        # entries are <alpha_j, alpha_i^vee> at (i, j) and the mirror at (j, i)
        c[i - 1][j - 1] = down
        c[j - 1][i - 1] = up

    if letter in ("A", "B", "C"):
        for i, j in _chain_edges(n):
            link(i, j)
        if letter == "B":
            # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
            c[n - 1][n - 2] = -2
        elif letter == "C":
            # alpha_n long: <alpha_n, alpha_{n-1}^vee> = -2
            c[n - 2][n - 1] = -2
    elif letter == "D":
        for i, j in _chain_edges(n - 1):
            link(i, j)
        link(n - 2, n)
    elif letter == "E":
        for i, j in [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]:
            link(i, j)
        if n >= 7:
            link(6, 7)
        if n == 8:
            link(7, 8)
    elif letter == "F":
        link(1, 2)
        link(2, 3, down=-1, up=-2)  # alpha_2 long, alpha_3 short
        link(3, 4)
    elif letter == "G":
        link(1, 2, down=-3, up=-1)  # alpha_1 short, alpha_2 long
    return tuple(tuple(row) for row in c)


class PositiveRoot(namedtuple(
        "PositiveRoot", "alpha_coords omega_coords coroot_coords")):
    """One positive root with its coroot, all in integer coordinates:
    coefficients on the simple roots, fundamental-weight coordinates and
    coefficients on the simple coroots."""

    __slots__ = ()

    @property
    def height(self) -> int:
        return sum(self.alpha_coords)


class RootSystem:
    """Immutable tables for one irreducible root system."""

    __slots__ = (
        "letter", "rank", "cartan", "degrees", "weyl_order",
        "positive_roots",
    )

    def __init__(self, letter: str, rank: int):
        letter = letter.upper()
        lo, hi = _RANK_RANGE.get(letter, (0, -1))
        if not lo <= rank <= hi:
            raise ValueError(
                f"unsupported type {letter}{rank}: rank must lie in "
                f"[{lo}, {hi}] for type {letter}" if lo <= hi
                else f"unknown type letter {letter!r}"
            )
        object.__setattr__(self, "letter", letter)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "cartan", _cartan_matrix(letter, rank))
        deg = _DEGREES[letter]
        degrees = deg[rank] if isinstance(deg, dict) else deg(rank)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "weyl_order", math.prod(degrees))
        object.__setattr__(self, "positive_roots", self._close_roots())

    def __setattr__(self, *_):
        raise AttributeError("RootSystem is immutable")

    def __repr__(self) -> str:
        return f"RootSystem({self.letter}{self.rank})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootSystem)
            and (self.letter, self.rank) == (other.letter, other.rank)
        )

    def __hash__(self) -> int:
        return hash((self.letter, self.rank))

    @property
    def name(self) -> str:
        return f"{self.letter}{self.rank}"

    # -- basic weights -------------------------------------------------

    def fundamental_weight(self, i: int) -> Weight:
        self._check_index(i)
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def simple_root(self, i: int) -> Weight:
        self._check_index(i)
        return tuple(row[i - 1] for row in self.cartan)

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise ValueError(f"index {i} out of range 1..{self.rank}")

    def check_weight(self, w) -> Weight:
        w = tuple(w)
        if len(w) != self.rank or not all(map(isinstance, w, repeat(int))):
            raise ValueError(
                f"weight must be a tuple of {self.rank} integers, got {w!r}"
            )
        return w

    # -- positive roots ------------------------------------------------

    def _close_roots(self) -> tuple[PositiveRoot, ...]:
        n = self.rank
        c = self.cartan
        # roots tracked as (alpha-coords, coroot-coords); reflections act on
        # the root side through rows of the Cartan matrix and on the coroot
        # side through columns.
        seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        frontier = []
        for i in range(n):
            a = tuple(1 if j == i else 0 for j in range(n))
            seen[a] = a
            frontier.append((a, a))
        while frontier:
            nxt = []
            for a, d in frontier:
                for i in range(n):
                    pa = sum(c[i][j] * a[j] for j in range(n))
                    na = a[:i] + (a[i] - pa,) + a[i + 1:]
                    if na in seen:
                        continue
                    pd = sum(c[j][i] * d[j] for j in range(n))
                    nd = d[:i] + (d[i] - pd,) + d[i + 1:]
                    seen[na] = nd
                    nxt.append((na, nd))
            frontier = nxt
        roots = []
        for a, d in seen.items():
            if all(x >= 0 for x in a):
                omega = tuple(sum(c[k][j] * a[j] for j in range(n)) for k in range(n))
                roots.append(PositiveRoot(a, omega, d))
        roots.sort(key=lambda r: (r.height, r.alpha_coords))
        return tuple(roots)

    # -- fundamental group ---------------------------------------------

    @cache
    def fundamental_group(self) -> "CharacterLattice":
        """Lambda/Lambda_r: the quotient of the adjoint lattice."""
        return CharacterLattice(self, "adjoint")


class FiniteAbelianGroup:
    """Finite abelian group as a product of cyclic factors d_1 | d_2 | ...

    Elements are tuples of residues, one per factor; the trivial group has
    the single element ().  Labels render elements for CLI/config use.
    Immutable; two groups are equal when their factors are.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[int, ...]):
        if any(d < 2 for d in factors):
            raise ValueError("factors must all be >= 2")
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, *_):
        raise AttributeError("FiniteAbelianGroup is immutable")

    def __eq__(self, other) -> bool:
        return type(other) is FiniteAbelianGroup and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup(factors={self.factors!r})"

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.factors) if self.factors else 1

    def elements(self) -> list[tuple[int, ...]]:
        out = [()]
        for d in self.factors:
            out = [e + (r,) for e in out for r in range(d)]
        return out

    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.factors))

    def neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.factors))

    def scale(self, k: int, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((k * x) % d for x, d in zip(a, self.factors))

    def label(self, a: tuple[int, ...]) -> str:
        return ",".join(str(x) for x in a) if a else "0"

    def parse_label(self, s: str) -> tuple[int, ...]:
        if not self.factors:
            if s.strip() in ("0", ""):
                return ()
            raise ValueError(f"label {s!r} invalid for the trivial group")
        parts = [p.strip() for p in s.split(",")]
        if len(parts) != len(self.factors):
            raise ValueError(
                f"label {s!r} needs {len(self.factors)} comma-separated residues"
            )
        try:
            vals = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"label {s!r} is not a tuple of integers") from None
        if not all(0 <= x < d for x, d in zip(vals, self.factors)):
            raise ValueError(f"label {s!r} out of range for factors {self.factors}")
        return tuple(vals)


class CharacterLattice:
    """An intermediate lattice T* with root lattice <= T* <= weight lattice.

    Selected either by the keywords "adjoint" / "simply_connected" or by a
    list of weights whose classes (together with the root lattice) generate
    T*.  One Smith normal form U*G*V = D of the generator matrix G (columns
    = generators) gives everything: the stored Z-basis of T*, in
    fundamental-weight coordinates, is the first n columns of G*V, that is
    d_i * U^-1 e_i; and a weight w lies in T* exactly when U*w lies in D*Z^n,
    so its class in ``quotient`` = Lambda/T* is U*w mod D at the invariant
    factors != 1.  ``omega_classes[i - 1]`` is the class of omega_i; for the
    adjoint lattice the quotient is the fundamental group Lambda/Lambda_r.
    """

    __slots__ = ("rs", "kind", "basis", "_rows", "quotient", "omega_classes")

    def __init__(self, rs: RootSystem, spec="adjoint"):
        n = rs.rank
        if isinstance(spec, str):
            kind = spec
            if kind == "adjoint":
                gens = [rs.simple_root(i) for i in range(1, n + 1)]
            elif kind == "simply_connected":
                gens = [rs.fundamental_weight(i) for i in range(1, n + 1)]
            else:
                raise ValueError(
                    f"unknown lattice keyword {spec!r}: expected 'adjoint', "
                    "'simply_connected', or a list of weight vectors"
                )
        else:
            extra = [rs.check_weight(w) for w in spec]
            gens = [rs.simple_root(i) for i in range(1, n + 1)] + extra
            kind = "explicit"
        g = tuple(zip(*gens))
        d, u, v = intmat.snf(g)
        diag = [d[i][i] for i in range(n)]
        if 0 in diag:
            raise ValueError("character lattice must have full rank")
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "kind", kind)
        # column i of G*V is d_i * U^-1 e_i
        object.__setattr__(self, "basis", tuple(
            intmat.mat_vec(g, col) for col in list(zip(*v))[:n]))
        object.__setattr__(
            self, "_rows", tuple(u[i] for i in range(n) if diag[i] != 1))
        object.__setattr__(self, "quotient", FiniteAbelianGroup(
            tuple(x for x in diag if x != 1)))
        object.__setattr__(self, "omega_classes", tuple(
            self.class_of(rs.fundamental_weight(i)) for i in range(1, n + 1)))

    def __setattr__(self, *_):
        raise AttributeError("CharacterLattice is immutable")

    def __repr__(self) -> str:
        return f"CharacterLattice({self.rs.name}, {self.kind})"

    @property
    def index_in_weight_lattice(self) -> int:
        return self.quotient.order

    def class_of(self, w: Weight) -> tuple[int, ...]:
        """Class of a weight in Lambda/T*."""
        y = intmat.mat_vec(self._rows, self.rs.check_weight(w))
        return tuple(x % d for x, d in zip(y, self.quotient.factors))

    def fp_dim(self, p: int) -> int:
        """dim over F_p of (Lambda/T*) tensor F_p."""
        return sum(1 for d in self.quotient.factors if d % p == 0)


@lru_cache(maxsize=None)
def build_root_system(letter: str, rank: int) -> RootSystem:
    return RootSystem(letter, rank)


def root_system(name: str) -> RootSystem:
    """Parse a name like "E6" or "A2" into a (cached) root system."""
    name = name.strip()
    if len(name) < 2 or not name[0].isalpha():
        raise ValueError(f"cannot parse root system name {name!r}")
    letter, digits = name[0].upper(), name[1:]
    if not digits.isdigit():
        raise ValueError(f"cannot parse root system name {name!r}")
    return build_root_system(letter, int(digits))
