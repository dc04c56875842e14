"""Weyl group enumeration and element arithmetic.

An element w is keyed by the weight v = w^-1(rho), with rho = (1, ..., 1)
in fundamental-weight coordinates; rho is regular, so distinct elements
have distinct keys.  Every query comes from that tuple and the reduced
word the enumeration records:

- right multiplication: (w s_i)^-1(rho) = s_i(v) = v - v_i * alpha_i, and
  more generally w s_alpha is keyed by s_alpha(v);
- descents: v_i = <rho, w(alpha_i^vee)>, never 0, so s_i is a right
  ascent when v_i > 0 and the right descents of w are the negative
  coordinates of v (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 4);
- the action w(lam) applies the letters of the reduced word to lam,
  rightmost first.

The breadth-first closure under right multiplication by simple
reflections follows ascents only and fixes a deterministic order: by
length, then by lexicographically least reduced word.
"""

from __future__ import annotations

from functools import lru_cache

from .rootdata import PositiveRoot, RootSystem, Weight

__all__ = ["WeylGroup", "weyl_group", "length_counts", "DEFAULT_SIZE_GUARD"]

DEFAULT_SIZE_GUARD = 10**6


class WeylGroup:
    """Enumerated Weyl group (full, or truncated at a maximum length).

    The enumeration refuses to run when the number of elements it would
    visit (known beforehand from the degrees of the invariants) exceeds
    ``size_guard``; the full E7 and E8 trip the default guard.  A
    truncated enumeration contains every element of length <= max_length
    and supports everything except operations that need the whole group.
    """

    def __init__(self, rs: RootSystem, max_length: int | None = None,
                 size_guard: int = DEFAULT_SIZE_GUARD):
        if max_length is None:
            if rs.weyl_order > size_guard:
                raise ValueError(
                    f"refusing full enumeration of W({rs.name}): order "
                    f"{rs.weyl_order} exceeds the size guard {size_guard}; "
                    "pass max_length to enumerate a bounded slice"
                )
        else:
            size = sum(length_counts(rs.degrees)[:max_length + 1])
            if size > size_guard:
                raise ValueError(
                    f"refusing enumeration of W({rs.name}) up to length "
                    f"{max_length}: {size} elements exceed the size guard "
                    f"{size_guard}"
                )
        self.rs = rs
        self.max_length = max_length
        n = rs.rank
        # sparse columns of the Cartan matrix: column i = alpha_i
        self._cols = [
            [(j, row[i]) for j, row in enumerate(rs.cartan) if row[i]]
            for i in range(n)
        ]
        rho = (1,) * n
        index: dict[Weight, int] = {rho: 0}
        inv_rho = [rho]
        words: list[tuple[int, ...]] = [()]
        lengths = [0]

        reflect = self._reflect
        frontier = [0]
        level = 0
        while frontier and (max_length is None or level < max_length):
            nxt = []
            for k in frontier:
                v = inv_rho[k]
                for i in range(n):
                    if v[i] > 0:
                        out = list(v)
                        reflect(i, out)
                        key = tuple(out)
                        if key not in index:
                            index[key] = len(inv_rho)
                            nxt.append(len(inv_rho))
                            inv_rho.append(key)
                            words.append(words[k] + (i + 1,))
                            lengths.append(level + 1)
            frontier = nxt
            level += 1

        self._index = index
        self.inv_rho = inv_rho
        self.words = words
        self.lengths = lengths
        # a truncated run that still reaches the known order is complete
        self.is_full = len(inv_rho) == rs.weyl_order
        # index ranges per length: elements of one length are contiguous
        offsets = [0]
        for k in range(1, len(inv_rho) + 1):
            if k == len(inv_rho) or lengths[k] != lengths[k - 1]:
                offsets.append(k)
        self._offsets = offsets

    def _reflect(self, i: int, out: list[int]) -> None:
        """s_{i+1} in place: out -= out[i] * alpha_{i+1} (0-based i)."""
        c = out[i]
        if c:
            for j, a in self._cols[i]:
                out[j] -= c * a

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.inv_rho)

    @property
    def order(self) -> int:
        return len(self.inv_rho)

    @property
    def longest_length(self) -> int:
        return self.lengths[-1]

    def count_by_length(self) -> dict[int, int]:
        off = self._offsets
        return {m: off[m + 1] - off[m] for m in range(len(off) - 1)}

    def elements_of_length(self, m: int) -> range:
        off = self._offsets
        if not 0 <= m < len(off) - 1:
            return range(0)
        return range(off[m], off[m + 1])

    def index_of_word(self, word) -> int:
        k = 0
        for i in word:
            k = self.right_mul(k, i)
        return k

    def right_mul(self, k: int, i: int) -> int:
        """Index of w_k * s_i."""
        self.rs._check_index(i)
        out = list(self.inv_rho[k])
        self._reflect(i - 1, out)
        t = self._index.get(tuple(out))
        if t is None:
            raise ValueError(
                f"w*s_{i} has length beyond the enumerated bound "
                f"(max_length={self.max_length})"
            )
        return t

    # -- group structure ---------------------------------------------------

    def act(self, k: int, w: Weight) -> Weight:
        """w_k(w): the letters of the reduced word, rightmost first."""
        out = list(w)
        for i in reversed(self.words[k]):
            self._reflect(i - 1, out)
        return tuple(out)

    def multiply(self, a: int, b: int) -> int:
        """Index of w_a * w_b (composition, right factor acts first)."""
        k = a
        for i in self.words[b]:
            k = self.right_mul(k, i)
        return k

    def inverse(self, k: int) -> int:
        j = 0
        for i in reversed(self.words[k]):
            j = self.right_mul(j, i)
        return j

    def descent_set(self, k: int) -> frozenset[int]:
        """Simple indices i with w(alpha_i) a negative root, equivalently
        len(w*s_i) < len(w): the negative coordinates of w^-1(rho)."""
        return frozenset(
            i for i, x in enumerate(self.inv_rho[k], 1) if x < 0
        )

    def right_mul_reflection(self, k: int, root: PositiveRoot) -> int | None:
        """Index of w_k * s_alpha, or None if outside the enumerated slice."""
        v = self.inv_rho[k]
        c = sum(x * d for x, d in zip(v, root.coroot_coords))
        return self._index.get(
            tuple(x - c * u for x, u in zip(v, root.omega_coords))
        )


def length_counts(degrees) -> list[int]:
    """Elements of each length: the coefficients of the Poincare
    polynomial prod_i (1 + q + ... + q^(d_i - 1))."""
    poly = [1]
    for d in degrees:
        nxt = [0] * (len(poly) + d - 1)
        for i, c in enumerate(poly):
            for j in range(d):
                nxt[i + j] += c
        poly = nxt
    return poly


@lru_cache(maxsize=None)
def weyl_group(rs: RootSystem, max_length: int | None = None,
               size_guard: int = DEFAULT_SIZE_GUARD) -> WeylGroup:
    """Cached enumeration; reuse across callers is what makes E6 cheap."""
    return WeylGroup(rs, max_length=max_length, size_guard=size_guard)
