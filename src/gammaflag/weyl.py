"""Weyl group enumeration and element arithmetic.

Elements are identified by their integer action matrix on
fundamental-weight coordinates, stored flat (row-major tuples).  The
breadth-first closure under right multiplication by simple reflections
fixes a deterministic order: by length, then by lexicographically least
reduced word.  Right multiplication only rewrites one matrix column, so
enumeration stays cheap even for |W| in the tens of thousands.
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
        cart = rs.cartan
        # sparse columns of the Cartan matrix: column i = alpha_i
        cols = [[(j, cart[j][i]) for j in range(n) if cart[j][i]] for i in range(n)]
        ident = tuple(1 if r == c else 0 for r in range(n) for c in range(n))

        index: dict[tuple[int, ...], int] = {ident: 0}
        mats = [ident]
        words: list[tuple[int, ...]] = [()]
        lengths = [0]
        right: list[list[int]] = [[-1] * n]

        frontier = [0]
        level = 0
        while frontier and (max_length is None or level < max_length):
            nxt = []
            for k in frontier:
                m = mats[k]
                for i in range(n):
                    col = cols[i]
                    lst = list(m)
                    for r in range(n):
                        base = r * n
                        v = 0
                        for j, cij in col:
                            v += m[base + j] * cij
                        lst[base + i] -= v
                    key = tuple(lst)
                    t = index.get(key)
                    if t is None:
                        t = len(mats)
                        index[key] = t
                        mats.append(key)
                        words.append(words[k] + (i + 1,))
                        lengths.append(level + 1)
                        right.append([-1] * n)
                        nxt.append(t)
                    right[k][i] = t
            frontier = nxt
            level += 1

        self._index = index
        self.mats = mats
        self.words = words
        self.lengths = lengths
        self._right = right
        # a truncated run that still reaches the known order is complete
        self.is_full = len(mats) == rs.weyl_order
        # index ranges per length: elements of one length are contiguous
        offsets = [0]
        for k in range(1, len(mats) + 1):
            if k == len(mats) or lengths[k] != lengths[k - 1]:
                offsets.append(k)
        self._offsets = offsets

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.mats)

    @property
    def order(self) -> int:
        return len(self.mats)

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
            self.rs._check_index(i)
            k = self.right_mul(k, i)
        return k

    def right_mul(self, k: int, i: int) -> int:
        """Index of w_k * s_i."""
        t = self._right[k][i - 1]
        if t == -1:
            raise ValueError(
                f"w*s_{i} has length beyond the enumerated bound "
                f"(max_length={self.max_length})"
            )
        return t

    # -- group structure ---------------------------------------------------

    def act(self, k: int, w: Weight) -> Weight:
        n = self.rs.rank
        m = self.mats[k]
        return tuple(
            sum(m[r * n + j] * w[j] for j in range(n)) for r in range(n)
        )

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
        """Simple indices i with w(alpha_i) a negative root.

        Equivalently the i with len(w*s_i) < len(w); the BFS neighbour
        table answers that without matrix arithmetic.  Boundary elements
        of a truncated enumeration fall back to the root-sign test.
        """
        lk = self.lengths[k]
        row = self._right[k]
        out = []
        for i in range(1, self.rs.rank + 1):
            t = row[i - 1]
            if t != -1:
                if self.lengths[t] < lk:
                    out.append(i)
            elif self._alpha_sign(k, i) < 0:
                out.append(i)
        return frozenset(out)

    def _alpha_sign(self, k: int, i: int) -> int:
        return self.rs.root_sign(self.act(k, self.rs.simple_root(i)))

    def reflection_index(self, root: PositiveRoot) -> int:
        """Element index of the reflection s_alpha for a positive root."""
        n = self.rs.rank
        u, d = root.omega_coords, root.coroot_coords
        flat = []
        for r in range(n):
            for c in range(n):
                flat.append((1 if r == c else 0) - u[r] * d[c])
        k = self._index.get(tuple(flat))
        if k is None:
            raise ValueError(
                "reflection lies beyond the enumerated length bound"
            )
        return k

    def right_mul_reflection(self, k: int, root: PositiveRoot) -> int | None:
        """Index of w_k * s_alpha, or None if outside the enumerated slice."""
        n = self.rs.rank
        m = self.mats[k]
        u, d = root.omega_coords, root.coroot_coords
        v = [sum(m[r * n + j] * u[j] for j in range(n)) for r in range(n)]
        flat = list(m)
        for r in range(n):
            vr = v[r]
            if vr:
                base = r * n
                for c in range(n):
                    if d[c]:
                        flat[base + c] -= vr * d[c]
        return self._index.get(tuple(flat))


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
