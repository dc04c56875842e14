"""Weyl group enumeration and element arithmetic.

An element w is keyed by the weight v = w^-1(rho), with rho = (1, ..., 1)
in fundamental-weight coordinates; rho is regular, so distinct elements
have distinct keys.  Every query comes from that weight and the reduced
word the enumeration records:

- right multiplication: (w s_i)^-1(rho) = s_i(v) = v - v_i * alpha_i, and
  more generally w s_alpha is keyed by s_alpha(v);
- descents: v_i = <rho, w(alpha_i^vee)>, never 0, so s_i is a right
  ascent when v_i > 0 and the right descents of w are the negative
  coordinates of v (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 4);
- the action w(lam) applies the letters of the reduced word to lam,
  rightmost first.

Keys are packed into one int each (``Packer``); packing is Z-linear, so
s_i(v) is one multiply-subtract on that int.  Each coordinate of a key is
plus or minus the height of a coroot, so the highest coroot bounds it,
and the constructor checks that this bound fits a packed field.

The breadth-first closure under right multiplication by simple
reflections follows ascents only and fixes a deterministic order: by
length, then by lexicographically least reduced word.  ``parent[k]`` is
the BFS-tree parent, whose word is ``words[k][:-1]``.
"""

from __future__ import annotations

import struct
from array import array
from functools import lru_cache

from .rootdata import PositiveRoot, RootSystem, Weight

__all__ = ["WeylGroup", "weyl_group", "length_counts", "DEFAULT_SIZE_GUARD"]

DEFAULT_SIZE_GUARD = 10**6


class Packer:
    """pack(v) = sum_j v_j * 2^(16 j): Z-linear, and inverted by unpack
    while every coordinate lies in [-2^15, 2^15).  Every weight of the Weyl
    traversal (a key w^-1(rho), a column w(omega_j), a Steinberg weight
    w(lambda_D)) has coordinates of absolute value at most the height of
    the highest coroot, 29 for E8."""

    def __init__(self, n: int):
        self._fmt = struct.Struct(f"<{n}h")
        self._bias = int.from_bytes(b"\x00\x80" * n, "little")  # bit 15

    def pack(self, v) -> int:
        bias = self._bias
        return (int.from_bytes(self._fmt.pack(*v), "little") ^ bias) - bias

    def unpack(self, x: int) -> Weight:
        bias = self._bias
        return self._fmt.unpack(
            ((x + bias) ^ bias).to_bytes(self._fmt.size, "little"))

    def sign_bits(self, x: int) -> int:
        """Bit 15 of field j set exactly when coordinate j of x is >= 0,
        so two vectors with the same signs give the same int."""
        return (x + self._bias) & self._bias


class WeylGroup:
    """Enumerated Weyl group (full, or truncated at a maximum length).

    The enumeration refuses to run when the number of elements it would
    visit (known beforehand from the degrees of the invariants) exceeds
    ``size_guard``; the full E7 and E8 trip the default guard.  A
    truncated enumeration contains every element of length <= max_length
    and supports everything except operations that need the whole group.
    ``keys[k]`` is the packed w_k^-1(rho); the identity's parent is -1.
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
        # a BFS step v_i * a_ji: the highest coroot height times a_ji
        step = (max(sum(r.coroot_coords) for r in rs.positive_roots)
                * max(abs(a) for row in rs.cartan for a in row))
        if step >= 2**15:
            raise ValueError(f"W({rs.name}) needs coordinates up to {step}, "
                             "past the 16-bit packed field")
        self.rs = rs
        self.max_length = max_length
        n = rs.rank
        self.packer = packer = Packer(n)
        pack, unpack = packer.pack, packer.unpack
        self._alphas = alphas = [pack(rs.simple_root(i))
                                 for i in range(1, n + 1)]
        self._root_keys = {r.omega_coords: pack(r.omega_coords)
                           for r in rs.positive_roots}
        keys = [pack((1,) * n)]  # rho
        index = {keys[0]: 0}
        parent = array("i", [-1])
        words: list[tuple[int, ...]] = [()]
        lengths = [0]

        # elements of length m are offsets[m] .. offsets[m + 1] - 1
        offsets = [0, 1]
        while max_length is None or len(offsets) <= max_length + 1:
            level = len(offsets) - 1
            for k in range(offsets[-2], offsets[-1]):
                x = keys[k]
                word = words[k]
                for i, c in enumerate(unpack(x)):
                    if c > 0:
                        y = x - c * alphas[i]
                        if y not in index:
                            index[y] = len(keys)
                            keys.append(y)
                            parent.append(k)
                            words.append(word + (i + 1,))
                            lengths.append(level)
            if len(keys) == offsets[-1]:
                break
            offsets.append(len(keys))

        self._index = index
        self.keys = keys
        self.parent = parent
        self.words = words
        self.lengths = lengths
        self._offsets = offsets
        # a truncated run that still reaches the known order is complete
        self.is_full = len(keys) == rs.weyl_order

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def order(self) -> int:
        return len(self.keys)

    @property
    def longest_length(self) -> int:
        return self.lengths[-1]

    def inv_rho(self, k: int) -> Weight:
        """w_k^-1(rho) in fundamental-weight coordinates."""
        return self.packer.unpack(self.keys[k])

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
        c = self.inv_rho(k)[i - 1]
        t = self._index.get(self.keys[k] - c * self._alphas[i - 1])
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
            c = out[i - 1]
            for j, row in enumerate(self.rs.cartan):
                out[j] -= c * row[i - 1]
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
            i for i, x in enumerate(self.inv_rho(k), 1) if x < 0
        )

    def right_mul_reflection(self, k: int, root: PositiveRoot) -> int | None:
        """Index of w_k * s_alpha, or None if outside the enumerated slice."""
        c = sum(x * d for x, d in zip(self.inv_rho(k), root.coroot_coords))
        return self._index.get(
            self.keys[k] - c * self._root_keys[root.omega_coords])


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
