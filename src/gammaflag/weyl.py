"""Weyl group enumeration and the queries the Chow ring and the Steinberg
basis need.

An element w is keyed by the weight v = w^-1(rho), with rho = (1, ..., 1)
in fundamental-weight coordinates; rho is regular, so distinct elements
have distinct keys.  Every query comes from that weight:

- right multiplication: (w s_i)^-1(rho) = s_i(v) = v - v_i * alpha_i, and
  more generally w s_alpha is keyed by s_alpha(v);
- descents: v_i = <rho, w(alpha_i^vee)>, never 0, so s_i is a right
  ascent when v_i > 0 and the right descents of w are the negative
  coordinates of v (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 4).

Keys are packed into one int each (``Packer``); packing is Z-linear, so
s_i(v) is one multiply-subtract on that int.  The BFS step reads the
ascents of a key off its sign bits and each v_i off its biased field, so
it unpacks no key.  Each coordinate of a key is plus or minus the height
of a coroot, so the highest coroot bounds it, and the constructor checks
that this bound times the largest |a_ij| fits a signed 8-bit field; over
every admitted type it is at most 58 (E8: 29 * 2), against 127.

The breadth-first closure under right multiplication by simple
reflections follows ascents only and fixes a deterministic order: by
length, then by lexicographically least reduced word.  Each element keeps
its packed key, its BFS-tree parent and its last letter, so ``word(k)``
reads its reduced word up the parents.  One BFS step (``step``) takes the
keys of one whole length and returns those of the next, each with its
parent's position and its last letter; it needs no other state, so a
caller that keeps one length at a time (the Steinberg stream in kgamma.py)
can walk all of W without the index or the parents.
The group's own closure is grown by the same step on demand, one whole
length at a time, as far as a query needs: the number of elements of each
length is known from the degrees, so the size of the group, the length
of w_k and the positions of each length need no enumeration, and a
command that reads only short elements never enumerates the rest of W.
"""

from __future__ import annotations

import bisect
import itertools
import struct
from array import array
from functools import lru_cache

from .rootdata import RootSystem, Weight

__all__ = ["WeylGroup", "weyl_group", "length_counts", "DEFAULT_SIZE_GUARD"]

DEFAULT_SIZE_GUARD = 10**6

# Weights that Packer.unpack_all unpacks with one struct.unpack: a whole
# BFS length at once would hold every coordinate of it at the same time.
_BLOCK = 256


class Packer:
    """pack(v) = sum_j v_j * 2^(8 j): Z-linear, and inverted by unpack
    while every coordinate lies in [-2^7, 2^7).  Every weight of the Weyl
    traversal (a key w^-1(rho), a column w(omega_j), a Steinberg weight
    w(lambda_D)) has coordinates of absolute value at most the height of
    the highest coroot, 29 for E8, so one signed byte holds each and an
    E6 key is an int of 48 bits."""

    def __init__(self, n: int):
        self.n = n  # fields, one byte each
        self._fmt = struct.Struct(f"<{n}b")
        self.bias = int.from_bytes(b"\x80" * n, "little")  # bit 7 of each

    def pack(self, v) -> int:
        bias = self.bias
        return (int.from_bytes(self._fmt.pack(*v), "little") ^ bias) - bias

    def unpack(self, x: int) -> Weight:
        bias = self.bias
        return self._fmt.unpack(
            ((x + bias) ^ bias).to_bytes(self.n, "little"))

    def unpack_all(self, xs):
        """unpack(x) for each x of the sequence xs, in order, unpacked
        _BLOCK at a time by one struct.unpack of their bytes."""
        bias, n = self.bias, self.n
        for start in range(0, len(xs), _BLOCK):
            block = xs[start:start + _BLOCK]
            data = b"".join(map(
                int.to_bytes, map(bias.__xor__, map(bias.__add__, block)),
                itertools.repeat(n), itertools.repeat("little")))
            yield from zip(*[iter(struct.unpack(f"<{n * len(block)}b",
                                                data))] * n)

    def sign_bits(self, x: int) -> int:
        """Bit 7 of field j set exactly when coordinate j of x is >= 0,
        so two vectors with the same signs give the same int."""
        return (x + self.bias) & self.bias


class WeylGroup:
    """Weyl group (full, or truncated at a maximum length), enumerated on
    demand one whole length at a time.

    The enumeration refuses to start when the number of elements it could
    visit (known beforehand from the degrees of the invariants) exceeds
    ``DEFAULT_SIZE_GUARD``; the full E7 and E8 trip it.  A truncated group
    contains every element of length <= max_length.  ``len``,
    ``longest_length`` and ``is_full`` come from the degrees; a query about
    an element grows the BFS as far as it needs.  ``_keys[k]`` is the
    packed w_k^-1(rho); the identity's parent is -1.
    """

    def __init__(self, rs: RootSystem, max_length: int | None = None):
        guard = DEFAULT_SIZE_GUARD
        if max_length is not None and (type(max_length) is not int
                                       or max_length < 0):
            raise ValueError("max_length must be None or an integer >= 0, "
                             f"not {max_length!r}")
        if max_length is None:
            if rs.weyl_order > guard:
                raise ValueError(
                    f"refusing full enumeration of W({rs.name}): order "
                    f"{rs.weyl_order} exceeds the size guard {guard}; "
                    "pass max_length to enumerate a bounded slice"
                )
        else:
            size = sum(length_counts(rs.degrees)[:max_length + 1])
            if size > guard:
                raise ValueError(
                    f"refusing enumeration of W({rs.name}) up to length "
                    f"{max_length}: {size} elements exceed the size guard "
                    f"{guard}"
                )
        # a BFS step v_i * a_ji: the highest coroot height times a_ji
        step = (max(sum(r.coroot_coords) for r in rs.positive_roots)
                * max(abs(a) for row in rs.cartan for a in row))
        if step >= 2**7:
            raise ValueError(f"W({rs.name}) needs coordinates up to {step}, "
                             "past the 8-bit packed field")
        self.rs = rs
        self.max_length = max_length
        top = len(rs.positive_roots)
        self.is_full = max_length is None or max_length >= top
        self.longest_length = top if self.is_full else max_length
        # elements of length m are starts[m] .. starts[m + 1] - 1
        self._starts = list(itertools.accumulate(
            length_counts(rs.degrees)[:self.longest_length + 1], initial=0))
        n = rs.rank
        self.packer = packer = Packer(n)
        alphas = [packer.pack(rs.simple_root(i)) for i in range(1, n + 1)]
        # the sign bits of a key v -> its ascents, the i with v_i > 0, each
        # as (i, the shift of field i, alpha_i); at most 2^n patterns
        self._ascents = {
            sum(s << 8 * j + 7 for j, s in enumerate(signs)):
                tuple((j + 1, 8 * j, alphas[j])
                      for j, s in enumerate(signs) if s)
            for signs in itertools.product((0, 1), repeat=n)}
        self._root_keys = {r.omega_coords: packer.pack(r.omega_coords)
                           for r in rs.positive_roots}
        self._keys = [packer.pack((1,) * n)]  # rho
        self._index = {self._keys[0]: 0}
        self._parent = array("i", [-1])
        self._letters = bytearray(1)  # w_k = w_parent s_letter

    def step(self, keys: list[int]) -> tuple[list[int], array, bytearray]:
        """One ascents-only BFS step: from the keys of one whole length, in
        order, the keys of the next length in BFS order, each with its
        parent's position in ``keys`` and its letter i (w = u s_i)."""
        bias, ascents = self.packer.bias, self._ascents
        new: dict[int, None] = {}
        parents, letters = array("i"), bytearray()
        # every s_i(v) with v_i > 0 is one length longer; field i of the
        # biased key x + bias is v_i + 2^7, so no key is unpacked
        for pos, x in enumerate(keys):
            b = x + bias
            for i, shift, alpha in ascents[b & bias]:
                y = x - ((b >> shift & 0xFF) - 0x80) * alpha
                if y not in new:
                    new[y] = None
                    parents.append(pos)
                    letters.append(i)
        return list(new), parents, letters

    def grow(self, m: int) -> None:
        """Enumerate every length up to m (at most longest_length).  Each
        length must have as many elements as the length counts give, and
        counts as grown once ``_keys`` holds it, which it does last; the
        other tables are written from the length's start, so an exception
        leaves no length half-grown and the next call resumes."""
        keys, starts = self._keys, self._starts
        for n in range(starts.index(len(keys)),
                       min(m, self.longest_length) + 1):
            start, base, end = starts[n - 1:n + 2]
            new, parents, letters = self.step(keys[start:base])
            if len(new) != end - base:
                raise RuntimeError(
                    f"the BFS step gave {len(new)} elements of length {n} "
                    f"in W({self.rs.name}), not {end - base}")
            self._index.update(zip(new, range(base, end)))
            self._parent[base:] = array("i", [start + j for j in parents])
            self._letters[base:] = letters
            keys += new

    def _grown_to(self, k: int) -> int:
        """k, once element k is enumerated."""
        if not 0 <= k < len(self._keys):
            self.grow(self.length(k))
        return k

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return self._starts[-1]

    def length(self, k: int) -> int:
        """Length of w_k, read off the number of elements of each length;
        enumerates nothing."""
        if not 0 <= k < len(self):
            raise IndexError(f"element {k} outside the {len(self)} of "
                             f"W({self.rs.name}) up to length "
                             f"{self.longest_length}")
        return bisect.bisect_right(self._starts, k) - 1

    def inv_rho(self, k: int) -> Weight:
        """w_k^-1(rho) in fundamental-weight coordinates."""
        return self.packer.unpack(self._keys[self._grown_to(k)])

    def word(self, k: int) -> tuple[int, ...]:
        """The reduced word of w_k that the BFS order sorts by: its letters
        read up the chain of parents."""
        k = self._grown_to(k)
        parent, letters, out = self._parent, self._letters, []
        while k:
            out.append(letters[k])
            k = parent[k]
        return tuple(reversed(out))

    def range_of_length(self, m: int) -> range:
        """Positions of the elements of length m, read off the number of
        elements of each length; enumerates nothing."""
        if not 0 <= m <= self.longest_length:
            return range(0)
        return range(self._starts[m], self._starts[m + 1])

    def elements_of_length(self, m: int) -> range:
        self.grow(m)
        return self.range_of_length(m)

    def covers(self, k: int) -> tuple[tuple[int, int], ...]:
        """Pairs (root index, index of w_k * s_alpha) over the positive
        roots with len(w_k * s_alpha) = len(w_k) + 1, in root order."""
        # no longer element is needed, and growing to the longest
        # w_k * s_alpha, up to len(w_k) + 2 ht(alpha) - 1, would build most
        # of W
        above = self.elements_of_length(self.length(k) + 1)
        v = self.inv_rho(k)  # above grew nothing if w_k has the top length
        x = self._keys[k]
        index, root_keys = self._index, self._root_keys
        out = []
        for ri, root in enumerate(self.rs.positive_roots):
            c = sum(a * d for a, d in zip(v, root.coroot_coords))
            t = index.get(x - c * root_keys[root.omega_coords], -1)
            if t in above:
                out.append((ri, t))
        return tuple(out)


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


@lru_cache(maxsize=None, typed=True)
def weyl_group(rs: RootSystem, max_length: int | None = None) -> WeylGroup:
    """One group per root system and bound, shared by every caller, so
    what one query enumerates the next need not enumerate again.  The
    cache keys on the bound's type too, so True or 1.0 never finds the
    group of 1 and is refused like any bad bound."""
    return WeylGroup(rs, max_length=max_length)
