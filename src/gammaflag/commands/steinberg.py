"""``gammaflag steinberg``: each Weyl element's twisting weight rho_w and
its class, with Steinberg's check that the rho_w are distinct."""

from __future__ import annotations

import functools
import itertools
from array import array

from ..cli import Report, ScenarioConfig
from ..kgamma import SteinbergTable
from ..rootdata import root_system
from ..weyl import Packer, weyl_group

# The buckets of _WeightCount, one per residue of a shifted weight: a
# prime, so that every coordinate moves the residue.
_BUCKETS = 251


class _WeightCount:
    """Counts the distinct weights of rank n <= 8 that ``packer`` packed,
    in 8 bytes each instead of a set of ints (about 64).  A packed weight
    plus the packer's bias, bit 7 of each of its n bytes, has every field
    in [0, 2^8), so it is an int in [0, 2^64), kept exactly as one
    unsigned 64-bit item.  The items go to one of _BUCKETS
    buckets by the int's residue mod _BUCKETS, and the distinct items are
    counted one bucket at a time, so the set that counts them holds one
    bucket."""

    def __init__(self, packer: Packer):
        if not 1 <= packer.n <= 8:
            raise ValueError(f"rank {packer.n} outside 1..8")
        self._bias = packer.bias
        self._buckets = [array("Q") for _ in range(_BUCKETS)]

    def add(self, weights) -> None:
        bias, buckets = self._bias, self._buckets
        for x in weights:
            x += bias
            buckets[x % _BUCKETS].append(x)

    def __len__(self) -> int:
        return sum(len(set(bucket)) for bucket in self._buckets)


def _steinberg_elements(table: SteinbergTable,
                        seen: _WeightCount | None = None):
    """(word, rho_w, class) of every element in order, rho_w as its tuple
    of coordinates.  A word is its letters joined by commas, "" for the
    identity, built as its parent's word, "," and its letter; one length's
    words are kept.  Each length's packed weights are added to ``seen``,
    if given, before any of its elements is yielded."""
    after = [f",{i}" for i in range(table.rs.rank + 1)]
    unpack_all = table.group.packer.unpack_all
    words = [""]
    for m, (parents, letters, rhos, classes) in enumerate(table.lengths()):
        if seen is not None:
            seen.add(rhos)
        if m == 1:
            words = [str(i) for i in letters]
        elif m:
            words = [words[j] + after[i] for j, i in zip(parents, letters)]
        yield from zip(words, unpack_all(rhos), classes)


def build(cfg: ScenarioConfig) -> Report:
    group = weyl_group(root_system(cfg.type))
    table = SteinbergTable(group)
    name, order, n = group.rs.name, len(group), group.rs.rank
    label = functools.cache(table.fg.quotient.label)
    report = Report({}, (), ())

    if cfg.format == "tsv":
        rho_text = " ".join(["%d"] * n)

        def rows():
            # packed weights are equal exactly when the weights are, so only
            # they are counted for the collision check, decided after the
            # last row
            yield "word", "rho", "class"
            seen = _WeightCount(group.packer)
            for word, rho, cls in _steinberg_elements(table, seen):
                yield word or "-", rho_text % rho, label(cls)
            report.failed = len(seen) < order

        report.rows = rows()
        return report
    # json and pretty state the verdict before any element: a first pass
    # over the weights alone
    seen = _WeightCount(group.packer)
    for _, _, rhos, _ in table.lengths():
        seen.add(rhos)
    distinct = len(seen) == order
    report.failed = not distinct
    # one digit per letter (rank <= 8): the digits' values, commas dropped
    digits = bytes.maketrans(b"123456789", bytes(range(1, 10)))
    report.payload = {
        "type": name,
        "order": order,
        "distinct": distinct,
        "entries": (
            {"index": k, "word": list(word.encode().translate(digits, b",")),
             "rho": rho, "class": label(cls)}
            for k, (word, rho, cls) in enumerate(_steinberg_elements(table))
        ),
    }
    rho_text = ", ".join(["%d"] * n)
    report.lines = itertools.chain(
        [f"type {name}: {order} elements, "
         + ("all weights distinct" if distinct else "WEIGHT COLLISION")],
        (f"  sigma[{word}]  rho=({rho_text % rho})  class {label(cls)}"
         for word, rho, cls in _steinberg_elements(table)),
    )
    return report
