"""Exact integer matrix arithmetic: Smith normal form.

Everything here works on tuples of tuples of Python ints.  No floating
point is used anywhere; unimodular transforms are tracked explicitly so
lattice quotients computed downstream are exact.
"""

from __future__ import annotations

from collections.abc import Sequence

Matrix = tuple[tuple[int, ...], ...]

__all__ = [
    "identity",
    "mat_vec",
    "snf",
]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _swap_rows(m: list[list[int]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: list[list[int]], i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m: list[list[int]], dst: int, src: int, q: int) -> None:
    # row[dst] += q * row[src]
    rd, rs = m[dst], m[src]
    for k in range(len(rd)):
        rd[k] += q * rs[k]


def _add_col(m: list[list[int]], dst: int, src: int, q: int) -> None:
    for row in m:
        row[dst] += q * row[src]


def snf(a: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form: returns (d, u, v) with u*a*v = d.

    u and v are unimodular; d is diagonal with non-negative entries
    satisfying d[0][0] | d[1][1] | ... .
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    u = [list(row) for row in identity(rows)]
    v = [list(row) for row in identity(cols)]

    for t in range(min(rows, cols)):
        while True:
            # pick the nonzero entry of least magnitude in the trailing block
            pivot = None
            for i in range(t, rows):
                for j in range(t, cols):
                    e = m[i][j]
                    if e != 0 and (pivot is None or abs(e) < abs(pivot[2])):
                        pivot = (i, j, e)
            if pivot is None:
                break
            pi, pj, _ = pivot
            if pi != t:
                _swap_rows(m, t, pi)
                _swap_rows(u, t, pi)
            if pj != t:
                _swap_cols(m, t, pj)
                _swap_cols(v, t, pj)
            if m[t][t] < 0:
                for k in range(cols):
                    m[t][k] = -m[t][k]
                for k in range(rows):
                    u[t][k] = -u[t][k]
            p = m[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // p
                    _add_row(m, i, t, -q)
                    _add_row(u, i, t, -q)
                    if m[i][t] != 0:
                        dirty = True  # remainder left; re-pick smaller pivot
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // p
                    _add_col(m, j, t, -q)
                    _add_col(v, j, t, -q)
                    if m[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole trailing block for the chain property
            fix = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % p != 0:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            _add_row(m, t, fix, 1)
            _add_row(u, t, fix, 1)

    d = tuple(
        tuple(m[i][j] if i == j else 0 for j in range(cols)) for i in range(rows)
    )
    return d, tuple(tuple(r) for r in u), tuple(tuple(r) for r in v)

