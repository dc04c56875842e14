"""Exact integer matrix arithmetic: products, determinants, Smith normal form.

Everything here works on tuples of tuples of Python ints.  No floating
point is used anywhere; unimodular transforms are tracked explicitly so
lattice quotients computed downstream are exact.
"""

from __future__ import annotations

from collections.abc import Sequence

Matrix = tuple[tuple[int, ...], ...]

__all__ = [
    "identity",
    "mat_mul",
    "mat_vec",
    "det",
    "snf",
    "unimodular_inverse",
]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def det(a: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in a]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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


def unimodular_inverse(a: Sequence[Sequence[int]]) -> Matrix:
    """Inverse of an integer matrix with det = +-1 (exact).

    Fraction-free (Bareiss) Gauss-Jordan on [a | I]: every division is
    exact, and the elimination ends in [d*I | d*a^-1] with d = +-det(a).
    """
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[k], m[piv] = m[piv], m[k]
        rk = m[k]
        p = rk[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(x * p - f * y) // prev for x, y in zip(m[i], rk)]
        prev = p
    if prev not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(prev * x for x in row[n:]) for row in m)
