"""Smith normal form and exact integer matrix helpers."""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gammaflag import intmat, root_system
from oracles import det_fraction, mat_mul_rows

matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(lambda rows: tuple(tuple(r) for r in rows))
)


def unimodular(mat) -> bool:
    return det_fraction(mat) in (1, -1)


@given(matrices)
def test_snf_transform_identity(a):
    d, u, v = intmat.snf(a)
    assert mat_mul_rows(mat_mul_rows(u, a), v) == d


@given(matrices)
def test_snf_transforms_unimodular(a):
    _, u, v = intmat.snf(a)
    assert unimodular(u)
    assert unimodular(v)


@given(matrices)
def test_snf_diagonal_divisibility_chain(a):
    d, _, _ = intmat.snf(a)
    n = len(a)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(n)]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0


@given(matrices)
def test_snf_preserves_determinant_magnitude(a):
    d, _, _ = intmat.snf(a)
    prod = 1
    for i in range(len(a)):
        prod *= d[i][i]
    assert prod == abs(det_fraction(a))


def leibniz_det(mat) -> int:
    """Sum over permutations of signed products of entries."""
    out = 0
    for perm in permutations(range(len(mat))):
        inversions = sum(perm[i] > perm[j]
                         for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        out += (-1) ** inversions * math.prod(
            mat[i][perm[i]] for i in range(len(mat)))
    return out


@given(matrices)
def test_det_matches_fraction_elimination(a):
    # the elimination oracle decides which snf transforms are unimodular
    assert det_fraction(a) == leibniz_det(a)


# invariant factors of the Cartan matrices: ones then the torsion chain
CARTAN_SNF_DIAGONALS = {
    "A1": (2,),
    "A2": (1, 3),
    "A3": (1, 1, 4),
    "B2": (1, 2),
    "C3": (1, 1, 2),
    "D4": (1, 1, 2, 2),
    "D5": (1, 1, 1, 1, 4),
    "E6": (1, 1, 1, 1, 1, 3),
    "E7": (1, 1, 1, 1, 1, 1, 2),
    "E8": (1, 1, 1, 1, 1, 1, 1, 1),
    "F4": (1, 1, 1, 1),
    "G2": (1, 1),
}


@pytest.mark.parametrize("name,diag", sorted(CARTAN_SNF_DIAGONALS.items()))
def test_cartan_snf_frozen(name, diag):
    rs = root_system(name)
    d, u, v = intmat.snf(rs.cartan)
    assert tuple(d[i][i] for i in range(rs.rank)) == diag
    assert mat_mul_rows(mat_mul_rows(u, rs.cartan), v) == d


def test_mat_vec():
    assert intmat.mat_vec(((1, 2), (3, 4)), (5, 6)) == (17, 39)
