"""Smith normal form and exact integer matrix helpers."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gammaflag import CharacterLattice, intmat, root_system
from oracles import det_fraction, unimodular_inverse_by_fractions

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
    assert intmat.mat_mul(intmat.mat_mul(u, a), v) == d


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


@given(matrices)
def test_det_matches_fraction_elimination(a):
    assert intmat.det(a) == det_fraction(a)


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
    assert intmat.mat_mul(intmat.mat_mul(u, rs.cartan), v) == d


@given(matrices)
def test_unimodular_inverse(a):
    _, u, _ = intmat.snf(a)  # u is unimodular whatever a is
    inv = intmat.unimodular_inverse(u)
    n = len(u)
    assert intmat.mat_mul(u, inv) == intmat.identity(n)
    assert intmat.mat_mul(inv, u) == intmat.identity(n)


@given(matrices)
def test_unimodular_inverse_matches_fraction_oracle(a):
    _, u, v = intmat.snf(a)
    for m in (u, v):
        assert intmat.unimodular_inverse(m) == unimodular_inverse_by_fractions(m)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "D4"])
def test_unimodular_inverse_matches_fraction_oracle_on_lattices(
        name, monkeypatch):
    # every matrix rootdata inverts while it builds the lattice bases
    seen = []
    inverse = intmat.unimodular_inverse
    monkeypatch.setattr(intmat, "unimodular_inverse",
                        lambda m: seen.append(m) or inverse(m))
    rs = root_system(name)
    for kind in ("adjoint", "simply_connected"):
        CharacterLattice(rs, kind)
    assert len(seen) == 2
    for m in seen:
        assert inverse(m) == unimodular_inverse_by_fractions(m)


def test_unimodular_inverse_rejects_non_unimodular():
    for a in (((2, 0), (0, 1)), ((1, 2), (2, 4)), ((0, 0), (0, 0))):
        with pytest.raises(ValueError):
            intmat.unimodular_inverse(a)


def test_mat_vec():
    assert intmat.mat_vec(((1, 2), (3, 4)), (5, 6)) == (17, 39)
