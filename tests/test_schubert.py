"""Chow rings of full flag varieties via the Chevalley multiplication rule.

The independent check is a Borel-presentation oracle: polynomials in the
fundamental weights modulo positive-degree Weyl invariants.  Products of
divisor classes must satisfy exactly the linear relations that hold among
the corresponding polynomial images.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gammaflag import (
    CharacterLattice,
    ChowRing,
    SchubertClass,
    SubspaceBasis,
    root_system,
    weyl_group,
)
from oracles import (
    CoinvariantRing,
    index_of_word,
    left_kernel,
    monomials,
    row_spaces_equal,
)


def chow(name, cap=4):
    return ChowRing(weyl_group(root_system(name)), degree_cap=cap)


# -- structural basics --------------------------------------------------------


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_basis_dims_follow_length_counts(name):
    ring = chow(name, cap=3)
    g = ring.group  # its words, as the BFS enumerates them
    lengths = [len(g.word(k)) for k in range(len(g))]
    for m in range(4):
        assert ring.basis_dim(m) == lengths.count(m)


def test_degree_zero_and_one():
    ring = chow("A2")
    assert ring.basis_dim(0) == 1
    one = ring.single(0)
    assert one.degree == 0
    h1, h2 = ring.h(1), ring.h(2)
    assert ring.vector(h1) == (1, 0)
    assert ring.vector(h2) == (0, 1)


def test_zero_classes_do_not_share_terms():
    a, b = SchubertClass(2), SchubertClass(2)
    assert a.is_zero() and a == b
    a.terms[0] = 1
    assert b.terms == {}


def test_divisor_class_of_weight():
    ring = chow("A2")
    cls = ring.divisor_class((2, -1))
    assert cls.degree == 1
    assert ring.vector(cls) == (2, -1)


def test_divisor_class_checks_lattice_membership():
    rs = root_system("A2")
    ring = ChowRing(weyl_group(rs))
    adjoint = CharacterLattice(rs, "adjoint")
    ring.divisor_class((2, -1), adjoint)  # alpha_1: allowed
    with pytest.raises(ValueError) as exc:
        ring.divisor_class((1, 0), adjoint)
    assert "adjoint" in str(exc.value)


# -- frozen products in A2 ----------------------------------------------------


def test_a2_h1_squared_is_the_big_cell_neighbour():
    ring = chow("A2")
    g = ring.group
    h1 = ring.h(1)
    sq = ring.chevalley(h1, (1, 0))
    # h_1^2 = sigma_{s_2 s_1}  (single term, coefficient 1)
    assert sq.terms == {index_of_word(g, (2, 1)): 1}


def test_a2_h1_cubed_vanishes():
    ring = chow("A2")
    h1sq = ring.extend_by_weights(ring.single(0), [(1, 0), (1, 0)])
    cube = ring.chevalley(h1sq, (1, 0))
    assert cube.is_zero()


def test_a2_degree_two_products_frozen():
    ring = chow("A2")
    g = ring.group
    s12 = index_of_word(g, (1, 2))
    s21 = index_of_word(g, (2, 1))
    omega1, omega2 = (1, 0), (0, 1)
    pairs = {
        (1, omega1): {s21: 1},
        (2, omega1): {s12: 1, s21: 1},
        (1, omega2): {s12: 1, s21: 1},
        (2, omega2): {s12: 1},
    }
    for (i, lam), expected in pairs.items():
        assert ring.chevalley(ring.h(i), lam).terms == expected


def test_a2_top_degree_duality():
    # sigma_u * sigma_v = delta pairing on complementary degrees
    ring = chow("A2")
    g = ring.group
    top = index_of_word(g, (1, 2, 1))
    h1, h2 = ring.h(1), ring.h(2)
    assert ring.chevalley(ring.chevalley(h1, (0, 1)), (1, 0)).terms \
        == {top: 1}


# -- algebraic laws -----------------------------------------------------------

small_weights = st.lists(st.integers(-2, 2), min_size=2, max_size=2).map(tuple)


@given(st.sampled_from(["A2", "B2"]), small_weights, small_weights,
       st.integers(-2, 2), st.data())
def test_chevalley_is_linear_in_the_weight(name, lam, mu, c, data):
    ring = chow(name, cap=3)
    k = data.draw(st.integers(0, ring.group.order - 1))
    if ring.group.length(k) > 2:
        k = 0
    cls = ring.single(k)
    lhs = ring.chevalley(cls, tuple(a + c * b for a, b in zip(lam, mu)))
    rhs = ring.chevalley(cls, lam).plus(ring.chevalley(cls, mu).scaled(c))
    assert ring.vector(lhs) == ring.vector(rhs)


@given(st.sampled_from(["A2", "B2"]),
       st.lists(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1)]),
                min_size=2, max_size=3),
       st.randoms())
def test_monomial_is_order_independent(name, ws, rng):
    ring = chow(name, cap=3)
    direct = ring.monomial(ws)
    shuffled = list(ws)
    rng.shuffle(shuffled)
    assert ring.vector(direct) == ring.vector(ring.monomial(shuffled))
    iterated = ring.extend_by_weights(ring.single(0), ws)
    assert ring.vector(direct) == ring.vector(iterated)


def test_monomial_beyond_dimension_is_zero():
    ring = chow("A2")
    assert ring.monomial([(1, 0)] * 4).is_zero()


def test_mod_p_reduction_matches_integer_computation():
    ring = chow("B2", cap=3)
    ws = [(1, 1), (2, -1), (0, 1)]
    exact = ring.monomial(ws)
    assert ring.vector(exact.reduced(3)) == ring.vector(ring.monomial(ws, 3))


# -- Borel presentation cross-check ------------------------------------------


@pytest.mark.parametrize("name", ["A2", "B2"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_products_satisfy_exactly_the_coinvariant_relations(name, m):
    rs = root_system(name)
    ring = ChowRing(weyl_group(rs), degree_cap=3)
    oracle = CoinvariantRing(rs, top=3)
    assert oracle.dim(m) == ring.basis_dim(m)

    mons = monomials(rs.rank, m)
    chow_rows = []
    poly_rows = []
    for mon in mons:
        ws = []
        for i, e in enumerate(mon):
            ws.extend([rs.fundamental_weight(i + 1)] * e)
        chow_rows.append(list(ring.vector(ring.monomial(ws))))
        indices = []
        for i, e in enumerate(mon, start=1):
            indices.extend([i] * e)
        poly_rows.append(list(oracle.reduce_divisor_monomial(indices)))
    assert row_spaces_equal(left_kernel(chow_rows), left_kernel(poly_rows))


# -- characteristic ideal -----------------------------------------------------


@pytest.mark.parametrize("name,p", [("A2", 2), ("A2", 3), ("A3", 2),
                                    ("B2", 2), ("E6", 3)])
def test_degree_one_ideal_dim_is_rank_minus_fixed_part(name, p):
    rs = root_system(name)
    cap = 1
    group = weyl_group(rs, max_length=cap + 1)
    ring = ChowRing(group, degree_cap=cap)
    lat = CharacterLattice(rs, "adjoint")
    assert ring.char_ideal(lat, 1, p).dim == rs.rank - lat.fp_dim(p)


def test_char_ideal_is_multiplicatively_closed():
    rs = root_system("A3")
    ring = ChowRing(weyl_group(rs), degree_cap=3)
    lat = CharacterLattice(rs, "adjoint")
    p = 2
    for m in range(2, 4):
        target = ring.char_ideal(lat, m, p)
        lower = ring.char_ideal(lat, m - 1, p)
        for row in lower.rows():
            cls = SchubertClass(
                m - 1,
                {k: c for k, c in zip(ring.basis(m - 1), row) if c},
            )
            for i in range(1, rs.rank + 1):
                prod = ring.chevalley(cls, rs.fundamental_weight(i), p)
                assert target.contains(ring.vector(prod, p))


def test_char_ideal_rejects_degree_zero():
    ring = chow("A2")
    lat = CharacterLattice(root_system("A2"), "adjoint")
    with pytest.raises(ValueError):
        ring.char_ideal(lat, 0, 2)


# -- echelon subspaces --------------------------------------------------------


def test_subspace_insert_and_contains():
    sub = SubspaceBasis(3, 3)
    assert sub.insert((1, 2, 0))
    assert not sub.insert((2, 4, 0))  # scalar multiple mod 3
    assert sub.insert((0, 0, 1))
    assert sub.dim == 2
    assert sub.contains((1, 2, 1))
    assert not sub.contains((0, 1, 0))


def test_subspace_equality_is_row_space_equality():
    a = SubspaceBasis(5, 2)
    a.insert((1, 2))
    b = SubspaceBasis(5, 2)
    b.insert((3, 1))  # 3 * (1, 2) = (3, 6) = (3, 1) mod 5
    assert a == b
    assert a.is_subspace_of(b)
    c = SubspaceBasis(5, 2)
    c.insert((1, 0))
    assert a != c


def test_subspace_rows_are_reduced_echelon():
    sub = SubspaceBasis(7, 4)
    sub.insert((2, 1, 0, 3))
    sub.insert((0, 5, 1, 1))
    rows = sub.rows()
    pivots = []
    for row in rows:
        j = next(i for i, x in enumerate(row) if x)
        assert row[j] == 1
        for other in rows:
            if other is not row:
                assert other[j] == 0
        pivots.append(j)
    assert pivots == sorted(pivots)
