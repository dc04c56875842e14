"""Root systems, fundamental groups, and character lattices."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gammaflag import CharacterLattice, FiniteAbelianGroup, intmat, root_system
from oracles import (
    det_fraction,
    element_order,
    fundamental_group_by_cartan_snf,
    lattice_contains,
    pairing,
    quotient_group_structure,
    reflect,
    root_sign,
)

SUPPORTED_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

POSITIVE_ROOT_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "C3": 9, "C4": 16,
    "D4": 12, "D5": 20,
    "E6": 36, "E7": 63, "E8": 120,
    "F4": 24, "G2": 6,
}

FUNDAMENTAL_GROUP_FACTORS = {
    "A1": (2,), "A2": (3,), "A3": (4,), "A4": (5,), "A5": (6,),
    "B2": (2,), "B5": (2,),
    "C3": (2,), "C4": (2,),
    "D4": (2, 2), "D5": (4,), "D6": (2, 2), "D7": (4,),
    "E6": (3,), "E7": (2,), "E8": (),
    "F4": (), "G2": (),
}

weights = st.lists(st.integers(-4, 4), min_size=2, max_size=2).map(tuple)


@pytest.mark.parametrize("name,count", sorted(POSITIVE_ROOT_COUNTS.items()))
def test_positive_root_count(name, count):
    assert len(root_system(name).positive_roots) == count


@pytest.mark.parametrize("name", sorted(POSITIVE_ROOT_COUNTS))
def test_root_pairs_to_two_with_own_coroot(name):
    rs = root_system(name)
    for r in rs.positive_roots:
        assert pairing(r.omega_coords, r) == 2


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_simple_reflection_formula(name):
    # s_i(omega_j) = omega_j - delta_ij * alpha_i, as the reflect oracle
    # that the coinvariant model and the descent-set oracle build on
    rs = root_system(name)
    for i in range(1, rs.rank + 1):
        alpha = rs.simple_root(i)
        for j in range(1, rs.rank + 1):
            w = rs.fundamental_weight(j)
            expected = tuple(
                x - (1 if i == j else 0) * a for x, a in zip(w, alpha)
            )
            assert reflect(rs, i, w) == expected


@given(weights, st.sampled_from(["A2", "B2", "G2"]), st.integers(1, 2))
def test_reflection_is_an_involution(w, name, i):
    rs = root_system(name)
    assert reflect(rs, i, reflect(rs, i, w)) == w


def test_root_sign():
    rs = root_system("A2")
    alpha1 = rs.simple_root(1)
    assert root_sign(rs, alpha1) == 1
    assert root_sign(rs, tuple(-x for x in alpha1)) == -1
    assert root_sign(rs, (1, 1)) == 1  # highest root alpha_1 + alpha_2
    with pytest.raises(ValueError):
        root_sign(rs, (2, 0))


def test_heights_start_at_one_and_cover_simples():
    rs = root_system("E6")
    heights = sorted(r.height for r in rs.positive_roots)
    assert heights[0] == 1
    assert heights[-1] == 11  # highest root of E6
    assert sum(1 for h in heights if h == 1) == 6


def test_rank_range_enforced():
    with pytest.raises(ValueError):
        root_system("E9")
    with pytest.raises(ValueError):
        root_system("B1")
    with pytest.raises(ValueError):
        root_system("Q2")


@pytest.mark.parametrize("name,factors",
                         sorted(FUNDAMENTAL_GROUP_FACTORS.items()))
def test_fundamental_group_factors_frozen(name, factors):
    assert root_system(name).fundamental_group().quotient.factors == factors


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B4", "C3", "D4", "D5",
     "E6", "E7", "E8", "F4", "G2"],
)
def test_fundamental_group_against_quotient_walk(name):
    # independent enumeration of the weight lattice modulo the root lattice
    rs = root_system(name)
    order, element_orders = quotient_group_structure(rs.cartan)
    g = rs.fundamental_group().quotient
    assert order == g.order
    assert element_orders == tuple(
        sorted(element_order(g, e) for e in g.elements())
    )


@pytest.mark.parametrize("name", SUPPORTED_TYPES)
def test_fundamental_group_matches_the_cartan_snf(name):
    # the adjoint lattice's quotient, in the chart of the Cartan matrix's SNF
    rs = root_system(name)
    fg = rs.fundamental_group()
    factors, class_of = fundamental_group_by_cartan_snf(rs)
    assert fg.quotient.factors == factors
    assert fg.omega_classes == tuple(
        class_of(rs.fundamental_weight(i)) for i in range(1, rs.rank + 1))


def test_weyl_orders_equal_degree_products():
    for name, expected in (("A2", 6), ("B2", 8), ("G2", 12),
                           ("A3", 24), ("E6", 51840), ("E8", 696729600)):
        assert root_system(name).weyl_order == expected


# -- finite abelian groups ----------------------------------------------------

factor_tuples = st.lists(st.integers(2, 5), max_size=3).map(tuple)


@given(factor_tuples, st.data())
def test_group_laws(factors, data):
    g = FiniteAbelianGroup(factors)
    els = g.elements()
    a = data.draw(st.sampled_from(els))
    b = data.draw(st.sampled_from(els))
    assert g.add(a, b) == g.add(b, a)
    assert g.add(a, g.neg(a)) == g.identity()
    assert g.exponent % element_order(g, a) == 0


@given(factor_tuples, st.data())
def test_group_label_round_trip(factors, data):
    g = FiniteAbelianGroup(factors)
    e = data.draw(st.sampled_from(g.elements()))
    assert g.parse_label(g.label(e)) == e


@pytest.mark.parametrize("factors", [(1, 3), (1,)])
def test_group_rejects_trivial_factors(factors):
    with pytest.raises(ValueError):
        FiniteAbelianGroup(factors)


# -- character lattices -------------------------------------------------------


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "D4", "E6"])
def test_lattice_extremes(name):
    rs = root_system(name)
    adjoint = CharacterLattice(rs, "adjoint")
    sc = CharacterLattice(rs, "simply_connected")
    fg = rs.fundamental_group().quotient
    assert adjoint.index_in_weight_lattice == fg.order
    assert sc.index_in_weight_lattice == 1
    for i in range(1, rs.rank + 1):
        assert lattice_contains(adjoint, rs.simple_root(i))
        assert lattice_contains(sc, rs.simple_root(i))
        assert lattice_contains(sc, rs.fundamental_weight(i))


def test_adjoint_excludes_nontrivial_weight_classes():
    rs = root_system("A2")
    adjoint = CharacterLattice(rs, "adjoint")
    assert not lattice_contains(adjoint, rs.fundamental_weight(1))
    assert lattice_contains(adjoint, (1, 1))  # alpha_1 + alpha_2


def test_intermediate_lattice_a3():
    rs = root_system("A3")
    mid = CharacterLattice(rs, [(2, 0, 0)])  # adds 2*omega_1, class of order 2
    assert mid.kind == "explicit"
    assert mid.index_in_weight_lattice == 2
    assert lattice_contains(mid, (2, 0, 0))
    assert not lattice_contains(mid, (1, 0, 0))
    assert mid.quotient.factors == (2,)


def test_explicit_root_generators_give_adjoint():
    rs = root_system("B2")
    explicit = CharacterLattice(rs, [rs.simple_root(1), rs.simple_root(2)])
    adjoint = CharacterLattice(rs, "adjoint")
    assert explicit.index_in_weight_lattice == adjoint.index_in_weight_lattice
    for i in range(1, 3):
        assert lattice_contains(explicit, rs.simple_root(i))


@given(weights)
def test_class_of_zero_iff_member(w):
    lat = CharacterLattice(root_system("A2"), "adjoint")
    member = lat.class_of(w) == lat.quotient.identity()
    assert member == lattice_contains(lat, w)


# sha256 of repr([(type, keyword, basis, quotient.factors, omega_classes)])
# over SUPPORTED_TYPES, adjoint then simply_connected each, as computed when
# each lattice took two Smith normal forms
LATTICE_DIGEST = (
    "ae93d18fb9a377e4a64232a96a26c6d22336f3da20e237a70942b052a3fbc5e0")


def test_every_supported_lattice_keeps_its_basis_and_chart():
    rows = []
    for name in SUPPORTED_TYPES:
        rs = root_system(name)
        for kind in ("adjoint", "simply_connected"):
            lat = CharacterLattice(rs, kind)
            rows.append((name, kind, lat.basis, lat.quotient.factors,
                         lat.omega_classes))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == LATTICE_DIGEST


@given(st.sampled_from(["A2", "B2", "G2", "A3", "B3", "C3", "D4"]), st.data())
def test_explicit_lattices_agree_with_the_fraction_oracles(name, data):
    rs = root_system(name)
    vectors = st.lists(st.integers(-3, 3), min_size=rs.rank,
                       max_size=rs.rank).map(tuple)
    extra = data.draw(st.lists(vectors, max_size=3))
    lat = CharacterLattice(rs, extra)
    gens = [rs.simple_root(i) for i in range(1, rs.rank + 1)] + extra
    assert all(lattice_contains(lat, g) for g in gens)
    assert lat.index_in_weight_lattice == abs(det_fraction(lat.basis))
    for w in [data.draw(vectors), *gens]:
        member = lat.class_of(w) == lat.quotient.identity()
        assert member == lattice_contains(lat, w)


def test_each_lattice_takes_one_snf(monkeypatch):
    snf, calls = intmat.snf, []
    monkeypatch.setattr(intmat, "snf", lambda a: calls.append(a) or snf(a))
    rs = root_system("D4")
    for spec in ("adjoint", "simply_connected", [rs.fundamental_weight(1)]):
        CharacterLattice(rs, spec)
    assert len(calls) == 3


def test_fp_dims_frozen():
    e6 = root_system("E6")
    assert CharacterLattice(e6, "adjoint").fp_dim(3) == 1
    assert CharacterLattice(e6, "adjoint").fp_dim(2) == 0
    assert CharacterLattice(e6, "simply_connected").fp_dim(3) == 0
    a3 = root_system("A3")
    assert CharacterLattice(a3, "adjoint").fp_dim(2) == 1
    assert CharacterLattice(a3, "adjoint").fp_dim(3) == 0


def test_lattice_keyword_aliases_and_errors():
    # exactly the two keywords are accepted, spelled as --help spells them
    rs = root_system("A2")
    for spec in ("sc", "simply-connected", "ADJOINT", "Simply_Connected",
                 "maximal"):
        with pytest.raises(ValueError) as exc:
            CharacterLattice(rs, spec)
        assert str(exc.value) == (
            f"unknown lattice keyword {spec!r}: expected 'adjoint', "
            "'simply_connected', or a list of weight vectors")
