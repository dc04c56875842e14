"""Chow rings of full flag varieties via the Chevalley multiplication rule.

The independent check is a Borel-presentation oracle: polynomials in the
fundamental weights modulo positive-degree Weyl invariants.  Products of
divisor classes must satisfy exactly the linear relations that hold among
the corresponding polynomial images.
"""

import hashlib

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gammaflag import (
    BrauerModel,
    CharacterLattice,
    ChowRing,
    RestrictionImage,
    SchubertClass,
    SteinbergTable,
    SubspaceBasis,
    root_system,
    weyl_group,
)
from oracles import (
    CoinvariantRing,
    DenseSubspace,
    chevalley_by_pairing,
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


def test_vector_rejects_terms_outside_the_degree():
    ring = chow("A2")
    for terms in ({0: 1}, {3: 7}):  # the identity; an element of length 2
        cls = SchubertClass(1, terms)
        for read in (ring.vector, ring.coords):
            with pytest.raises(ValueError, match="not of length 1"):
                read(cls)


def test_coords_are_the_nonzero_positions_of_the_vector():
    ring = chow("B2", cap=3)
    cls = ring.monomial([(1, 1), (2, -1)])
    vec = ring.vector(cls)
    assert ring.coords(cls) == {i: x for i, x in enumerate(vec) if x}


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


def test_a_lattice_of_another_root_system_is_refused():
    # B3 and C3 have the same rank, so a B3 lattice fits a C3 ring's vectors
    ring = chow("C3", cap=3)
    lattice = CharacterLattice(root_system("B3"), "adjoint")
    with pytest.raises(ValueError,
                       match="lattice belongs to a different root system"):
        ring.char_ideal(lattice, 2, 3)
    with pytest.raises(ValueError,
                       match="lattice belongs to a different root system"):
        ring.divisor_class(lattice.basis[0], lattice)
    model = BrauerModel.uniform(ring.rs.fundamental_group(), 1, 3)
    with pytest.raises(ValueError,
                       match="lattice belongs to a different root system"):
        RestrictionImage(ring, SteinbergTable(ring.group), model, lattice)
    ring.divisor_class(ring.rs.simple_root(1),
                       CharacterLattice(ring.rs, "adjoint"))


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


@pytest.mark.parametrize("lam", [(1,), (1, 0, 5), (1.5, 0), "ab"])
def test_chevalley_rejects_a_bad_weight(lam):
    ring = chow("A2")
    with pytest.raises(ValueError, match="weight"):
        ring.chevalley(ring.h(1), lam)


# -- the divisor rule against one root pairing at a time --------------------

RANK_LE_6 = [
    "A1", "A2", "A3", "A4", "A5", "A6",
    "B2", "B3", "B4", "B5", "B6",
    "C3", "C4", "C5", "C6",
    "D4", "D5", "D6",
    "E6", "F4", "G2",
]


@pytest.mark.parametrize("name", RANK_LE_6)
def test_chevalley_matches_the_pairing_oracle(name):
    ring = chow(name, cap=3)
    n = ring.rs.rank
    weights = [
        tuple((1, -2, 3, -1, 2, -3)[:n]),
        tuple((-1, 0, 2, 0, -5, 1)[:n]),
        tuple((0, 4, -1, -1, 0, 7)[:n]),
        ring.rs.fundamental_weight(n),
    ]
    classes = [ring.single(u) for m in range(3) for u in ring.basis(m)]
    for m in range(1, 3):
        b = ring.basis(m)
        classes.append(SchubertClass(
            m, {u: (-1) ** k * (k + 2) for k, u in enumerate(b)}))
    for cls in classes:
        for lam in weights:
            for p in (None, 2, 3):
                assert ring.chevalley(cls, lam, p) \
                    == chevalley_by_pairing(ring, cls, lam, p)


@given(st.sampled_from(["A3", "B3", "C3", "G2", "D4"]), st.data())
def test_chevalley_matches_the_pairing_oracle_on_random_classes(name, data):
    ring = chow(name, cap=3)
    n = ring.rs.rank
    m = data.draw(st.integers(0, 2))
    coeff = st.integers(-4, 4)
    terms = {u: c for u in ring.basis(m) if (c := data.draw(coeff))}
    cls = SchubertClass(m, terms)
    lam = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=n,
                                   max_size=n)))
    p = data.draw(st.sampled_from([None, 2, 3, 5, 997]))
    assert ring.chevalley(cls, lam, p) \
        == chevalley_by_pairing(ring, cls, lam, p)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "D4"])
def test_char_ideal_takes_each_pairing_row_once(name):
    # the ideal built from pairing rows taken once per basis weight is the
    # one built product by product through chevalley and the oracle
    ring = chow(name, cap=3)
    for kind in ("adjoint", "simply_connected"):
        lattice = CharacterLattice(ring.rs, kind)
        for p in (2, 3):
            for m in (1, 2, 3):
                by_rule, by_pairing = (
                    SubspaceBasis(p, ring.basis_dim(m)) for _ in range(2))
                for u in ring.basis(m - 1):
                    for b in lattice.basis:
                        got = ring._times(ring.single(u),
                                          ring._pairings(b, p), p)
                        assert got == ring.chevalley(ring.single(u), b, p)
                        by_rule.insert(ring.coords(got))
                        by_pairing.insert(ring.coords(chevalley_by_pairing(
                            ring, ring.single(u), b, p)))
                ideal = ring.char_ideal(lattice, m, p)
                assert ideal.rows() == by_rule.rows() == by_pairing.rows()


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


# sha256 of repr(rows()) of the adjoint E6 characteristic ideal mod 3, as
# the dense-row elimination gave them
E6_CHAR_IDEAL_P3 = {
    1: "24cef3336a372e7246137eb83869da2dea4fac1b9ca36fcd3b6073957c783880",
    2: "6ea5084a6eb5d71086b420c860f1aa7ee04e27f8ca0b99d85b37fe099b8ff79d",
    3: "822a980fe7a9635bbb58ae854e97df5bce4d505b7e3be5d7361632227b8445f1",
    4: "5ecf4f1037c8468400cb29c1e0551b6dac7a94f5df73fb08be330096ac3b1749",
    5: "dfb783030f3c4eb2f4c1a9f7e0f4d8856aafd97d4d6eeaad5abaa35d1a10b90f",
    6: "08d770d5a3b78f87c040756f71d39480a44650a6e10ad6e6c71c8e14d287a0c4",
}


def test_e6_char_ideal_rows_are_pinned():
    rs = root_system("E6")
    ring = ChowRing(weyl_group(rs), degree_cap=6)
    lat = CharacterLattice(rs, "adjoint")
    for m, want in E6_CHAR_IDEAL_P3.items():
        rows = ring.char_ideal(lat, m, 3).rows()
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == want


def test_char_ideal_rejects_degree_zero():
    ring = chow("A2")
    lat = CharacterLattice(root_system("A2"), "adjoint")
    with pytest.raises(ValueError):
        ring.char_ideal(lat, 0, 2)


# -- echelon subspaces --------------------------------------------------------


BOTH = pytest.mark.parametrize("Subspace", [SubspaceBasis, DenseSubspace])


@BOTH
def test_subspace_insert_and_contains(Subspace):
    sub = Subspace(3, 3)
    assert sub.insert((1, 2, 0))
    assert not sub.insert((2, 4, 0))  # scalar multiple mod 3
    assert sub.insert((0, 0, 1))
    assert sub.dim == 2
    assert sub.contains((1, 2, 1))
    assert not sub.contains((0, 1, 0))


@BOTH
def test_subspace_equality_is_row_space_equality(Subspace):
    a = Subspace(5, 2)
    a.insert((1, 2))
    b = Subspace(5, 2)
    b.insert((3, 1))  # 3 * (1, 2) = (3, 6) = (3, 1) mod 5
    assert a == b
    assert a.is_subspace_of(b)
    c = Subspace(5, 2)
    c.insert((1, 0))
    assert a != c


@BOTH
def test_subspace_rows_are_reduced_echelon(Subspace):
    sub = Subspace(7, 4)
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


def test_subspace_rejects_a_negative_ambient_dimension():
    with pytest.raises(ValueError, match="ambient"):
        SubspaceBasis(3, -1)


@pytest.mark.parametrize("vec", [(1.0, 0), (0.0, 1), (1, "a"), {0: 1.5}])
def test_subspace_rejects_non_integer_entries(vec):
    sub = SubspaceBasis(3, 2)
    with pytest.raises(ValueError, match="must be integers"):
        sub.insert(vec)


@pytest.mark.parametrize("vec", [(1, 0, 0), {2: 1}, {-1: 1}, {0.0: 1}])
def test_subspace_rejects_vectors_outside_the_ambient_space(vec):
    sub = SubspaceBasis(3, 2)
    with pytest.raises(ValueError, match="ambient space"):
        sub.contains(vec)


# The input checks as generator expressions, one Python step per item.


def _reduce_error(vec, n):
    if isinstance(vec, dict):
        fits = all(isinstance(c, int) and 0 <= c < n for c in vec)
    else:
        vec = dict(enumerate(vec))
        fits = len(vec) == n
    if not fits:
        return "vector does not lie in the ambient space"
    if not all(isinstance(x, int) for x in vec.values()):
        return "vector entries must be integers"
    return None


def _coords_error(terms, b, m):
    if not all(k in b for k in terms):
        return f"class has terms not of length {m}"
    return None


def _weight_error(w, n):
    w = tuple(w)
    if len(w) != n or not all(isinstance(x, int) for x in w):
        return f"weight must be a tuple of {n} integers, got {w!r}"
    return None


def _error(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


ITEMS = st.one_of(st.integers(-3, 14), st.sampled_from(
    [True, False, 0.0, 3.0, 2.5, -1.0, "a", None, 10**30, -10**30]))


def _near(start, stop):
    """Positions in and around start..stop-1, as ints, floats (3.0 is in
    a range too) and bools, and other items."""
    near = st.integers(start - 2, stop + 1)
    return st.one_of(near, near.map(float), st.booleans(), ITEMS)


def _vectors(n):
    return st.tuples(st.just(n), st.one_of(
        st.dictionaries(_near(0, n), ITEMS, max_size=6),
        st.lists(ITEMS, max_size=8).map(tuple)))


@given(st.integers(0, 6).flatmap(_vectors))
@example((2, {0: 1})).via("the least column")
@example((2, {1: 1})).via("the last column")
@example((2, {2: 1})).via("one past the last column")
@example((2, {1.0: 1})).via("a float column")
@example((2, {True: 1})).via("a bool column")
@example((2, {1: 1.0})).via("an entry not an int")
def test_the_subspace_input_checks_match_the_generator_checks(case):
    n, vec = case
    sub = SubspaceBasis(5, n)
    assert _error(lambda: sub.contains(vec)) == _reduce_error(vec, n)


def _classes(name_and_degree):
    name, m = name_and_degree
    b = chow(name, cap=3).basis(m)
    return st.tuples(st.just(name), st.just(m), st.dictionaries(
        _near(b.start, b.stop), st.integers(1, 3), max_size=6))


@given(st.tuples(st.sampled_from(["A2", "B2", "G2", "A3"]),
                 st.integers(0, 3)).flatmap(_classes))
@example(("A2", 1, {1: 1, 2: 1})).via("the whole basis")
@example(("A2", 1, {3: 1})).via("one past the basis")
@example(("A2", 2, {3.0: 1})).via("a float in the basis")
@example(("A2", 1, {True: 1})).via("a bool in the basis")
def test_the_coords_check_matches_the_generator_check(case):
    name, m, terms = case
    ring = chow(name, cap=3)
    want = _coords_error(terms, ring.basis(m), m)
    assert _error(lambda: ring.coords(SchubertClass(m, terms))) == want


@given(st.sampled_from(["A1", "A2", "B3", "D4"]), st.lists(ITEMS, max_size=6))
@example("A2", [1, 2.0]).via("a float coordinate")
@example("A2", [1, True]).via("a bool coordinate")
def test_the_weight_check_matches_the_generator_check(name, w):
    rs = root_system(name)
    want = _weight_error(w, rs.rank)
    assert _error(lambda: rs.check_weight(w)) == want


def _as_dict(vec):
    return {i: x for i, x in enumerate(vec) if x}


@given(st.sampled_from([2, 3, 5, 997]), st.integers(0, 12), st.data())
def test_sparse_subspace_matches_the_dense_oracle(p, n, data):
    # random vectors, sparse ones and combinations of those fed before,
    # each given dense or as a dict
    entry = st.one_of(st.just(0), st.integers(-2 * p, 2 * p))
    vectors = st.lists(entry, min_size=n, max_size=n)
    sparse, dense = SubspaceBasis(p, n), DenseSubspace(p, n)
    fed = []
    for _ in range(data.draw(st.integers(0, n + 4))):
        if fed and data.draw(st.booleans()):
            cs = data.draw(st.lists(st.integers(0, p - 1), min_size=len(fed),
                                    max_size=len(fed)))
            vec = [sum(c * v[i] for c, v in zip(cs, fed)) for i in range(n)]
        else:
            vec = data.draw(vectors)
        given_as = _as_dict(vec) if data.draw(st.booleans()) else vec
        assert sparse.insert(given_as) == dense.insert(vec)
        assert sparse.dim == dense.dim
        assert sparse.rows() == dense.rows()
        fed.append(vec)
    probe = data.draw(vectors)
    assert sparse.contains(probe) == dense.contains(probe)
    assert sparse.contains(_as_dict(probe)) == dense.contains(probe)
    for v in fed:
        assert sparse.contains(v) and sparse.contains(_as_dict(v))
    # the first half fed in reverse, and everything fed in reverse
    half, half_dense = SubspaceBasis(p, n), DenseSubspace(p, n)
    again = SubspaceBasis(p, n)
    for k, v in enumerate(reversed(fed)):
        again.insert(v)
        if k >= len(fed) // 2:
            half.insert(v)
            half_dense.insert(v)
    assert again == sparse
    assert half.rows() == half_dense.rows()
    assert (half == sparse) == (half_dense == dense)
    assert half.is_subspace_of(sparse) and half_dense.is_subspace_of(dense)
    assert sparse.is_subspace_of(half) == dense.is_subspace_of(half_dense)
