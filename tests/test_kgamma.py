"""Steinberg basis classes and the restriction image of twisted forms."""

import itertools
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gammaflag import (
    BrauerModel,
    CharacterLattice,
    ChowRing,
    RestrictionImage,
    SteinbergTable,
    WeylGroup,
    ideal_equality_report,
    root_system,
    weyl_group,
)
from gammaflag.commands.steinberg import _steinberg_elements
from gammaflag.kgamma import _unit_monomials
from gammaflag.schubert import SubspaceBasis
from kgamma_helpers import engine_for
from oracles import (
    chevalley_by_pairing,
    contains,
    extend_by_weights,
    is_subspace_of,
    power_coordinates,
    restriction_image_unfiltered,
    restriction_span_bruteforce,
    steinberg_by_descent_sets,
    sym_part_span,
    sym_power_span,
    unpacked_steinberg_walk,
    vector,
    weyl_by_matrices,
)


# -- Steinberg table -----------------------------------------------------------


def _elements(table):
    """(word, rho_w, class) of every element of the table's stream, each
    word string turned back into its tuple of letters."""
    return [(tuple(map(int, word.split(","))) if word else (), rho, cls)
            for word, rho, cls in _steinberg_elements(table)]


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "B3", "C4", "D4", "G2"])
def test_identity_and_simple_reflection_values(name):
    rs = root_system(name)
    table = SteinbergTable(weyl_group(rs))
    unpack = table.group.packer.unpack
    first, second = itertools.islice(table.lengths(), 2)
    assert first[:2] == ((), ())
    assert [unpack(rho) for rho in first[2]] == [(0,) * rs.rank]
    parents, letters, rhos, _ = second
    assert list(parents) == [0] * rs.rank
    assert list(letters) == list(range(1, rs.rank + 1))
    for i, rho in zip(letters, rhos):
        omega = rs.fundamental_weight(i)
        alpha = rs.simple_root(i)
        assert unpack(rho) == tuple(w - a for w, a in zip(omega, alpha))


def test_a2_table_frozen():
    table = SteinbergTable(weyl_group(root_system("A2")))
    # class labels follow the library's Z/3 chart: omega_1 -> 2, omega_2 -> 1
    assert _elements(table) == [
        ((), (0, 0), (0,)),
        ((1,), (-1, 1), (2,)),
        ((2,), (1, -1), (1,)),
        ((1, 2), (-1, 0), (1,)),
        ((2, 1), (0, -1), (2,)),
        ((1, 2, 1), (-1, -1), (0,)),
    ]


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_rhos_pairwise_distinct(name):
    table = SteinbergTable(weyl_group(root_system(name)))
    rhos = [rho for _, rho, _ in _elements(table)]
    assert len(set(rhos)) == len(rhos) == len(table.group)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "D4"])
def test_brauer_class_is_the_class_of_rho(name):
    table = SteinbergTable(weyl_group(root_system(name)))
    fg = table.fg
    for _, rho, cls in _elements(table):
        assert cls == fg.class_of(rho)


@pytest.mark.parametrize(
    "name", ["A2", "B2", "G2", "A3", "B3", "C3", "D4", "E6"])
def test_steinberg_table_matches_the_descent_set_oracle(name):
    rs = root_system(name)
    rhos, classes = steinberg_by_descent_sets(weyl_group(rs))
    e6 = weyl_group(rs)
    words = ([e6.word(k) for k in range(len(e6))] if name == "E6"
             else weyl_by_matrices(rs)[0])
    group = WeylGroup(rs)  # uncached, so what it enumerated was read here
    # the listing's stream, from a window of its own
    assert _elements(SteinbergTable(group)) == list(
        zip(words, rhos, classes))
    # the window steps from keys it carries and grows no part of the group
    assert len(group._keys) == 1


def _blocks(table, c) -> list[int]:
    """The n packed columns that make up the column int c of an element:
    its blocks of bits, each read as a signed int."""
    width = table._read[2].bit_length()
    half, out = 1 << width - 1, []
    for _ in range(table.rs.rank):
        block = (c + half) % (2 * half) - half
        out.append(block)
        c = (c - block) >> width
    assert c == 0
    return out


@pytest.mark.parametrize("name", ["B3", "G2", "D4"])
def test_the_packed_columns_read_as_a_list_of_columns(name):
    # each element's columns are one int, a block of bits per column; its
    # keys, blocks and rho_w, read off that int, are those of a walk that
    # keeps a list of unpacked columns
    rs = root_system(name)
    table = SteinbergTable(weyl_group(rs))
    unpack = table.group.packer.unpack
    got, window = [], None
    for _ in range(table.group.longest_length + 1):
        window, _, _, rhos, _ = table.step(window)
        for x, c, rho in zip(*window, rhos):
            got.append((unpack(x), tuple(map(unpack, _blocks(table, c))),
                        unpack(rho)))
    assert got == list(unpacked_steinberg_walk(rs))


# a packed field: its ends, and anything between
FIELD = st.one_of(st.sampled_from([-2**7, 2**7 - 1]),
                  st.integers(-2**7, 2**7 - 1))


@pytest.mark.parametrize("name", ["A1", "G2", "B3", "D4", "E6"])
@given(data=st.data())
def test_the_column_arithmetic_is_exact_at_the_field_ends(name, data):
    # columns of any fields, not only those of a walk: the update and
    # rho_w read off the column int are the sums of the packed columns.
    # The children of the identity take every letter, and the child of an
    # element one shorter than the longest has every descent.
    rs = root_system(name)
    n, group = rs.rank, weyl_group(rs)
    table, packer = SteinbergTable(group), group.packer
    width = table._read[2].bit_length()
    for k in (0, group.elements_of_length(group.longest_length - 1)[0]):
        fields = data.draw(st.lists(FIELD, min_size=n * n, max_size=n * n))
        columns = [packer.pack(fields[j:j + n]) for j in range(0, n * n, n)]
        (keys, ints), _, letters, rhos, _ = table.step((
            [group._keys[k]],
            [sum(c << width * j for j, c in enumerate(columns))]))
        for x, c, rho, i in zip(keys, ints, rhos, letters):
            want = columns.copy()
            want[i - 1] = -sum(rs.cartan[j][i - 1] * want[j]
                               for j in range(n) if j != i - 1) - want[i - 1]
            assert _blocks(table, c) == want
            assert rho == sum(col for col, v in zip(want, packer.unpack(x))
                              if v < 0)


def test_the_stream_steps_without_state():
    table = SteinbergTable(weyl_group(root_system("B3")))
    first = table.step(None)
    second = table.step(first[0])
    assert table.step(None) == first
    assert table.step(first[0]) == second
    assert set(vars(table)) == {"group", "rs", "fg", "_lambdas", "_read",
                                "_update", "_omegas"}


def test_the_stream_reads_classes_off_its_table(monkeypatch):
    # every class of a walk comes from the table the constructor built
    table = SteinbergTable(weyl_group(root_system("B3")))

    def refused(self, w):
        raise AssertionError("class_of called during the walk")

    monkeypatch.setattr(CharacterLattice, "class_of", refused)
    assert sum(len(rhos) for _, _, rhos, _ in table.lengths()) == 48


def test_tits_index_lookup():
    # the class of each rho_w is the class the descent-set oracle gives w
    rs = root_system("A2")
    fg = rs.fundamental_group()
    model = BrauerModel.uniform(fg, 3, 3)
    rhos, classes = steinberg_by_descent_sets(weyl_group(rs))
    assert [model.ind[fg.class_of(rho)] for rho in rhos] == [1, 3, 3, 3, 3, 1]
    assert [model.ind[cls] for cls in classes] == [1, 3, 3, 3, 3, 1]


def test_an_interrupted_walk_resumes_in_full(monkeypatch):
    engine = engine_for("B3", "adjoint", 2, 1, cap=2)
    calls = []

    class Interrupted(dict):
        # the walk looks up each element's lambda_D by its sign bits: it
        # stops at its third lookup, partway through length 1
        def __getitem__(self, signs):
            calls.append(signs)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return super().__getitem__(signs)

    table = engine.steinberg
    monkeypatch.setattr(table, "_lambdas", Interrupted(table._lambdas))
    with pytest.raises(KeyboardInterrupt):
        engine.image(1)
    monkeypatch.undo()
    assert len(calls) == 3
    # only whole lengths are kept: here length 0, the identity
    assert engine._scanned == 1
    assert len(engine._window[0]) == 1
    assert _pieces(engine, 2) == _pieces(
        engine_for("B3", "adjoint", 2, 1, cap=2), 2)


def test_table_requires_full_enumeration():
    g = weyl_group(root_system("E7"), max_length=2)
    with pytest.raises(ValueError) as exc:
        SteinbergTable(g)
    assert "full Weyl enumeration" in str(exc.value)


# -- restriction image ---------------------------------------------------------


def test_degree_beyond_p_is_refused():
    engine = engine_for("A2", "adjoint", 2, 2, cap=3)
    with pytest.raises(ValueError) as exc:
        engine.image(3)
    assert "unit mod 2" in str(exc.value)
    with pytest.raises(ValueError):
        engine.ideal(3)


def test_split_pgl2_image_is_zero_but_twisted_is_not():
    split = engine_for("A1", "adjoint", 2, 1)
    assert split.image(1).subspace.dim == 1
    twisted = engine_for("A1", "adjoint", 2, 2)
    assert twisted.image(1).subspace.dim == 0
    assert twisted.ideal(1).dim == 0


@pytest.mark.parametrize("name,p", [("A2", 2), ("A2", 3), ("B2", 2),
                                    ("A3", 2), ("A3", 3)])
def test_split_ideal_is_the_characteristic_ideal(name, p):
    # with all indices 1 the image reaches every weight-lattice divisor,
    # so the ideal is the characteristic ideal of the full weight lattice
    engine = engine_for(name, "adjoint", p, 1, cap=3)
    sc = CharacterLattice(root_system(name), "simply_connected")
    for m in range(1, min(p, 3) + 1):
        assert engine.ideal(m) == engine.chow.char_ideal(sc, m, p)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("ind_exp", [0, 1, 2])
def test_image_matches_bruteforce_span(name, p, ind_exp):
    engine = engine_for(name, "adjoint", p, p**ind_exp, cap=3)
    for m in range(1, min(p, 3) + 1):
        expected = restriction_span_bruteforce(
            engine.chow, engine.model, m)
        assert engine.image(m).subspace.rows() == expected.rows()


def test_image_matches_bruteforce_on_nonuniform_model():
    rs = root_system("A3")
    fg = rs.fundamental_group()
    model = BrauerModel.from_labels(
        fg, {"0": 1, "1": 4, "2": 2, "3": 4}, 2).require_valid()
    chow = ChowRing(weyl_group(rs), degree_cap=2)
    engine = RestrictionImage(chow, model, CharacterLattice(rs, "adjoint"))
    for m in (1, 2):
        expected = restriction_span_bruteforce(chow, model, m)
        assert engine.image(m).subspace.rows() == expected.rows()


def _index_models(fg, p):
    """Every valid model with indices among 1, p, p^2 and 2.  Index 2
    brings in parts of size 2 <= j < p (binom(2, 2) = 1), the only sizes
    where mixed multinomial coordinates count: with p-power indices every
    such binomial vanishes mod p."""
    g = fg.quotient
    labels = [g.label(e) for e in g.elements()]
    values = sorted({1, 2, p, p * p})
    for choice in itertools.product(values, repeat=len(labels)):
        model = BrauerModel.from_labels(fg, dict(zip(labels, choice)), p)
        if not model.validate():
            yield model


def _pieces(engine, top):
    return [(engine.image(m).pivots, engine.image(m).subspace.rows(),
             engine.ideal(m).rows()) for m in range(1, top + 1)]


def _assert_matches_unfiltered(engine, top):
    # the engine streams first, walking its fresh table only as far as it
    # reads; the oracle then reads the whole table
    got = _pieces(engine, top)
    images, ideals = restriction_image_unfiltered(engine, top)
    for m, (pivots, rows, ideal_rows) in enumerate(got, start=1):
        sub, want = images[m]
        assert pivots == want
        assert rows == sub.rows()
        assert ideal_rows == ideals[m].rows()


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "D4"])
@pytest.mark.parametrize("p", [2, 3])
def test_filtered_generators_match_the_unfiltered_stream(name, p):
    # dropping Steinberg parts dependent in Sym^j, and stopping at a full
    # subspace, changes no pivot, image row or ideal row
    rs = root_system(name)
    group = weyl_group(rs)
    chow = ChowRing(group, degree_cap=min(p, 3))
    lattice = CharacterLattice(rs, "adjoint")
    models = list(_index_models(rs.fundamental_group(), p))
    assert models
    for model in models:
        engine = RestrictionImage(chow, model, lattice)
        _assert_matches_unfiltered(engine, min(p, 3))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "D4"])
@pytest.mark.parametrize("p", [2, 3])
def test_the_ideal_takes_each_pivot_weight_pairing_once(name, p):
    # CH^(m-j) * image(j) from pairing rows taken once per pivot weight is
    # the span of the products through chevalley and through the oracle
    rs = root_system(name)
    group = weyl_group(rs)
    chow = ChowRing(group, degree_cap=min(p, 3))
    lattice = CharacterLattice(rs, "adjoint")
    for model in _index_models(rs.fundamental_group(), p):
        engine = RestrictionImage(chow, model, lattice)
        for m in range(1, min(p, 3) + 1):
            by_rule, by_pairing = (
                SubspaceBasis(p, chow.basis_dim(m)) for _ in range(2))
            for row in engine.image(m).subspace.rows():
                by_rule.insert(row)
                by_pairing.insert(row)
            for j in range(1, m):
                for u in chow.basis(m - j):
                    for _, wts in engine.image(j).pivots:
                        cls = extend_by_weights(chow, chow.single(u), wts, p)
                        oracle = chow.single(u)
                        for w in wts:
                            oracle = chevalley_by_pairing(chow, oracle, w, p)
                        assert cls == oracle
                        by_rule.insert(chow.coords(cls))
                        by_pairing.insert(chow.coords(oracle))
            rows = engine.ideal(m).rows()
            assert rows == by_rule.rows() == by_pairing.rows()


# split: Sym^1 is full at element 9; index 3: Sym^3 is full at element 10
# and Sym^1 reaches its ceiling, 5 of 6 dimensions, at element 18, while
# binom(i, 3) vanishes for some classes only
@pytest.mark.parametrize("index,cap", [(9, 2), (1, 1), (3, 3)])
def test_filtered_generators_match_the_unfiltered_stream_on_e6(index, cap):
    _assert_matches_unfiltered(
        engine_for("E6", "adjoint", 3, index, cap=cap), cap)


def _assert_sound_ceilings(engine, parts):
    # parts: every (rho_w mod p, class of rho_w) of a full walk
    p, n = engine.p, engine.chow.rs.rank
    for j in range(1, engine.max_degree + 1):
        coords = tuple(mono for _, mono in _unit_monomials(n, j, p))
        full = sym_part_span(parts, engine.model, j, coords)
        ceiling = sym_power_span(engine._rho_space(j).rows(), n, j, p, coords)
        assert engine._ceiling(j) == ceiling.dim
        assert is_subspace_of(full, ceiling)
        kept = SubspaceBasis(p, len(coords))
        for rho_p, b in engine._parts(j):
            kept.insert([b * x % p
                         for x in power_coordinates(rho_p, j, p, coords)])
        assert kept.rows() == full.rows()


def _full_walk_parts(table, p) -> set:
    # (rho_w mod p, class of rho_w) for every w: a part depends on no more
    unpack = table.group.packer.unpack
    return {(tuple(x % p for x in unpack(rho)), cls)
            for _, _, rhos, classes in table.lengths()
            for rho, cls in zip(rhos, classes)}


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "D4",
                                  "A5", "D5"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_each_sym_pass_stops_at_a_sound_ceiling(name, p):
    # every part of a full walk lies in the pass's ceiling, whose dimension
    # is that of the span of (v . h)^j over all of V_j, and the stopped
    # pass keeps the span of all of them
    rs = root_system(name)
    group = weyl_group(rs)
    table = SteinbergTable(group)
    parts = _full_walk_parts(table, p)
    chow = ChowRing(group, degree_cap=min(p, 3))
    lattice = CharacterLattice(rs, "adjoint")
    for model in _index_models(table.fg, p):
        _assert_sound_ceilings(RestrictionImage(chow, model, lattice), parts)


def test_each_sym_pass_stops_at_a_sound_ceiling_on_e6():
    table = SteinbergTable(weyl_group(root_system("E6")))
    parts = _full_walk_parts(table, 3)
    for index in (1, 3, 9, 27):
        engine = engine_for("E6", "adjoint", 3, index, cap=3)
        _assert_sound_ceilings(engine, parts)


def _walked(engine) -> int:
    # the elements of the lengths the engine's walk has committed
    return engine.chow.group.range_of_length(engine._scanned - 1).stop


def _fresh_e6_engine(p, index, degree) -> RestrictionImage:
    # an uncached group, so what it enumerated is what this engine read
    rs = root_system("E6")
    return RestrictionImage(
        ChowRing(WeylGroup(rs), degree_cap=degree),
        BrauerModel.uniform(rs.fundamental_group(), index, p),
        CharacterLattice(rs, "adjoint"))


@pytest.mark.parametrize("p,index,degree", [(5, 25, 2), (5, 1, 1), (3, 1, 1)])
def test_full_sym_spans_stop_the_steinberg_walk_early(p, index, degree):
    # at p = 5 and index 25, Sym^1 is full at element 32 and binom(i, 2)
    # vanishes mod 5 for every class; the split Sym^1 is full at element 9
    engine = _fresh_e6_engine(p, index, degree)
    engine.image(degree)
    engine.ideal(degree)
    assert _walked(engine) <= 77  # the elements of length <= 3
    assert len(engine.chow.group._keys) <= 77


@pytest.mark.parametrize("index", [9, 27])
def test_sym_spans_at_their_ceiling_stop_the_steinberg_walk_early(index):
    # p = 3 divides |Lambda/Lambda_r| = 3, so Lambda_r mod 3 is 5 of 6
    # dimensions; binom(i, j) vanishes mod 3 for j = 1..3 except at the
    # identity's j = 1, and Sym^1 reaches that ceiling at element 18
    engine = _fresh_e6_engine(3, index, 3)
    for m in (1, 2, 3):
        engine.image(m)
        engine.ideal(m)
    assert engine.image(1).subspace.dim == 5
    assert _walked(engine) <= 77
    assert len(engine.chow.group._keys) <= 77


@pytest.mark.parametrize("name,p,labels,degree,kept,ceiling,walked", [
    # degree 1 reaches 1 of its ceiling's 2 dimensions, so the walk covers
    # W: only the identity class counts, and its parts 0 and -rho span a line
    ("A2", 2, (1, 2, 2), 1, 1, 2, 6),
    # at j = p the ceiling is V_3 itself, reached within length 3
    ("A5", 3, (1, 9, 9, 3, 9, 9), 3, 4, 4, 49),
])
def test_the_walk_stops_only_at_the_sym_ceiling(name, p, labels, degree,
                                                kept, ceiling, walked):
    rs = root_system(name)
    fg = rs.fundamental_group()
    group = WeylGroup(rs)  # uncached, so what it enumerated was read here
    g = fg.quotient
    model = BrauerModel.from_labels(
        fg, {g.label(e): i for e, i in zip(g.elements(), labels)}, p)
    engine = RestrictionImage(ChowRing(group, degree_cap=degree), model,
                              CharacterLattice(rs, "adjoint"))
    assert len(engine._parts(degree)) == kept
    assert engine._ceiling(degree) == ceiling
    assert _walked(engine) == walked
    # the walk grows no part of the group; the Chow ring needs no element
    # longer than its degree cap
    assert len(group._keys) <= group.range_of_length(degree).stop


@pytest.mark.parametrize("first", [9, 1])
def test_engines_on_one_chow_ring_equal_fresh_ones(first):
    rs = root_system("E6")
    fg = rs.fundamental_group()
    lattice = CharacterLattice(rs, "adjoint")

    def engine(chow, index):
        return RestrictionImage(chow, BrauerModel.uniform(fg, index, 3),
                                lattice)

    # the second engine is built on the ring the first has computed in;
    # each walks the Steinberg stream from a table of its own
    shared = ChowRing(weyl_group(rs), degree_cap=3)
    for index in (first, 10 - first):
        fresh = ChowRing(WeylGroup(rs), degree_cap=3)
        assert _pieces(engine(shared, index), 3) == _pieces(
            engine(fresh, index), 3)


def test_e6_at_p5_fills_every_degree_through_five():
    # 5 is not a torsion prime of E6, so CH*(G/B) mod 5 is generated by
    # CH^1; image(1) is all of CH^1 and image(m) contains image(1)^m
    engine = engine_for("E6", "adjoint", 5, 25)
    for m, dim in enumerate((6, 20, 50, 105, 195), start=1):
        assert engine.chow.basis_dim(m) == dim
        assert engine.image(m).subspace.dim == dim
        assert engine.ideal(m).dim == dim


def test_e6_at_p997_reports_within_budget():
    # the binomials binom(i_w, 1..p) mod p are built once per Brauer class;
    # once per Weyl element they would be 51,840 tuples of 997 here
    budget = 20.0
    t0 = time.perf_counter()
    engine = engine_for("E6", "adjoint", 997, 997)
    report = ideal_equality_report(engine, max_degree=997)
    elapsed = time.perf_counter() - t0
    assert report.vacuous
    assert elapsed < budget, f"{elapsed:.1f}s exceeds the {budget}s budget"


def test_image_pieces_are_cached_and_consistent():
    engine = engine_for("A2", "adjoint", 3, 3, cap=3)
    piece = engine.image(2)
    assert engine.image(2) is piece
    assert piece.degree == 2
    assert piece.subspace.dim <= engine.chow.basis_dim(2)
    # every recorded pivot generator really lies in the subspace
    for scalar, wts in piece.pivots:
        vec = vector(engine.chow, engine.chow.monomial(wts, 3), 3)
        assert contains(piece.subspace, [scalar * x for x in vec])


def test_image_is_contained_in_the_ideal():
    engine = engine_for("B2", "adjoint", 2, 2, cap=2)
    for m in (1, 2):
        assert is_subspace_of(engine.image(m).subspace, engine.ideal(m))


def test_ideal_is_multiplicatively_stable():
    engine = engine_for("A3", "adjoint", 3, 3, cap=3)
    chow = engine.chow
    rs = chow.rs
    for m in (2, 3):
        target = engine.ideal(m)
        for row in engine.ideal(m - 1).rows():
            from gammaflag import SchubertClass
            cls = SchubertClass(
                m - 1,
                {k: c for k, c in zip(chow.basis(m - 1), row) if c},
            )
            for i in range(1, rs.rank + 1):
                prod = chow.chevalley(cls, rs.fundamental_weight(i), 3)
                assert contains(target, vector(chow, prod, 3))


def test_engine_rejects_mismatched_pieces():
    rs = root_system("A2")
    chow = ChowRing(weyl_group(rs), degree_cap=2)
    with pytest.raises(ValueError) as exc:
        RestrictionImage(chow,
                         BrauerModel.uniform(rs.fundamental_group(), 3, 4),
                         CharacterLattice(rs, "adjoint"))
    assert "not prime" in str(exc.value)


def test_engine_over_a_truncated_group_is_refused():
    # the Chow ring needs only lengths up to its cap; the Steinberg basis
    # needs all of W
    rs = root_system("A2")
    chow = ChowRing(weyl_group(rs, max_length=2), degree_cap=2)
    model = BrauerModel.uniform(rs.fundamental_group(), 3, 3)
    with pytest.raises(ValueError, match="full Weyl enumeration"):
        RestrictionImage(chow, model, CharacterLattice(rs, "adjoint"))
