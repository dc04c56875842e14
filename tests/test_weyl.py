"""Weyl group enumeration: orders, lengths, words, covers and the BFS
grown on demand."""

import itertools
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gammaflag import root_system, weyl_group
from gammaflag.rootdata import _RANK_RANGE
from gammaflag.weyl import Packer, WeylGroup, length_counts
from oracles import (
    act,
    descent_set_by_roots,
    index_of_word,
    inversion_count,
    mat_act,
    mat_mul,
    pairing,
    reflect,
    reflection_matrix,
    right_mul,
    unpacked_steinberg_walk,
    weyl_by_matrices,
)

FROZEN_ORDERS = {"A2": 6, "B2": 8, "G2": 12, "A3": 24, "E6": 51840}


def bfs_counts(g):
    """Elements of each length up to g.longest_length, as the BFS step
    finds them from the identity."""
    keys, counts = g._keys[:1], []
    for _ in range(g.longest_length + 1):
        counts.append(len(keys))
        keys = g.step(keys)[0]
    return counts


@pytest.mark.parametrize("name,order", sorted(FROZEN_ORDERS.items()))
def test_group_order(name, order):
    rs = root_system(name)
    g = WeylGroup(rs)  # fresh: len(g) comes from the degrees, keys from BFS
    assert len({g.inv_rho(k) for k in range(len(g))}) == order
    assert len(g) == order
    assert g.is_full
    product = 1
    for d in rs.degrees:
        product *= d
    assert len(g) == product


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3"])
def test_length_counts_match_poincare_polynomial(name):
    rs = root_system(name)
    g = weyl_group(rs)
    expected = length_counts(rs.degrees)
    assert bfs_counts(g) == expected
    assert g.longest_length == len(rs.positive_roots)


def test_e6_length_counts_prefix():
    g = weyl_group(root_system("E6"), max_length=3)
    assert bfs_counts(g) == [1, 6, 20, 50]
    assert not g.is_full


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_length_equals_inversion_count(name):
    g = weyl_group(root_system(name))
    for k in range(len(g)):
        assert g.length(k) == inversion_count(g, k)


def test_a2_words_frozen():
    g = weyl_group(root_system("A2"))
    assert [g.word(k) for k in range(len(g))] == [
        (), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]


def test_words_are_length_then_lex_sorted_and_reduced():
    g = weyl_group(root_system("B2"))
    words = [g.word(k) for k in range(len(g))]
    keys = [(len(w), w) for w in words]
    assert keys == sorted(keys)
    for k, w in enumerate(words):
        assert g.length(k) == len(w)
        assert index_of_word(g, w) == k


# the order m_ij of s_i s_j, from a_ij * a_ji = 0, 1, 2, 3
COXETER_M = {0: 2, 1: 3, 2: 4, 3: 6}


@given(st.sampled_from(["A2", "B2", "G2", "A3", "B3"]), st.data())
def test_group_laws(name, data):
    # right multiplication obeys the Coxeter presentation: s_i^2 = 1 and
    # (s_i s_j)^m_ij = 1, from any element of the group
    g = weyl_group(root_system(name))
    k = data.draw(st.integers(0, len(g) - 1))
    cartan = g.rs.cartan
    for i in range(1, g.rs.rank + 1):
        assert right_mul(g, right_mul(g, k, i), i) == k
        for j in range(i + 1, g.rs.rank + 1):
            t = k
            for _ in range(COXETER_M[cartan[i - 1][j - 1]
                                     * cartan[j - 1][i - 1]]):
                t = right_mul(g, right_mul(g, t, i), j)
            assert t == k
    assert g.word(0) == ()


@given(st.sampled_from(["A2", "B2", "G2"]),
       st.lists(st.integers(-3, 3), min_size=2, max_size=2).map(tuple),
       st.data())
def test_action_is_a_homomorphism(name, w, data):
    g = weyl_group(root_system(name))
    a = data.draw(st.integers(0, len(g) - 1))
    b = data.draw(st.integers(0, len(g) - 1))
    # w_a w_b, one right multiplication per letter of w_b; it acts by
    # applying w_b first
    ab = a
    for i in g.word(b):
        ab = right_mul(g, ab, i)
    assert act(g, ab, w) == act(g, a, act(g, b, w))
    assert act(g, 0, w) == w
    # the BFS keys transform the other way: (w_a s_i)^-1 rho = s_i w_a^-1 rho
    for i in range(1, g.rs.rank + 1):
        assert g.inv_rho(right_mul(g, a, i)) == reflect(g.rs, i, g.inv_rho(a))


def test_reflection_indices_are_involutions():
    # each cover w_t = w_k s_alpha: s_alpha sends alpha to -alpha, and
    # reflecting the key of w_t through alpha again gives back that of w_k
    for name in ("B2", "G2", "A3"):
        g = weyl_group(root_system(name))
        rs = g.rs

        def reflect_through(v, root):
            c = pairing(v, root)
            return tuple(x - c * a for x, a in zip(v, root.omega_coords))

        for k in range(len(g)):
            for ri, t in g.covers(k):
                root = rs.positive_roots[ri]
                assert act(g, t, root.omega_coords) == tuple(
                    -x for x in act(g, k, root.omega_coords))
                assert reflect_through(g.inv_rho(k), root) == g.inv_rho(t)
                assert reflect_through(g.inv_rho(t), root) == g.inv_rho(k)
        # the identity is covered by the simple reflections alone
        assert sorted(rs.positive_roots[ri].omega_coords
                      for ri, _ in g.covers(0)) == sorted(
            rs.simple_root(i) for i in range(1, rs.rank + 1))


@pytest.mark.parametrize("name,max_length", [
    ("A2", None), ("B2", None), ("G2", None), ("A3", None),
    ("E6", 3), ("B3", 2),
])
def test_descent_definitions_agree(name, max_length):
    # the right descents of w_k are the negative coordinates of inv_rho(k),
    # which the Steinberg walk reads as D(w); truncated slices check the
    # boundary, whose descents go past the slice
    g = weyl_group(root_system(name), max_length=max_length)

    def descents(group, k):
        return frozenset(i for i, x in enumerate(group.inv_rho(k), 1) if x < 0)

    for k in range(len(g)):
        assert descents(g, k) == descent_set_by_roots(g, k)
    assert descents(g, 0) == frozenset()
    full = weyl_group(root_system(name))
    assert descents(full, len(full) - 1) == frozenset(
        range(1, full.rs.rank + 1))


def test_right_multiplication_table():
    g = weyl_group(root_system("A2"))
    for k in range(len(g)):
        for i in range(1, 3):
            t = right_mul(g, k, i)
            assert abs(g.length(t) - g.length(k)) == 1
            assert right_mul(g, t, i) == k


@pytest.mark.parametrize("i", [0, -1, 4])
def test_right_multiplication_rejects_bad_indices(i):
    # 0 and -1 would otherwise wrap round to s_3 and s_2
    g = weyl_group(root_system("A3"))
    with pytest.raises(ValueError, match="out of range"):
        right_mul(g, 0, i)


def matrix_covers(rs, index, lengths, mat, k):
    """covers(k) from the matrix enumeration: (root index, index of
    w_k s_alpha) over the positive roots whose product is one longer."""
    return tuple(
        (ri, t) for ri, t in (
            (ri, index.get(mat_mul(mat, reflection_matrix(root))))
            for ri, root in enumerate(rs.positive_roots))
        if t is not None and lengths[t] == lengths[k] + 1)


@pytest.mark.parametrize("name,max_length", [
    ("A2", None), ("B2", None), ("G2", None), ("A3", None), ("B3", None),
    ("C3", None), ("D4", None), ("E6", 3), ("E7", 3), ("E8", 3),
])
def test_inverse_rho_keys_match_the_matrix_enumeration(name, max_length):
    rs = root_system(name)
    g = WeylGroup(rs, max_length=max_length)
    for k in (-1, len(g)):
        with pytest.raises(IndexError):
            g.word(k)
    assert len(g._keys) == 1  # an index out of range grows nothing
    words, lengths, index = weyl_by_matrices(rs, max_length)
    assert [g.word(k) for k in range(len(g))] == words
    assert [g.length(k) for k in range(len(g))] == lengths
    mats = sorted(index, key=index.get)
    weights = [(1,) * rs.rank]
    weights += [rs.fundamental_weight(i) for i in range(1, rs.rank + 1)]
    for k, mat in enumerate(mats):
        for lam in weights:
            assert act(g, k, lam) == mat_act(mat, lam)
        # at the top length of a slice no cover is in the slice
        assert g.covers(k) == matrix_covers(rs, index, lengths, mat, k)


FIELD = st.integers(-2**7, 2**7 - 1)


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(FIELD, min_size=n, max_size=n),
    st.lists(FIELD, min_size=n, max_size=n),
    st.integers(-3, 3))))
def test_packing_round_trips_and_is_linear(case):
    a, b, k = case
    packer = Packer(len(a))
    assert packer.unpack(packer.pack(a)) == tuple(a)
    assert packer.unpack(packer.pack(b)) == tuple(b)
    assert (packer.sign_bits(packer.pack(a))
            == packer.sign_bits(packer.pack([-int(x < 0) for x in a])))
    for sign in (1, -1):
        c = [x + sign * k * y for x, y in zip(a, b)]
        if all(-2**7 <= x < 2**7 for x in c):
            got = packer.pack(a) + sign * k * packer.pack(b)
            assert packer.unpack(got) == tuple(c)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "D4",
                                  "E6"])
def test_parents_are_the_words_less_their_last_letter(name):
    g = weyl_group(root_system(name))
    assert g.word(0) == ()
    for k in range(1, len(g)):
        word = g.word(k)
        t = right_mul(g, k, word[-1])
        assert g.word(t) == word[:-1]
        assert g.length(t) == g.length(k) - 1
        assert g.inv_rho(k) == reflect(g.rs, word[-1], g.inv_rho(t))


def step_by_unpacking(g, keys):
    """The BFS step with every key unpacked: s_i(v) for each v_i > 0."""
    pack, unpack = g.packer.pack, g.packer.unpack
    alphas = [pack(g.rs.simple_root(i)) for i in range(1, g.rs.rank + 1)]
    new, parents, letters = {}, [], []
    for pos, x in enumerate(keys):
        for i, c in enumerate(unpack(x), 1):
            if c > 0 and (y := x - c * alphas[i - 1]) not in new:
                new[y] = None
                parents.append(pos)
                letters.append(i)
    return list(new), parents, letters


@pytest.mark.parametrize("name,max_length", [
    ("A1", None), ("A2", None), ("B2", None), ("G2", None), ("B3", None),
    ("C3", None), ("D4", None), ("F4", None), ("E6", None), ("A8", 8),
    ("E7", 7), ("E8", 6)])
def test_the_sign_bit_step_matches_unpacking_every_key(name, max_length):
    g = WeylGroup(root_system(name), max_length=max_length)
    keys = g._keys[:1]
    for _ in range(g.longest_length):
        new, parents, letters = g.step(keys)
        assert (new, list(parents), list(letters)) == step_by_unpacking(
            g, keys)
        keys = new


def test_packing_refuses_weights_past_a_field():
    # a stand-in root system whose highest coroot height cannot be packed
    rs = SimpleNamespace(name="X1", weyl_order=1, cartan=((2,),),
                         positive_roots=(SimpleNamespace(
                             coroot_coords=(2**6,)),))
    with pytest.raises(ValueError, match="8-bit packed field"):
        WeylGroup(rs)


def coroot_height(rs) -> int:
    """Height of the highest coroot."""
    return max(sum(r.coroot_coords) for r in rs.positive_roots)


def test_every_admitted_type_fits_an_8_bit_field():
    # the constructor's bound, highest coroot height times max |a_ij|, is
    # at most 58 (E8, 29 * 2)
    for letter, (lo, hi) in _RANK_RANGE.items():
        for n in range(lo, hi + 1):
            rs = root_system(f"{letter}{n}")
            step = coroot_height(rs) * max(
                abs(a) for row in rs.cartan for a in row)
            assert step <= 58 < 2**7, rs
            WeylGroup(rs, max_length=1)  # admitted: no ValueError


RANK_LE_6 = [
    "A1", "A2", "A3", "A4", "A5", "A6",
    "B2", "B3", "B4", "B5", "B6",
    "C3", "C4", "C5", "C6",
    "D4", "D5", "D6",
    "E6", "F4", "G2",
]


@pytest.mark.parametrize("name,max_length",
                         [(name, None) for name in RANK_LE_6] + [("E8", 8)])
def test_every_walked_coordinate_fits_a_field(name, max_length):
    # every key w^-1(rho), column w(omega_j) and rho_w, unpacked, is at
    # most the highest coroot height in absolute value, so inside a field
    rs = root_system(name)
    top = max(max(map(abs, itertools.chain(key, *cols, rho)))
              for key, cols, rho in unpacked_steinberg_walk(rs, max_length))
    assert top <= coroot_height(rs) < 2**7


def test_full_enumeration_guard():
    for name in ("E7", "E8"):
        rs = root_system(name)
        with pytest.raises(ValueError) as exc:
            weyl_group(rs)
        msg = str(exc.value)
        assert "refusing full enumeration" in msg
        assert str(rs.weyl_order) in msg
        assert "max_length" in msg


def test_truncated_slice_of_e7():
    g = weyl_group(root_system("E7"), max_length=2)
    assert bfs_counts(g) == [1, 7, 27]
    assert not g.is_full
    assert g.longest_length == 2


def test_truncation_at_longest_length_is_full():
    rs = root_system("A2")
    g = weyl_group(rs, max_length=3)
    assert g.is_full
    assert len(g) == 6


# -- the BFS grown on demand ----------------------------------------------------

LAZY_CASES = [("A2", None), ("B2", None), ("G2", None), ("A3", None),
              ("B3", None), ("C3", None), ("D4", None), ("E6", 4)]


@lru_cache(maxsize=None)
def _grown_and_matrices(name, max_length):
    rs = root_system(name)
    grown = WeylGroup(rs, max_length=max_length)
    grown.grow(grown.longest_length)
    words, lengths, index = weyl_by_matrices(rs, max_length)
    return grown, words, lengths, index, sorted(index, key=index.get)


def _answer(call):
    """call()'s value, or ValueError if it raised one."""
    try:
        return call()
    except ValueError:
        return ValueError


@given(st.sampled_from(LAZY_CASES), st.data())
def test_a_group_read_in_any_order_matches_the_grown_one(case, data):
    grown, words, lengths, index, mats = _grown_and_matrices(*case)
    rs = grown.rs
    g = WeylGroup(rs, max_length=case[1])
    elements = st.integers(0, len(g) - 1)
    simple = st.integers(1, rs.rank)

    def in_slice(mat):
        return index.get(mat, ValueError)

    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from([
            "right_mul", "word", "elements_of_length", "covers"]))
        if op == "elements_of_length":
            m = data.draw(st.integers(-1, grown.longest_length + 1))
            before = len(g._keys)
            assert g.range_of_length(m) == grown.elements_of_length(m)
            assert len(g._keys) == before  # read off the length counts
            got = g.elements_of_length(m)
            assert got == grown.elements_of_length(m)
            assert list(got) == [k for k, x in enumerate(lengths) if x == m]
            continue
        k = data.draw(elements)
        assert g.length(k) == lengths[k]
        if op == "right_mul":
            i = data.draw(simple)
            got = _answer(lambda: right_mul(g, k, i))
            root = next(r for r in rs.positive_roots
                        if r.omega_coords == rs.simple_root(i))
            want = in_slice(mat_mul(mats[k], reflection_matrix(root)))
        elif op == "word":
            got = g.word(k)
            want = words[k]
        else:
            got = g.covers(k)
            assert got == grown.covers(k)
            want = matrix_covers(rs, index, lengths, mats[k], k)
        assert got == want
    # whatever was read, only whole lengths were enumerated, as the grown
    # group enumerates them
    assert len(g._keys) in g._starts
    assert g._keys == grown._keys[:len(g._keys)]
    assert g._letters == grown._letters[:len(g._keys)]
    assert list(g._parent) == list(grown._parent[:len(g._keys)])


def test_an_interrupted_bfs_keeps_only_whole_lengths(monkeypatch):
    rs = root_system("D4")
    g = WeylGroup(rs)
    g.grow(2)
    calls = []

    class Interrupted(dict):
        # the step reads the ascents of every key by its sign bits: the
        # fifth read is partway through the nine keys of length 2
        def __getitem__(self, signs):
            calls.append(signs)
            if len(calls) == 5:
                raise KeyboardInterrupt
            return super().__getitem__(signs)

    monkeypatch.setattr(g, "_ascents", Interrupted(g._ascents))
    with pytest.raises(KeyboardInterrupt):
        g.grow(4)
    monkeypatch.undo()
    fresh = WeylGroup(rs)
    fresh.grow(2)
    assert len(calls) == 5
    assert len(g._keys) == len(fresh._keys) == 14  # lengths 0, 1 and 2
    assert g._index == fresh._index
    assert (g._keys, g._letters) == (fresh._keys, fresh._letters)
    assert list(g._parent) == list(fresh._parent)
    fresh = WeylGroup(rs)
    assert right_mul(g, 20, 1) == right_mul(fresh, 20, 1)
    for group in (g, fresh):
        group.grow(group.longest_length)
    assert (g._keys, g._letters, list(g._parent)) == (
        fresh._keys, fresh._letters, list(fresh._parent))
    assert len(g._keys) == len(g)


def test_a_bfs_step_of_the_wrong_size_is_refused_and_kept_nowhere(
        monkeypatch):
    rs = root_system("B3")
    g = WeylGroup(rs)
    g.grow(1)
    step = g.step

    def short(keys):
        new, parents, letters = step(keys)
        return new[:-1], parents[:-1], letters[:-1]

    monkeypatch.setattr(g, "step", short)
    with pytest.raises(RuntimeError) as exc:
        g.grow(2)
    assert str(exc.value) == (
        "the BFS step gave 4 elements of length 2 in W(B3), not 5")
    monkeypatch.undo()
    fresh = WeylGroup(rs)
    fresh.grow(1)
    assert (g._keys, g._index, g._letters, list(g._parent)) == (
        fresh._keys, fresh._index, fresh._letters, list(fresh._parent))
    g.grow(3)
    assert g.word(len(g._keys) - 1) == fresh.word(len(g._keys) - 1)


@pytest.mark.parametrize("max_length", [-1, True, 1.0, 1.5, "2"])
def test_a_bad_max_length_is_refused(max_length):
    rs = root_system("A2")
    weyl_group(rs, 1)  # True and 1.0 are equal to 1 as cache keys
    for make in (WeylGroup, weyl_group):
        with pytest.raises(ValueError) as exc:
            make(rs, max_length)
        assert str(exc.value) == ("max_length must be None or an integer "
                                  f">= 0, not {max_length!r}")
