"""Index models on fundamental groups and the common-index gcd."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gammaflag import (
    BrauerModel,
    CharacterLattice,
    common_index,
    degree1_generators,
    root_system,
    vp,
)
from gammaflag.brauer import is_prime


def fg(name):
    return root_system(name).fundamental_group()


# -- valuations ----------------------------------------------------------------


def test_vp_small_values():
    assert vp(1, 3) == 0
    assert vp(9, 3) == 2
    assert vp(24, 2) == 3
    assert vp(24, 3) == 1


@given(st.integers(0, 6), st.sampled_from([2, 3, 5]),
       st.integers(1, 50))
def test_vp_strips_exactly_the_p_part(e, p, rest):
    while rest % p == 0:
        rest //= p
    assert vp(rest * p**e, p) == e


def test_is_prime_matches_a_sieve():
    n = 2000
    sieve = [False, False] + [True] * (n - 1)
    for q in range(2, n + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(sieve[q * q::q])
    assert [k for k in range(n + 1) if is_prime(k)] == [
        k for k in range(n + 1) if sieve[k]]
    assert is_prime(10**9 + 7)
    assert not is_prime(1000003 ** 2)
    assert not is_prime(-7)


def test_vp_rejects_bad_input():
    with pytest.raises(ValueError):
        vp(0, 2)
    with pytest.raises(ValueError):
        vp(12, 1)


# -- model axioms ----------------------------------------------------------------


@pytest.mark.parametrize("index", [1, 2, 3, 9, 27, 6])
def test_uniform_model_is_always_valid(index):
    model = BrauerModel.uniform(fg("E6"), index, 3)
    assert set(model.ind.values()) == {1, index}


def test_split_model_is_all_ones():
    model = BrauerModel.split(fg("A2"), 3)
    assert set(model.ind.values()) == {1}
    assert model.max_valuation() == 0


def refusal(lattice, ind, p=3):
    with pytest.raises(ValueError) as exc:
        BrauerModel(lattice, ind, p)
    message = str(exc.value)
    assert message.startswith("invalid index model: ")
    return message


def test_model_names_missing_elements():
    f = fg("A2")
    message = refusal(f, {f.quotient.identity(): 1})
    assert message == ("invalid index model: missing index values for "
                       "elements: 1, 2")


def test_model_refuses_wrong_identity_index():
    assert "ind(identity) = 3" in refusal(fg("A2"), {(0,): 3, (1,): 3, (2,): 3})


def test_model_refuses_inverse_asymmetry():
    assert "!=" in refusal(fg("A2"), {(0,): 1, (1,): 3, (2,): 9})


def test_model_refuses_subadditivity_failure():
    # Z/4: ind(2) = 27 does not divide ind(1) * ind(1) = 9
    message = refusal(fg("A3"), {(0,): 1, (1,): 3, (2,): 27, (3,): 3})
    assert "does not divide" in message


def test_model_refuses_nonpositive_and_foreign_entries():
    assert "positive" in refusal(fg("A2"), {(0,): 1, (1,): 0, (2,): 1})
    assert "outside the group" in refusal(
        fg("A2"), {(0,): 1, (1,): 3, (2,): 3, (7,): 2})


@pytest.mark.parametrize("index", [True, "3", 3.0])
def test_an_index_that_is_not_an_int_is_refused(index):
    with pytest.raises(ValueError) as exc:
        BrauerModel.uniform(fg("A2"), index, 3)
    assert str(exc.value) == (
        "invalid index model: indices must be positive integers")


def test_model_lives_on_the_fundamental_group():
    # the simply connected lattice's quotient is trivial, so its one
    # class would pass every axiom
    sc = CharacterLattice(root_system("A2"), "simply_connected")
    assert "not on the simply_connected lattice" in refusal(sc, {(): 1})


@pytest.mark.parametrize("name, ind", [
    ("B3", {"0": 1, "1": 2, "01": 4}),
    ("E6", {"0": 1, "1": 3, "2": 3, "01": 9}),
])
def test_two_labels_of_one_class_are_refused(name, ind):
    with pytest.raises(ValueError) as exc:
        BrauerModel.from_labels(fg(name), ind, 2)
    assert str(exc.value) == "labels '1' and '01' both name the class 1"


@pytest.mark.parametrize("name, index", [("A3", 4), ("A2", 3)])
def test_a_non_prime_modulus_is_refused_when_the_model_is_made(name, index):
    # so no model with p = 4 reaches common_index or j1_constraints, whose
    # v_4 notes would read as an answer
    with pytest.raises(ValueError, match="^modulus 4 is not prime$"):
        BrauerModel.uniform(fg(name), index, 4)


def test_a_model_stays_valid_for_as_long_as_it_exists():
    # _make, which _replace calls, goes through the constructor's checks
    f = fg("A3")
    with pytest.raises(ValueError, match="^modulus 9 is not prime$"):
        BrauerModel._make([f, {}, 9])
    with pytest.raises(ValueError, match="^invalid index model: "):
        BrauerModel._make([f, {}, 3])
    model = BrauerModel.split(f, 3)
    with pytest.raises(ValueError, match="^modulus 4 is not prime$"):
        model._replace(p=4)
    assert model._replace(p=2).p == 2
    # ind(1 + 1) = 3 would not divide ind(1) * ind(1) = 1
    with pytest.raises(TypeError):
        model.ind[(2,)] = 3
    # the model keeps a copy of the map it was given
    ind = dict(model.ind)
    copy = BrauerModel(f, ind, 3)
    ind[(2,)] = 3
    assert copy.ind[(2,)] == 1


def test_tits_index_of_weight():
    # a weight's Tits index is the model's index at the weight's class
    f = fg("A2")
    model = BrauerModel.from_labels(f, {"0": 1, "1": 3, "2": 3}, 3)
    assert model.ind[f.class_of((1, 0))] == 3
    assert model.ind[f.class_of((1, 1))] == 1  # root lattice class


# -- common index ----------------------------------------------------------------


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_e6_adjoint_common_index_is_the_generator_index(d):
    rs = root_system("E6")
    f = rs.fundamental_group()
    model = BrauerModel.uniform(f, 3**d, 3)
    gens = degree1_generators(CharacterLattice(rs, "adjoint"), 3)
    report = common_index(model, gens)
    assert report.defined
    assert report.value == 3**d
    assert report.valuation == d
    assert report.generators == gens


def test_common_index_with_no_generators_is_vacuous():
    rs = root_system("E6")
    f = rs.fundamental_group()
    model = BrauerModel.uniform(f, 9, 3)
    report = common_index(model, ())
    assert not report.defined
    assert report.value is None
    assert report.witness is None


def test_a3_nonuniform_common_index():
    # Z/4 with ind(1) = ind(3) = 4, ind(2) = 2; single generator omega_1
    rs = root_system("A3")
    f = rs.fundamental_group()
    model = BrauerModel.from_labels(
        f, {"0": 1, "1": 4, "2": 2, "3": 4}, 2)
    report = common_index(model, (1,))
    # admissible exponents are the odd residues 1, 3; both classes have ind 4
    assert report.value == 4
    assert report.valuation == 2
    assert report.witness in ((1,), (3,))


def test_common_index_witness_attains_least_valuation():
    rs = root_system("A2")
    f = rs.fundamental_group()
    model = BrauerModel.uniform(f, 3, 3)
    report = common_index(model, (1,))
    assert report.witness is not None
    s = f.quotient.scale(report.witness[0], f.omega_classes[0])
    assert vp(model.ind[s], 3) == report.valuation
