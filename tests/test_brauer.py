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
    assert model.validate() == []


def test_split_model_is_all_ones():
    model = BrauerModel.split(fg("A2"), 3)
    assert set(model.ind.values()) == {1}
    assert model.max_valuation() == 0


def test_validate_names_missing_elements():
    g = fg("A2").quotient
    model = BrauerModel(group=g, ind={g.identity(): 1}, p=3)
    problems = model.validate()
    assert len(problems) == 1
    assert "missing index values" in problems[0]
    assert "1" in problems[0] and "2" in problems[0]


def test_validate_catches_wrong_identity_index():
    g = fg("A2").quotient
    model = BrauerModel(group=g, ind={(0,): 3, (1,): 3, (2,): 3}, p=3)
    assert any("ind(identity) = 3" in s for s in model.validate())


def test_validate_catches_inverse_asymmetry():
    g = fg("A2").quotient
    model = BrauerModel(group=g, ind={(0,): 1, (1,): 3, (2,): 9}, p=3)
    assert any("!=" in s for s in model.validate())


def test_validate_catches_subadditivity_failure():
    # Z/4: ind(2) = 9 does not divide ind(1) * ind(1) = 9? it does;
    # use ind(2) = 27 > 3 * 3
    g = fg("A3").quotient
    model = BrauerModel(
        group=g, ind={(0,): 1, (1,): 3, (2,): 27, (3,): 3}, p=3)
    assert any("does not divide" in s for s in model.validate())


def test_validate_catches_nonpositive_and_foreign_entries():
    g = fg("A2").quotient
    model = BrauerModel(group=g, ind={(0,): 1, (1,): 0, (2,): 1}, p=3)
    assert any("positive" in s for s in model.validate())
    model2 = BrauerModel(
        group=g, ind={(0,): 1, (1,): 3, (2,): 3, (7,): 2}, p=3)
    assert any("outside the group" in s for s in model2.validate())


def test_require_valid_raises_with_details():
    g = fg("A2").quotient
    model = BrauerModel(group=g, ind={(0,): 2, (1,): 2, (2,): 2}, p=2)
    with pytest.raises(ValueError) as exc:
        model.require_valid()
    assert "invalid index model" in str(exc.value)
    BrauerModel.split(fg("A2"), 2).require_valid()  # no raise


def test_check_group_mismatch():
    model = BrauerModel.uniform(fg("A2"), 3, 3)
    with pytest.raises(ValueError) as exc:
        model.check_group(fg("A3"))
    assert "does not match" in str(exc.value)


def test_tits_index_of_weight():
    f = fg("A2")
    model = BrauerModel.from_labels(f, {"0": 1, "1": 3, "2": 3}, 3)
    assert model.tits_index(f, (1, 0)) == 3
    assert model.tits_index(f, (1, 1)) == 1  # root lattice class


# -- common index ----------------------------------------------------------------


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_e6_adjoint_common_index_is_the_generator_index(d):
    rs = root_system("E6")
    f = rs.fundamental_group()
    model = BrauerModel.uniform(f, 3**d, 3)
    gens = degree1_generators(CharacterLattice(rs, "adjoint"), 3)
    report = common_index(model, f, gens)
    assert report.defined
    assert report.value == 3**d
    assert report.valuation == d
    assert report.generators == gens


def test_common_index_with_no_generators_is_vacuous():
    rs = root_system("E6")
    f = rs.fundamental_group()
    model = BrauerModel.uniform(f, 9, 3)
    report = common_index(model, f, ())
    assert report.vacuous
    assert report.value is None
    assert report.witness is None


def test_a3_nonuniform_common_index():
    # Z/4 with ind(1) = ind(3) = 4, ind(2) = 2; single generator omega_1
    rs = root_system("A3")
    f = rs.fundamental_group()
    model = BrauerModel.from_labels(
        f, {"0": 1, "1": 4, "2": 2, "3": 4}, 2).require_valid()
    report = common_index(model, f, (1,))
    # admissible exponents are the odd residues 1, 3; both classes have ind 4
    assert report.value == 4
    assert report.valuation == 2
    assert report.witness in ((1,), (3,))


def test_common_index_witness_attains_least_valuation():
    rs = root_system("A2")
    f = rs.fundamental_group()
    model = BrauerModel.uniform(f, 3, 3)
    report = common_index(model, f, (1,))
    assert report.witness is not None
    s = f.quotient.scale(report.witness[0], f.omega_classes[0])
    assert vp(model.ind[s], 3) == report.valuation
