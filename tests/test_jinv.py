"""Truncated-polynomial presentations and exponent constraints."""

import pytest

from gammaflag import (
    BrauerModel,
    CharacterLattice,
    ChowRing,
    KacPresentation,
    RestrictionImage,
    degree1_generators,
    ideal_equality_report,
    j1_constraints,
    kac_presentation,
    root_system,
    weyl_group,
)
from kgamma_helpers import engine_for


# -- presentations -------------------------------------------------------------


def test_presentation_validation():
    KacPresentation(degrees=(1, 4), exponents=(2, 1))
    with pytest.raises(ValueError):
        KacPresentation(degrees=(1, 4), exponents=(2,))
    with pytest.raises(ValueError):
        KacPresentation(degrees=(4, 1), exponents=(1, 2))
    with pytest.raises(ValueError):
        KacPresentation(degrees=(0, 1), exponents=(1, 1))
    with pytest.raises(ValueError):
        KacPresentation(degrees=(1,), exponents=(0,))


def test_bundled_presentation_hit():
    rs = root_system("E6")
    lat = CharacterLattice(rs, "adjoint")
    pres = kac_presentation(lat, 3)
    assert pres.degrees == (1, 4)
    assert pres.exponents == (2, 1)
    assert pres.degree_one_count() == 1


def test_missing_presentation_names_the_kac_config_key():
    lat = CharacterLattice(root_system("B2"), "adjoint")
    with pytest.raises(LookupError) as exc:
        kac_presentation(lat, 2)
    assert str(exc.value) == (
        "no bundled presentation for B2/adjoint/p=2; give one under the "
        'config key "kac" as {"degrees": [...], "exponents": [...]}')


def test_a_presentation_of_the_wrong_degree_one_count_is_refused():
    rs = root_system("B2")
    lat = CharacterLattice(rs, "adjoint")
    model = BrauerModel.uniform(rs.fundamental_group(), 2, 2)
    _, constraints = j1_constraints(
        model, lat, KacPresentation(degrees=[1, 2], exponents=[1, 1]))
    assert [c.omega_index for c in constraints] == [2]
    bad = KacPresentation(degrees=(1, 1), exponents=(1, 1))
    with pytest.raises(ValueError) as exc:
        j1_constraints(model, lat, bad)
    assert str(exc.value) == (
        "presentation has 2 degree-1 generators but the character lattice "
        "quotient has F_2-dimension 1")


def test_a_model_of_another_root_system_is_refused():
    # B2 and A1 both have fundamental group Z/2, so the classes fit
    a1 = root_system("A1")
    lat = CharacterLattice(a1, "adjoint")
    model = BrauerModel.uniform(root_system("B2").fundamental_group(), 2, 2)
    chow = ChowRing(weyl_group(a1), degree_cap=1)
    message = "index model belongs to a different root system"
    with pytest.raises(ValueError, match=message):
        RestrictionImage(chow, model)
    with pytest.raises(ValueError, match=message):
        j1_constraints(model, lat, KacPresentation((1,), (1,)))


def test_degree1_generators_frozen():
    e6 = root_system("E6")
    assert degree1_generators(CharacterLattice(e6, "adjoint"), 3) == (1,)
    assert degree1_generators(CharacterLattice(e6, "simply_connected"), 3) \
        == ()
    a3 = root_system("A3")
    assert degree1_generators(CharacterLattice(a3, "adjoint"), 2) == (1,)


# -- degree-1 exponent constraints ----------------------------------------------


def e6_constraints(index):
    rs = root_system("E6")
    lat = CharacterLattice(rs, "adjoint")
    model = BrauerModel.uniform(rs.fundamental_group(), index, 3)
    pres = kac_presentation(lat, 3)
    return j1_constraints(model, lat, pres)


@pytest.mark.parametrize("index,expected", [
    (1, (0,)), (3, (1,)), (9, (2,)), (27, (2,)),
])
def test_e6_degree_one_exponent_table(index, expected):
    report, constraints = e6_constraints(index)
    assert len(constraints) == 1
    c = constraints[0]
    assert c.omega_index == 1
    assert c.k == 2
    assert c.admissible == expected
    assert report.value == index


def test_split_model_pins_zero():
    report, constraints = e6_constraints(1)
    assert constraints[0].admissible == (0,)
    assert constraints[0].upper_sharp == 0
    assert report.valuation == 0


def test_notes_explain_each_discarded_value():
    _, constraints = e6_constraints(9)
    notes = " ".join(constraints[0].notes)
    assert "rules out 0" in notes
    assert "rules out 1" in notes


def test_inconsistent_model_raises():
    # D4 intermediate lattice: the unique degree-1 generator is omega_3,
    # whose full class (1,1) is split in this model, capping the exponent
    # at 0; but other classes are non-split, which rules 0 out
    rs = root_system("D4")
    fg = rs.fundamental_group()
    model = BrauerModel.from_labels(
        fg, {"0,0": 1, "1,0": 2, "0,1": 2, "1,1": 1}, 2)
    lat = CharacterLattice(rs, [rs.fundamental_weight(1)])
    assert degree1_generators(lat, 2) == (3,)
    pres = KacPresentation(degrees=(1,), exponents=(2,))
    with pytest.raises(ValueError) as exc:
        j1_constraints(model, lat, pres)
    assert "no admissible exponent" in str(exc.value)


def test_constraints_respect_presentation_exponent_cap():
    rs = root_system("E6")
    lat = CharacterLattice(rs, "adjoint")
    model = BrauerModel.uniform(rs.fundamental_group(), 27, 3)
    pres = KacPresentation(degrees=(1, 4), exponents=(1, 1))
    report, constraints = j1_constraints(model, lat, pres)
    assert constraints[0].k == 1
    # v = 3 > 0 rules out 0; the v > 1 rule needs k > 1, so 1 survives
    assert constraints[0].admissible == (1,)


# -- ideal equality -------------------------------------------------------------


def test_pgl2_report():
    engine = engine_for("A1", 2, 2)
    report = ideal_equality_report(engine, engine.model.fg)
    assert report.prime == 2
    assert not report.vacuous
    assert report.verified
    assert report.failures() == ()
    m1 = report.degrees[0]
    assert m1.applicable
    assert m1.dim_char == 0 and m1.dim_twisted == 0


def test_a2_index3_only_degree_one_applies():
    engine = engine_for("A2", 3, 3, cap=3)
    report = ideal_equality_report(engine, engine.model.fg)
    by_m = {d.m: d for d in report.degrees}
    assert by_m[1].applicable and by_m[1].equal
    assert not by_m[2].applicable  # valuation 1 is not > 1
    assert not by_m[3].applicable
    assert report.verified and not report.vacuous


def test_e6_split_report_is_vacuous():
    engine = engine_for("E6", 3, 1, cap=2)
    report = ideal_equality_report(engine, engine.model.fg)
    assert report.vacuous
    assert report.verified  # nothing applicable, nothing failed
    assert all(d.dim_char is None for d in report.degrees)


def test_the_engine_degree_cap_caps_the_report():
    engine = engine_for("A2", 3, 9, cap=2)
    report = ideal_equality_report(engine, engine.model.fg)
    assert [d.m for d in report.degrees] == [1, 2]
    assert report.verified
