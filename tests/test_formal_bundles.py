"""Formal sums of line classes, Chern classes, and gamma operations."""

import math
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import inverse_of_one_plus, total_chern_by_products, truncated_power

from gammaflag import (
    FormalBundle,
    TruncatedChowPoly,
    binomial_gamma_expansion,
    check_gamma1_product_chern,
    check_gamma_chern_scaling,
    chern_component,
    gamma1,
    gamma_of_sum,
    total_chern,
)
from gammaflag.cli import _gammatoc_cases
from gammaflag.formal_bundles import _newton

exponents = st.lists(st.integers(-2, 2), min_size=2, max_size=2).map(tuple)
bundles = st.lists(
    st.tuples(exponents, st.integers(-3, 3)), max_size=3
).map(lambda items: FormalBundle(2, dict(items)))


# -- ring laws ---------------------------------------------------------------


@given(bundles, bundles, bundles)
def test_bundle_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + FormalBundle.zero(2) == x
    assert x * FormalBundle.one(2) == x
    assert x - x == FormalBundle.zero(2)


def test_line_classes_multiply_by_adding_exponents():
    a = FormalBundle.line(2, (1, 0))
    b = FormalBundle.line(2, (0, 2))
    assert a * b == FormalBundle.line(2, (1, 2))


def test_rank_is_additive_and_multiplicative():
    x = FormalBundle.line(2, (1, 0)) + FormalBundle.line(2, (0, 1)).scaled(2)
    y = FormalBundle.one(2) - FormalBundle.line(2, (1, 1))
    assert x.rank == 3
    assert y.rank == 0
    assert (x + y).rank == 3
    assert (x * y).rank == 0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        FormalBundle.one(2) + FormalBundle.one(3)


# -- Chern classes -----------------------------------------------------------


@given(bundles, bundles)
def test_total_chern_is_multiplicative(x, y):
    cap = 3
    assert total_chern(x + y, cap) == total_chern(x, cap) * total_chern(y, cap)


def test_chern_of_line():
    c = total_chern(FormalBundle.line(2, (3, -1)), 2)
    assert c.component(0) == {(0, 0): 1}
    assert c.component(1) == {(1, 0): 3, (0, 1): -1}
    assert c.component(2) == {}


def test_chern_of_negated_line_is_geometric_series():
    c = total_chern(-FormalBundle.line(1, (1,)), 3)
    assert c.component(1) == {(1,): -1}
    assert c.component(2) == {(2,): 1}
    assert c.component(3) == {(3,): -1}


wide_bundles = st.integers(1, 4).flatmap(lambda n: st.dictionaries(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple),
    st.integers(-4, 4), max_size=3,
).map(lambda terms: FormalBundle(n, terms)))


@given(wide_bundles, st.integers(0, 5))
def test_total_chern_matches_the_product_oracle(x, cap):
    assert total_chern(x, cap) == total_chern_by_products(x, cap)


def oracle_command_bundles():
    """Every bundle whose Chern classes `oracle --verify gammatoc`
    (--max-bundles 6 --max-mult 3 --max-i 4) and `oracle --verify firsteq`
    (--max-i 5 --max-n 6) take, with the degree they take them in."""
    for mults, i in _gammatoc_cases(6, 3, 4):
        n = len(mults)
        lines = [tuple(int(k == a) for k in range(n))
                 for a, m in enumerate(mults) for _ in range(m)]
        yield gamma_of_sum(n, lines, i), i
        yield sum((FormalBundle.line(n, a) for a in lines),
                  FormalBundle.zero(n)), i
    for i in range(1, 6):
        for n in range(i, 7):
            x = FormalBundle.one(n)
            for j in range(i):
                x = x * gamma1(n, tuple(int(k == j) for k in range(n)))
            yield x, i


def test_total_chern_matches_the_product_oracle_on_the_oracle_commands():
    for x, i in oracle_command_bundles():
        for cap in (i, i + 1):
            assert total_chern(x, cap) == total_chern_by_products(x, cap)


def test_inexact_newton_step_raises():
    # p_2 = t^2 alone asks for c_2 = -t^2 / 2, which no integral bundle has
    ring = TruncatedChowPoly(1, 2)
    p = [ring, ring, TruncatedChowPoly(1, 2, {(2,): 1})]
    with pytest.raises(ArithmeticError):
        _newton(p)


def test_negative_cap_rejected():
    x = FormalBundle.line(2, (1, 0))
    with pytest.raises(ValueError):
        total_chern(x, -1)
    with pytest.raises(ValueError):
        chern_component(x, -2)
    with pytest.raises(ValueError):
        binomial_gamma_expansion(-1)


def test_exponent_vector_of_the_wrong_arity_rejected():
    with pytest.raises(ValueError, match="wrong arity"):
        TruncatedChowPoly.linear(2, 2, (1, 2, 3))
    with pytest.raises(ValueError, match="wrong arity"):
        total_chern(FormalBundle(2, {(1, 2, 3): 1}), 2)


# -- truncated polynomials ---------------------------------------------------

polys = st.lists(
    st.tuples(st.lists(st.integers(0, 2), min_size=2, max_size=2).map(tuple),
              st.integers(-3, 3)),
    max_size=3,
).map(lambda items: TruncatedChowPoly(
    2, 3, {e: c for e, c in items if 0 < sum(e) <= 3}))


@given(polys)
def test_inverse_of_one_plus(q):
    one = TruncatedChowPoly.one(2, 3)
    f = one + q
    assert f * inverse_of_one_plus(f) == one


@given(polys, st.integers(0, 3))
def test_power_matches_repeated_product(q, m):
    f = TruncatedChowPoly.one(2, 3) + q
    explicit = TruncatedChowPoly.one(2, 3)
    for _ in range(m):
        explicit = explicit * f
    assert truncated_power(f, m) == explicit


def test_truncation_drops_high_degrees():
    t = TruncatedChowPoly.linear(1, 2, (1,))
    sq = t * t
    assert sq.component(2) == {(2,): 1}
    assert (sq * t).component(2) == {}  # degree 3 exceeds the cap


# -- gamma operations ----------------------------------------------------------


def test_gamma1_is_one_minus_inverse_line():
    g = gamma1(2, (1, -1))
    assert g == FormalBundle.one(2) - FormalBundle.line(2, (-1, 1))
    assert g.rank == 0


def subset_products_oracle(n, lines, i):
    """Direct expansion: e_i of the gamma_1's via explicit subsets."""
    out = FormalBundle.zero(n)
    for subset in combinations(range(len(lines)), i):
        term = FormalBundle.one(n)
        for k in subset:
            term = term * gamma1(n, lines[k])
        out = out + term
    return out


@given(st.lists(exponents, min_size=0, max_size=4), st.integers(0, 5))
def test_gamma_of_sum_matches_subset_expansion(lines, i):
    assert gamma_of_sum(2, lines, i) == subset_products_oracle(2, lines, i)


@given(st.lists(exponents, min_size=1, max_size=3), st.integers(1, 5))
def test_gamma_vanishes_beyond_the_number_of_lines(lines, extra):
    assert gamma_of_sum(2, lines, len(lines) + extra) == FormalBundle.zero(2)


def test_gamma_zero_is_one():
    assert gamma_of_sum(2, [(1, 0)], 0) == FormalBundle.one(2)


# -- the frozen identities -----------------------------------------------------


@pytest.mark.parametrize("i", [1, 2, 3])
def test_leading_chern_of_gamma1_products(i):
    outcome = check_gamma1_product_chern(i)
    assert outcome.ok, outcome.detail


def test_gamma1_product_chern_with_spare_lines():
    assert check_gamma1_product_chern(2, n=4).ok


def test_gamma_chern_scaling_small():
    lines = [(1, 0), (0, 1), (1, 1)]
    for i in range(1, 4):
        outcome = check_gamma_chern_scaling(2, lines, i)
        assert outcome.ok, outcome.detail


def test_gamma_chern_scaling_with_repeats():
    lines = [(1, 0)] * 2 + [(0, 1)]
    assert check_gamma_chern_scaling(2, lines, 2).ok


def test_binomial_expansion_small():
    assert binomial_gamma_expansion(0) == [1]
    assert binomial_gamma_expansion(4) == [1, 4, 6, 4, 1]


@given(st.integers(0, 6))
def test_binomial_expansion_rows_are_pascal(mult):
    row = binomial_gamma_expansion(mult)
    assert row == [math.comb(mult, k) for k in range(mult + 1)]
