"""Formal sums of line classes, Chern classes, and gamma operations."""

import math
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import inverse_of_one_plus, total_chern_by_products, truncated_power

from gammaflag import (
    Poly,
    binomial_gamma_expansion,
    check_gamma1_product_chern,
    check_gamma_chern_scaling,
    chern_component,
    gamma1,
    gamma_of_sum,
    total_chern,
)
from gammaflag.commands.oracle import _gammatoc_cases
from gammaflag.formal_bundles import _newton

exponents = st.lists(st.integers(-2, 2), min_size=2, max_size=2).map(tuple)
bundles = st.lists(
    st.tuples(exponents, st.integers(-3, 3)), max_size=3
).map(lambda items: Poly(2, dict(items)))


# -- ring laws ---------------------------------------------------------------


@given(bundles, bundles, bundles)
def test_bundle_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + Poly(2) == x
    assert x * Poly.one(2) == x
    assert x - x == Poly(2)


def test_line_classes_multiply_by_adding_exponents():
    a = Poly.line(2, (1, 0))
    b = Poly.line(2, (0, 2))
    assert a * b == Poly.line(2, (1, 2))


def test_rank_is_additive_and_multiplicative():
    # the virtual rank is the sum of the multiplicities
    def rank(x):
        return sum(x.terms.values())

    x = Poly.line(2, (1, 0)) + Poly.line(2, (0, 1)).scaled(2)
    y = Poly.one(2) - Poly.line(2, (1, 1))
    assert rank(x) == 3
    assert rank(y) == 0
    assert rank(x + y) == 3
    assert rank(x * y) == 0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        Poly.one(2) + Poly.one(3)
    # a virtual bundle and a Chern polynomial, or two caps, do not mix
    with pytest.raises(ValueError):
        Poly.one(2) * Poly.one(2, 3)
    with pytest.raises(ValueError):
        Poly.one(2, 2) + Poly.one(2, 3)
    with pytest.raises(ValueError, match="virtual bundle"):
        total_chern(Poly.one(2, 3), 2)


def test_repr_reads_back():
    for x in (Poly.line(2, (1, -1)), Poly(1, {(1,): 2}, 3), Poly(3)):
        assert eval(repr(x)) == x


# -- Chern classes -----------------------------------------------------------


@given(bundles, bundles)
def test_total_chern_is_multiplicative(x, y):
    cap = 3
    assert total_chern(x + y, cap) == total_chern(x, cap) * total_chern(y, cap)


def test_chern_of_line():
    c = total_chern(Poly.line(2, (3, -1)), 2)
    assert c.component(0) == {(0, 0): 1}
    assert c.component(1) == {(1, 0): 3, (0, 1): -1}
    assert c.component(2) == {}


def test_chern_of_negated_line_is_geometric_series():
    c = total_chern(-Poly.line(1, (1,)), 3)
    assert c.component(1) == {(1,): -1}
    assert c.component(2) == {(2,): 1}
    assert c.component(3) == {(3,): -1}


wide_bundles = st.integers(1, 4).flatmap(lambda n: st.dictionaries(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple),
    st.integers(-4, 4), max_size=3,
).map(lambda terms: Poly(n, terms)))


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
        yield sum((Poly.line(n, a) for a in lines), Poly(n)), i
    for i in range(1, 6):
        for n in range(i, 7):
            x = Poly.one(n)
            for j in range(i):
                x = x * gamma1(n, tuple(int(k == j) for k in range(n)))
            yield x, i


def test_total_chern_matches_the_product_oracle_on_the_oracle_commands():
    for x, i in oracle_command_bundles():
        for cap in (i, i + 1):
            assert total_chern(x, cap) == total_chern_by_products(x, cap)


def test_inexact_newton_step_raises():
    # p_2 = t^2 alone asks for c_2 = -t^2 / 2, which no integral bundle has
    ring = Poly(1, cap=2)
    p = [ring, ring, Poly(1, {(2,): 1}, 2)]
    with pytest.raises(ArithmeticError):
        _newton(p)


def test_negative_cap_rejected():
    x = Poly.line(2, (1, 0))
    with pytest.raises(ValueError):
        total_chern(x, -1)
    with pytest.raises(ValueError):
        chern_component(x, -2)
    with pytest.raises(ValueError):
        binomial_gamma_expansion(-1)


def test_exponent_vector_of_the_wrong_arity_rejected():
    with pytest.raises(ValueError, match="wrong arity"):
        Poly.line(2, (1, 2, 3))
    with pytest.raises(ValueError, match="wrong arity"):
        total_chern(Poly(2, {(1, 2, 3): 1}), 2)
    # a product or a sum that would drop a coordinate, or keep two arities
    with pytest.raises(ValueError, match="wrong arity"):
        Poly(2, {(1, 2, 3): 1}) * Poly.one(2)
    with pytest.raises(ValueError, match="wrong arity"):
        Poly(2, {(1, 2, 3): 1}) + Poly.line(2, (1, 2))
    with pytest.raises(ValueError, match="wrong arity"):
        Poly(2, {(1,): 1}, 3)
    with pytest.raises(ValueError, match="wrong arity"):
        Poly(2, {(1, 0): 1, (1,): 0}, 3)  # a zero coefficient is checked too


# -- truncated polynomials ---------------------------------------------------

polys = st.lists(
    st.tuples(st.lists(st.integers(0, 2), min_size=2, max_size=2).map(tuple),
              st.integers(-3, 3)),
    max_size=3,
).map(lambda items: Poly(
    2, {e: c for e, c in items if 0 < sum(e) <= 3}, 3))


@given(polys)
def test_inverse_of_one_plus(q):
    one = Poly.one(2, 3)
    f = one + q
    assert f * inverse_of_one_plus(f) == one


@given(polys, st.integers(0, 3))
def test_power_matches_repeated_product(q, m):
    f = Poly.one(2, 3) + q
    explicit = Poly.one(2, 3)
    for _ in range(m):
        explicit = explicit * f
    assert truncated_power(f, m) == explicit


def test_truncation_drops_high_degrees():
    t = Poly(1, {(1,): 1}, 2)
    sq = t * t
    assert sq.component(2) == {(2,): 1}
    assert (sq * t).component(2) == {}  # degree 3 exceeds the cap


# -- gamma operations ----------------------------------------------------------


def test_gamma1_is_one_minus_inverse_line():
    g = gamma1(2, (1, -1))
    assert g == Poly.one(2) - Poly.line(2, (-1, 1))
    assert sum(g.terms.values()) == 0  # virtual rank


def subset_products_oracle(n, lines, i):
    """Direct expansion: e_i of the gamma_1's via explicit subsets."""
    out = Poly(n)
    for subset in combinations(range(len(lines)), i):
        term = Poly.one(n)
        for k in subset:
            term = term * gamma1(n, lines[k])
        out = out + term
    return out


@given(st.lists(exponents, min_size=0, max_size=4), st.integers(0, 5))
def test_gamma_of_sum_matches_subset_expansion(lines, i):
    assert gamma_of_sum(2, lines, i) == subset_products_oracle(2, lines, i)


@given(st.lists(exponents, min_size=1, max_size=3), st.integers(1, 5))
def test_gamma_vanishes_beyond_the_number_of_lines(lines, extra):
    assert gamma_of_sum(2, lines, len(lines) + extra) == Poly(2)


def test_gamma_zero_is_one():
    assert gamma_of_sum(2, [(1, 0)], 0) == Poly.one(2)


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
