"""Acceptance gate: one test and one printed pass/fail line per criterion.

Every check here is exact integer or F_p arithmetic; the only tolerances
are the wall-clock budgets stated next to each timed criterion.  Lines are
written through pytest's capture so the gate is readable in any log.
"""

import itertools
import math
import sys
import time

import pytest

from gammaflag import (
    BrauerModel,
    CharacterLattice,
    ChowRing,
    KacPresentation,
    RestrictionImage,
    SteinbergTable,
    WeylGroup,
    binomial_gamma_expansion,
    check_gamma1_product_chern,
    check_gamma_chern_scaling,
    common_index,
    degree1_generators,
    ideal_equality_report,
    j1_constraints,
    kac_presentation,
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

RANK_LE_6 = [
    "A1", "A2", "A3", "A4", "A5", "A6",
    "B2", "B3", "B4", "B5", "B6",
    "C3", "C4", "C5", "C6",
    "D4", "D5", "D6",
    "E6", "F4", "G2",
]


@pytest.fixture
def report(capsys):
    """One visible pass/fail line per criterion, bypassing capture."""

    def _line(ok: bool, label: str) -> None:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {label}")
            sys.stdout.flush()

    return _line


def test_unit_chern_of_gamma1_products(report):
    """c_i of a product of i gamma_1's is (-1)^(i-1) (i-1)! t_1...t_i."""
    t0 = time.perf_counter()
    failures = []
    for i in range(1, 6):
        for n in range(i, 7):
            outcome = check_gamma1_product_chern(i, n)
            if not outcome.ok:
                failures.append((i, n, outcome.detail))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    report(ok, f"leading Chern of gamma1 products, i<=5, n<=6, exact "
              f"({elapsed:.2f}s < 5s)")
    assert not failures, failures
    assert elapsed < 5.0


def _multiplicity_tuples(total: int, cap: int):
    """Non-increasing tuples with entries in 1..cap and sum <= total."""
    out = []

    def rec(prefix, left, top):
        for m in range(min(top, left), 0, -1):
            tup = prefix + (m,)
            out.append(tup)
            rec(tup, left - m, m)

    rec((), total, cap)
    return out


def test_gamma_scaling_on_sums_of_line_bundles(report):
    """c_i(gamma_i(x)) = (-1)^(i-1) (i-1)! c_i(x) on every sum of <= 6
    line bundles with multiplicities <= 3, for i <= 4."""
    t0 = time.perf_counter()
    failures = []
    cases = 0
    for mults in _multiplicity_tuples(6, 3):
        k = len(mults)
        lines = []
        for j, m in enumerate(mults):
            unit = tuple(1 if t == j else 0 for t in range(k))
            lines.extend([unit] * m)
        for i in range(1, 5):
            cases += 1
            outcome = check_gamma_chern_scaling(k, lines, i)
            if not outcome.ok:
                failures.append((mults, i, outcome.detail))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    report(ok, f"gamma-to-Chern scaling on {cases} bundle sums, exact "
              f"({elapsed:.2f}s < 30s)")
    assert not failures, failures
    assert elapsed < 30.0


def test_binomial_expansion_of_total_gamma(report):
    """Total gamma of an index-i_w multiple of one line is the binomial
    row, verified inside the formal ring for i_w <= 6."""
    failures = []
    for mult in range(0, 7):
        row = binomial_gamma_expansion(mult)
        expected = [math.comb(mult, k) for k in range(mult + 1)]
        if row != expected:
            failures.append((mult, row, expected))
    ok = not failures
    report(ok, "binomial expansion of the total gamma class, i_w <= 6, exact")
    assert not failures, failures


def test_steinberg_first_chern_values(report):
    """rho = 0 at the identity and omega_i - alpha_i at each simple
    reflection, every type of rank <= 6; all rho_w distinct for the full
    A2, B2, G2 groups."""
    failures = []
    for name in RANK_LE_6:
        rs = root_system(name)
        table = SteinbergTable(weyl_group(rs))
        unpack = table.group.packer.unpack
        # lengths 0 and 1 only: the identity and the simple reflections
        first, second = itertools.islice(table.lengths(), 2)
        if [unpack(rho) for rho in first[2]] != [(0,) * rs.rank]:
            failures.append((name, "identity"))
        _, letters, rhos, _ = second
        if sorted(letters) != list(range(1, rs.rank + 1)):
            failures.append((name, "letters"))
        for i, rho in zip(letters, rhos):
            expected = tuple(
                w - a for w, a in zip(rs.fundamental_weight(i),
                                      rs.simple_root(i)))
            if unpack(rho) != expected:
                failures.append((name, i))
    for name in ("A2", "B2", "G2"):
        table = SteinbergTable(weyl_group(root_system(name)))
        rhos = [rho for _, _, rhos, _ in table.lengths() for rho in rhos]
        if len(set(rhos)) != len(rhos) or len(rhos) != table.group.order:
            failures.append((name, "collision"))
    ok = not failures
    report(ok, "Steinberg first Chern values, all types of rank <= 6, exact")
    assert not failures, failures


def test_weyl_group_orders(report):
    """|W| for A2, B2, G2, A3, E6 against the degree product, freshly
    enumerated; E6 within 60 seconds."""
    expected = {"A2": 6, "B2": 8, "G2": 12, "A3": 24, "E6": 51840}
    failures = []
    e6_elapsed = None
    for name, order in expected.items():
        rs = root_system(name)
        t0 = time.perf_counter()
        group = WeylGroup(rs)  # deliberate fresh build, no cache
        # the full BFS, not the degrees: its distinct keys
        enumerated = len({group.inv_rho(k) for k in range(len(group))})
        elapsed = time.perf_counter() - t0
        if name == "E6":
            e6_elapsed = elapsed
        product = 1
        for d in rs.degrees:
            product *= d
        if enumerated != order or group.order != order or product != order:
            failures.append((name, enumerated, group.order, order))
    ok = not failures and e6_elapsed < 60.0
    report(ok, f"Weyl group orders 6/8/12/24/51840, E6 fresh in "
              f"{e6_elapsed:.2f}s < 60s")
    assert not failures, failures
    assert e6_elapsed < 60.0


def test_divisor_products_match_polynomial_arithmetic(report):
    """Iterated degree-1 products in A2 and B2 satisfy exactly the linear
    relations of Borel-presentation polynomial arithmetic, degrees <= 3;
    anchors: h_1^2 is the length-2 class through s_2 s_1, h_1^3 = 0."""
    failures = []
    for name in ("A2", "B2"):
        rs = root_system(name)
        ring = ChowRing(weyl_group(rs), degree_cap=3)
        oracle = CoinvariantRing(rs, top=3)
        for m in (1, 2, 3):
            if oracle.dim(m) != ring.basis_dim(m):
                failures.append((name, m, "dimension"))
                continue
            chow_rows = []
            poly_rows = []
            for mon in monomials(rs.rank, m):
                ws = []
                indices = []
                for i, e in enumerate(mon, start=1):
                    ws.extend([rs.fundamental_weight(i)] * e)
                    indices.extend([i] * e)
                chow_rows.append(list(ring.vector(ring.monomial(ws))))
                poly_rows.append(
                    list(oracle.reduce_divisor_monomial(indices)))
            if not row_spaces_equal(left_kernel(chow_rows),
                                    left_kernel(poly_rows)):
                failures.append((name, m, "relations"))
    a2 = ChowRing(weyl_group(root_system("A2")), degree_cap=3)
    h1sq = a2.monomial([(1, 0), (1, 0)])
    if h1sq.terms != {index_of_word(a2.group, (2, 1)): 1}:
        failures.append(("A2", "h1^2 anchor"))
    if not a2.monomial([(1, 0)] * 3).is_zero():
        failures.append(("A2", "h1^3 anchor"))
    ok = not failures
    report(ok, "divisor products match polynomial arithmetic, A2/B2 "
              "degrees <= 3, exact")
    assert not failures, failures


def test_twisted_ideal_equality(report):
    """Characteristic ideal equals the twisted-restriction ideal: E6
    adjoint at p = 3 with generator index 9 for m = 1, 2, 3 within 5
    minutes, and the rank-1 adjoint form at p = 2 index 2 within 1 second
    (both sides zero there)."""
    failures = []

    t0 = time.perf_counter()
    rs = root_system("E6")
    group = WeylGroup(rs)  # fresh: the budget covers the whole pipeline
    chow = ChowRing(group, degree_cap=3)
    table = SteinbergTable(group)
    model = BrauerModel.uniform(rs.fundamental_group(), 9, 3)
    lattice = CharacterLattice(rs, "adjoint")
    engine = RestrictionImage(chow, table, model, lattice)
    outcome = ideal_equality_report(engine, max_degree=3)
    e6_elapsed = time.perf_counter() - t0
    by_m = {d.m: d for d in outcome.degrees}
    for m in (1, 2, 3):
        entry = by_m.get(m)
        if entry is None or not entry.applicable or not entry.equal:
            failures.append(("E6", m, entry))
    if e6_elapsed >= 300.0:
        failures.append(("E6", "time", e6_elapsed))

    t1 = time.perf_counter()
    rs1 = root_system("A1")
    group1 = WeylGroup(rs1)
    engine1 = RestrictionImage(
        ChowRing(group1, degree_cap=1),
        SteinbergTable(group1),
        BrauerModel.uniform(rs1.fundamental_group(), 2, 2),
        CharacterLattice(rs1, "adjoint"),
    )
    outcome1 = ideal_equality_report(engine1, max_degree=1)
    pgl2_elapsed = time.perf_counter() - t1
    m1 = outcome1.degrees[0]
    if not (m1.applicable and m1.equal
            and m1.dim_char == 0 and m1.dim_twisted == 0):
        failures.append(("A1", 1, m1))
    if pgl2_elapsed >= 1.0:
        failures.append(("A1", "time", pgl2_elapsed))

    ok = not failures
    report(ok, f"twisted ideal equality, E6/p3/index9 m=1..3 in "
              f"{e6_elapsed:.1f}s < 300s and rank-1/p2/index2 in "
              f"{pgl2_elapsed:.2f}s < 1s")
    assert not failures, failures


def test_degree_one_exponent_table(report):
    """First J-invariant exponent from the constraint engine: 0, 1, 2, 2
    for E6 adjoint generator indices 1, 3, 9, 27; the second exponent is
    only range-checked as {0, 1} from its presentation bound k_2 = 1."""
    rs = root_system("E6")
    lattice = CharacterLattice(rs, "adjoint")
    pres = kac_presentation(rs, lattice, 3)
    expected = {1: (0,), 3: (1,), 9: (2,), 27: (2,)}
    failures = []
    for index, admissible in expected.items():
        model = BrauerModel.uniform(rs.fundamental_group(), index, 3)
        _, constraints = j1_constraints(model, lattice, pres)
        if len(constraints) != 1 or constraints[0].admissible != admissible:
            failures.append((index, constraints))
    if pres.exponents[1] != 1:
        failures.append(("k_2", pres.exponents))
    j2_range = tuple(range(pres.exponents[1] + 1))
    if j2_range != (0, 1):
        failures.append(("j_2 range", j2_range))
    ok = not failures
    report(ok, "degree-one exponent table 0/1/2/2 for indices 1/3/9/27, "
              "j_2 range {0,1}, exact")
    assert not failures, failures


def test_common_index_powers_of_three(report):
    """Common index of the E6 adjoint form with generator index 3^d is
    3^d for d = 0..3, by exhaustive exponent-tuple enumeration."""
    rs = root_system("E6")
    fg = rs.fundamental_group()
    gens = degree1_generators(CharacterLattice(rs, "adjoint"), 3)
    failures = []
    for d in range(4):
        model = BrauerModel.uniform(fg, 3**d, 3)
        found = common_index(model, fg, gens)
        if not found.defined or found.value != 3**d \
                or found.valuation != d:
            failures.append((d, found))
    ok = not failures
    report(ok, "common index 3^d for generator index 3^d, d = 0..3, exact")
    assert not failures, failures
