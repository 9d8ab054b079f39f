"""Tests for bit-parallel simulation and the ISOP/factoring machinery."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aig import Aig, cone_truth_table, exhaustive_truth_tables, make_lit, simulate_random
from repro.aig.simulate import lit_values, output_signatures, simulate_patterns
from repro.aig.sop import (
    build_factor_into_aig,
    cofactor,
    cover_table,
    factor_cover,
    factor_table,
    factored_form_cost,
    isop,
    isop_fits,
    literal_floor,
    support,
    table_mask,
    var_table,
)


def xor_aig():
    aig = Aig("xor3")
    a, b, c = (aig.add_pi(n) for n in "abc")
    aig.add_po(aig.add_xor(aig.add_xor(a, b), c), "y")
    return aig


class TestSimulation:
    def test_exhaustive_truth_table_xor3(self):
        tables = exhaustive_truth_tables(xor_aig())
        assert tables[0] == 0b10010110

    def test_simulate_patterns_matches_exhaustive(self):
        aig = xor_aig()
        patterns = {node: var_table(k, 3) for k, node in enumerate(aig.pi_nodes)}
        values = simulate_patterns(aig, patterns, 8)
        assert lit_values(values, aig.po_lits[0], 8) == 0b10010110

    def test_random_simulation_is_deterministic(self):
        aig = xor_aig()
        assert output_signatures(aig, 64, seed=3) == output_signatures(aig, 64, seed=3)
        assert simulate_random(aig, 64, seed=1) == simulate_random(aig, 64, seed=1)

    def test_cone_truth_table(self):
        aig = Aig()
        a, b, c = (aig.add_pi(n) for n in "abc")
        ab = aig.add_and(a, b)
        y = aig.add_and(ab, c)
        leaves = [aig.pi_nodes[0], aig.pi_nodes[1], aig.pi_nodes[2]]
        table = cone_truth_table(aig, y, leaves)
        assert table == 1 << 7
        # Complemented root literal gives the complement table.
        from repro.aig import lit_not

        assert cone_truth_table(aig, lit_not(y), leaves) == (~(1 << 7)) & 0xFF

    def test_cone_truth_table_rejects_external_nodes(self):
        aig = Aig()
        a, b, c = (aig.add_pi(n) for n in "abc")
        y = aig.add_and(aig.add_and(a, b), c)
        with pytest.raises(ValueError):
            cone_truth_table(aig, y, [aig.pi_nodes[0], aig.pi_nodes[1]])


class TestTruthTableOps:
    def test_var_table_and_cofactor(self):
        num_vars = 3
        table = var_table(1, num_vars)
        assert cofactor(table, 1, 1, num_vars) == table_mask(num_vars)
        assert cofactor(table, 1, 0, num_vars) == 0

    def test_support(self):
        f = var_table(0, 3) & var_table(2, 3)
        assert support(f, 3) == [0, 2]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16 - 1))
    def test_isop_covers_exactly(self, table):
        cover, cover_tt = isop(table, table, 4)
        assert cover_tt == table
        assert cover_table(cover, 4) == table

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16 - 1))
    def test_factoring_preserves_function(self, table):
        factor, _ = factor_table(table, 4)
        aig = Aig()
        leaves = [aig.add_pi(f"x{i}") for i in range(4)]
        from repro.aig import lit_not

        lit = build_factor_into_aig(factor, leaves, aig.add_and, lit_not)
        aig.add_po(lit, "y")
        assert exhaustive_truth_tables(aig)[0] == table

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, table_mask(n)))
        )
    )
    @example((1, 0))
    @example((1, 0b11))
    @example((6, 0))
    @example((6, table_mask(6)))
    def test_factored_form_cost_is_at_least_the_support_floor(self, case):
        # The floor the resynthesis passes skip factoring on: every form of
        # f or !f has a literal leaf per support variable, two per binate one.
        num_vars, table = case
        cost, _, _ = factored_form_cost(table, num_vars)
        assert cost >= len(support(table, num_vars)) - 1
        assert cost >= literal_floor(table, num_vars) - 1

    def test_factored_form_cost_prefers_cheaper_polarity(self):
        # f = majority complement is as expensive as majority; an OR of all
        # inputs has a much cheaper complement-free form than its inverse.
        or_table = 0
        for i in range(1, 16):
            or_table |= 1 << i
        cost, _, complemented = factored_form_cost(or_table, 4)
        assert cost <= 3

    def test_factor_cover_single_cube(self):
        factor, ops = factor_cover([(0b001, 0b100)])
        assert ops == 1
        assert "x0" in str(factor) and "x2" in str(factor)


def _cube_floor_tables():
    """2,000 tables of 1-10 variables: uniform ones up to six variables,
    then sparse (an AND of random words) and dense (an OR of them) ones
    with ~16 on- or off-set minterms, whose covers stay small enough to
    try every budget."""
    rng = random.Random(26)
    tables = []
    for index in range(2000):
        num_vars = 1 + index % 10
        words = 1 if num_vars <= 6 else num_vars - 4 + rng.randint(0, 1)
        combine = (lambda a, b: a & b) if rng.random() < 0.5 else (lambda a, b: a | b)
        table = rng.getrandbits(1 << num_vars)
        for _ in range(words - 1):
            table = combine(table, rng.getrandbits(1 << num_vars))
        tables.append((table, num_vars))
    return tables


def _parity_tables():
    """10-input parity (512 cubes) and the parity-like cone of c1908 and
    c2670, ``x0 ^ ... ^ x7 ^ (x8 & x9)`` (384 cubes)."""
    parity8 = 0
    for var in range(8):
        parity8 ^= var_table(var, 10)
    return [
        (parity8 ^ var_table(8, 10) ^ var_table(9, 10), 10, 512),
        (parity8 ^ (var_table(8, 10) & var_table(9, 10)), 10, 384),
    ]


class TestCubeFloor:
    """The bound ``refactor`` skips factorings on: a cover with no cube
    contained in another (an ISOP) factors into at least ``cubes - 1``
    operations, and the budgeted ISOP tells exactly whether the cover
    fits its budget."""

    def test_budgeted_isop_is_over_budget_exactly_past_the_cover_size(self):
        for table, num_vars in _cube_floor_tables():
            cubes = len(isop(table, table, num_vars)[0])
            for limit in range(cubes + 2):
                assert isop_fits(table, table, num_vars, limit) == (cubes <= limit), (
                    hex(table), num_vars, limit
                )

    def test_factoring_costs_at_least_cubes_minus_one(self):
        for table, num_vars in _cube_floor_tables():
            cubes = len(isop(table, table, num_vars)[0])
            assert factor_table(table, num_vars)[1] >= cubes - 1, (hex(table), num_vars)

    @pytest.mark.parametrize("case", _parity_tables(), ids=["parity10", "parity8-xor-and"])
    def test_parity_cones(self, case):
        table, num_vars, expected_cubes = case
        cover, _ = isop(table, table, num_vars)
        assert len(cover) == expected_cubes
        # The budgets ``refactor`` gave these cones (MFFCs of 21-26 nodes)
        # and the edges of the cover.
        for limit in (0, 1, 21, 22, 26, expected_cubes - 1, expected_cubes, expected_cubes + 1):
            assert isop_fits(table, table, num_vars, limit) == (limit >= expected_cubes)
        assert factor_table(table, num_vars)[1] >= expected_cubes - 1
        # The complement of a parity-like cone is just as wide, so
        # ``refactor`` skips it against any MFFC below the cube count.
        inverse = ~table & table_mask(num_vars)
        assert not isop_fits(inverse, inverse, num_vars, expected_cubes - 2)
        assert factored_form_cost(table, num_vars)[0] >= expected_cubes - 1
