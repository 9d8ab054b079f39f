"""Tests for the AIG optimisation passes (balance / rewrite / refactor / scripts).

Every pass must preserve functionality; on the paper's full-adder example the
optimiser must reach the 7-node minimal AIG of Figure 4.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import (
    DEFAULT_SCRIPT,
    Aig,
    balance,
    check_equivalence,
    exhaustive_truth_tables,
    network_to_aig,
    optimize,
    optimize_with_report,
    refactor,
    rewrite,
    lit_node,
    lit_not,
    make_lit,
    run_script,
)
from repro.aig.cuts import cone_nodes, mffc_size
from repro.netlist import NetworkBuilder


def full_adder_aig():
    b = NetworkBuilder("fa")
    x, y, z = b.input("a"), b.input("b"), b.input("cin")
    s, cout = b.full_adder(x, y, z)
    b.output(s, "s")
    b.output(cout, "cout")
    return network_to_aig(b.finish())


def random_aig(seed: int, num_pis: int = 5, num_nodes: int = 25) -> Aig:
    """A random, messy AIG used for property-based equivalence checks."""
    rng = random.Random(seed)
    aig = Aig(f"rand{seed}")
    literals = [aig.add_pi(f"x{i}") for i in range(num_pis)]
    for _ in range(num_nodes):
        a, b = rng.sample(literals, 2)
        if rng.random() < 0.5:
            a ^= 1
        if rng.random() < 0.5:
            b ^= 1
        op = rng.choice(["and", "or", "xor"])
        if op == "and":
            literals.append(aig.add_and(a, b))
        elif op == "or":
            literals.append(aig.add_or(a, b))
        else:
            literals.append(aig.add_xor(a, b))
    for k in range(3):
        lit = literals[-(k + 1)]
        aig.add_po(lit ^ (k & 1), f"y{k}")
    return aig


PASSES = {
    "balance": balance,
    "rewrite": rewrite,
    "refactor": refactor,
    "cleanup": lambda aig: aig.cleanup(),
}


class TestMffc:
    """The freed-node count that both resynthesis passes compare against."""

    def shared_cone(self):
        """``root = ((a & b) & c) & d`` where ``a & b`` also feeds ``side``."""
        aig = Aig("shared")
        a, b, c, d = (aig.add_pi(name) for name in "abcd")
        shared = aig.add_and(a, b)
        inner = aig.add_and(shared, c)
        root = aig.add_and(inner, d)
        side = aig.add_and(shared, d)
        aig.add_po(root, "y")
        aig.add_po(side, "z")
        leaves = [lit_node(lit) for lit in (a, b, c, d)]
        return aig, lit_node(root), lit_node(inner), lit_node(shared), leaves

    def test_node_with_a_fanout_outside_the_cone_is_not_freed(self):
        aig, root, inner, shared, leaves = self.shared_cone()
        cone = cone_nodes(aig, root, leaves)
        assert cone == sorted([shared, inner, root])
        # root and inner are freed; shared survives for ``side``.
        refs = aig.fanout_counts()
        assert mffc_size(aig, root, leaves, refs) == 2
        assert refs == aig.fanout_counts()

    def test_root_is_always_freed(self):
        aig, root, inner, shared, leaves = self.shared_cone()
        # ``shared`` as a cone root: it has two fanouts, but replacing it
        # still frees the root itself.
        cone = cone_nodes(aig, shared, leaves)
        assert cone == [shared]
        assert mffc_size(aig, shared, leaves, aig.fanout_counts()) == 1


class TestIndividualPasses:
    @pytest.mark.parametrize("name", sorted(PASSES))
    def test_pass_preserves_function_on_full_adder(self, name):
        aig = full_adder_aig()
        before = exhaustive_truth_tables(aig)
        after_aig = PASSES[name](aig)
        assert exhaustive_truth_tables(after_aig) == before

    @pytest.mark.parametrize("name", ["rewrite", "refactor"])
    def test_area_passes_do_not_grow(self, name):
        aig = full_adder_aig()
        assert PASSES[name](aig).num_ands <= aig.num_ands

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000))
    def test_passes_preserve_function_on_random_aigs(self, seed):
        aig = random_aig(seed)
        reference = exhaustive_truth_tables(aig)
        for name, pass_fn in PASSES.items():
            optimised = pass_fn(aig)
            assert exhaustive_truth_tables(optimised) == reference, name

    def test_balance_reduces_depth_of_chain(self):
        aig = Aig("chain")
        literals = [aig.add_pi(f"x{i}") for i in range(8)]
        acc = literals[0]
        for lit in literals[1:]:
            acc = aig.add_and(acc, lit)
        aig.add_po(acc, "y")
        assert aig.depth() == 7
        balanced = balance(aig)
        assert balanced.depth() == 3
        assert exhaustive_truth_tables(balanced) == exhaustive_truth_tables(aig)

    def test_refactor_accepts_a_cone_whose_cover_exactly_fills_the_budget(self):
        # a & (a | b) == a, and (a | b) is shared: the one-cube cover of
        # ``a`` costs 0 against a freed count of 1, so the cube budget
        # must admit ``freed`` cubes, not one fewer.
        aig = Aig("absorb")
        a, b = aig.add_pi("a"), aig.add_pi("b")
        nor = aig.add_and(lit_not(a), lit_not(b))
        aig.add_po(aig.add_and(a, lit_not(nor)), "y")
        aig.add_po(nor, "z")
        optimised = refactor(aig)
        assert optimised.num_ands == 1
        assert optimised.po_lits[0] == make_lit(optimised.pi_nodes[0])
        assert exhaustive_truth_tables(optimised) == exhaustive_truth_tables(aig)

    def test_balance_handles_latches(self):
        aig = Aig("seq")
        a = aig.add_pi("a")
        q = aig.add_latch("q")
        chain = aig.add_and(aig.add_and(a, q), aig.add_and(a, q))
        aig.set_latch_next(q, chain)
        aig.add_po(q, "out")
        balanced = balance(aig)
        assert balanced.num_latches == 1


class TestScripts:
    def test_full_adder_reaches_paper_minimum(self):
        optimised = optimize(full_adder_aig(), effort="high")
        assert optimised.num_ands == 7  # Figure 4 of the paper
        assert exhaustive_truth_tables(optimised) == exhaustive_truth_tables(full_adder_aig())

    def test_optimize_never_grows(self):
        aig = full_adder_aig()
        for effort in ("low", "medium", "high"):
            assert optimize(aig, effort=effort).num_ands <= aig.num_ands

    def test_optimize_rejects_unknown_effort(self):
        with pytest.raises(ValueError):
            optimize(full_adder_aig(), effort="turbo")

    def test_run_script_rejects_unknown_pass(self):
        with pytest.raises(ValueError):
            run_script(full_adder_aig(), ["balance", "frobnicate"])

    def test_optimize_with_report(self):
        optimised, report = optimize_with_report(full_adder_aig(), effort="medium")
        assert report.nodes_before >= report.nodes_after == optimised.num_ands
        assert 0.0 <= report.node_reduction <= 1.0
        assert len(report.history) == len(DEFAULT_SCRIPT)

    def test_optimize_with_verification_enabled(self):
        optimised = optimize(full_adder_aig(), effort="low", verify=True)
        result = check_equivalence(full_adder_aig(), optimised)
        assert result.equivalent

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_full_optimize_preserves_random_functions(self, seed):
        aig = random_aig(seed, num_pis=5, num_nodes=20)
        optimised = optimize(aig, effort="medium")
        assert exhaustive_truth_tables(optimised) == exhaustive_truth_tables(aig)
        assert optimised.num_ands <= aig.cleanup().num_ands
