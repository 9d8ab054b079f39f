"""Tests for rail-requirement analysis, polarity assignment and the dual-rail mapping.

The full-adder walk-through of the paper (Sections 3.1.1-3.1.5, Figures 4-5)
is used as the golden reference: the cell, splitter and JJ counts of every
optimisation step are known exactly.
"""

import random

import pytest

from repro.aig import Aig, lit_not, network_to_aig, optimize
from repro.aig.graph import FALSE
from repro.circuits import build as build_circuit
from repro.circuits import names as circuit_names
from repro.core import (
    CellKind,
    FlowOptions,
    Rail,
    analyze_rails,
    assign_output_polarities,
    default_library,
    direct_mapping_analysis,
    equation1_splitters,
    map_combinational,
    positive_polarities,
    sinks_of,
    synthesize_xsfq,
)
from repro.core.polarity import _RailDemand
from repro.eval import full_adder_network
from repro.eval.paper_data import FULL_ADDER_STEPS, FULL_ADDER_MIN_AIG_NODES


@pytest.fixture(scope="module")
def fa_aig():
    return optimize(network_to_aig(full_adder_network()), effort="high")


class TestRailAnalysis:
    def test_minimal_full_adder_has_seven_nodes(self, fa_aig):
        assert fa_aig.num_ands == FULL_ADDER_MIN_AIG_NODES

    def test_direct_mapping_penalty_is_100_percent(self, fa_aig):
        analysis = direct_mapping_analysis(fa_aig)
        assert analysis.duplication_penalty == pytest.approx(1.0)
        assert analysis.num_cells == 2 * fa_aig.num_ands

    def test_positive_polarity_analysis_matches_figure5i(self, fa_aig):
        analysis = analyze_rails(fa_aig, positive_polarities(fa_aig))
        assert analysis.num_cells == FULL_ADDER_STEPS["polarity"][0]  # 11 cells

    def test_heuristic_matches_figure5ii(self, fa_aig):
        _, analysis = assign_output_polarities(fa_aig)
        assert analysis.num_cells == FULL_ADDER_STEPS["domino"][0]  # 10 cells

    def test_heuristic_never_worse_than_all_positive(self, fa_aig):
        positive = analyze_rails(fa_aig)
        _, best = assign_output_polarities(fa_aig)
        assert best.num_cells <= positive.num_cells

    def test_required_rails_subset_of_both(self, fa_aig):
        analysis = analyze_rails(fa_aig)
        for rails in analysis.required.values():
            assert rails <= {Rail.POS, Rail.NEG}

    def test_sinks_include_latch_next_state(self):
        from repro.netlist import NetworkBuilder

        b = NetworkBuilder("seq")
        d = b.input("d")
        q = b.dff(b.xor(d, b.input("e")), name="q")
        b.output(q, "out")
        aig = network_to_aig(b.finish())
        names = [s.name for s in sinks_of(aig)]
        assert "out" in names and "q$next" in names


class TestDualRailMapping:
    @pytest.mark.parametrize(
        "step,options",
        [
            ("direct", FlowOptions(effort="none", direct_mapping=True)),
            ("aig", FlowOptions(effort="high", direct_mapping=True)),
            ("polarity", FlowOptions(effort="high", optimize_polarity=False)),
            ("domino", FlowOptions(effort="high", optimize_polarity=True)),
        ],
    )
    def test_full_adder_walkthrough_matches_paper(self, step, options):
        cells, splitters, jj, jj_ptl = FULL_ADDER_STEPS[step]
        result = synthesize_xsfq(full_adder_network(), options)
        assert result.num_la_fa == cells
        assert result.num_splitters == splitters
        assert result.jj_count(False) == jj
        assert result.jj_count(True) == jj_ptl

    def test_equation1_matches_explicit_splitters(self, fa_aig):
        analysis = analyze_rails(fa_aig)
        netlist = map_combinational(fa_aig, analysis)
        used_input_rails = sum(len(r) for n, r in analysis.leaf_rails.items() if n != 0)
        outputs = len(netlist.output_ports)
        assert netlist.num_splitters == equation1_splitters(
            netlist.num_logic_cells, outputs, used_input_rails
        )

    def test_netlist_validates_and_single_fanout(self, fa_aig):
        netlist = map_combinational(fa_aig, analyze_rails(fa_aig))
        netlist.validate()
        consumers = netlist.net_consumers()
        assert all(len(users) <= 1 for users in consumers.values())

    def test_without_splitters_multi_fanout_exists(self, fa_aig):
        netlist = map_combinational(fa_aig, analyze_rails(fa_aig), insert_fanout_splitters=False)
        consumers = netlist.net_consumers()
        assert any(len(users) > 1 for users in consumers.values())

    def test_chain_splitter_style(self, fa_aig):
        balanced = map_combinational(fa_aig, analyze_rails(fa_aig), splitter_style="balanced")
        chained = map_combinational(fa_aig, analyze_rails(fa_aig), splitter_style="chain")
        # Same splitter count either way; only the tree topology differs.
        assert balanced.num_splitters == chained.num_splitters
        assert chained.logic_depth(True) >= balanced.logic_depth(True)

    def test_depth_and_critical_path(self, fa_aig):
        netlist = map_combinational(fa_aig, analyze_rails(fa_aig))
        assert netlist.logic_depth(False) == fa_aig.depth()
        assert netlist.logic_depth(True) >= netlist.logic_depth(False)
        lib = default_library(False)
        assert netlist.critical_path_delay(lib) >= fa_aig.depth() * lib.delay(CellKind.LA)

    def test_inversion_is_free(self):
        """Inverting an output must not change the LA/FA cell count (wire twist)."""
        from repro.netlist import NetworkBuilder

        def build(invert):
            b = NetworkBuilder("inv")
            x, y = b.input("x"), b.input("y")
            sig = b.and_(x, y)
            if invert:
                sig = b.not_(sig)
            b.output(sig, "o")
            return b.finish()

        plain = synthesize_xsfq(build(False), FlowOptions(effort="none", optimize_polarity=False))
        inverted = synthesize_xsfq(build(True), FlowOptions(effort="none", optimize_polarity=False))
        assert plain.num_la_fa == inverted.num_la_fa == 1

    def test_counts_by_kind_totals(self, fa_aig):
        netlist = map_combinational(fa_aig, analyze_rails(fa_aig))
        counts = netlist.counts_by_kind()
        assert counts[CellKind.LA] + counts[CellKind.FA] == netlist.num_logic_cells
        assert counts[CellKind.SPLITTER] == netlist.num_splitters


def _reference_assignment(aig, max_sweeps=4):
    """The greedy heuristic with one full :func:`analyze_rails` per trial flip."""
    polarities = positive_polarities(aig)
    best = analyze_rails(aig, polarities)
    for _ in range(max_sweeps):
        improved = False
        for sink in sinks_of(aig):
            trial = dict(polarities)
            trial[sink.name] = polarities[sink.name].flipped()
            candidate = analyze_rails(aig, trial)
            if candidate.num_cells < best.num_cells:
                polarities, best, improved = trial, candidate, True
        if not improved:
            break
    return polarities, best


def _random_aig(seed):
    """A random sequential AIG: shared, complemented fanins and constants."""
    rng = random.Random(seed)
    aig = Aig(f"random{seed}")
    lits = [aig.add_pi() for _ in range(rng.randint(1, 5))]
    latches = [aig.add_latch() for _ in range(rng.randint(0, 3))]
    lits += latches + [FALSE]
    for _ in range(rng.randint(1, 40)):
        a, b = rng.sample(lits, 2) if len(lits) > 1 else (lits[0], lits[0])
        lits.append(aig.add_and(a ^ rng.randint(0, 1), b ^ rng.randint(0, 1)))
    for _ in range(rng.randint(1, 5)):
        aig.add_po(rng.choice(lits) ^ rng.randint(0, 1))
    for latch in latches:
        aig.set_latch_next(latch, rng.choice(lits) ^ rng.randint(0, 1))
    return aig


def _catalog_and_random_aigs():
    aigs = [(name, network_to_aig(build_circuit(name, "quick"))) for name in circuit_names()]
    aigs += [(f"random{seed}", _random_aig(seed)) for seed in range(40)]
    return aigs


@pytest.mark.parametrize("name, aig", _catalog_and_random_aigs(), ids=lambda v: v if isinstance(v, str) else "")
def test_incremental_rail_demand_matches_full_analysis(name, aig):
    """Every flip evaluated incrementally costs what a full analysis says,
    so the greedy assignment and its analysis are the full-analysis ones."""
    polarities = positive_polarities(aig)
    demand = _RailDemand(aig)
    for sink in sinks_of(aig):
        demand.add(sink.lit, polarities[sink.name])
    assert demand.cells == analyze_rails(aig, polarities).num_cells
    rng = random.Random(name)
    sinks = sinks_of(aig)
    for _ in range(12):
        sink = rng.choice(sinks)
        demand.flip(sink.lit, polarities[sink.name])
        polarities[sink.name] = polarities[sink.name].flipped()
        assert demand.cells == analyze_rails(aig, polarities).num_cells
    chosen, analysis = assign_output_polarities(aig)
    expected, reference = _reference_assignment(aig)
    assert chosen == expected
    assert analysis.required == reference.required
    assert analysis.num_cells == reference.num_cells
