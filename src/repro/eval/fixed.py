"""The experiments that synthesise no catalogued circuit: Tables 1-2, Figures 1-5.

They take no scale, effort or engine, so :mod:`repro.eval.runner`
registers them as they are.  Each imports only what it runs: ``repro run
figure2_3`` loads the RCSJ integrator and no pulse simulator, AIG
optimiser or verification stack.  :class:`ExperimentResult`, which every
experiment returns, lives here for the same reason.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.cells import default_library, table2_rows
from ..core.encoding import decode_stream, encode_stream, format_waveform
from ..core.report import format_table
from ..netlist.network import NetworkBuilder


@dataclass
class ExperimentResult:
    """Outcome of one experiment runner.

    Attributes:
        experiment: Identifier ("table4", "figure7", ...).
        rows: Structured per-row results.
        text: Formatted text table / report.
        summary: Aggregate metrics (averages, checks).
        scale: Circuit scale used ("quick" or "paper").
    """

    experiment: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    text: str = ""
    summary: Dict[str, object] = field(default_factory=dict)
    scale: str = "quick"


# ---------------------------------------------------------------------------
# Table 1 / Figure 1: cell protocol and encoding
# ---------------------------------------------------------------------------


def run_table1() -> ExperimentResult:
    """Reproduce Table 1: LA/FA responses to alternating input sequences."""
    from ..sim.pulse.elements import FaCell, LaCell  # here: the one experiment using pulse cells

    rows: List[Dict[str, object]] = []
    # Enumerate the excite-phase input combinations; the relax phase then
    # presents their complements, exactly as Table 1 lays out.
    for a, b in itertools.product((0, 1), repeat=2):
        la = LaCell("la", ["a", "b"], ["q"], delay=0.0)
        fa = FaCell("fa", ["a", "b"], ["q"], delay=0.0)

        def apply(cell, value_a: int, value_b: int, time: float) -> int:
            pulses = 0
            if value_a:
                pulses += len(cell.on_pulse(0, time))
            if value_b:
                pulses += len(cell.on_pulse(1, time + 0.1))
            return 1 if pulses else 0

        la_excite = apply(la, a, b, 0.0)
        fa_excite = apply(fa, a, b, 0.0)
        la_relax = apply(la, 1 - a, 1 - b, 10.0)
        fa_relax = apply(fa, 1 - a, 1 - b, 10.0)
        rows.append(
            {
                "a": a,
                "b": b,
                "LA_excite": la_excite,
                "FA_excite": fa_excite,
                "LA_relax": la_relax,
                "FA_relax": fa_relax,
                "la_reinitialised": la.is_initial_state(),
                "fa_reinitialised": fa.is_initial_state(),
            }
        )
    text = format_table(
        ["a", "b", "LAab (excite)", "FAab (excite)", "LAab (relax)", "FAab (relax)", "re-init"],
        [
            [r["a"], r["b"], r["LA_excite"], r["FA_excite"], r["LA_relax"], r["FA_relax"],
             "yes" if r["la_reinitialised"] and r["fa_reinitialised"] else "NO"]
            for r in rows
        ],
    )
    summary = {
        "la_matches_and": all(r["LA_excite"] == (r["a"] & r["b"]) for r in rows),
        "fa_matches_or": all(r["FA_excite"] == (r["a"] | r["b"]) for r in rows),
        "all_reinitialised": all(r["la_reinitialised"] and r["fa_reinitialised"] for r in rows),
    }
    return ExperimentResult("table1", rows, text, summary)


def run_figure1(bits: Sequence[int] = (1, 0, 1, 1, 0)) -> ExperimentResult:
    """Reproduce Figure 1: the alternating dual-rail encoding of a bit stream."""
    text = format_waveform(list(bits))
    slots = encode_stream(list(bits))
    decoded = decode_stream(slots)
    summary = {"roundtrip_ok": decoded == [int(b) for b in bits]}
    rows = [{"bit": b, "slot": s.pulses()} for b, s in zip(bits, slots)]
    return ExperimentResult("figure1", rows, text, summary)


def run_table2() -> ExperimentResult:
    """Reproduce Table 2: the xSFQ cell library data (both interconnect modes)."""
    rows = table2_rows()
    text = format_table(
        ["Cell", "Delay (ps)", "# JJs", "Delay (ps, PTL)", "# JJs (PTL)"],
        [[r["cell"], r["delay_no_ptl"], r["jj_no_ptl"], r["delay_ptl"], r["jj_ptl"]] for r in rows],
    )
    summary = {"num_cells": len(rows)}
    return ExperimentResult("table2", [dict(r) for r in rows], text, summary)


# ---------------------------------------------------------------------------
# Figures 2 & 3: analog (RCSJ) cell characterisation
# ---------------------------------------------------------------------------


def run_figure2_3() -> ExperimentResult:
    """Reproduce Figures 2-3: RCSJ phase-model characterisation of the cells.

    Checks the qualitative behaviour the paper's HSPICE plots show: the
    JTL propagates single pulses, the LA cell is a C element (fires only
    after both inputs), the FA cell fires on the first arrival and the
    DROC read-out discriminates stored flux.
    """
    from ..sim.analog import (  # here: the one experiment integrating RCSJ circuits
        characterize_droc,
        characterize_fa,
        characterize_jtl,
        characterize_la,
    )

    jtl = characterize_jtl()
    la_single, la_both = characterize_la()
    fa_single, fa_both = characterize_fa()
    droc_empty, droc_loaded = characterize_droc()
    results = [
        ("jtl", jtl), ("la_single", la_single), ("la_both", la_both),
        ("fa_single", fa_single), ("fa_both", fa_both),
        ("droc_empty", droc_empty), ("droc_loaded", droc_loaded),
    ]
    rows = [
        {
            "scenario": label,
            "cell": r.cell,
            "stimulus": r.scenario,
            "output_pulses": r.output_pulses,
            "delay_ps": r.delay_ps,
        }
        for label, r in results
    ]
    text = format_table(
        ["Cell", "Stimulus", "Output pulses", "Delay (ps)"],
        [
            [r.cell, r.scenario, r.output_pulses,
             f"{r.delay_ps:.1f}" if r.delay_ps is not None else "-"]
            for _, r in results
        ],
    )
    summary = {
        "jtl_propagates": jtl.output_pulses == 1 and bool(jtl.delay_ps),
        "la_is_c_element": la_single.output_pulses == 0 and la_both.output_pulses >= 1,
        "fa_fires_first": fa_single.output_pulses >= 1,
        "droc_discriminates": droc_loaded.output_pulses > droc_empty.output_pulses,
    }
    return ExperimentResult("figure2_3", rows, text, summary)


# ---------------------------------------------------------------------------
# Figures 4 & 5: the full-adder walk-through
# ---------------------------------------------------------------------------


def full_adder_network():
    """The 1-bit full adder used throughout the paper's Section 3.1."""
    b = NetworkBuilder("full_adder")
    a, bb, cin = b.input("a"), b.input("b"), b.input("cin")
    s, cout = b.full_adder(a, bb, cin)
    b.output(s, "s")
    b.output(cout, "cout")
    return b.finish()


def run_figure4_5() -> ExperimentResult:
    """Reproduce the full-adder mapping walk-through (Figures 4 and 5).

    Reports, for each mapping step of Section 3.1, the LA/FA cell count,
    splitter count and JJ totals with and without PTL interfaces, next to
    the paper's numbers.
    """
    # Here: the one fixed experiment that synthesises and quotes the paper.
    from ..aig import network_to_aig, optimize
    from ..core.flow import FlowOptions, synthesize_xsfq
    from . import paper_data

    network = full_adder_network()
    lib = default_library(False)
    lib_ptl = default_library(True)
    aig = optimize(network_to_aig(network), effort="high")

    steps: List[Tuple[str, FlowOptions]] = [
        ("direct", FlowOptions(effort="none", direct_mapping=True)),
        ("aig", FlowOptions(effort="high", direct_mapping=True)),
        ("polarity", FlowOptions(effort="high", optimize_polarity=False)),
        ("domino", FlowOptions(effort="high", optimize_polarity=True)),
    ]
    rows: List[Dict[str, object]] = []
    for label, options in steps:
        result = synthesize_xsfq(network, options)
        paper_cells, paper_splitters, paper_jj, paper_jj_ptl = paper_data.FULL_ADDER_STEPS[label]
        rows.append(
            {
                "step": label,
                "cells": result.num_la_fa,
                "splitters": result.num_splitters,
                "jj": result.netlist.jj_count(lib),
                "jj_ptl": result.netlist.jj_count(lib_ptl),
                "paper_cells": paper_cells,
                "paper_splitters": paper_splitters,
                "paper_jj": paper_jj,
                "paper_jj_ptl": paper_jj_ptl,
            }
        )
    text = format_table(
        ["Step", "LA/FA", "Splitters", "#JJ", "#JJ (PTL)", "paper LA/FA", "paper #JJ", "paper #JJ (PTL)"],
        [
            [r["step"], r["cells"], r["splitters"], r["jj"], r["jj_ptl"], r["paper_cells"], r["paper_jj"], r["paper_jj_ptl"]]
            for r in rows
        ],
    )
    summary = {
        "min_aig_nodes": aig.num_ands,
        "paper_min_aig_nodes": paper_data.FULL_ADDER_MIN_AIG_NODES,
        "matches_paper": all(
            r["cells"] == r["paper_cells"] and r["jj"] == r["paper_jj"] for r in rows
        ),
    }
    return ExperimentResult("figure4_5", rows, text, summary)
