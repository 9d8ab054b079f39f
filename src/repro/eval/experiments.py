"""Experiment runners: one per table / figure of the paper's evaluation.

Every runner assembles the same columns the paper reports and returns an
:class:`ExperimentResult` whose ``text`` attribute is a ready-to-print
table.  The ``scale`` argument selects between the reduced "quick" circuit
dimensions (default — suitable for CI and the shipped benchmark harness)
and the "paper"-scale dimensions.

Per-circuit synthesis is *not* performed inline: each runner enumerates
declarative :class:`~repro.eval.engine.SynthesisJob` units (see the
``*_jobs`` helpers) and asks a :class:`~repro.eval.engine.SynthesisEngine`
for the corresponding metric records.  The default engine computes
serially with no disk cache (though it memoises repeated jobs
in-process; pass ``SynthesisEngine(memoize=False)`` to time every
synthesis from scratch), while the parallel runner (:mod:`repro.eval.runner`)
pre-populates a shared content-addressed cache from worker processes so the
assembly step here never synthesises anything itself.

The measured numbers are not expected to match the paper's absolute values
(different benchmark instantiations, different optimiser); the *shape* —
which flow wins, by roughly what factor, where the duplication penalty is
high or low — is what EXPERIMENTS.md tracks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..aig import network_to_aig, optimize
from ..circuits import names as circuit_names
from ..core import (
    CircuitReport,
    Flow,
    FlowOptions,
    arithmetic_mean,
    combinational_table,
    default_library,
    format_table,
    pipelining_table,
    sequential_table,
    synthesize_xsfq,
    table2_rows,
)
from ..core.encoding import format_waveform
from ..netlist.network import NetworkBuilder
from ..sim.pulse import simulate_sequential
from ..sim.pulse.elements import FaCell, LaCell
from . import paper_data
from .engine import SynthesisEngine, SynthesisJob, get_default_engine


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


def _engine(engine: Optional[SynthesisEngine]) -> SynthesisEngine:
    return engine if engine is not None else get_default_engine()


def _report_from_record(record: Mapping[str, object]) -> CircuitReport:
    """Rebuild the paper-style :class:`CircuitReport` from a cached record."""
    return CircuitReport(
        circuit=record["circuit"],
        la_fa=record["la_fa"],
        duplication=record["duplication"],
        droc_plain=record["droc_plain"],
        droc_preloaded=record["droc_preloaded"],
        splitters=record["splitters"],
        jj=record["jj"],
        jj_ptl=record["jj_ptl"],
        baseline_name=record.get("baseline_name", ""),
        baseline_jj=record.get("baseline_jj"),
        baseline_jj_clocked=record.get("baseline_jj_clocked"),
        depth=record["depth"],
        depth_with_splitters=record["depth_with_splitters"],
        clock_circuit_ghz=record.get("clock_circuit_ghz", 0.0),
        clock_arch_ghz=record.get("clock_arch_ghz", 0.0),
    )


# ---------------------------------------------------------------------------
# Table 1 / Figure 1: cell protocol and encoding
# ---------------------------------------------------------------------------


def run_table1() -> ExperimentResult:
    """Reproduce Table 1: LA/FA responses to alternating input sequences."""
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
    from ..core.encoding import encode_stream, decode_stream

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
    from ..sim.analog import (
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


# ---------------------------------------------------------------------------
# Table 3: duplication penalty on the EPFL control circuits
# ---------------------------------------------------------------------------

TABLE3_CIRCUITS = ["arbiter", "cavlc", "ctrl", "dec", "i2c", "int2float", "mem_ctrl", "priority", "router", "voter"]


def table3_jobs(scale: str = "quick", effort: str = "medium") -> List[SynthesisJob]:
    options = FlowOptions(effort=effort)
    return [SynthesisJob.create(name, scale, options) for name in TABLE3_CIRCUITS]


def run_table3(
    scale: str = "quick",
    effort: str = "medium",
    engine: Optional[SynthesisEngine] = None,
) -> ExperimentResult:
    """Reproduce Table 3: duplication penalty after the polarity optimisations."""
    eng = _engine(engine)
    rows: List[Dict[str, object]] = []
    penalties: Dict[str, float] = {}
    for job in table3_jobs(scale, effort):
        record = eng.record_for(job)
        penalties[job.circuit] = record["duplication"]
        rows.append(
            {
                "circuit": job.circuit,
                "duplication": record["duplication"],
                "paper_duplication": paper_data.TABLE3_DUPLICATION[job.circuit],
                "la_fa": record["la_fa"],
            }
        )
    text = format_table(
        ["Circuit", "Dupl. (measured)", "Dupl. (paper)"],
        [[r["circuit"], f"{r['duplication']*100:.0f}%", f"{r['paper_duplication']*100:.0f}%"] for r in rows],
    )
    summary = {
        "mean_duplication": arithmetic_mean(penalties.values()),
        "paper_mean_duplication": arithmetic_mean(paper_data.TABLE3_DUPLICATION.values()),
        "all_below_direct_mapping": all(p < 1.0 for p in penalties.values()),
    }
    return ExperimentResult("table3", rows, text, summary, scale)


# ---------------------------------------------------------------------------
# Table 4: combinational circuits vs the PBMap-style baseline
# ---------------------------------------------------------------------------

TABLE4_CIRCUITS = ["c880", "c1908", "c499", "c3540", "c5315", "c7552", "int2float", "dec", "priority", "sin", "cavlc"]


def table4_jobs(
    scale: str = "quick",
    effort: str = "medium",
    circuits: Optional[Sequence[str]] = None,
) -> List[SynthesisJob]:
    options = FlowOptions(effort=effort)
    chosen = list(circuits) if circuits else TABLE4_CIRCUITS
    return [SynthesisJob.create(name, scale, options) for name in chosen]


def run_table4(
    scale: str = "quick",
    effort: str = "medium",
    circuits: Optional[Sequence[str]] = None,
    engine: Optional[SynthesisEngine] = None,
) -> ExperimentResult:
    """Reproduce Table 4: JJ counts and savings for combinational circuits."""
    eng = _engine(engine)
    reports = [
        _report_from_record(eng.record_for(job))
        for job in table4_jobs(scale, effort, circuits)
    ]
    rows: List[Dict[str, object]] = []
    for report in reports:
        paper_row = paper_data.TABLE4_ROWS.get(report.circuit)
        rows.append(
            {
                "circuit": report.circuit,
                "baseline_jj": report.baseline_jj,
                "la_fa": report.la_fa,
                "duplication": report.duplication,
                "jj": report.jj,
                "savings": report.jj_savings,
                "savings_with_clock": report.jj_savings_clocked,
                "paper_savings": paper_row.savings if paper_row else None,
                "paper_savings_with_clock": paper_row.savings_with_clock if paper_row else None,
            }
        )
    text = combinational_table(reports, baseline_label="PBMap-like")
    savings = [r["savings"] for r in rows if r["savings"]]
    summary = {
        "mean_savings": arithmetic_mean(savings),
        "mean_savings_with_clock": arithmetic_mean(
            [r["savings_with_clock"] for r in rows if r["savings_with_clock"]]
        ),
        "paper_mean_savings": paper_data.TABLE4_AVERAGE_SAVINGS[0],
        "paper_mean_savings_with_clock": paper_data.TABLE4_AVERAGE_SAVINGS[1],
        "xsfq_always_wins": all(s and s > 1.0 for s in savings),
        "no_storage_cells": all(r.droc_plain + r.droc_preloaded == 0 for r in reports),
    }
    return ExperimentResult("table4", rows, text, summary, scale)


# ---------------------------------------------------------------------------
# Table 5: pipelining study on the multiplier (c6288 class)
# ---------------------------------------------------------------------------


def table5_jobs(
    scale: str = "quick",
    effort: str = "medium",
    stages: Sequence[int] = (0, 1, 2),
) -> List[SynthesisJob]:
    return [
        SynthesisJob.create(
            "c6288", scale, FlowOptions(effort=effort, pipeline_stages=num_stages)
        )
        for num_stages in stages
    ]


def run_table5(
    scale: str = "quick",
    effort: str = "medium",
    stages: Sequence[int] = (0, 1, 2),
    engine: Optional[SynthesisEngine] = None,
) -> ExperimentResult:
    """Reproduce Table 5: pipelined c6288 (JJ, DROC, depth, clock frequency)."""
    eng = _engine(engine)
    reports: List[CircuitReport] = []
    rows: List[Dict[str, object]] = []
    for num_stages, job in zip(stages, table5_jobs(scale, effort, stages)):
        record = eng.record_for(job)
        report = _report_from_record(record)
        report.circuit = f"c6288/{num_stages}"
        report.baseline_jj = None
        report.baseline_jj_clocked = None
        report.extras = {"stages": num_stages, "ranks": 2 * num_stages}
        reports.append(report)
        paper_row = paper_data.TABLE5_ROWS.get(num_stages)
        rows.append(
            {
                "stages": num_stages,
                "jj": report.jj,
                "la_fa": report.la_fa,
                "duplication": report.duplication,
                "droc_plain": report.droc_plain,
                "droc_preloaded": report.droc_preloaded,
                "depth": report.depth,
                "depth_with_splitters": report.depth_with_splitters,
                "clock_circuit_ghz": report.clock_circuit_ghz,
                "clock_arch_ghz": report.clock_arch_ghz,
                "paper_jj": paper_row.jj if paper_row else None,
                "paper_depth": paper_row.depth if paper_row else None,
            }
        )
    text = pipelining_table(reports)
    jj_values = [r["jj"] for r in rows]
    depth_values = [r["depth"] for r in rows]
    freq_values = [r["clock_circuit_ghz"] for r in rows]
    summary = {
        "jj_growth_monotonic": all(jj_values[i] <= jj_values[i + 1] for i in range(len(jj_values) - 1)),
        "depth_shrinks": all(depth_values[i] >= depth_values[i + 1] for i in range(len(depth_values) - 1)),
        "frequency_grows": all(freq_values[i] <= freq_values[i + 1] for i in range(len(freq_values) - 1)),
        "jj_growth_sublinear_vs_droc": _jj_growth_sublinear(rows),
    }
    return ExperimentResult("table5", rows, text, summary, scale)


def _jj_growth_sublinear(rows: Sequence[Mapping[str, object]]) -> bool:
    """Check the paper's observation that JJs grow sub-linearly with DROC count."""
    if len(rows) < 2:
        return True
    base = rows[0]
    last = rows[-1]
    droc_added = (last["droc_plain"] + last["droc_preloaded"]) - (
        base["droc_plain"] + base["droc_preloaded"]
    )
    if droc_added <= 0:
        return True
    jj_added = last["jj"] - base["jj"]
    # Sub-linear: the added JJs are less than the standalone cost of the
    # added DROC cells (13 JJ each) plus their clock tree would suggest.
    return jj_added < droc_added * 22


# ---------------------------------------------------------------------------
# Table 6: sequential circuits vs the qSeq-style baseline
# ---------------------------------------------------------------------------


def table6_jobs(
    scale: str = "quick",
    effort: str = "medium",
    circuits: Optional[Sequence[str]] = None,
) -> List[SynthesisJob]:
    options = FlowOptions(effort=effort)
    chosen = list(circuits) if circuits else circuit_names(suite="iscas89")
    return [SynthesisJob.create(name, scale, options) for name in chosen]


def run_table6(
    scale: str = "quick",
    effort: str = "medium",
    circuits: Optional[Sequence[str]] = None,
    engine: Optional[SynthesisEngine] = None,
) -> ExperimentResult:
    """Reproduce Table 6: sequential ISCAS89-class circuits vs qSeq."""
    eng = _engine(engine)
    reports: List[CircuitReport] = []
    rows: List[Dict[str, object]] = []
    for job in table6_jobs(scale, effort, circuits):
        record = eng.record_for(job)
        report = _report_from_record(record)
        reports.append(report)
        paper_row = paper_data.TABLE6_ROWS.get(job.circuit)
        rows.append(
            {
                "circuit": job.circuit,
                "baseline_jj": report.baseline_jj,
                "la_fa": report.la_fa,
                "duplication": report.duplication,
                "droc_plain": report.droc_plain,
                "droc_preloaded": report.droc_preloaded,
                "jj": report.jj,
                "savings": report.jj_savings,
                "savings_with_clock": report.jj_savings_clocked,
                "paper_savings": paper_row.savings if paper_row else None,
                "num_flipflops": record["num_flipflops"],
            }
        )
    text = sequential_table(reports, baseline_label="qSeq-like")
    savings = [r["savings"] for r in rows if r["savings"]]
    summary = {
        "mean_savings": arithmetic_mean(savings),
        "mean_savings_with_clock": arithmetic_mean(
            [r["savings_with_clock"] for r in rows if r["savings_with_clock"]]
        ),
        "paper_mean_savings": paper_data.TABLE6_AVERAGE_SAVINGS[0],
        "xsfq_always_wins": all(s and s > 1.0 for s in savings),
        "preloaded_matches_flipflops": all(
            r["droc_preloaded"] >= r["num_flipflops"] for r in rows
        ),
    }
    return ExperimentResult("table6", rows, text, summary, scale)


# ---------------------------------------------------------------------------
# Figure 7: pulse-level simulation of the 2-bit counter
# ---------------------------------------------------------------------------


def counter_network(bits: int = 2):
    """An enable-gated ``bits``-wide binary counter."""
    b = NetworkBuilder(f"counter{bits}")
    enable = b.input("en")
    state = [b.dff(b.const(0), name=f"q{i}") for i in range(bits)]
    carry = enable
    next_state = []
    for i in range(bits):
        next_state.append(b.xor(state[i], carry))
        carry = b.and_(state[i], carry)
    for i in range(bits):
        b.network.gates[f"q{i}"].fanins = [next_state[i]]
        b.output(state[i], f"out[{i}]")
    return b.finish()


def run_figure7(num_cycles: int = 6, effort: str = "medium") -> ExperimentResult:
    """Reproduce Figure 7: pulse-level simulation of a 2-bit xSFQ counter."""
    network = counter_network(2)
    result = synthesize_xsfq(network, FlowOptions(effort=effort, retime=False))
    vectors = [{"en": 1} for _ in range(num_cycles)]
    sim = simulate_sequential(result.netlist, vectors)
    counts = [out["out[1]"] * 2 + out["out[0]"] for out in sim.outputs]

    # Reference: the architectural start-up state is all-ones (see
    # repro.sim.pulse.xsfq_sim), so the expected count sequence starts at 3.
    expected = [(3 + k) % 4 for k in range(num_cycles)]
    rows = [
        {"cycle": k + 1, "count": counts[k], "expected": expected[k], "outputs": sim.outputs[k]}
        for k in range(num_cycles)
    ]
    text = format_table(
        ["Logical cycle", "Counter value", "Expected"],
        [[r["cycle"], format(r["count"], "02b"), format(r["expected"], "02b")] for r in rows],
    )
    summary = {
        "matches_expected": counts == expected,
        "wraps_around": 0 in counts and 3 in counts,
        "trigger_used": bool(result.netlist.trigger_nets),
        "num_drocs": sum(result.droc_counts),
    }
    return ExperimentResult("figure7", rows, text, summary)


# ---------------------------------------------------------------------------
# Ablations: how much each flow ingredient contributes
# ---------------------------------------------------------------------------

ABLATION_COMBINATIONAL = "c880"
ABLATION_PTL = "c1908"
ABLATION_SEQUENTIAL = "s298"

#: The Section 3.1 progression, expressed as staged Flow compositions.
#: Every variant after the first shares the same ``frontend``/``aig-opt``
#: prefix, so the stage cache optimises the c880 AIG exactly once.
_ABLATION_VARIANTS: List[Tuple[str, Callable[[str], Flow]]] = [
    ("direct (no AIG opt, dual rail)", lambda effort: Flow.direct_mapping(effort="none")),
    ("AIG opt only (dual rail)", lambda effort: Flow.direct_mapping(effort=effort)),
    (
        "+ positive-only outputs",
        lambda effort: Flow.from_options(FlowOptions(effort=effort, optimize_polarity=False)),
    ),
    (
        "+ output phase assignment",
        lambda effort: Flow.from_options(FlowOptions(effort=effort, optimize_polarity=True)),
    ),
]


def ablation_jobs(scale: str = "quick", effort: str = "medium") -> List[SynthesisJob]:
    jobs: List[SynthesisJob] = [
        SynthesisJob.from_flow(ABLATION_COMBINATIONAL, scale, make_flow(effort))
        for _, make_flow in _ABLATION_VARIANTS
    ]
    jobs.append(SynthesisJob.from_flow(ABLATION_PTL, scale, Flow.from_options(FlowOptions(effort=effort))))
    jobs.append(
        SynthesisJob.from_flow(
            ABLATION_SEQUENTIAL, scale, Flow.from_options(FlowOptions(effort=effort, retime=True))
        )
    )
    jobs.append(
        SynthesisJob.from_flow(
            ABLATION_SEQUENTIAL, scale, Flow.from_options(FlowOptions(effort=effort, retime=False))
        )
    )
    return jobs


def run_ablation(
    scale: str = "quick",
    effort: str = "medium",
    engine: Optional[SynthesisEngine] = None,
) -> ExperimentResult:
    """Quantify each flow ingredient (AIG opt, polarity, PTL, retiming).

    Mirrors the benchmark harness's ablation study: the Section 3.1
    optimisation progression on a c880-class ALU, the PTL interconnect
    cost model on c1908, and DROC retiming on the sequential s298.
    """
    eng = _engine(engine)
    jobs = ablation_jobs(scale, effort)
    combinational = jobs[: len(_ABLATION_VARIANTS)]
    ptl_job, retimed_job, paired_job = jobs[len(_ABLATION_VARIANTS):]

    rows: List[Dict[str, object]] = []
    jj_progression: List[int] = []
    for (label, _), job in zip(_ABLATION_VARIANTS, combinational):
        record = eng.record_for(job)
        jj_progression.append(record["jj"])
        rows.append(
            {
                "study": "polarity",
                "variant": label,
                "circuit": job.circuit,
                "la_fa": record["la_fa"],
                "jj": record["jj"],
                "duplication": record["duplication"],
            }
        )

    ptl_record = eng.record_for(ptl_job)
    rows.append(
        {
            "study": "interconnect",
            "variant": "PTL vs abutted",
            "circuit": ptl_job.circuit,
            "jj": ptl_record["jj"],
            "jj_ptl": ptl_record["jj_ptl"],
        }
    )

    retimed = eng.record_for(retimed_job)
    paired = eng.record_for(paired_job)
    for label, record in (("retimed DROC rank", retimed), ("paired DROC ranks", paired)):
        rows.append(
            {
                "study": "sequential",
                "variant": label,
                "circuit": ABLATION_SEQUENTIAL,
                "jj": record["jj"],
                "droc_plain": record["droc_plain"],
                "droc_preloaded": record["droc_preloaded"],
                "depth": record["depth"],
            }
        )

    text = format_table(
        ["Study", "Variant", "Circuit", "#JJ"],
        [[r["study"], r["variant"], r["circuit"], r["jj"]] for r in rows],
    )
    summary = {
        "progression_monotonic": all(
            jj_progression[i + 1] <= jj_progression[i] for i in range(len(jj_progression) - 1)
        ),
        "full_flow_beats_direct": jj_progression[-1] < jj_progression[0],
        "ptl_costs_more": ptl_record["jj_ptl"] > ptl_record["jj"],
        # Retiming trades a few extra DROCs for a balanced pipeline: the
        # depth behind the storage ranks shrinks (cf. benchmarks/test_ablations).
        "retiming_balances_depth": retimed["depth"] <= paired["depth"],
    }
    return ExperimentResult("ablation", rows, text, summary, scale)


# ---------------------------------------------------------------------------
# Aggregate: the abstract's headline claim
# ---------------------------------------------------------------------------


def headline_jobs(scale: str = "quick", effort: str = "low") -> List[SynthesisJob]:
    return table4_jobs(scale, effort) + table6_jobs(scale, effort)


def run_headline(
    scale: str = "quick",
    effort: str = "low",
    engine: Optional[SynthesisEngine] = None,
) -> ExperimentResult:
    """Check the abstract's headline: >80% average JJ reduction vs the baseline."""
    table4 = run_table4(scale=scale, effort=effort, engine=engine)
    table6 = run_table6(scale=scale, effort=effort, engine=engine)
    savings = [r["savings"] for r in table4.rows + table6.rows if r["savings"]]
    reductions = [1.0 - 1.0 / s for s in savings]
    summary = {
        "mean_reduction": arithmetic_mean(reductions),
        "mean_savings": arithmetic_mean(savings),
        "max_savings": max(savings) if savings else 0.0,
        "paper_mean_reduction": paper_data.ABSTRACT_AVERAGE_REDUCTION,
        "paper_mean_savings": paper_data.ABSTRACT_AVERAGE_SAVINGS,
    }
    text = format_table(
        ["Metric", "Measured", "Paper"],
        [
            ["average JJ reduction", f"{summary['mean_reduction']*100:.0f}%", ">80%"],
            ["average JJ savings", f"{summary['mean_savings']:.1f}x", f"{paper_data.ABSTRACT_AVERAGE_SAVINGS}x"],
            ["maximum JJ savings", f"{summary['max_savings']:.1f}x", f"~{paper_data.ABSTRACT_MAX_SAVINGS:.0f}x"],
        ],
    )
    return ExperimentResult("headline", table4.rows + table6.rows, text, summary, scale)
