"""Experiment runners: one per table / figure of the paper's evaluation.

Every runner assembles the same columns the paper reports and returns an
:class:`~repro.eval.fixed.ExperimentResult` whose ``text`` attribute is a
ready-to-print table.  The experiments that synthesise no catalogued
circuit (Tables 1-2, Figures 1-5) live in :mod:`repro.eval.fixed`.  The ``scale`` argument selects between the reduced "quick" circuit
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

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..circuits import names as circuit_names
from ..core import (
    CircuitReport,
    Flow,
    FlowOptions,
    arithmetic_mean,
    combinational_table,
    format_table,
    pipelining_table,
    sequential_table,
    synthesize_xsfq,
)
from ..netlist.network import NetworkBuilder
from ..sim.pulse import simulate_sequential
from . import paper_data
from .engine import SynthesisEngine, SynthesisJob, get_default_engine
from .fixed import ExperimentResult


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
