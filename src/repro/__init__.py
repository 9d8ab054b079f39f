"""Reproduction of "Synthesis of Resource-Efficient Superconducting Circuits
with Clock-Free Alternating Logic" (DAC 2024).

The package is organised as a synthesis framework:

* :mod:`repro.netlist` — gate-level networks and file formats;
* :mod:`repro.rtl` — a small RTL eDSL front end;
* :mod:`repro.aig` — AND-Inverter graph optimisation (the "ABC" substrate);
* :mod:`repro.core` — the paper's contribution: the xSFQ cell library,
  dual-rail mapping, polarity optimisation and the sequential methodology;
* :mod:`repro.baselines` — conventional clocked RSFQ flows (PBMap/qSeq-like);
* :mod:`repro.sim` — pulse-level and analog (RCSJ) simulators;
* :mod:`repro.verify` — pulse-accurate equivalence verification: batched
  stimulus suites, the ``verify`` flow stage and catalog-wide campaigns;
* :mod:`repro.circuits` — benchmark circuit generators;
* :mod:`repro.gen` — seeded random-circuit families and differential
  fuzzing campaigns (``repro fuzz``) judged by the verification oracle;
* :mod:`repro.cov` — structural coverage for fuzzing: deterministic
  feature extraction, coverage-steered generation, and resumable
  sharded soak runs (``repro fuzz --soak``);
* :mod:`repro.perf` — declarative benchmark harness and suites
  (``repro bench``) with schema-versioned ``BENCH_*.json`` emission and
  a baseline regression gate;
* :mod:`repro.faults` — seeded pulse-level fault injection (drop /
  duplicate / jitter / skew), robustness-margin bisection and
  per-circuit robustness reports (``repro faults``);
* :mod:`repro.eval` — parallel experiment engine reproducing the paper's
  tables and figures (also exposed as the ``repro`` command-line tool).

The names most users need are re-exported here::

    import repro

    result = repro.synthesize_xsfq(repro.build_circuit("c880"),
                                   repro.FlowOptions(effort="high"))

    # ... or compose the staged pipeline directly:
    flow = repro.Flow.default().with_options("polarity", mode="positive")
    result = flow.run(repro.build_circuit("c880"))

    report = repro.run_experiment("table4", jobs=4)

Every name here, and every subpackage, is imported on first use
(:mod:`repro._lazy`): ``import repro`` loads no layer, and a command
loads only the layers it calls.
"""

__version__ = "1.10.0"

from ._lazy import lazy_exports  # noqa: E402

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    # Synthesis flow and the staged pass manager
    ".core": (
        "synthesize_xsfq",
        "FlowOptions",
        "XsfqSynthesisResult",
        "Flow",
        "FlowError",
        "FlowState",
        "Stage",
        "STAGES",
        "StageCache",
        "StageEvent",
        "TimingObserver",
        "register_stage",
        "get_stage_cache",
        "set_stage_cache",
        "flow_variant",
        "flow_variant_names",
        "register_flow_variant",
        "XsfqLibrary",
        "XsfqNetlist",
        "default_library",
        "format_waveform",
        "write_liberty",
    ),
    # Networks and baselines
    ".netlist": ("NetworkBuilder",),
    ".baselines": ("pbmap_like", "qseq_like"),
    # Benchmark circuit registry
    ".circuits": (
        "CATALOG",
        "CircuitInfo",
        "build_circuit=build",
        "circuit_info=info",
        "circuit_names=names",
    ),
    # Simulation
    ".sim.pulse": (
        "BatchedNetlistSimulator",
        "simulate_combinational",
        "simulate_sequential",
    ),
    # Random-circuit generation and fuzzing
    ".gen": (
        "FAMILIES",
        "GenSpec",
        "generate_specs",
        "FuzzCampaign",
        "FuzzReport",
        "shrink_network",
    ),
    # Structural coverage and soak runs
    ".cov": (
        "CoverageMap",
        "SoakCampaign",
        "SoakState",
        "feature_universe",
        "fold_fuzz_units",
        "merge_states",
        "render_coverage_report",
        "run_soak",
        "steered_specs",
    ),
    # Performance harness
    ".perf": (
        "BenchSpec",
        "BenchResult",
        "BenchReport",
        "compare_reports",
        "load_bench",
        "render_comparison",
        "render_results_table",
        "run_suite",
        "suite_names",
        "suite_specs",
    ),
    # Verification
    ".verify": (
        "StimulusSuite",
        "stimulus_suite",
        "VerificationCampaign",
        "VerificationSpec",
        "VerificationVerdict",
        "verify_result",
    ),
    # Fault injection and robustness
    ".faults": (
        "FaultCampaign",
        "FaultModel",
        "FaultReport",
        "FaultScenario",
        "fault_kind_names",
        "parse_fault_name",
    ),
    # Experiment engine
    ".eval": (
        "EXPERIMENTS",
        "ExperimentSpec",
        "ExperimentReport",
        "ExperimentResult",
        "ResultCache",
        "Runner",
        "SynthesisEngine",
        "SynthesisJob",
        "run_experiment",
    ),
})
# The typed, versioned message layer resolves as a submodule.
__all__ = ["__version__", *__all__, "schema"]
