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
"""

__version__ = "1.10.0"

from . import schema  # noqa: E402  - registers the message-type registry

from .core import (  # noqa: E402
    Flow,
    FlowError,
    FlowOptions,
    FlowState,
    Stage,
    STAGES,
    StageCache,
    StageEvent,
    TimingObserver,
    XsfqLibrary,
    XsfqNetlist,
    XsfqSynthesisResult,
    default_library,
    flow_variant,
    flow_variant_names,
    format_waveform,
    get_stage_cache,
    register_flow_variant,
    register_stage,
    set_stage_cache,
    synthesize_xsfq,
    write_liberty,
)
from .netlist import NetworkBuilder  # noqa: E402
from .baselines import pbmap_like, qseq_like  # noqa: E402
from .circuits import CATALOG, CircuitInfo  # noqa: E402
from .circuits import build as build_circuit  # noqa: E402
from .circuits import info as circuit_info  # noqa: E402
from .circuits import names as circuit_names  # noqa: E402
from .sim.pulse import (  # noqa: E402
    BatchedNetlistSimulator,
    simulate_combinational,
    simulate_sequential,
)
from .gen import (  # noqa: E402
    FAMILIES,
    FuzzCampaign,
    FuzzReport,
    GenSpec,
    generate_specs,
    shrink_network,
)
from .cov import (  # noqa: E402
    CoverageMap,
    SoakCampaign,
    SoakState,
    feature_universe,
    fold_fuzz_units,
    merge_states,
    render_coverage_report,
    run_soak,
    steered_specs,
)
from .perf import (  # noqa: E402
    BenchReport,
    BenchResult,
    BenchSpec,
    compare_reports,
    load_bench,
    render_comparison,
    render_results_table,
    run_suite,
    suite_names,
    suite_specs,
)
from .verify import (  # noqa: E402  - also registers the 'verify' stage
    StimulusSuite,
    VerificationCampaign,
    VerificationSpec,
    VerificationVerdict,
    stimulus_suite,
    verify_result,
)
from .faults import (  # noqa: E402
    FaultCampaign,
    FaultModel,
    FaultReport,
    FaultScenario,
    FaultSpec,
    fault_kind_names,
    parse_fault_name,
)
from .eval import (  # noqa: E402
    EXPERIMENTS,
    ExperimentResult,
    ExperimentSpec,
    ResultCache,
    Runner,
    RunReport,
    SynthesisEngine,
    SynthesisJob,
    run_experiment,
)

__all__ = [
    "__version__",
    # Synthesis flow
    "synthesize_xsfq",
    "FlowOptions",
    "XsfqSynthesisResult",
    # Staged pass manager
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
    # Networks and baselines
    "NetworkBuilder",
    "pbmap_like",
    "qseq_like",
    # Benchmark circuit registry
    "CATALOG",
    "CircuitInfo",
    "build_circuit",
    "circuit_info",
    "circuit_names",
    # Simulation
    "BatchedNetlistSimulator",
    "simulate_combinational",
    "simulate_sequential",
    # Random-circuit generation and fuzzing
    "FAMILIES",
    "GenSpec",
    "generate_specs",
    "FuzzCampaign",
    "FuzzReport",
    "shrink_network",
    # Structural coverage and soak runs
    "CoverageMap",
    "SoakCampaign",
    "SoakState",
    "feature_universe",
    "fold_fuzz_units",
    "merge_states",
    "render_coverage_report",
    "run_soak",
    "steered_specs",
    # Performance harness
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
    # Verification
    "StimulusSuite",
    "stimulus_suite",
    "VerificationCampaign",
    "VerificationSpec",
    "VerificationVerdict",
    "verify_result",
    # Fault injection and robustness
    "FaultCampaign",
    "FaultModel",
    "FaultReport",
    "FaultScenario",
    "FaultSpec",
    "fault_kind_names",
    "parse_fault_name",
    # Experiment engine
    "EXPERIMENTS",
    "ExperimentSpec",
    "ExperimentResult",
    "ResultCache",
    "Runner",
    "RunReport",
    "SynthesisEngine",
    "SynthesisJob",
    "run_experiment",
    # Typed, versioned message layer
    "schema",
]
