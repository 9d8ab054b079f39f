"""The paper's primary contribution: clock-free xSFQ synthesis.

Public API highlights:

* :class:`repro.core.flowgraph.Flow` — the composable staged pipeline
  (registered stages, per-stage timing rows, stage-level caching) behind
  the backwards-compatible :func:`repro.core.flow.synthesize_xsfq` shim
  (network/AIG in, mapped xSFQ netlist + component breakdown out);
* :class:`repro.core.cells.XsfqLibrary` — the standard-cell library of
  Table 2 (with/without PTL interfaces);
* :mod:`repro.core.polarity` — rail-requirement analysis and the output
  phase-assignment heuristic;
* :mod:`repro.core.dual_rail` — the LA/FA/splitter mapping;
* :mod:`repro.core.sequential` / :mod:`repro.core.pipeline` — DROC storage
  insertion, initialisation and pipelining;
* :mod:`repro.core.liberty` — Liberty-style library export.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cells": (
        "DROC_PRELOAD_OVERHEAD_JJ", "CellKind", "CellSpec", "XsfqLibrary",
        "default_library", "table2_rows",
    ),
    ".encoding": (
        "PhaseSlot", "alternating_property_holds", "decode_slot", "decode_stream",
        "encode_bit", "encode_stream", "format_waveform", "rail_pulse_trains",
    ),
    ".polarity": (
        "Rail", "RailAnalysis", "analyze_rails", "assign_output_polarities",
        "direct_mapping_analysis", "positive_polarities", "sinks_of",
    ),
    ".dual_rail": (
        "MappingError", "OutputPort", "XsfqCell", "XsfqNetlist", "equation1_splitters",
        "insert_splitters", "map_combinational",
    ),
    ".sequential": (
        "SequentialMappingInfo", "clock_frequency_ghz", "legacy_dro_flipflop_cost",
        "map_sequential",
    ),
    ".pipeline": ("PipelineResult", "pipeline_clock_frequencies", "pipeline_combinational"),
    ".flow": ("FlowOptions", "XsfqSynthesisResult", "synthesize_xsfq"),
    ".flowgraph": (
        "DEFAULT_STAGE_ORDER", "FLOW_VARIANTS", "Flow", "FlowError", "FlowState",
        "Stage", "STAGES", "StageCache", "design_fingerprint", "flow_variant",
        "flow_variant_names", "get_stage_cache", "register_flow_variant",
        "register_stage", "render_stage_table", "set_stage_cache",
    ),
    ".liberty": (
        "LibertyCell", "parse_liberty", "read_liberty", "save_liberty", "write_liberty",
    ),
    ".report": (
        "CircuitReport", "arithmetic_mean", "combinational_table", "duplication_table",
        "format_percentage", "format_savings", "format_table", "geometric_mean",
        "pipelining_table", "sequential_table",
    ),
})
