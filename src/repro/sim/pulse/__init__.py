"""Event-driven pulse-transfer-level simulation (the PyLSE role in the paper)."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".elements": (
        "DroCell", "DrocCell", "FaCell", "JtlCell", "LaCell", "MergerCell",
        "PulseElement", "SourceCell", "SplitterCell",
    ),
    ".reference": ("ReferencePulseSimulator",),
    ".simulator": ("PulseSimulator", "SimulationError", "total_events_processed"),
    ".xsfq_sim": (
        "BatchedNetlistSimulator", "XsfqSimulationResult", "build_simulator",
        "elaboration_count", "reference_start_state", "simulate_combinational",
        "simulate_sequential", "suggest_phase_period",
    ),
})
