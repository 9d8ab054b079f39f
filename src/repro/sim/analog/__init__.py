"""Reduced analog (RCSJ phase-model) simulation and cell characterisation."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".rcsj": (
        "PHI0", "PHI0_BAR", "CurrentSource", "Inductor", "JjCircuit", "JjWaveforms",
        "Junction", "propagation_delay", "sfq_pulse_train",
    ),
    ".cells": ("AnalogCell", "drive", "droc_cell", "fa_cell", "jtl_chain", "la_cell"),
    ".characterize": (
        "CharacterizationResult", "characterization_report", "characterize_droc",
        "characterize_fa", "characterize_jtl", "characterize_la",
    ),
})
