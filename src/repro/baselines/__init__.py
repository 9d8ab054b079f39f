"""Conventional clocked-RSFQ baseline flows (PBMap- and qSeq-style).

These flows rebuild the cost structure of the paper's comparison points:
every logic gate is clocked, reconvergent paths are balanced with DRO
cells, and the clock is distributed through splitter trees.  The
evaluation harness (:mod:`repro.eval`) synthesises every benchmark circuit
with both this baseline and the xSFQ flow and reports the JJ savings the
way the paper's Tables 4 and 6 do.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cells": (
        "CLOCK_SPLITTING_OVERHEAD", "RSFQ_SPECS", "RsfqCellKind", "RsfqCellSpec",
        "RsfqLibrary", "clock_splitter_count", "default_rsfq_library",
    ),
    ".path_balance": ("RsfqMappingResult", "map_rsfq_path_balanced"),
    ".flows": ("BaselineOptions", "pbmap_like", "qseq_like", "rsfq_clock_period_ps"),
})
