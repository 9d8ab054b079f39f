"""Benchmark circuit generators (ISCAS85-, EPFL- and ISCAS89-class).

The original benchmark netlists are not redistributable, so this package
generates functionally analogous circuits with matching interfaces (see
DESIGN.md).  :mod:`repro.circuits.registry` maps every benchmark name used
in the paper's tables to a generator with both "paper" and "quick" scale
parameter sets.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".arith": (
        "adder_comparator", "alu", "array_multiplier", "equality_comparator",
        "priority_interrupt_controller", "ripple_carry_adder",
    ),
    ".ecc": ("hamming_corrector", "hamming_encoder", "sec_ded_checker"),
    ".epfl": (
        "binary_decoder", "cavlc_decoder", "i2c_control_slice", "int_to_float",
        "majority_voter", "memory_controller", "packet_router", "priority_encoder",
        "round_robin_arbiter", "simple_controller", "sine_approximation",
    ),
    ".sequential": (
        "datapath_controller", "fractional_counter", "multiplier_control_unit",
        "pld_state_machine", "s27_like", "sequence_detector",
        "traffic_light_controller",
    ),
    ".registry": ("CATALOG", "CircuitInfo", "build", "info", "names"),
})
