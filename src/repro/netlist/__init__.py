"""Technology-independent gate-level netlists and file-format front ends.

This package is the framework's replacement for the netlist layer of the
Yosys/ABC flow used in the paper: circuits enter the flow as
:class:`~repro.netlist.network.LogicNetwork` objects — built procedurally
(:class:`~repro.netlist.network.NetworkBuilder`), generated from the RTL eDSL
(:mod:`repro.rtl`), or parsed from ISCAS ``.bench``, BLIF, or structural
Verilog files — and are then converted to AND-Inverter graphs for
optimisation and mapping.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".network": (
        "COMBINATIONAL_TYPES", "Gate", "GateType", "LogicNetwork", "NetworkBuilder",
        "NetworkError",
    ),
    ".bench": ("parse_bench", "read_bench", "save_bench", "write_bench"),
    ".blif": ("parse_blif", "read_blif", "save_blif", "write_blif"),
    ".verilog": ("parse_verilog", "read_verilog", "save_verilog", "write_verilog"),
    ".truth": (
        "format_truth_table", "input_assignment", "networks_equivalent",
        "sequential_traces_equal", "truth_tables",
    ),
})
