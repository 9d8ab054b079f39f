"""AND-Inverter graphs and logic optimisation (the framework's "ABC").

The paper's key enabler is that dual-rail xSFQ netlists are isomorphic to
AIGs, so standard AIG optimisation directly minimises LA/FA cell count.
This package provides the AIG data structure, the optimisation passes
(balance / rewrite / refactor / cleanup), SAT-based equivalence checking,
bit-parallel simulation, and the pipelining/retiming helpers used by the
sequential xSFQ flow.
"""

from .._lazy import lazy_exports
# Eager: importing the submodule would bind ``repro.aig.balance`` to it, not the pass.
from .balance import balance

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".graph": (
        "FALSE", "TRUE", "Aig", "AigError", "Latch", "NodeType", "lit_is_complemented",
        "lit_node", "lit_not", "lit_regular", "make_lit",
    ),
    ".convert": ("aig_to_network", "network_to_aig"),
    ".balance": ("balance",),
    ".rework": ("refactor", "rewrite"),
    ".scripts": (
        "DEFAULT_SCRIPT", "PASSES", "OptimizationReport", "optimize",
        "optimize_with_report", "register_pass", "run_script",
    ),
    ".simulate": (
        "cone_truth_table", "exhaustive_truth_tables", "output_signatures",
        "simulate_patterns", "simulate_patterns_reference", "simulate_random",
    ),
    ".cec": ("CecResult", "assert_equivalent", "check_equivalence"),
    ".cuts": ("enumerate_cuts", "reconvergence_cut"),
    ".retime": (
        "cut_signals", "insert_pipeline_registers", "level_cut", "max_stage_depth",
        "stage_assignment", "stage_thresholds",
    ),
    ".sat": ("SatSolver",),
})
