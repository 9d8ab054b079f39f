"""Performance harness: declarative benchmarks, BENCH_*.json, regression gates.

``repro bench`` (see :mod:`repro.eval.cli`) is the operator entry point;
this package holds the measurement machinery (:mod:`repro.perf.harness`)
and the registered workload suites (:mod:`repro.perf.suites`).  See
``docs/performance.md`` for the JSON schema and the regression workflow.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".harness": (
        "BENCH_SCHEMA", "BenchComparison", "BenchDelta", "BenchReport", "BenchResult",
        "BenchSpec", "RateDelta", "compare_reports", "load_bench", "render_comparison",
        "render_results_table", "run_spec", "run_suite",
    ),
    ".suites": ("SPECS", "SUITES", "suite_names", "suite_specs"),
})
