"""Experiment harness reproducing every table and figure of the paper.

Two layers:

* :mod:`repro.eval.experiments` — the assemblers (``run_table4`` & co.),
  each of which enumerates declarative synthesis jobs and renders the
  paper-style table;
* :mod:`repro.eval.engine` / :mod:`repro.eval.runner` — the execution
  engine: content-addressed result cache, worker processes,
  the :data:`~repro.eval.runner.EXPERIMENTS` spec registry, and JSON/CSV
  emission behind the ``repro`` CLI (:mod:`repro.eval.cli`).
"""

from . import paper_data
from .engine import (
    ResultCache,
    SynthesisEngine,
    SynthesisJob,
    get_default_engine,
    set_default_engine,
    synthesis_record,
    use_engine,
)
from .experiments import (
    ExperimentResult,
    TABLE3_CIRCUITS,
    TABLE4_CIRCUITS,
    counter_network,
    full_adder_network,
    run_ablation,
    run_figure1,
    run_figure2_3,
    run_figure4_5,
    run_figure7,
    run_headline,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
)
from .runner import (
    EXPERIMENTS,
    ExperimentSpec,
    Runner,
    RunReport,
    render_stage_timings,
    run_experiment,
    write_csv,
    write_json,
)

__all__ = [
    "paper_data",
    "ExperimentResult",
    "TABLE3_CIRCUITS",
    "TABLE4_CIRCUITS",
    "full_adder_network",
    "counter_network",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_figure1",
    "run_figure2_3",
    "run_figure4_5",
    "run_figure7",
    "run_ablation",
    "run_headline",
    "ResultCache",
    "SynthesisEngine",
    "SynthesisJob",
    "synthesis_record",
    "get_default_engine",
    "set_default_engine",
    "use_engine",
    "EXPERIMENTS",
    "ExperimentSpec",
    "Runner",
    "RunReport",
    "render_stage_timings",
    "run_experiment",
    "write_json",
    "write_csv",
]
