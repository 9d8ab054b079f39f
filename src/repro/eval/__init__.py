"""Experiment harness reproducing every table and figure of the paper.

Two layers:

* :mod:`repro.eval.experiments` — the assemblers (``run_table4`` & co.),
  each of which enumerates declarative synthesis jobs and renders the
  paper-style table (:mod:`repro.eval.fixed` holds the ones that
  synthesise no catalogued circuit);
* :mod:`repro.eval.engine` / :mod:`repro.eval.runner` — the execution
  engine: content-addressed result cache, worker processes,
  the :data:`~repro.eval.runner.EXPERIMENTS` spec registry, and JSON/CSV
  emission behind the ``repro`` CLI (:mod:`repro.eval.cli`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".fixed": (
        "ExperimentResult", "full_adder_network", "run_table1", "run_table2", "run_figure1",
        "run_figure2_3", "run_figure4_5",
    ),
    ".experiments": (
        "TABLE3_CIRCUITS", "TABLE4_CIRCUITS", "counter_network", "run_table3", "run_table4",
        "run_table5", "run_table6", "run_figure7", "run_ablation", "run_headline",
    ),
    ".engine": (
        "ResultCache", "SynthesisEngine", "SynthesisJob", "synthesis_record",
        "get_default_engine", "set_default_engine", "use_engine",
    ),
    ".runner": (
        "EXPERIMENTS", "ExperimentCampaign", "ExperimentReport", "ExperimentSpec", "Runner",
        "render_stage_timings", "run_experiment", "write_csv",
    ),
})
__all__ = ["paper_data", *__all__]
