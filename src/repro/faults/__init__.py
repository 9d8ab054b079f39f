"""Fault injection and robustness analysis for xSFQ pulse simulation.

The paper's synthesis flow is only as credible as its timing slack:
xSFQ logic encodes bits as *pulse presence within a synchronous phase
window*, so a dropped pulse, a spurious echo, late arrival jitter, or
skew between the excite and relax phases each translate directly into
decoded-value corruption.  This subpackage measures that robustness:

* :mod:`repro.faults.models` — :class:`FaultModel`, the seeded,
  PYTHONHASHSEED-stable perturbation hooked into the event loop of
  :class:`repro.sim.pulse.PulseSimulator` (drop / dup / jitter) and the
  stimulus builder of
  :class:`repro.sim.pulse.BatchedNetlistSimulator` (skew);
* :mod:`repro.faults.scenario` — :class:`FaultScenario`, the canonical
  ``fault:<kind>:<k=v,...>:s<seed>`` identity grammar (the ``gen:``
  analogue for faults);
* :mod:`repro.faults.margin` — deterministic bisection for the largest
  tolerated fault magnitude;
* :mod:`repro.faults.campaign` — :class:`FaultCampaign` /
  :class:`FaultReport` and the :func:`fault_record` worker entry,
  whose units are :class:`~repro.verify.VerificationSpec` objects with a
  scenario set, scheduled by :meth:`repro.eval.runner.Runner.campaign`
  (over a :class:`~repro.verify.VerificationCampaign`) and surfaced as
  the ``repro faults`` CLI subcommand with a ``repro-faults/1`` JSON
  report.

Everything is deterministic end to end: same campaign, same seeds —
byte-identical injections, margins, and report documents, across
processes and ``PYTHONHASHSEED`` values.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".campaign": (
        "DEFAULT_FAULT_FLOWS", "DEFAULT_FAULT_KINDS", "FAULTS_SCHEMA", "FaultCampaign",
        "FaultReport", "fault_record", "load_fault_report",
    ),
    ".margin": ("MARGIN_ITERATIONS", "MarginResult", "search_margin"),
    ".models": ("DUP_SPACING", "FaultModel", "stream_seed"),
    ".scenario": (
        "FAULT_KINDS", "FAULT_PREFIX", "FaultKind", "FaultScenario", "default_scenario",
        "fault_kind", "fault_kind_names", "is_fault_name", "parse_fault_name",
    ),
})
