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
* :mod:`repro.faults.campaign` — :class:`FaultSpec` /
  :class:`FaultCampaign` / :class:`FaultReport`, scheduled by
  :meth:`repro.eval.runner.Runner.campaign` (over a
  :class:`FaultBatch`) and surfaced as the
  ``repro faults`` CLI subcommand with a ``repro-faults/1`` JSON
  report.

Everything is deterministic end to end: same campaign, same seeds —
byte-identical injections, margins, and report documents, across
processes and ``PYTHONHASHSEED`` values.
"""

from .campaign import (
    DEFAULT_FAULT_FLOWS,
    DEFAULT_FAULT_KINDS,
    FAULTS_SCHEMA,
    FaultBatch,
    FaultCampaign,
    FaultReport,
    FaultSpec,
    FaultUnit,
    fault_record,
    load_fault_report,
    render_fault_table,
)
from .margin import MARGIN_ITERATIONS, MarginResult, search_margin
from .models import DUP_SPACING, FaultModel, stream_seed
from .scenario import (
    FAULT_KINDS,
    FAULT_PREFIX,
    FaultKind,
    FaultScenario,
    default_scenario,
    fault_kind,
    fault_kind_names,
    is_fault_name,
    parse_fault_name,
)

__all__ = [
    "DEFAULT_FAULT_FLOWS",
    "DEFAULT_FAULT_KINDS",
    "DUP_SPACING",
    "FAULTS_SCHEMA",
    "FaultBatch",
    "FAULT_KINDS",
    "FAULT_PREFIX",
    "FaultCampaign",
    "FaultKind",
    "FaultModel",
    "FaultReport",
    "FaultScenario",
    "FaultSpec",
    "FaultUnit",
    "MARGIN_ITERATIONS",
    "MarginResult",
    "default_scenario",
    "fault_kind",
    "fault_kind_names",
    "fault_record",
    "is_fault_name",
    "load_fault_report",
    "parse_fault_name",
    "render_fault_table",
    "search_margin",
    "stream_seed",
]
