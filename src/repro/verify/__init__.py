"""Pulse-accurate verification: does the mapped netlist actually work?

The subsystem answers that question at three granularities:

* :func:`verify_result` — one synthesis result, one reproducible
  stimulus suite, one batched pulse-simulation run cross-checked against
  word-parallel golden AIG simulation, one machine-checkable
  :class:`VerificationVerdict` (counterexample pattern + first
  divergence net on failure);
* the ``verify`` **flow stage** (registered on import, see
  :mod:`repro.verify.flowstage`) — any composed
  :class:`~repro.core.flowgraph.Flow` can end in a verdict;
* :class:`VerificationSpec` **campaigns** — declarative, cacheable,
  picklable units scheduled across worker processes by
  :meth:`repro.eval.runner.Runner.campaign` (over a
  :class:`VerificationCampaign`) and surfaced as
  ``repro verify [--catalog|--circuit NAME]`` on the CLI.  The same
  spec and batch carry ``repro fuzz`` (:mod:`repro.gen`) and, with a
  fault scenario set, ``repro faults`` (:mod:`repro.faults`).

See ``docs/verification.md`` for the stimulus model, the batching
strategy and how to read counterexamples.
"""

from .._lazy import lazy_exports
from . import flowstage  # noqa: F401  - registers the 'verify' stage

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".stimulus": ("StimulusSuite", "stimulus_suite"),
    ".equivalence": (
        "Counterexample", "NetlistVerifier", "VerificationError", "VerificationVerdict",
        "verify_result",
    ),
    ".campaign": (
        "FlowUnit", "VerificationCampaign", "VerificationReport", "VerificationSpec",
        "catalog_specs", "render_verification_table",
        "verification_record",
    ),
})
