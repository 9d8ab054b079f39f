"""repro.exec — unified execution core for every campaign path.

One :class:`WorkUnit` lifecycle (dedupe → cache replay → execute →
schema-validate → cache put) over two executor backends — in-process
serial and supervised persistent workers, picked per batch from the
job count, the pending-unit count and the per-unit timeout — emitting
structured :class:`ExecEvent`\\ s instead of per-campaign progress
f-strings.  ``Runner.campaign`` and soak runs are thin compositions
over this package, and every campaign report extends
:class:`CampaignReport`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".events": ("EmitFn", "ExecEvent", "render_event"),
    ".executors": (
        "Executor", "PersistentWorkerExecutor", "SerialExecutor", "UnitResult",
        "execute_unit",
    ),
    ".lifecycle": ("ExecOutcome", "resolve_executor", "run_units"),
    ".report": ("CampaignReport", "error_detail"),
    ".units": ("ProbeUnit", "SpecUnit", "WorkUnit", "spec_units"),
})
