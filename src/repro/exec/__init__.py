"""repro.exec — unified execution core for every campaign path.

One :class:`WorkUnit` lifecycle (dedupe → cache replay → execute →
schema-validate → cache put) over two executor backends — in-process
serial and supervised persistent workers, picked per batch from the
job count, the pending-unit count and the per-unit timeout — emitting
structured :class:`ExecEvent`\\ s instead of per-campaign progress
f-strings.  ``Runner.run`` / ``campaign`` / ``soak`` and the perf
harness are thin compositions over this package.
"""

from .events import EmitFn, ExecEvent, render_event
from .executors import (
    Executor,
    PersistentWorkerExecutor,
    SerialExecutor,
    UnitResult,
    execute_unit,
)
from .lifecycle import ExecOutcome, resolve_executor, run_units
from .units import CallableUnit, ProbeUnit, SpecUnit, WorkUnit, spec_units

__all__ = [
    "ExecEvent",
    "EmitFn",
    "render_event",
    "WorkUnit",
    "SpecUnit",
    "CallableUnit",
    "ProbeUnit",
    "spec_units",
    "Executor",
    "SerialExecutor",
    "PersistentWorkerExecutor",
    "UnitResult",
    "execute_unit",
    "ExecOutcome",
    "resolve_executor",
    "run_units",
]
