"""The one execution lifecycle every campaign path runs through.

:func:`run_units` is the shared pipeline behind ``Runner.campaign``
(every ``repro run``/``verify``/``fuzz``/``faults`` campaign) and the
soak batch loop:

    dedupe by key → cache replay → execute → cache put

with one :class:`~repro.exec.events.ExecEvent` emitted per scheduling
decision.  Schema validation rides the cache boundary exactly as
before: :meth:`ResultCache.put` packs records through the
``repro.schema`` envelope (rejecting non-wire-safe values) and
:meth:`ResultCache.get` validates/migrates/quarantines on the way back
in.

Failure containment: a unit whose execution fails — worker exception,
crash, timeout — resolves to a ``status: "error"`` record that carries
the unit's own identity payload plus structured error info.  Error
records flow into the campaign report (so a run always completes and
accounts for every unit) but are **never** written to the result cache,
so a rerun recomputes exactly the failed units from scratch while
replaying every healthy record from cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from .events import EmitFn, ExecEvent
from .executors import Executor, PersistentWorkerExecutor, SerialExecutor, UnitResult
from .units import WorkUnit

__all__ = ["ExecOutcome", "resolve_executor", "run_units"]


@dataclass
class ExecOutcome:
    """Everything one :func:`run_units` invocation resolved.

    Attributes:
        records: Final record per unit key — cache replays, fresh
            computations, and ``status: "error"`` placeholders alike.
        fresh: Keys of the records computed this run (cache replays and
            error units are absent).
        computed: Units executed this run (cache misses, incl. errors).
        cached: Units replayed from the result cache.
        errors: The ``status: "error"`` records, in completion order.
    """

    records: Dict[str, Dict[str, object]] = field(default_factory=dict)
    fresh: Set[str] = field(default_factory=set)
    computed: int = 0
    cached: int = 0
    errors: List[Dict[str, object]] = field(default_factory=list)


def resolve_executor(
    jobs: int, pending: int, unit_timeout: Optional[float] = None
) -> Executor:
    """Pick the backend for a batch of ``pending`` units.

    A single job or a single pending unit runs in-process, unless a
    per-unit timeout was asked for: only supervised workers can enforce
    one.  Everything else runs on supervised workers, so timeouts and
    crash isolation are the default for parallel batches.
    """
    if unit_timeout is None and (jobs == 1 or pending <= 1):
        return SerialExecutor()
    return PersistentWorkerExecutor(
        min(max(1, jobs), max(1, pending)), timeout=unit_timeout
    )


def _error_record(result: UnitResult) -> Dict[str, object]:
    """Build the ``status: "error"`` placeholder for a failed unit."""
    record: Dict[str, object] = {}
    spec = getattr(result.unit, "spec", None)
    if spec is not None and hasattr(spec, "to_dict"):
        record.update(spec.to_dict())
    record["status"] = "error"
    record["error"] = dict(result.error or {})
    record["attempts"] = result.attempts
    return record


def run_units(
    units: Sequence[WorkUnit],
    cache=None,
    executor: Optional[Executor] = None,
    jobs: int = 1,
    emit: Optional[EmitFn] = None,
    verb: str = "verified",
    noun: str = "verification",
    unit_timeout: Optional[float] = None,
) -> ExecOutcome:
    """Run a unit batch through the shared lifecycle.

    Args:
        units: Work units in campaign order (duplicates by key are
            executed once; every occurrence resolves to the one record).
        cache: Optional :class:`~repro.eval.engine.ResultCache`.
        executor: A ready :class:`Executor` instance, used as-is and
            left open for its owner.  ``None`` (the default) lets
            :func:`resolve_executor` pick one from ``jobs``, the pending
            count and ``unit_timeout``; that one is closed on every exit
            path.
        jobs: Worker width when the backend is picked here.
        emit: Structured-event sink (``None`` drops events).
        verb: Past-tense verb for per-unit ``computed`` events.
        noun: Job noun for the batch ``schedule`` event
            (``"verification"``, ``"synthesis"``).
        unit_timeout: Per-unit wall-clock budget in seconds when the
            backend is picked here (selects supervised workers).

    Returns:
        An :class:`ExecOutcome`; ``records`` covers every distinct key.
    """
    note: EmitFn = emit if emit is not None else (lambda event: None)
    outcome = ExecOutcome()
    pending: List[WorkUnit] = []
    seen = set()
    for unit in units:
        key = unit.key()
        if key in seen:
            continue
        seen.add(key)
        cached = cache.get(unit) if cache is not None else None
        if cached is not None:
            outcome.records[key] = dict(cached)
            note(
                ExecEvent(
                    kind="cached", description=unit.describe(), unit_key=key
                )
            )
        else:
            pending.append(unit)

    outcome.computed = len(pending)
    outcome.cached = len(seen) - len(pending)
    if not pending:
        return outcome

    if executor is not None:
        backend, owned = executor, False
    else:
        backend = resolve_executor(jobs, len(pending), unit_timeout)
        owned = True
    backend.emit = note
    if not isinstance(backend, SerialExecutor) and len(pending) > 1:
        note(
            ExecEvent(
                kind="schedule",
                description=noun,
                total=len(pending),
                detail=str(jobs),
            )
        )
    try:
        for result in backend.map(pending):
            unit = result.unit
            key = unit.key()
            index = result.index + 1
            if result.error is not None:
                record = _error_record(result)
                outcome.records[key] = record
                outcome.errors.append(record)
                note(
                    ExecEvent(
                        kind="error",
                        description=unit.describe(),
                        unit_key=key,
                        index=index,
                        total=len(pending),
                        status="error",
                        seconds=result.seconds,
                        attempt=result.attempts,
                        detail=(
                            f"{record['error'].get('type', 'Error')}: "
                            f"{record['error'].get('message', '')}"
                        ),
                    )
                )
                continue
            record = dict(result.record or {})
            outcome.records[key] = record
            outcome.fresh.add(key)
            if cache is not None:
                cache.put(unit, record)
            note(
                ExecEvent(
                    kind="computed",
                    description=unit.describe(),
                    unit_key=key,
                    index=index,
                    total=len(pending),
                    status=str(record.get("status") or ""),
                    seconds=result.seconds,
                    attempt=result.attempts,
                    verb=verb,
                )
            )
    finally:
        if owned:
            backend.close()
    return outcome
