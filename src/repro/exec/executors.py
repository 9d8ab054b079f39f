"""Executor backends: in-process serial and supervised persistent workers.

Both backends share one contract — ``map(units)`` yields a
:class:`UnitResult` per unit **in submission order**, and ``close()``
(or leaving the ``with`` block, on *any* exit path including
``KeyboardInterrupt``) terminates and joins every worker process.
Failures never escape ``map`` as exceptions: a unit that raises, times
out, or takes its worker down with it resolves to a result whose
``error`` field is populated, so a campaign always runs to completion
and reports per-unit outcomes instead of aborting mid-flight.

Backends (:func:`repro.exec.resolve_executor` picks one from ``jobs``,
the pending-unit count and the per-unit timeout):

:class:`SerialExecutor`
    In-process loop; exceptions are still captured as error results
    for lifecycle uniformity.

:class:`PersistentWorkerExecutor`
    Long-lived worker processes with per-unit timeouts and crash
    isolation: a worker that dies mid-unit is respawned and the unit
    retried with bounded backoff; on exhaustion (or timeout, which is
    never retried — the same unit would just time out again) the unit
    resolves to an error result.  Each worker owns one duplex pipe and
    runs one unit at a time; the parent hands an idle worker its next
    unit before it records the results it just received.
"""

from __future__ import annotations

import collections
import multiprocessing
import signal
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from .events import EmitFn, ExecEvent
from .units import WorkUnit

if TYPE_CHECKING:  # imported lazily: it costs every CLI start a few ms
    from multiprocessing.connection import Connection

__all__ = [
    "UnitResult",
    "Executor",
    "SerialExecutor",
    "PersistentWorkerExecutor",
    "execute_unit",
]


@dataclass
class UnitResult:
    """Outcome of executing one work unit.

    Attributes:
        index: Submission position (results are yielded in this order).
        unit: The unit that ran.
        record: The computed record, or ``None`` on failure.
        seconds: Wall-clock seconds spent executing (includes the failed
            attempt for errors; excludes queueing/backoff).
        cpu_s: Process CPU seconds for the same span (worker backends
            report the worker's own measurement).
        error: ``None`` on success, else ``{"type", "message",
            "traceback"}`` describing why the unit failed.
        attempts: Execution attempts consumed (> 1 after crash retries).
    """

    index: int
    unit: WorkUnit
    record: Optional[Dict[str, object]]
    seconds: float = 0.0
    cpu_s: float = 0.0
    error: Optional[Dict[str, str]] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


def execute_unit(
    unit: WorkUnit,
) -> Tuple[Optional[Dict[str, object]], float, float, Optional[Dict[str, str]]]:
    """Run one unit, capturing any exception as structured error info.

    This is the single execution wrapper both backends funnel through
    (in-process for serial, inside the worker for persistent workers),
    so timing and error capture are identical everywhere.
    """
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        record = unit.run()
        error = None
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - captured, reported per unit
        record = None
        error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }
    return record, time.perf_counter() - start, time.process_time() - cpu_start, error


class Executor:
    """Backend interface: ``map`` + guaranteed-cleanup ``close``."""

    #: Optional structured-event sink (set by the lifecycle) for
    #: supervision events (retry/respawn/timeout) that happen *during*
    #: ``map`` rather than per finished unit.
    emit: Optional[EmitFn] = None

    def map(self, units: Sequence[WorkUnit]) -> Iterator[UnitResult]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - overridden where stateful
        pass

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _note(self, event: ExecEvent) -> None:
        if self.emit is not None:
            self.emit(event)


class SerialExecutor(Executor):
    """Run every unit in-process, in order."""

    def map(self, units: Sequence[WorkUnit]) -> Iterator[UnitResult]:
        for index, unit in enumerate(units):
            record, seconds, cpu_s, error = execute_unit(unit)
            yield UnitResult(
                index=index,
                unit=unit,
                record=record,
                seconds=seconds,
                cpu_s=cpu_s,
                error=error,
            )


def _worker_main(conn: Connection) -> None:
    """Persistent worker loop: run units off the pipe until ``None``.

    Ctrl-C is left to the parent.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            unit = conn.recv()
        except EOFError:  # the parent is gone
            return
        if unit is None:
            return
        conn.send(execute_unit(unit))


@dataclass
class _Task:
    """A unit awaiting (or in) execution; ``attempt`` counts crash retries."""

    index: int
    unit: WorkUnit
    attempt: int = 1


def _failed(task: _Task, kind: str, message: str, seconds: float = 0.0) -> UnitResult:
    """Error result for a unit its worker could not finish."""
    error = {"type": kind, "message": message, "traceback": ""}
    return UnitResult(task.index, task.unit, None, seconds, error=error, attempts=task.attempt)


@dataclass
class _Worker:
    """Parent-side handle for one persistent worker process."""

    process: multiprocessing.Process
    conn: Connection
    #: The unit it is running (``None``: idle).
    task: Optional[_Task] = None
    #: When that unit overruns the per-unit timeout (``None``: never).
    deadline: Optional[float] = None


class PersistentWorkerExecutor(Executor):
    """Long-lived supervised workers: timeout, crash isolation, retry.

    Args:
        jobs: Worker-process count (capped at the unit count per map).
        timeout: Per-unit wall-clock budget in seconds; an overrunning
            unit's worker is killed and the unit resolves to a timeout
            error **without retry**.  ``None`` disables the deadline.
        retries: Crash retries per unit: a unit whose worker dies is
            re-enqueued (after ``backoff_s * attempt``) up to this many
            extra times before it resolves to a crash error.
        backoff_s: Base backoff between crash retries.
    """

    def __init__(
        self,
        jobs: int,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff_s: float = 0.05,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self._workers: List[_Worker] = []

    # -- worker management -------------------------------------------------
    def _spawn_worker(self) -> _Worker:
        conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=conn)

    @staticmethod
    def _kill_worker(worker: _Worker) -> None:
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - hard hang
                worker.process.kill()
                worker.process.join(timeout=1.0)
        worker.conn.close()

    def _replace(self, slot: int) -> None:
        """Swap the worker in ``slot`` for a fresh one; the caller
        settles the unit it was running."""
        self._kill_worker(self._workers[slot])
        fresh = self._spawn_worker()
        self._workers[slot] = fresh
        self._note(ExecEvent(kind="respawn", detail=str(fresh.process.pid)))

    def _deadline(self) -> Optional[float]:
        return None if self.timeout is None else time.monotonic() + self.timeout

    # -- supervision loop ---------------------------------------------------
    def map(self, units: Sequence[WorkUnit]) -> Iterator[UnitResult]:
        if not units:
            return
        count = min(self.jobs, len(units))
        self._workers = [self._spawn_worker() for _ in range(count)]
        pending: Deque[_Task] = collections.deque(
            _Task(index, unit) for index, unit in enumerate(units)
        )
        resolved: Dict[int, UnitResult] = {}
        next_yield = 0
        try:
            self._dispatch(pending)
            while next_yield < len(units):
                for result in self._collect(pending, len(units)):
                    resolved[result.index] = result
                # Refill before the caller spends time on the results.
                self._dispatch(pending)
                while next_yield in resolved:
                    yield resolved.pop(next_yield)
                    next_yield += 1
        finally:
            self.close()

    def _dispatch(self, pending: Deque[_Task]) -> None:
        """Hand every idle worker the next pending unit."""
        for slot, worker in enumerate(self._workers):
            if not pending:
                return
            if worker.task is not None:
                continue
            if not worker.process.is_alive():
                self._replace(slot)
                worker = self._workers[slot]
            worker.task = pending.popleft()
            worker.deadline = self._deadline()
            try:
                worker.conn.send(worker.task.unit)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the worker just died; _collect sees its sentinel

    def _collect(self, pending: Deque[_Task], total: int) -> List[UnitResult]:
        """Block until a worker answers, dies or overruns; resolve what did."""
        from multiprocessing.connection import wait

        busy = [w for w in self._workers if w.task is not None]
        deadlines = [w.deadline for w in busy if w.deadline is not None]
        timeout = max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
        wait([w.conn for w in busy] + [w.process.sentinel for w in busy], timeout)
        results: List[UnitResult] = []
        for slot, worker in enumerate(self._workers):
            task = worker.task
            if task is None:
                continue
            answer = self._receive(worker)
            if answer is not None:
                worker.task = None
                record, seconds, cpu_s, error = answer
                results.append(
                    UnitResult(task.index, task.unit, record, seconds, cpu_s, error, task.attempt)
                )
                continue
            if not worker.process.is_alive():
                failure = self._crashed(task, worker.process.exitcode)
            elif worker.deadline is not None and time.monotonic() > worker.deadline:
                failure = self._timed_out(task, total)
            else:
                continue
            self._replace(slot)
            if failure is None:
                pending.appendleft(_Task(task.index, task.unit, task.attempt + 1))
            else:
                results.append(failure)
        return results

    @staticmethod
    def _receive(worker: _Worker) -> Optional[Tuple]:
        """The answer waiting in ``worker``'s pipe, if there is one."""
        try:
            return worker.conn.recv() if worker.conn.poll() else None
        except (EOFError, OSError):
            return None  # the worker died; _collect checks its liveness next

    def _crashed(self, task: _Task, exitcode: Optional[int]) -> Optional[UnitResult]:
        """The crash error for ``task``, or ``None`` (after backoff) to retry it."""
        if task.attempt <= self.retries:
            self._note(
                ExecEvent(
                    kind="retry",
                    description=task.unit.describe(),
                    unit_key=task.unit.key(),
                    attempt=task.attempt + 1,
                    detail=f"worker died with exit code {exitcode}",
                )
            )
            time.sleep(self.backoff_s * task.attempt)
            return None
        return _failed(
            task, "WorkerCrash",
            f"worker died with exit code {exitcode} ({task.attempt} attempts)",
        )

    def _timed_out(self, task: _Task, total: int) -> UnitResult:
        """The timeout error for ``task`` (never retried)."""
        seconds = float(self.timeout or 0.0)
        self._note(
            ExecEvent(
                kind="timeout",
                description=task.unit.describe(),
                unit_key=task.unit.key(),
                index=task.index + 1,
                total=total,
                seconds=seconds,
            )
        )
        return _failed(
            task, "Timeout",
            f"unit exceeded the {self.timeout}s per-unit timeout and was killed",
            seconds,
        )

    def close(self) -> None:
        # Idle workers exit on the ``None`` sentinel; busy ones (an
        # interrupted map) are terminated straight away.
        for worker in self._workers:
            if worker.task is None:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
                worker.process.join(timeout=0.5)
            self._kill_worker(worker)
        self._workers = []
