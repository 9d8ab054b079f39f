"""Executor backends: result equality, crash isolation, timeout, cleanup."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from exec_fixtures import PoisonUnit
from repro.exec import (
    ExecEvent,
    PersistentWorkerExecutor,
    ProbeUnit,
    SerialExecutor,
)


def _results(executor, units):
    with executor:
        return list(executor.map(units))


def _records(executor, units):
    return [r.record for r in _results(executor, units)]


# ---------------------------------------------------------------------------
# Equality across backends
# ---------------------------------------------------------------------------


def test_all_backends_produce_identical_records_in_order():
    units = [ProbeUnit(index=i, spin=100) for i in range(8)]
    serial = _records(SerialExecutor(), units)
    workers = _records(PersistentWorkerExecutor(jobs=3), units)
    assert serial == workers
    assert [r["index"] for r in serial] == list(range(8))


def test_backends_yield_results_in_submission_order():
    # Give the first unit more work so later ones finish first on the
    # workers; results must still come back in submission order.
    units = [PoisonUnit(index=0, mode="sleep", sleep_s=0.3)] + [
        ProbeUnit(index=i) for i in range(1, 5)
    ]
    executor = PersistentWorkerExecutor(jobs=4)
    assert [r.index for r in _results(executor, units)] == list(range(5))


def test_empty_unit_list_is_a_no_op():
    for executor in (SerialExecutor(), PersistentWorkerExecutor(jobs=2)):
        assert _results(executor, []) == []


# ---------------------------------------------------------------------------
# Exception containment
# ---------------------------------------------------------------------------


def test_serial_captures_exceptions_as_error_results():
    results = _results(SerialExecutor(), [PoisonUnit(index=0, mode="raise")])
    assert results[0].record is None
    assert results[0].error["type"] == "RuntimeError"
    assert "poisoned unit 0" in results[0].error["message"]
    assert "Traceback" in results[0].error["traceback"]


def test_worker_exception_does_not_abort_the_batch():
    units = [
        PoisonUnit(index=0),
        PoisonUnit(index=1, mode="raise"),
        PoisonUnit(index=2),
    ]
    results = _results(PersistentWorkerExecutor(jobs=2), units)
    assert [r.ok for r in results] == [True, False, True]
    assert results[1].error["type"] == "RuntimeError"
    assert results[0].record["status"] == "ok"
    assert results[2].record["status"] == "ok"


# ---------------------------------------------------------------------------
# Crash isolation (workers backend)
# ---------------------------------------------------------------------------


def test_worker_crash_is_isolated_and_batch_completes():
    units = [
        PoisonUnit(index=0),
        PoisonUnit(index=1, mode="exit"),
        PoisonUnit(index=2),
    ]
    executor = PersistentWorkerExecutor(jobs=2, backoff_s=0.01)
    results = _results(executor, units)
    assert [r.ok for r in results] == [True, False, True]
    assert results[1].error["type"] == "WorkerCrash"
    assert "exit code 3" in results[1].error["message"]


def test_crash_retry_exhaustion_counts_attempts():
    executor = PersistentWorkerExecutor(jobs=1, retries=2, backoff_s=0.01)
    results = _results(executor, [PoisonUnit(index=0, mode="exit")])
    assert results[0].error["type"] == "WorkerCrash"
    assert results[0].attempts == 3  # initial + 2 retries


def test_crash_once_unit_heals_on_respawned_worker(tmp_path):
    marker = str(tmp_path / "crashed-once")
    events = []
    executor = PersistentWorkerExecutor(jobs=1, backoff_s=0.01)
    executor.emit = events.append
    results = _results(executor, [PoisonUnit(index=0, mode="crash_once", marker=marker)])
    assert results[0].ok
    assert results[0].record["status"] == "ok"
    assert results[0].attempts == 2
    kinds = [e.kind for e in events]
    assert "respawn" in kinds and "retry" in kinds


def test_crash_keeps_earlier_results_and_charges_only_its_unit():
    # Unit 4 hard-exits the worker right after unit 3's result was sent.
    units = [PoisonUnit(index=i) for i in range(4)]
    units += [PoisonUnit(index=4, mode="exit"), PoisonUnit(index=5)]
    executor = PersistentWorkerExecutor(jobs=1, retries=0)
    results = _results(executor, units)
    assert [r.ok for r in results] == [True] * 4 + [False, True]
    assert [r.record["index"] for r in results if r.ok] == [0, 1, 2, 3, 5]
    assert results[4].error["type"] == "WorkerCrash"
    # Only the crashing unit was charged an attempt.
    assert [r.attempts for r in results] == [1] * 6


def test_unit_after_a_crash_is_not_charged_an_attempt():
    units = [PoisonUnit(index=0, mode="exit"), PoisonUnit(index=1)]
    executor = PersistentWorkerExecutor(jobs=1, retries=1, backoff_s=0.01)
    results = _results(executor, units)
    assert results[0].error["type"] == "WorkerCrash"
    assert results[0].attempts == 2
    assert results[1].ok and results[1].attempts == 1


def test_zero_retries_fails_on_first_crash(tmp_path):
    marker = str(tmp_path / "crashed-once")
    executor = PersistentWorkerExecutor(jobs=1, retries=0, backoff_s=0.01)
    results = _results(executor, [PoisonUnit(index=0, mode="crash_once", marker=marker)])
    assert not results[0].ok
    assert results[0].attempts == 1


# ---------------------------------------------------------------------------
# Timeout
# ---------------------------------------------------------------------------


def test_timeout_kills_the_unit_without_retry():
    units = [PoisonUnit(index=0), PoisonUnit(index=1, mode="sleep", sleep_s=30.0)]
    executor = PersistentWorkerExecutor(jobs=2, timeout=0.5)
    started = time.monotonic()
    results = _results(executor, units)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    assert results[0].ok
    assert results[1].error["type"] == "Timeout"
    assert results[1].attempts == 1


def test_each_unit_deadline_starts_when_the_unit_starts():
    # Each slow unit takes ~60% of the budget on one worker, so a
    # deadline counted from an earlier unit's start would kill unit 3.
    units = [PoisonUnit(index=i) for i in range(2)]
    units += [PoisonUnit(index=i, mode="sleep", sleep_s=0.6) for i in (2, 3)]
    executor = PersistentWorkerExecutor(jobs=1, timeout=1.0)
    results = _results(executor, units)
    assert [r.ok for r in results] == [True] * 4


def test_timeout_emits_a_structured_event():
    events = []
    executor = PersistentWorkerExecutor(jobs=1, timeout=0.3)
    executor.emit = events.append
    _results(executor, [PoisonUnit(index=0, mode="sleep", sleep_s=30.0)])
    assert any(e.kind == "timeout" for e in events)
    assert all(isinstance(e, ExecEvent) for e in events)


# ---------------------------------------------------------------------------
# Cleanup discipline
# ---------------------------------------------------------------------------


def test_close_terminates_workers_on_early_exit():
    executor = PersistentWorkerExecutor(jobs=2)
    iterator = executor.map([ProbeUnit(index=i) for i in range(4)])
    next(iterator)
    pids = [w.process.pid for w in executor._workers]
    assert pids
    executor.close()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if all(not _pid_alive(pid) for pid in pids):
            break
        time.sleep(0.05)
    assert all(not _pid_alive(pid) for pid in pids)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


@pytest.mark.parametrize("backend", ["workers"])
def test_sigint_mid_campaign_leaves_no_worker_processes(backend, tmp_path):
    """Signal injection: Ctrl-C mid-campaign must not orphan workers.

    A child interpreter starts a slow campaign on the supervised
    workers, reports their PIDs, and gets SIGINT mid-flight; every
    worker PID must be gone afterwards.
    """
    script = textwrap.dedent(
        """
        import json, multiprocessing, sys, threading, time
        sys.path.insert(0, {fixture_dir!r})
        from exec_fixtures import PoisonUnit
        from repro.exec import PersistentWorkerExecutor

        executor = PersistentWorkerExecutor(jobs=2)
        units = [PoisonUnit(index=i, mode="sleep", sleep_s=30.0) for i in range(4)]

        def report_pids():
            # The map generator spawns workers on first next(); sample the
            # children once they exist, while the main thread is blocked.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                children = [p.pid for p in multiprocessing.active_children()]
                if children:
                    time.sleep(0.5)  # let them pick up units
                    children = [p.pid for p in multiprocessing.active_children()]
                    print(json.dumps(children), flush=True)
                    return
                time.sleep(0.05)
            print(json.dumps([]), flush=True)

        threading.Thread(target=report_pids, daemon=True).start()
        try:
            with executor:
                for result in executor.map(units):
                    pass
        except KeyboardInterrupt:
            print("INTERRUPTED", flush=True)
        """
    ).format(fixture_dir=os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline().strip()
        import json

        pids = json.loads(line)
        assert pids, "campaign spawned no workers"
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert "INTERRUPTED" in out, (out, err)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if all(not _pid_alive(pid) for pid in pids):
            break
        time.sleep(0.05)
    assert all(not _pid_alive(pid) for pid in pids), f"orphaned workers: {pids}"
