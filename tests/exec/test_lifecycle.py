"""The shared lifecycle: dedupe, cache replay, error containment, healing."""

import pytest

from exec_fixtures import PoisonUnit
from repro.eval.engine import ResultCache
from repro.exec import ProbeUnit, SerialExecutor, resolve_executor, run_units
from repro.exec.executors import PersistentWorkerExecutor


def test_duplicate_keys_execute_once():
    units = [ProbeUnit(index=1), ProbeUnit(index=2), ProbeUnit(index=1)]
    events = []
    outcome = run_units(units, emit=events.append)
    assert outcome.computed == 2 and outcome.cached == 0
    assert len(outcome.records) == 2
    assert sum(1 for e in events if e.kind == "computed") == 2


def test_cache_replay_counts_and_events(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    units = [ProbeUnit(index=i) for i in range(3)]
    first = run_units(units, cache=cache)
    assert first.computed == 3 and first.cached == 0
    assert cache.stats() == {"hits": 0, "misses": 3, "puts": 3}

    events = []
    second = run_units(units, cache=cache, emit=events.append)
    assert second.computed == 0 and second.cached == 3
    assert [e.kind for e in events] == ["cached"] * 3
    assert second.records == first.records


def test_error_records_flow_into_the_outcome_but_not_the_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    units = [
        PoisonUnit(index=0),
        PoisonUnit(index=1, mode="raise"),
        PoisonUnit(index=2),
    ]
    outcome = run_units(units, cache=cache)
    # Campaign completed: every unit accounted for, exactly one error.
    assert len(outcome.records) == 3
    assert len(outcome.errors) == 1
    error = outcome.errors[0]
    assert error["status"] == "error"
    assert error["error"]["type"] == "RuntimeError"
    # Only the two healthy records were cached.
    assert cache.stats()["puts"] == 2
    assert cache.get(units[1]) is None


def test_rerun_heals_errors_from_fresh_computation(tmp_path):
    """Acceptance: an injected crash leaves exactly one error unit; the
    rerun recomputes only that unit and replays the rest from cache."""
    cache = ResultCache(tmp_path / "cache")
    marker = str(tmp_path / "crashed-once")
    units = [
        PoisonUnit(index=0),
        # raise-mode fails deterministically on run 1; flipping the mode
        # is not possible on a frozen unit, so use crash_once semantics
        # via the marker file: hard-crash first execution, succeed after.
        PoisonUnit(index=1, mode="crash_once", marker=marker),
        PoisonUnit(index=2),
    ]
    first = run_units(
        units,
        cache=cache,
        executor=PersistentWorkerExecutor(jobs=1, retries=0),
    )
    assert len(first.errors) == 1
    healthy_paths = {
        cache._path(units[0].key()): cache._path(units[0].key()).stat().st_mtime_ns,
        cache._path(units[2].key()): cache._path(units[2].key()).stat().st_mtime_ns,
    }

    second = run_units(
        units,
        cache=cache,
        executor=PersistentWorkerExecutor(jobs=1, retries=0),
    )
    assert second.errors == []
    assert second.cached == 2 and second.computed == 1
    assert second.records[units[1].key()]["status"] == "ok"
    # Cached records were untouched (not rewritten) by the healing rerun.
    for path, mtime in healthy_paths.items():
        assert path.stat().st_mtime_ns == mtime


def test_result_cache_refuses_error_records(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    unit = ProbeUnit(index=0)
    with pytest.raises(ValueError, match="status='error'"):
        cache.put(unit, {"status": "error", "error": {"type": "X"}})


def test_an_executor_instance_is_used_but_not_closed():
    executor = SerialExecutor()
    closed = []
    executor.close = lambda: closed.append(True)  # type: ignore[method-assign]
    outcome = run_units([ProbeUnit(index=0)], executor=executor)
    assert outcome.computed == 1
    assert closed == []


def test_resolve_executor_picks_backend_from_jobs_and_timeout():
    # One job or one pending unit stays in-process ...
    assert isinstance(resolve_executor(1, 10), SerialExecutor)
    assert isinstance(resolve_executor(4, 1), SerialExecutor)
    # ... anything parallel, or anything with a timeout, is supervised.
    workers = resolve_executor(8, 3)
    assert isinstance(workers, PersistentWorkerExecutor)
    assert workers.jobs == 3 and workers.timeout is None
    timed = resolve_executor(1, 1, unit_timeout=2.0)
    assert isinstance(timed, PersistentWorkerExecutor)
    assert timed.jobs == 1 and timed.timeout == 2.0


def test_schedule_event_only_for_parallel_batches():
    events = []
    run_units(
        [ProbeUnit(index=i) for i in range(3)],
        jobs=2,
        emit=events.append,
        noun="verification",
    )
    schedules = [e for e in events if e.kind == "schedule"]
    assert len(schedules) == 1
    assert schedules[0].total == 3 and schedules[0].detail == "2"

    events.clear()
    run_units(
        [ProbeUnit(index=i) for i in range(3)],
        jobs=1,
        emit=events.append,
    )
    assert [e.kind for e in events] == ["computed"] * 3
