"""Runner/engine tests: cache behaviour, parallel-serial equality, emission."""

import json

import pytest

from repro.core import Flow, FlowOptions, StageCache, set_stage_cache
from repro.eval import (
    ExperimentCampaign,
    ResultCache,
    Runner,
    SynthesisEngine,
    SynthesisJob,
    run_experiment,
    run_table4,
    synthesis_record,
    use_engine,
)
from repro.eval.runner import EXPERIMENTS, load_report

# Small, fast circuits: the point of these tests is the engine, not the flow.
FAST_CIRCUITS = ["ctrl", "int2float"]
FAST_OPTIONS = {"effort": "none"}


def table4_campaign(circuits=("ctrl",)):
    return ExperimentCampaign(EXPERIMENTS["table4"], effort="none", circuits=list(circuits))


def fast_job(circuit="ctrl", scale="quick", **overrides):
    options = dict(FAST_OPTIONS)
    options.update(overrides)
    return SynthesisJob.create(circuit, scale, options)


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    engine = SynthesisEngine(cache=cache)
    job = fast_job()

    record = engine.record_for(job)
    assert cache.misses == 1 and cache.puts == 1 and cache.hits == 0
    assert record["circuit"] == "ctrl" and record["jj"] > 0

    # A second engine on the same directory must hit, not recompute.
    fresh = SynthesisEngine(cache=ResultCache(tmp_path))
    replay = fresh.record_for(job)
    assert fresh.cache.hits == 1 and fresh.cache.misses == 0
    assert not fresh.computed
    assert replay == json.loads(json.dumps(record))  # JSON-roundtripped equal


def test_cache_key_distinguishes_jobs():
    from repro import FlowOptions

    base = fast_job()
    assert base.key() == fast_job().key()
    # Partial option mappings canonicalise to the same key as FlowOptions.
    assert base.key() == SynthesisJob.create("ctrl", "quick", FlowOptions(effort="none")).key()
    assert base.key() != fast_job(scale="paper").key()
    assert base.key() != fast_job(circuit="int2float").key()
    assert base.key() != fast_job(effort="low").key()
    assert base.key() != fast_job(optimize_polarity=False).key()


def test_cache_clear_and_len(tmp_path):
    cache = ResultCache(tmp_path)
    engine = SynthesisEngine(cache=cache)
    engine.record_for(fast_job())
    assert len(cache) == 1 and cache.contains(fast_job())
    assert cache.clear() == 1
    assert len(cache) == 0 and not cache.contains(fast_job())


def test_engine_memory_avoids_recompute_without_disk_cache():
    engine = SynthesisEngine()
    first = engine.record("ctrl", options=FAST_OPTIONS)
    second = engine.record("ctrl", options=FAST_OPTIONS)
    assert first is second
    assert len(engine.computed) == 1


def test_cache_keys_on_flow_signature():
    # The record cache is addressed by the staged flow signature, so an
    # options-built job and the equivalent Flow-built job are one record.
    by_options = fast_job()
    by_flow = SynthesisJob.from_flow(
        "ctrl", "quick", Flow.from_options(FlowOptions(effort="none"))
    )
    assert by_options.key() == by_flow.key()
    # A hand-composed flow with a different stage list is a different record.
    custom = SynthesisJob.from_flow(
        "ctrl",
        "quick",
        Flow.from_script(
            ["frontend", ("aig-opt", {"effort": "none"}),
             ("polarity", {"mode": "positive"}), "map", "sequential", "report"]
        ),
    )
    assert custom.key() != by_options.key()
    assert custom.flow().stage_names()[0] == "frontend"
    with pytest.raises(ValueError, match="hand-composed"):
        custom.flow_options()


def test_record_carries_flow_signature_and_stage_timings():
    engine = SynthesisEngine()
    record = engine.record("ctrl", options=FAST_OPTIONS)
    assert [entry[0] for entry in record["flow"]] == [
        "frontend", "aig-opt", "pipeline", "polarity", "map", "sequential", "report",
    ]
    stage_rows = record["stages"]
    assert [row["stage"] for row in stage_rows] == [e[0] for e in record["flow"]]
    assert all(row["seconds"] >= 0.0 for row in stage_rows)


def test_record_walks_the_result_once(monkeypatch):
    """Stage rows cost no AIG or netlist walks: a c880 record computes the
    AIG depth once and the JJ count twice, all in ``result.metrics()``."""
    from repro.aig import Aig
    from repro.core import XsfqNetlist

    calls = {"depth": 0, "jj_count": 0}

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counting(Aig, "depth")
    counting(XsfqNetlist, "jj_count")
    previous = set_stage_cache(StageCache())
    try:
        record = synthesis_record(SynthesisJob.create("c880", "quick"))
    finally:
        set_stage_cache(previous)
    assert not any(row["cached"] for row in record["stages"])
    assert calls == {"depth": 1, "jj_count": 2}


# ---------------------------------------------------------------------------
# Stage-level memoisation across flow variants
# ---------------------------------------------------------------------------


def test_polarity_sweep_reuses_cached_aig_opt_stage():
    """Acceptance: a two-variant polarity sweep reuses the post-aig-opt AIG."""
    from repro.core import get_stage_cache

    previous = set_stage_cache(StageCache())
    try:
        stage_cache = get_stage_cache()
        engine = SynthesisEngine()
        engine.record("ctrl", options={"effort": "low", "optimize_polarity": True})
        hits_before = stage_cache.hits
        second = engine.record("ctrl", options={"effort": "low", "optimize_polarity": False})
        assert stage_cache.hits == hits_before + 1
        # The reused prefix is exactly the post-aig-opt boundary: the second
        # record shows frontend/aig-opt served from the stage cache.
        cached_stages = [r["stage"] for r in second["stages"] if r["cached"]]
        assert cached_stages == ["frontend", "aig-opt"]
    finally:
        set_stage_cache(previous)


def test_stage_cache_does_not_change_results():
    previous = set_stage_cache(StageCache())
    try:
        warm = SynthesisEngine(memoize=False)
        first = warm.record("int2float", options={"effort": "low"})
        second = warm.record("int2float", options={"effort": "low", "optimize_polarity": False})
        set_stage_cache(StageCache())  # cold cache, same jobs
        cold = SynthesisEngine(memoize=False)
        assert _metrics_only(cold.record("int2float", options={"effort": "low"})) == _metrics_only(first)
        assert _metrics_only(
            cold.record("int2float", options={"effort": "low", "optimize_polarity": False})
        ) == _metrics_only(second)
    finally:
        set_stage_cache(previous)


def _metrics_only(record):
    """Strip the timing rows (the only legitimately nondeterministic part)."""
    return {k: v for k, v in record.items() if k != "stages"}


# ---------------------------------------------------------------------------
# Parallel vs serial
# ---------------------------------------------------------------------------


def test_parallel_run_matches_serial_assembly(tmp_path):
    serial = run_table4(effort="none", circuits=FAST_CIRCUITS, engine=SynthesisEngine())

    runner = Runner(jobs=2, cache=ResultCache(tmp_path / "cache"))
    report = runner.campaign(table4_campaign(FAST_CIRCUITS))

    assert report.result.rows == serial.rows
    assert report.result.summary == serial.summary
    assert report.result.text == serial.text
    assert len(report.records) == len(FAST_CIRCUITS)
    assert report.computed == len(FAST_CIRCUITS)
    assert report.cached == 0
    assert len(report.fresh) == len(FAST_CIRCUITS)

    # Second invocation: everything from cache, zero re-synthesis.
    replay = Runner(jobs=2, cache=ResultCache(tmp_path / "cache")).campaign(
        table4_campaign(FAST_CIRCUITS)
    )
    assert replay.computed == 0 and not replay.fresh
    assert replay.cached == len(FAST_CIRCUITS)
    assert replay.result.rows == serial.rows
    assert replay.result.summary == serial.summary
    # Replayed records count every stage under Cached, none under Runs.
    assert replay.stage_timings
    assert all(entry["runs"] == 0 for entry in replay.stage_timings.values())


def test_runner_rejects_unknown_experiment():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("table99", use_cache=False)


def test_errored_job_is_not_assembled_or_recomputed(monkeypatch):
    def crash(job):
        raise RuntimeError("synthesis crashed")

    recomputed = []
    monkeypatch.setattr("repro.eval.runner.synthesis_record", crash)
    monkeypatch.setattr("repro.eval.engine.synthesis_record", recomputed.append)
    report = Runner(jobs=1, cache=None).campaign(table4_campaign())

    assert report.table() == "(not assembled)" and report.result.rows == []
    assert [r["circuit"] for r in report.errored_units] == ["ctrl"]
    assert report.completed == 0 and not report.fresh
    assert recomputed == []
    with pytest.raises(RuntimeError, match="synthesis crashed"):
        run_experiment("table4", effort="none", circuits=["ctrl"], use_cache=False)


def test_assembly_requests_only_enumerated_jobs():
    # Assembly is handed only the records of the enumerated jobs: no
    # experiment may ask its engine (or the default one) for any other.
    records = {}
    for name, spec in EXPERIMENTS.items():
        jobs = spec.enumerate_jobs("quick", "none")
        memory = {
            job.key(): records.setdefault(job.key(), synthesis_record(job))
            for job in jobs
        }
        engine = SynthesisEngine(memory=memory)
        with use_engine(engine):
            spec.assemble("quick", "none", engine)
        assert engine.computed == [], name


def test_every_spec_enumerates_consistently():
    # Specs must enumerate declaratively (no synthesis) at both scales.
    for name, spec in EXPERIMENTS.items():
        jobs = spec.enumerate_jobs("quick")
        assert isinstance(jobs, list), name
        for job in jobs:
            assert isinstance(job, SynthesisJob)
            # Every enumerated option must round-trip through FlowOptions.
            job.flow_options()


def test_a_job_two_parts_of_an_experiment_share_is_one_unit():
    # At ``--effort none`` the ablation's "direct" and "AIG opt only"
    # variants are the same job: one unit, synthesised once, not a
    # phantom cache hit.
    report = Runner(jobs=1, cache=None).campaign(
        ExperimentCampaign(EXPERIMENTS["ablation"], effort="none")
    )
    assert len(report.records) == report.computed == 6
    assert report.cached == 0
    assert len(report.result.rows) == 7


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def test_json_and_csv_emission(tmp_path):
    runner = Runner(jobs=1, cache=ResultCache(tmp_path / "cache"))
    report = runner.campaign(table4_campaign())

    json_path, csv_path = report.save(tmp_path / "out" / "table4.json")
    assert csv_path == tmp_path / "out" / "table4.csv"
    data = load_report(json_path)
    assert data["experiment"] == "table4"
    assert data["rows"] == json.loads(json.dumps(report.result.rows))
    assert data["computed"] == 1 and data["cached"] == 0
    assert data["scale"] == "quick" and data["effort"] == "none"
    assert "text" in data and "summary" in data and "stage_timings" in data

    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(report.result.rows)
    assert lines[0].startswith("circuit,")
