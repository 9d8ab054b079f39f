"""Regression tests for the three serialization bugs this layer fixed.

1. Cache-key canonicalisation silently stringified non-JSON-native
   values (``json.dumps(..., default=str)``), so two distinct option
   values with equal ``str()`` collided and an ``object()`` re-keyed on
   every process.  Keys now refuse non-wire-safe payloads.
2. A truncated/corrupt record in :class:`~repro.eval.engine.ResultCache`
   crashed wherever it surfaced (or was silently swallowed); it is now a
   miss — the unit recomputes — with the bad file quarantined and a
   warning logged.
3. ``BenchReport.write`` re-wrote reports in place with a plain
   ``open``/``json.dump``, so a crash mid-write truncated the baseline
   the CI regression gate reads.  Writes are now atomic.
"""

import logging

import pytest

from repro.core import Flow, FlowOptions
from repro.schema import WireFormatError


def tiny_signature():
    return Flow.from_options(FlowOptions(effort="none")).signature()


def poisoned_signature():
    """A flow signature smuggling a non-JSON-native option value."""
    return (("frontend", (("opt_rounds", object()),)),)


class TestKeyCanonicalisation:
    """Satellite 1: ``default=str`` removed from every key path."""

    def test_synthesis_job_key_rejects_non_native_option_values(self):
        from repro.eval.engine import SynthesisJob

        job = SynthesisJob(circuit="ctrl", stages=poisoned_signature())
        with pytest.raises(WireFormatError, match="flow"):
            job.key()

    def test_verification_spec_key_rejects_non_native_option_values(self):
        from repro.verify.campaign import VerificationSpec

        spec = VerificationSpec(circuit="ctrl", stages=poisoned_signature())
        with pytest.raises(WireFormatError, match="flow"):
            spec.key()

    def test_fault_spec_key_rejects_non_native_option_values(self):
        from repro.verify.campaign import VerificationSpec

        spec = VerificationSpec(
            circuit="ctrl",
            scenario="fault:jitter:mag=2.0:s0",
            stages=poisoned_signature(),
            patterns=64,
        )
        with pytest.raises(WireFormatError, match="flow"):
            spec.key()

    def test_str_collisions_are_impossible_by_construction(self):
        """The old bug: ``str(Decimal("2"))`` == ``str("2")`` == ``"2"``,
        so ``default=str`` keyed both jobs identically and one replayed
        the other's record.  The raise above makes the collision class
        unrepresentable — and native values still key distinctly."""
        from repro.eval.engine import SynthesisJob

        a = SynthesisJob(circuit="ctrl", stages=(("frontend", (("k", "2"),)),))
        b = SynthesisJob(circuit="ctrl", stages=(("frontend", (("k", 2),)),))
        assert a.key() != b.key()

    def test_keys_are_stable_across_calls(self):
        from repro.eval.engine import SynthesisJob

        job = SynthesisJob(circuit="ctrl", stages=tiny_signature())
        assert job.key() == job.key()


class TestCorruptCacheRecovery:
    """Satellite 2: corrupt record ⇒ miss + quarantine + warning."""

    def _job(self):
        from repro.eval.engine import SynthesisJob

        return SynthesisJob(circuit="ctrl", stages=tiny_signature())

    def _cache_with_garbage(self, tmp_path, body):
        from repro.eval.engine import ResultCache

        cache = ResultCache(tmp_path)
        job = self._job()
        cache.directory.mkdir(parents=True, exist_ok=True)
        cache._path(job.key()).write_text(body)
        return cache, job

    @pytest.mark.parametrize(
        "body",
        [
            '{"circuit": "ctrl", "sca',  # truncated mid-write
            "",  # zero bytes (crash before flush)
            "not json at all",
            '{"schema": "repro-record/3"}',  # parses, fails validation
            '{"schema": "repro-bench/1", "suite": "x", "results": []}',  # foreign
        ],
    )
    def test_corrupt_record_is_a_miss_not_a_crash(self, tmp_path, body, caplog):
        cache, job = self._cache_with_garbage(tmp_path, body)
        with caplog.at_level(logging.WARNING, logger="repro.eval.engine"):
            assert cache.get(job) is None
        assert cache.misses == 1 and cache.hits == 0
        assert any("treated as a miss" in rec.message for rec in caplog.records)

    def test_corrupt_record_is_quarantined_for_inspection(self, tmp_path):
        cache, job = self._cache_with_garbage(tmp_path, "{truncated")
        cache.get(job)
        path = cache._path(job.key())
        assert not path.exists()
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.read_text() == "{truncated"
        # Quarantined files are invisible to the cache's own bookkeeping.
        assert len(cache) == 0 and cache.clear() == 0
        assert quarantined.exists()

    def test_recompute_overwrites_the_quarantined_slot(self, tmp_path):
        cache, job = self._cache_with_garbage(tmp_path, "junk")
        assert cache.get(job) is None
        record = {
            "circuit": job.circuit,
            "scale": job.scale,
            "flow": [list(entry) for entry in job.to_dict()["flow"]],
            "jj": 123,
        }
        cache.put(job, record)
        assert cache.get(job) == record
        assert cache.stats() == {"hits": 1, "misses": 1, "puts": 1}

    def test_missing_record_is_a_plain_miss_without_warnings(self, tmp_path, caplog):
        from repro.eval.engine import ResultCache

        cache = ResultCache(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.eval.engine"):
            assert cache.get(self._job()) is None
        assert cache.misses == 1
        assert not caplog.records
        assert not list(tmp_path.glob("*.corrupt"))


class TestAtomicBenchWrites:
    """Satellite 3: a failed report write cannot truncate the baseline."""

    def _report(self, wall_min=1.0):
        from repro.perf import BenchReport, BenchResult

        return BenchReport(
            suite="smoke",
            results=[
                BenchResult(
                    name="b",
                    title="b",
                    warmup=0,
                    repeat=1,
                    wall_s={"min": wall_min, "mean": wall_min, "max": wall_min},
                    cpu_s={"min": 0.5, "mean": 0.5, "max": 0.5},
                )
            ],
        )

    def test_write_is_atomic_and_loadable(self, tmp_path):
        from repro.perf import load_bench

        path = self._report().write(tmp_path)
        assert path.name == "BENCH_smoke.json"
        assert load_bench(path).results[0].wall_s["min"] == 1.0
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_smoke.json"]

    def test_failed_rewrite_leaves_the_baseline_intact(self, tmp_path):
        """The pre-fix behaviour: ``open(path, "w")`` truncates *before*
        ``json.dump`` runs, so any serialisation failure destroyed the
        previous report.  Now the baseline survives byte-for-byte."""
        baseline = self._report().write(tmp_path)
        before = baseline.read_bytes()
        with pytest.raises(WireFormatError):
            self._report(wall_min=float("nan")).write(tmp_path)
        assert baseline.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_smoke.json"]
