"""Schema evolution of every document family.

Two walls per family: (1) a freshly produced document round-trips
through ``pack``/``load_document`` unchanged, and (2) the pinned
legacy/v1 fixture in ``tests/schema/fixtures`` loads through its
migration path into the current shape.  The fixtures are committed
bytes — they are the wire-compatibility contract with every document
already on disk in caches, baselines and checkpoints.
"""

import json
from pathlib import Path

import pytest

from repro.schema import load_document, message_type, pack, schema_tag

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


class TestLegacyFixturesMigrate:
    def test_record_v2_untagged_loads(self):
        payload = load_document(fixture("record-v2.json"), "record")
        assert payload["circuit"] == "ctrl"
        assert payload["flow"][0] == ["frontend", {}]
        assert "schema" not in payload

    def test_verify_v2_untagged_loads(self):
        payload = load_document(fixture("verify-v2.json"), "verify")
        assert payload["status"] == "equivalent"
        assert payload["cell_counts"]["LA"] == 40

    @pytest.mark.parametrize("tag", [None, "repro-verify/3"])
    def test_verify_records_lose_their_wall_clock_fields(self, tag):
        document = fixture("verify-v2.json")
        if tag is not None:
            document["schema"] = tag
        payload = load_document(document, "verify")
        assert "seconds" not in payload and "synth_seconds" not in payload
        assert payload["cell_counts"]["LA"] == 40
        assert pack("verify", payload)["schema"] == "repro-verify/4"

    def test_fault_v1_untagged_loads(self):
        payload = load_document(fixture("fault-v1.json"), "fault")
        assert payload["fault_kind"] == "jitter"
        assert payload["injections"]["jitter"] == 217

    def test_bench_v1_loads_through_load_bench(self, tmp_path):
        from repro.perf import load_bench

        path = tmp_path / "BENCH_fixture.json"
        path.write_text(json.dumps(fixture("bench-v1.json")))
        report = load_bench(path)
        assert report.suite == "smoke"
        assert report.results[0].counters["patterns"] == 416.0

    def test_cov_v1_loads_through_coverage_map(self):
        from repro.cov import CoverageMap

        cov = CoverageMap.from_dict(fixture("cov-v1.json"))
        assert cov.count("alpha:and:3-4:d5-8") == 2
        assert cov.to_dict() == fixture("cov-v1.json")

    def test_soak_v1_loads_through_soak_state(self):
        from repro.cov import SoakState

        state = SoakState.from_dict(fixture("soak-v1.json"))
        assert state.units_done == 2 and not state.complete
        assert state.to_dict() == fixture("soak-v1.json")

    def test_faults_report_v1_loads_through_load_fault_report(self, tmp_path):
        from repro.faults import load_fault_report

        path = tmp_path / "repro-faults.json"
        path.write_text(json.dumps(fixture("faults-report-v1.json")))
        payload = load_fault_report(path)
        assert payload["summary"]["all_nominal_equivalent"] is True
        assert payload["rows"][0]["fault_kind"] == "jitter"

    def test_corpus_v1_untagged_loads(self):
        payload = load_document(fixture("corpus-v1.json"), "corpus")
        assert payload["family"] == "dag" and payload["seed"] == 7


class TestRoundTrips:
    """``load_document(pack(kind, payload), kind) == payload`` for real
    payloads of every family (the legacy fixtures double as payload
    sources — after migration they *are* current-version payloads)."""

    @pytest.mark.parametrize(
        "kind, name",
        [
            ("record", "record-v2.json"),
            ("verify", "verify-v2.json"),
            ("fault", "fault-v1.json"),
            ("bench", "bench-v1.json"),
            ("cov", "cov-v1.json"),
            ("soak", "soak-v1.json"),
            ("faults", "faults-report-v1.json"),
            ("corpus", "corpus-v1.json"),
        ],
    )
    def test_pack_load_round_trip(self, kind, name):
        payload = load_document(fixture(name), kind)
        document = pack(kind, payload)
        assert document["schema"] == schema_tag(kind)
        assert load_document(document, kind) == payload

    def test_fresh_coverage_map_round_trips(self):
        from repro.cov import CoverageMap

        cov = CoverageMap()
        cov.add(["depth:1", "alpha:xor:2:d1"], "unitaaa")
        cov.add(["depth:1"], "unitbbb")
        assert CoverageMap.from_json(cov.canonical_json()) == cov

    def test_fresh_bench_report_round_trips(self, tmp_path):
        from repro.perf import BenchReport, BenchResult, load_bench

        report = BenchReport(
            suite="rt",
            results=[
                BenchResult(
                    name="a",
                    title="a",
                    warmup=0,
                    repeat=1,
                    wall_s={"min": 1.0, "mean": 1.0, "max": 1.0},
                    cpu_s={"min": 1.0, "mean": 1.0, "max": 1.0},
                )
            ],
        )
        loaded = load_bench(report.write(tmp_path))
        assert loaded.to_dict() == report.to_dict()


class TestCacheEnvelope:
    """The shared ResultCache stamps/strips the envelope per spec kind."""

    def _flow_signature(self):
        from repro.core import Flow, FlowOptions

        return Flow.from_options(FlowOptions(effort="none")).signature()

    def test_record_payload_round_trips_through_the_cache(self, tmp_path):
        from repro.eval.engine import ResultCache, SynthesisJob

        job = SynthesisJob(circuit="ctrl", stages=self._flow_signature())
        record = load_document(fixture("record-v2.json"), "record")
        cache = ResultCache(tmp_path)
        cache.put(job, record)
        on_disk = json.loads(cache._path(job.key()).read_text())
        assert on_disk["schema"] == schema_tag("record")
        assert cache.get(job) == record

    def test_verify_and_fault_specs_use_their_own_kinds(self, tmp_path):
        from repro.eval.engine import ResultCache
        from repro.verify.campaign import VerificationSpec

        signature = self._flow_signature()
        cases = [
            (
                VerificationSpec(circuit="ctrl", stages=signature),
                "verify-v2.json",
                "verify",
            ),
            (
                VerificationSpec(
                    circuit="ctrl",
                    scenario="fault:jitter:mag=2.0:s0",
                    stages=signature,
                    patterns=64,
                ),
                "fault-v1.json",
                "fault",
            ),
        ]
        cache = ResultCache(tmp_path)
        for spec, name, kind in cases:
            assert spec.schema_kind == kind
            record = load_document(fixture(name), kind)
            cache.put(spec, record)
            on_disk = json.loads(cache._path(spec.key()).read_text())
            assert on_disk["schema"] == schema_tag(kind)
            assert cache.get(spec) == record

    def test_pre_envelope_cache_record_still_loads(self, tmp_path):
        """An untagged (v2) record already sitting in a cache directory
        must keep replaying: it sniffs as the legacy version and migrates."""
        from repro.eval.engine import ResultCache, SynthesisJob

        job = SynthesisJob(circuit="ctrl", stages=self._flow_signature())
        record = load_document(fixture("record-v2.json"), "record")
        cache = ResultCache(tmp_path)
        cache.directory.mkdir(parents=True, exist_ok=True)
        cache._path(job.key()).write_text(json.dumps(record, sort_keys=True))
        assert cache.get(job) == record
        assert cache.hits == 1 and cache.misses == 0

    def test_versions_are_part_of_the_cache_key(self):
        from repro.eval.engine import SynthesisJob

        job = SynthesisJob(circuit="ctrl", stages=self._flow_signature())
        assert message_type("record").tag == "repro-record/3"
        # Keys embed the full tag, so a version bump re-keys the cache.
        assert job.key() != ""
