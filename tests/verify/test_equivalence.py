"""Verification subsystem tests: verdicts, counterexamples, stage, campaign."""

import pytest

import repro
from repro.circuits import build
from repro.core import Flow, FlowError, FlowOptions, synthesize_xsfq
from repro.core.cells import CellKind
from repro.core.flowgraph import FlowState
from repro.eval import ResultCache, Runner
from repro.sim.pulse import elaboration_count
from repro.verify import (
    VerificationCampaign,
    VerificationSpec,
    VerificationVerdict,
    catalog_specs,
    verification_record,
    verify_result,
)
from repro.verify.flowstage import verify_stage


@pytest.fixture(scope="module")
def c880():
    return build("c880", "quick")


@pytest.fixture(scope="module")
def c880_result(c880):
    return Flow.default().run(c880)


class TestVerifyResult:
    def test_combinational_256_patterns_one_elaboration(self, c880, c880_result):
        """Acceptance regression: >=256 patterns, one netlist elaboration."""
        before = elaboration_count()
        verdict = verify_result(c880_result, golden=c880, patterns=256, seed=0)
        assert verdict.status == "equivalent"
        assert verdict.patterns >= 256
        assert verdict.elaborations == 1
        assert elaboration_count() - before == 1

    def test_small_circuit_verified_exhaustively(self):
        network = build("ctrl", "quick")
        result = Flow.default().run(network)
        verdict = verify_result(result, golden=network, patterns=256)
        assert verdict.status == "equivalent"
        assert verdict.mode == "exhaustive"
        assert verdict.patterns == 2 ** len(network.inputs)

    def test_sequential_circuit_with_retiming(self):
        """The default (retimed) sequential flow is pulse-faithful."""
        network = build("s27", "quick")
        result = Flow.default().run(network)
        assert result.sequential_info.cut_level is not None  # retime happened
        verdict = verify_result(result, golden=network, patterns=256, seed=1)
        assert verdict.status == "equivalent"
        assert verdict.patterns >= 256
        assert verdict.elaborations == 1

    def test_negative_polarity_start_state_recorded(self):
        """s27's Q1 captures its negative next-state rail -> starts at 0."""
        network = build("s27", "quick")
        result = synthesize_xsfq(network, FlowOptions(effort="low", retime=False))
        start = result.sequential_info.start_state
        assert set(start) == {latch.name for latch in network.latches}
        assert 0 in start.values()  # the historic all-ones convention is wrong here
        verdict = verify_result(result, golden=network, patterns=128, seed=2)
        assert verdict.status == "equivalent"

    def test_counterexample_with_first_divergence_net(self, c880):
        result = Flow.default().run(c880)
        corrupted = next(c for c in result.netlist.cells if c.kind is CellKind.LA)
        corrupted.kind = CellKind.FA  # AND becomes OR on one rail
        verdict = verify_result(result, golden=c880, patterns=256, seed=0)
        assert verdict.status == "counterexample"
        assert not verdict.equivalent
        cex = verdict.counterexample
        assert cex is not None
        assert set(cex.inputs) == set(c880.inputs)
        expected, _ = c880.evaluate(cex.inputs)
        assert expected[cex.output] == cex.expected != cex.observed
        assert verdict.first_divergence_net is not None
        assert "pattern" in verdict.summary()

    def test_verdict_round_trips_through_json(self, c880, c880_result):
        verdict = verify_result(c880_result, golden=c880, patterns=32, seed=0)
        clone = VerificationVerdict.from_dict(verdict.to_dict())
        assert clone.status == verdict.status
        assert clone.patterns == verdict.patterns
        assert clone.to_dict() == verdict.to_dict()

    def test_pipelined_results_are_skipped(self):
        network = build("c880", "quick")
        flow = Flow.from_options(FlowOptions(effort="low", pipeline_stages=2))
        result = flow.run(network)
        verdict = verify_result(result, golden=network, patterns=16)
        assert verdict.status == "skipped"
        assert verdict.reason


class TestVerifyStage:
    def test_registered_in_the_stage_registry(self):
        assert "verify" in repro.STAGES
        flow = Flow.default().with_stage("verify", {"patterns": 16})
        assert flow.stage_names()[-1] == "verify"

    def test_flow_ending_in_verdict(self):
        flow = Flow.default().with_stage("verify", {"patterns": 64})
        # Bypass the process-wide stage cache: resuming from a cached
        # mid-flow snapshot legitimately drops the source network (the
        # stage then verifies against the mapped AIG), and whether this
        # circuit is cached depends on which tests ran before.
        state = flow.run_state(build("int2float", "quick"), use_stage_cache=False)
        verdict = state.artifacts["verification"]
        assert verdict.equivalent
        assert state.metrics["verification"]["status"] == "equivalent"
        assert state.metrics["verification_golden"] == "source-network"

    def test_strict_counterexample_aborts_the_flow(self, c880):
        result = Flow.default().run(c880)
        broken = next(c for c in result.netlist.cells if c.kind is CellKind.LA)
        broken.kind = CellKind.FA
        state = FlowState(name="c880", network=c880, aig=result.aig,
                          netlist=result.netlist, result=result)
        with pytest.raises(FlowError, match="verification failed"):
            verify_stage(state, {"patterns": 64, "seed": 0,
                                 "sequence_length": 8, "strict": True})
        lax = verify_stage(state, {"patterns": 64, "seed": 0,
                                   "sequence_length": 8, "strict": False})
        assert lax.artifacts["verification"].status == "counterexample"

    def test_stage_requires_a_result(self):
        with pytest.raises(FlowError, match="report"):
            verify_stage(FlowState(name="x"), {"patterns": 8, "seed": 0,
                                               "sequence_length": 8, "strict": True})


class TestCampaign:
    def test_spec_keys_are_content_addressed(self):
        a = VerificationSpec.create("ctrl", patterns=64, seed=0)
        b = VerificationSpec.create("ctrl", patterns=64, seed=0)
        assert a.key() == b.key()
        assert a.key() != VerificationSpec.create("ctrl", patterns=64, seed=1).key()
        assert a.key() != VerificationSpec.create("ctrl", patterns=128, seed=0).key()
        other_flow = Flow.from_options(FlowOptions(effort="none"))
        assert a.key() != VerificationSpec.create("ctrl", flow=other_flow,
                                                  patterns=64, seed=0).key()

    def test_specs_survive_flow_round_trip(self):
        spec = VerificationSpec.create("s27", patterns=32, seed=3)
        assert spec.flow().signature() == Flow.default().signature()

    def test_catalog_specs_cover_the_registry(self):
        specs = catalog_specs(patterns=16)
        assert {spec.circuit for spec in specs} == set(repro.CATALOG)
        subset = catalog_specs(circuits=["ctrl", "s27"], patterns=16)
        assert [spec.circuit for spec in subset] == ["ctrl", "s27"]

    def test_verification_record_is_json_flat(self):
        record = verification_record(VerificationSpec.create("ctrl", patterns=32))
        assert record["status"] == "equivalent"
        assert record["kind"] == "combinational"
        assert record["circuit"] == "ctrl"
        import json

        json.dumps(record)  # must be serialisable as-is

    def test_records_carry_no_wall_clock(self):
        """A record is a pure function of its spec, so a cache replay
        and a fresh computation are the same document."""
        spec = VerificationSpec.create("ctrl", patterns=16)
        record = verification_record(spec)
        assert "seconds" not in record and "synth_seconds" not in record
        assert verification_record(spec) == record

    def test_runner_campaign_caches_verdicts(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = Runner(jobs=1, cache=cache)
        specs = catalog_specs(circuits=["ctrl", "s27"], patterns=32, seed=0)
        cold = runner.campaign(VerificationCampaign(specs))
        assert cold.all_equivalent
        assert cold.computed == 2 and cold.cached == 0
        assert [r["circuit"] for r in cold.records] == ["ctrl", "s27"]

        warm = Runner(jobs=1, cache=cache).campaign(VerificationCampaign(specs))
        assert warm.computed == 0 and warm.cached == 2
        assert warm.records == cold.records

    def test_parallel_campaign_matches_serial(self, tmp_path):
        specs = catalog_specs(circuits=["int2float", "dec"], patterns=32, seed=0)
        serial = Runner(jobs=1, cache=None).campaign(VerificationCampaign(specs))
        parallel = Runner(jobs=2, cache=None).campaign(VerificationCampaign(specs))
        assert serial.records == parallel.records

    def test_report_table_lists_every_circuit(self):
        specs = catalog_specs(circuits=["ctrl"], patterns=16)
        report = Runner(jobs=1, cache=None).campaign(VerificationCampaign(specs))
        table = report.table()
        assert "ctrl" in table and "EQUIVALENT" in table
        summary = report.to_dict()["summary"]
        assert summary["all_equivalent"] is True
        assert summary["circuits"] == 1
