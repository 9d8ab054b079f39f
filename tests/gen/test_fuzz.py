"""Differential fuzzing campaigns: scheduling, fault injection, shrinking."""

import pytest

from repro.core import Rail
from repro.core.flowgraph import (
    FLOW_VARIANTS,
    Flow,
    flow_variant,
    flow_variant_names,
    register_flow_variant,
    register_stage,
)
from repro.eval import Runner
from repro.eval.cli import parse_args
from repro.gen import DEFAULT_FLOWS, FuzzCampaign, GenSpec, shrink_unit
from repro.gen.fuzz import replay_line, shrink_failures, units_for_replay


# ---------------------------------------------------------------------------
# Fault injection: a flow variant that mis-decodes the first output port.
# ---------------------------------------------------------------------------


@register_stage(
    "test-break-output",
    description="test-only fault injection: flips output port 0's rail",
)
def _break_output_stage(state, options):
    state = state.copy()
    port = state.result.netlist.output_ports[0]
    port.rail = Rail.NEG if port.rail is Rail.POS else Rail.POS
    return state


register_flow_variant(
    "test-broken",
    lambda: Flow.default().with_stage("test-break-output"),
    "test-only: default flow with a fault-injected output decode",
)


class TestFlowVariants:
    def test_builtin_variants_registered(self):
        names = flow_variant_names()
        for expected in ("default", "direct", "positive", "no-retime", "unopt"):
            assert expected in names
        assert set(DEFAULT_FLOWS) <= set(names)

    def test_variant_factories_build_fresh_flows(self):
        a, b = flow_variant("default"), flow_variant("default")
        assert a is not b
        assert a.signature() == b.signature()
        assert flow_variant("direct").stage_options("polarity")["mode"] == "direct"
        assert flow_variant("no-retime").stage_options("sequential")["retime"] is False

    def test_unknown_variant_names_the_known_ones(self):
        from repro.core import FlowError

        with pytest.raises(FlowError, match="default"):
            flow_variant("nope")


class TestCampaign:
    def test_units_cross_circuits_with_flows(self):
        campaign = FuzzCampaign(budget=4, seed=0, flows=("default", "direct"))
        units = campaign.units()
        assert len(units) == 8
        circuits = {u.spec.circuit for u in units}
        assert len(circuits) == 4
        assert {u.flow_name for u in units} == {"default", "direct"}
        # Campaigns are pure functions of their identity.
        assert [u.spec.key() for u in units] == [
            u.spec.key() for u in FuzzCampaign(budget=4, seed=0, flows=("default", "direct")).units()
        ]

    def test_small_campaign_all_equivalent(self):
        campaign = FuzzCampaign(budget=3, seed=1, patterns=16, flows=DEFAULT_FLOWS)
        report = Runner(jobs=1, cache=None).campaign(campaign.batch())
        assert report.all_equivalent
        assert len(report.records) == 3 * len(DEFAULT_FLOWS)
        summary = report.summary()
        assert summary["circuits"] == 3 and summary["counterexamples"] == 0
        assert "Family" in report.table()
        payload = report.to_dict()
        assert payload["experiment"] == "fuzz"
        assert payload["campaign"]["budget"] == 3

    def test_injected_failure_is_caught_and_shrunk(self):
        campaign = FuzzCampaign(
            budget=2, seed=0, families=("dag",), flows=("test-broken",), patterns=12
        )
        report = Runner(jobs=1, cache=None).campaign(campaign.batch())
        shrink_failures(report)
        assert not report.all_equivalent
        assert len(report.failures) == 2
        for record in report.failures:
            assert record["flow_variant"] == "test-broken"
            assert record["circuit"].startswith("gen:dag:")
            line = replay_line(record)
            assert record["circuit"] in line and "--replay" in line
        # Every failure carries a shrunk minimal reproducer.
        assert len(report.shrunk) == 2
        for shrunk in report.shrunk.values():
            assert shrunk["final_gates"] <= shrunk["initial_gates"]
            assert "INPUT(" in shrunk["bench"] and "OUTPUT(" in shrunk["bench"]

    def test_failure_replays_from_its_printed_identity(self):
        campaign = FuzzCampaign(
            budget=1, seed=0, families=("dag",), flows=("test-broken",), patterns=12
        )
        report = Runner(jobs=1, cache=None).campaign(campaign.batch())
        failing_name = report.failures[0]["circuit"]
        units = units_for_replay(failing_name, ["test-broken", "default"], patterns=12)
        replay = Runner(jobs=1, cache=None).campaign(campaign.batch(units))
        statuses = {r["flow_variant"]: r["status"] for r in replay.records}
        assert statuses["test-broken"] == "counterexample"
        assert statuses["default"] == "equivalent"

    def test_verdicts_are_cached_across_runs(self, tmp_path):
        from repro.eval import ResultCache

        cache = ResultCache(tmp_path)
        campaign = FuzzCampaign(budget=2, seed=3, flows=("default",), patterns=16)
        first = Runner(jobs=1, cache=cache).campaign(campaign.batch())
        second = Runner(jobs=1, cache=cache).campaign(campaign.batch())
        assert first.computed == 2 and first.cached == 0
        assert second.computed == 0 and second.cached == 2
        assert [r["status"] for r in first.records] == [
            r["status"] for r in second.records
        ]

    def test_records_carry_no_wall_clock(self):
        campaign = FuzzCampaign(budget=2, seed=3, flows=("default",), patterns=16)
        records = Runner(jobs=1, cache=None).campaign(campaign.batch()).records
        for record in records:
            assert "seconds" not in record and "synth_seconds" not in record


class TestShrinking:
    def test_shrink_unit_minimises_the_injected_failure(self):
        gen = GenSpec.create("dag", seed=2, gates=30)
        original_gates = gen.build().num_gates()
        result = shrink_unit(gen, "test-broken", patterns=12)
        assert result is not None
        assert result.final_gates < original_gates
        # The rail flip fails on any surviving output, so shrinking should
        # reach a tiny core (a handful of gates at most).
        assert result.final_gates <= 3
        assert result.accepted > 0
        result.network.validate()

    def test_shrink_unit_returns_none_when_failure_does_not_reproduce(self):
        gen = GenSpec.create("dag", seed=2)
        assert shrink_unit(gen, "default", patterns=12) is None


class TestCliParsing:
    def test_fuzz_defaults(self):
        args = parse_args(["fuzz"])
        assert args.command == "fuzz"
        assert args.budget == 100 and args.seed == 0
        assert args.family is None and args.flows == list(DEFAULT_FLOWS)
        assert args.patterns == 64 and not args.no_shrink and args.replay is None

    def test_fuzz_flags(self):
        args = parse_args(
            [
                "fuzz", "--budget", "50", "--seed", "9",
                "--family", "dag", "--family", "fsm",
                "--flows", "default", "direct",
                "--patterns", "32", "--no-shrink", "-j", "4", "--no-cache", "-q",
            ]
        )
        assert args.budget == 50 and args.seed == 9
        assert args.family == ["dag", "fsm"]
        assert args.flows == ["default", "direct"]
        assert args.patterns == 32 and args.no_shrink
        assert args.jobs == 4 and args.no_cache and args.quiet

    def test_fuzz_rejects_unknown_family_and_flow(self):
        with pytest.raises(SystemExit):
            parse_args(["fuzz", "--family", "nosuch"])
        with pytest.raises(SystemExit):
            parse_args(["fuzz", "--flows", "nosuch"])


class TestCliEndToEnd:
    def test_fuzz_smoke_exit_zero(self, capsys):
        from repro.eval import cli

        code = cli.main(
            ["fuzz", "--budget", "2", "--patterns", "12", "--no-cache", "-q",
             "--flows", "default"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all_equivalent: True" in out

    def test_fuzz_failure_prints_replay_line_and_reproducer(self, capsys):
        from repro.eval import cli

        code = cli.main(
            ["fuzz", "--budget", "1", "--family", "dag", "--patterns", "12",
             "--flows", "test-broken", "--no-cache", "-q"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED equivalence" in out
        assert "--replay 'gen:dag:" in out
        assert "minimal reproducer" in out

    def test_fuzz_replay_subcommand(self, capsys):
        from repro.eval import cli

        name = GenSpec.create("dag", seed=4).name()
        code = cli.main(
            ["fuzz", "--replay", name, "--flows", "default", "--patterns", "12",
             "--no-cache", "-q"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz replay" in out

    def test_fuzz_replay_rejects_malformed_names(self):
        from repro.eval import cli

        with pytest.raises(SystemExit, match="bad --replay"):
            cli.main(["fuzz", "--replay", "gen:dag:broken", "--no-cache", "-q"])


@pytest.fixture(autouse=True, scope="module")
def _cleanup_test_variant():
    yield
    FLOW_VARIANTS.pop("test-broken", None)
