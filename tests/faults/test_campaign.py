"""Campaign scheduling, records, reports, and the ``repro faults`` CLI."""

import json

import pytest

from repro.eval import cli
from repro.faults import (
    FAULTS_SCHEMA,
    FaultCampaign,
    FaultReport,
    default_scenario,
    fault_record,
    parse_fault_name,
)
from repro.faults.margin import search_margin
from repro.verify import VerificationSpec


def fault_spec(circuit, scenario, patterns=64, **options):
    """A fault unit's spec, at the pattern budget fault campaigns default to."""
    return VerificationSpec.create(circuit, scenario=scenario, patterns=patterns, **options)


class TestSpecKeys:
    def test_key_is_stable(self):
        a = fault_spec("ctrl", default_scenario("jitter"))
        b = fault_spec("ctrl", default_scenario("jitter"))
        assert a.key() == b.key()

    def test_key_varies_with_identity(self):
        base = fault_spec("ctrl", default_scenario("jitter"))
        keys = {
            base.key(),
            fault_spec("s27", default_scenario("jitter")).key(),
            fault_spec("ctrl", default_scenario("skew")).key(),
            fault_spec("ctrl", default_scenario("jitter", seed=1)).key(),
            fault_spec("ctrl", default_scenario("jitter"), margin=True).key(),
            fault_spec("ctrl", default_scenario("jitter"), patterns=8).key(),
        }
        assert len(keys) == 6

    def test_create_canonicalises_string_scenarios(self):
        spec = fault_spec("ctrl", "fault:jitter:mag=2.0:s0")
        assert spec.scenario == default_scenario("jitter").name()
        with pytest.raises(ValueError):
            fault_spec("ctrl", "not-a-scenario")


class TestCampaignUnits:
    def test_units_are_circuit_major(self):
        campaign = FaultCampaign(
            circuits=("ctrl", "s27"), kinds=("jitter", "skew"), flows=("default",)
        )
        units = campaign.units()
        assert [u.spec.circuit for u in units] == ["ctrl", "ctrl", "s27", "s27"]
        assert [parse_fault_name(u.spec.scenario).kind for u in units] == [
            "jitter", "skew", "jitter", "skew",
        ]
        assert all(u.flow_name == "default" for u in units)

    def test_empty_circuits_means_whole_catalog(self):
        from repro.circuits import names as circuit_names

        campaign = FaultCampaign(kinds=("jitter",))
        assert len(campaign.units()) == len(circuit_names())

    def test_magnitude_overrides_flow_into_scenarios(self):
        campaign = FaultCampaign(
            circuits=("ctrl",), kinds=("drop",), magnitudes=(("drop", 0.25),)
        )
        (scenario,) = campaign.scenarios()
        assert scenario.magnitude == 0.25

    def test_unknown_override_kind_raises(self):
        campaign = FaultCampaign(circuits=("ctrl",), magnitudes=(("warp", 1.0),))
        with pytest.raises(ValueError):
            campaign.units()


class TestMarginSearch:
    def test_cap_probe_saturates(self):
        result = search_margin(lambda m: True, cap=8.0)
        assert result.saturated
        assert result.margin == 8.0
        assert result.probes == ((8.0, True),)

    def test_bisection_brackets_threshold(self):
        result = search_margin(lambda m: m <= 3.0, cap=8.0, iterations=8)
        assert not result.saturated
        assert 3.0 - 8.0 / 2**8 <= result.margin <= 3.0
        # Every probe at or below the found margin tolerated, above failed.
        for magnitude, ok in result.probes[1:]:
            assert ok == (magnitude <= 3.0)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            search_margin(lambda m: True, cap=0.0)


class TestFaultRecords:
    def test_margin_record_on_combinational_circuit(self):
        spec = fault_spec(
            "ctrl", default_scenario("jitter"), patterns=16, margin=True
        )
        record = fault_record(spec)
        assert record["status"] == "tolerated"
        assert record["margin"] is not None and record["margin"] > 0.0
        assert record["margin_cap"] > 0.0
        assert record["margin_probes"]
        assert sum(record["injections"].values()) > 0
        assert record["counterexample"] is None

    def test_margin_search_elaborates_once_per_unit(self):
        """The nominal gate and every probe share one elaboration
        (sequential: no miscompare triggers a localisation replay)."""
        from repro.sim.pulse import elaboration_count

        spec = fault_spec("s27", default_scenario("skew"), patterns=16, margin=True)
        before = elaboration_count()
        record = fault_record(spec)
        assert len(record["margin_probes"]) > 1
        assert elaboration_count() - before == 1

    def test_failing_combinational_probes_are_not_localised(self):
        """A margin probe's miscompare only answers "no": it is not replayed
        on a full-trace elaboration to find its first divergence net."""
        from repro.sim.pulse import elaboration_count

        spec = fault_spec("ctrl", default_scenario("jitter"), patterns=16, margin=True)
        before = elaboration_count()
        record = fault_record(spec)
        assert any(not ok for _, ok in record["margin_probes"])
        assert elaboration_count() - before == 1

    def test_drop_everything_miscompares_with_localisation(self):
        spec = fault_spec(
            "ctrl", default_scenario("drop", magnitude=1.0), patterns=8
        )
        record = fault_record(spec)
        assert record["status"] == "miscompare"
        assert record["counterexample"] is not None
        assert record["first_divergence_net"]
        assert record["injections"]["drop"] > 0

    def test_record_carries_no_wall_clock_fields(self):
        spec = fault_spec("ctrl", default_scenario("skew"), patterns=8)
        record = fault_record(spec)
        assert not any("time" in k or "elapsed" in k or "wall" in k for k in record)
        # And running the same spec twice yields the identical record.
        assert fault_record(spec) == record


class TestReport:
    def _report(self, elapsed):
        spec = fault_spec("ctrl", default_scenario("skew"), patterns=8)
        record = dict(fault_record(spec), flow_variant="default")
        campaign = FaultCampaign(circuits=("ctrl",), kinds=("skew",))
        return FaultReport(
            campaign, [record], jobs=2, computed=1, cached=0, elapsed_s=elapsed
        )

    def test_to_dict_independent_of_runtime_statistics(self):
        fast, slow = self._report(0.1), self._report(99.9)
        assert json.dumps(fast.to_dict(), sort_keys=True) == json.dumps(
            slow.to_dict(), sort_keys=True
        )
        assert fast.to_dict()["schema"] == FAULTS_SCHEMA

    def test_summary_and_coverage(self):
        report = self._report(1.0)
        summary = report.summary()
        assert summary["units"] == 1
        assert summary["all_nominal_equivalent"] is True
        coverage = report.coverage()
        assert "fault:default:skew:tolerated" in coverage.features()


class TestCli:
    def test_bad_kinds_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["faults", "--circuit", "ctrl", "--kinds", "gamma-ray"])

    def test_bad_magnitude_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(
                ["faults", "--circuit", "ctrl", "--magnitude", "jitter=two"]
            )
        with pytest.raises(SystemExit):
            cli.main(["faults", "--circuit", "ctrl", "--magnitude", "warp=1.0"])

    def test_catalog_and_circuit_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            cli.parse_args(["faults", "--catalog", "--circuit", "ctrl"])

    def test_end_to_end_report(self, tmp_path, capsys):
        report_path = tmp_path / "faults.json"
        rc = cli.main(
            [
                "faults",
                "--circuit", "ctrl",
                "--kinds", "jitter",
                "--patterns", "8",
                "--seed", "0",
                "--no-cache",
                "--report", str(report_path),
                "-q",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "TOLERATED" in out
        document = json.loads(report_path.read_text())
        assert document["schema"] == FAULTS_SCHEMA
        assert document["summary"]["all_nominal_equivalent"] is True
        (row,) = document["rows"]
        assert row["circuit"] == "ctrl"
        assert row["fault_kind"] == "jitter"

    def test_cache_replay_is_byte_identical(self, tmp_path, capsys):
        argv = [
            "faults",
            "--circuit", "ctrl",
            "--kinds", "skew",
            "--patterns", "8",
            "--cache-dir", str(tmp_path / "cache"),
            "-q",
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert cli.main(argv + ["--report", str(first)]) == 0
        assert cli.main(argv + ["--report", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_magnitude_rejected(self, value):
        with pytest.raises(SystemExit, match="must be"):
            cli.main(
                ["faults", "--circuit", "ctrl", "--kinds", "jitter",
                 "--magnitude", f"jitter={value}", "--no-cache", "-q"]
            )
