"""Scenario grammar and registry tests (``repro.faults.scenario``)."""

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultScenario,
    default_scenario,
    fault_kind,
    fault_kind_names,
    is_fault_name,
    parse_fault_name,
)


class TestRegistry:
    def test_kind_names_sorted_and_complete(self):
        assert fault_kind_names() == ["drop", "dup", "jitter", "skew"]
        assert set(fault_kind_names()) == set(FAULT_KINDS)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            fault_kind("gamma-ray")

    def test_rate_kinds_flagged(self):
        assert fault_kind("drop").rate_like
        assert fault_kind("dup").rate_like
        assert not fault_kind("jitter").rate_like
        assert not fault_kind("skew").rate_like


class TestScenario:
    def test_name_round_trips_every_kind(self):
        for kind in fault_kind_names():
            scenario = default_scenario(kind, seed=7)
            assert is_fault_name(scenario.name())
            assert parse_fault_name(scenario.name()) == scenario

    def test_canonical_names(self):
        assert default_scenario("jitter").name() == "fault:jitter:mag=2.0:s0"
        assert default_scenario("drop", seed=7).name() == "fault:drop:rate=0.01:s7"

    def test_with_magnitude_round_trips(self):
        probe = default_scenario("skew").with_magnitude(17.25)
        assert probe.magnitude == 17.25
        assert parse_fault_name(probe.name()) == probe

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            FaultScenario.create("jitter", wobble=3.0)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            FaultScenario.create("drop", rate=1.5)
        with pytest.raises(ValueError):
            FaultScenario.create("jitter", mag=-1.0)
        FaultScenario.create("drop", rate=1.0)  # boundary is legal

    @pytest.mark.parametrize("kind", ["drop", "dup", "jitter", "skew"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_magnitudes_rejected(self, kind, value):
        with pytest.raises(ValueError, match="must be"):
            default_scenario(kind, magnitude=value)
        param = fault_kind(kind).param
        with pytest.raises(ValueError, match="must be"):
            parse_fault_name(f"fault:{kind}:{param}={value}:s0")

    def test_model_mapping(self):
        assert default_scenario("drop").model().drop_rate == 0.01
        assert default_scenario("dup").model().dup_rate == 0.01
        assert default_scenario("jitter").model().jitter == 2.0
        skew_model = default_scenario("skew", seed=3).model()
        assert skew_model.skew == 5.0
        assert skew_model.seed == 3
        # skew is stimulus-side: the model itself never perturbs emissions
        skew_model.bind(["n"])
        assert skew_model.emissions(0, 9.0, 8.0) == (9.0,)

    def test_magnitude_override_via_default_scenario(self):
        assert default_scenario("jitter", magnitude=11.0).magnitude == 11.0


class TestParsing:
    @pytest.mark.parametrize(
        "bad",
        [
            "gen:dag:gates=4:s0",
            "fault:jitter:mag=2.0",
            "fault:jitter:mag=2.0:x0",
            "fault:jitter:mag=2.0:s0:extra",
            "fault:jitter:mag=:s0",
            "fault:jitter:=2.0:s0",
            "fault:jitter:mag=two:s0",
            "fault:jitter:mag=2.0:snan",
            "fault:warp:mag=2.0:s0",
        ],
    )
    def test_malformed_names_raise(self, bad):
        with pytest.raises(ValueError):
            parse_fault_name(bad)

    def test_is_fault_name(self):
        assert is_fault_name("fault:jitter:mag=2.0:s0")
        assert not is_fault_name("gen:dag:gates=4:s0")
