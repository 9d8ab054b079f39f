"""Tests for the composable Flow pass-manager (repro.core.flowgraph)."""

import itertools

import pytest

from repro.circuits import build as build_circuit
from repro.core import (
    Flow,
    FlowError,
    FlowOptions,
    FlowState,
    STAGES,
    StageCache,
    design_fingerprint,
    register_stage,
    synthesize_xsfq,
)
from repro.core.flowgraph import DEFAULT_STAGE_ORDER, render_stage_table, resolve_stage

# Small circuits covering all three design kinds (combinational EPFL-ish,
# combinational ISCAS85-ish, sequential ISCAS89-ish).
GRID_CIRCUITS = ["ctrl", "int2float", "s27"]


def fresh_cache():
    return StageCache()


# ---------------------------------------------------------------------------
# Registry and composition
# ---------------------------------------------------------------------------


def test_default_stage_order_registered():
    for name in DEFAULT_STAGE_ORDER:
        assert name in STAGES
        assert STAGES[name].description


def test_aig_passes_bridged_into_registry():
    # Every named AIG pass doubles as a stage (registry unification).
    from repro.aig.scripts import PASSES

    for name in PASSES:
        assert resolve_stage(name).name == name


def test_unknown_stage_raises_with_known_names():
    with pytest.raises(FlowError, match="unknown stage 'nope'"):
        Flow.from_script(["nope"])


def test_unknown_stage_option_raises():
    with pytest.raises(FlowError, match="has no option"):
        Flow.from_script([("aig-opt", {"efort": "low"})])


def test_signature_merges_defaults_and_orders_stages():
    flow = Flow.from_script([("aig-opt", {"effort": "low"}), "map"])
    sig = flow.signature()
    assert [name for name, _ in sig] == ["aig-opt", "map"]
    assert dict(sig[0][1]) == {"effort": "low", "verify": False}
    assert dict(sig[1][1]) == {"splitter_style": "balanced"}


def test_flow_equality_and_hash_by_signature():
    assert Flow.default() == Flow.from_options(FlowOptions())
    assert hash(Flow.default()) == hash(Flow.from_options(FlowOptions()))
    assert Flow.default() != Flow.direct_mapping()


def test_from_signature_roundtrip():
    flow = Flow.from_options(FlowOptions(effort="low", retime=False))
    rebuilt = Flow.from_signature(flow.signature())
    assert rebuilt.signature() == flow.signature()


def test_with_options_and_stage_editing():
    flow = Flow.default().with_options("polarity", mode="positive")
    assert flow.stage_options("polarity")["mode"] == "positive"
    # Editing invalidates the FlowOptions provenance but keeps the rest.
    assert flow.options is None
    trimmed = flow.without_stage("pipeline")
    assert "pipeline" not in trimmed.stage_names()
    extended = trimmed.with_stage("cleanup", before="polarity")
    names = extended.stage_names()
    assert names.index("cleanup") == names.index("polarity") - 1
    with pytest.raises(FlowError, match="no stage"):
        flow.with_options("frontier", mode="x")


# ---------------------------------------------------------------------------
# Shim equivalence: synthesize_xsfq(net, opts) == Flow.from_options(opts).run
# ---------------------------------------------------------------------------


def _options_grid():
    for effort, direct, polarity, retime in itertools.product(
        ["none", "low"], [False, True], [False, True], [False, True]
    ):
        yield FlowOptions(
            effort=effort,
            direct_mapping=direct,
            optimize_polarity=polarity,
            retime=retime,
        )


@pytest.mark.parametrize("circuit", GRID_CIRCUITS)
def test_shim_equals_flow_across_options_grid(circuit):
    for options in _options_grid():
        net = build_circuit(circuit, "quick")
        shim = synthesize_xsfq(net, options)
        flowed = Flow.from_options(options).run(
            build_circuit(circuit, "quick"), stage_cache=fresh_cache()
        )
        assert shim.metrics() == flowed.metrics(), options


@pytest.mark.parametrize("circuit", GRID_CIRCUITS)
def test_default_flow_equals_default_shim(circuit):
    net = build_circuit(circuit, "quick")
    assert (
        Flow.default().run(net, stage_cache=fresh_cache()).metrics()
        == synthesize_xsfq(build_circuit(circuit, "quick")).metrics()
    )


def test_flow_equals_shim_on_every_catalogued_circuit():
    # Cheap flow options so the whole registry stays test-suite friendly.
    from repro.circuits import CATALOG

    options = FlowOptions(effort="none", polarity_sweeps=1)
    for circuit in CATALOG:
        net = build_circuit(circuit, "quick")
        shim = synthesize_xsfq(net, options)
        flowed = Flow.from_options(options).run(
            build_circuit(circuit, "quick"), stage_cache=fresh_cache()
        )
        assert shim.metrics() == flowed.metrics(), circuit


def test_pipelined_flow_equals_shim():
    options = FlowOptions(effort="low", pipeline_stages=2)
    net = build_circuit("c6288", "quick")
    shim = synthesize_xsfq(net, options)
    flowed = Flow.from_options(options).run(
        build_circuit("c6288", "quick"), stage_cache=fresh_cache()
    )
    assert shim.metrics() == flowed.metrics()
    assert flowed.pipeline_result is not None


def test_result_records_flow_options_provenance():
    result = Flow.from_options(FlowOptions(effort="none")).run(
        build_circuit("ctrl", "quick"), stage_cache=fresh_cache()
    )
    assert result.options == FlowOptions(effort="none")
    custom = Flow.from_script(
        ["frontend", "polarity", "map", "sequential", "report"]
    ).run(build_circuit("ctrl", "quick"), stage_cache=fresh_cache())
    assert custom.options is None
    assert custom.metrics()["options"] is None


# ---------------------------------------------------------------------------
# FlowOptions serialisation (satellite: strict from_dict + round-trip)
# ---------------------------------------------------------------------------


def test_flow_options_roundtrip():
    for options in _options_grid():
        assert FlowOptions.from_dict(options.to_dict()) == options


def test_flow_options_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError) as excinfo:
        FlowOptions.from_dict({"effort": "low", "efort": "high", "bogus": 1})
    message = str(excinfo.value)
    assert "'bogus'" in message and "'efort'" in message
    # The error names every valid field so the fix is obvious.
    for field_name in FlowOptions().to_dict():
        assert field_name in message


def test_flow_options_from_dict_accepts_partial():
    assert FlowOptions.from_dict({"effort": "high"}) == FlowOptions(effort="high")


# ---------------------------------------------------------------------------
# Mid-flow inspection and resume
# ---------------------------------------------------------------------------


def test_run_until_exposes_intermediate_state():
    flow = Flow.default()
    state = flow.run_state(
        build_circuit("ctrl", "quick"), until="aig-opt", stage_cache=fresh_cache()
    )
    assert state.aig is not None and state.netlist is None and state.result is None
    assert state.stage_index == 2  # frontend + aig-opt
    assert state.source_stats  # recorded before optimisation


def test_resume_continues_without_rerunning_prefix():
    flow = Flow.default()
    cache = fresh_cache()
    state = flow.run_state(build_circuit("ctrl", "quick"), until="aig-opt", stage_cache=cache)
    ands_after_opt = state.aig.num_ands
    done = flow.resume(state, stage_cache=cache)
    assert done.result is not None
    assert done.result.aig.num_ands == ands_after_opt
    # The resumed state keeps its prefix rows; only the remaining stages ran.
    assert done.stage_rows[:2] == state.stage_rows
    assert [row["stage"] for row in done.stage_rows[2:]] == [
        "pipeline", "polarity", "map", "sequential", "report",
    ]
    assert not any(row["cached"] for row in done.stage_rows)
    # And the resumed result matches a straight-through run.
    assert done.result.metrics() == Flow.default().run(
        build_circuit("ctrl", "quick"), stage_cache=fresh_cache()
    ).metrics()


# ---------------------------------------------------------------------------
# Stage rows
# ---------------------------------------------------------------------------


def test_run_records_one_row_per_stage():
    state = Flow.default().run_state(build_circuit("ctrl", "quick"), stage_cache=fresh_cache())
    assert [row["stage"] for row in state.stage_rows] == list(DEFAULT_STAGE_ORDER)
    assert all(set(row) == {"stage", "seconds", "cached"} for row in state.stage_rows)
    assert all(row["seconds"] >= 0.0 and not row["cached"] for row in state.stage_rows)
    table = render_stage_table(state.stage_rows)
    assert "aig-opt" in table and "Seconds" in table


def test_copies_own_their_rows_and_snapshots_drop_them():
    state = Flow.default().run_state(
        build_circuit("ctrl", "quick"), until="aig-opt", stage_cache=fresh_cache()
    )
    assert [row["stage"] for row in state.stage_rows] == ["frontend", "aig-opt"]
    copied = state.copy()
    assert copied.stage_rows == state.stage_rows
    assert copied.stage_rows is not state.stage_rows
    # A stage-cache entry never carries the producing run's seconds.
    assert state.snapshot().stage_rows == []


# ---------------------------------------------------------------------------
# Stage-level caching
# ---------------------------------------------------------------------------


def test_design_fingerprint_ignores_name_but_not_structure():
    a = build_circuit("ctrl", "quick")
    b = build_circuit("ctrl", "quick")
    b.name = "renamed"
    assert design_fingerprint(a) == design_fingerprint(b)
    assert design_fingerprint(a) != design_fingerprint(build_circuit("dec", "quick"))


def test_polarity_variants_share_aig_opt_prefix():
    cache = fresh_cache()
    base = Flow.from_options(FlowOptions(effort="low"))
    base.run(build_circuit("ctrl", "quick"), stage_cache=cache)
    assert cache.hits == 0
    variant = base.with_options("polarity", mode="positive")
    state = variant.run_state(build_circuit("ctrl", "quick"), stage_cache=cache)
    assert cache.hits == 1  # resumed from the cached post-aig-opt state
    cached = [row for row in state.stage_rows if row["cached"]]
    assert [row["stage"] for row in cached] == ["frontend", "aig-opt"]
    assert all(row["seconds"] == 0.0 for row in cached)


def test_different_effort_shares_only_frontend_prefix():
    cache = fresh_cache()
    Flow.from_options(FlowOptions(effort="none")).run(
        build_circuit("ctrl", "quick"), stage_cache=cache
    )
    state = Flow.from_options(FlowOptions(effort="low")).run_state(
        build_circuit("ctrl", "quick"), stage_cache=cache
    )
    # The network->AIG conversion is reused, but the differing aig-opt
    # options force a fresh optimisation run.
    cached = [row["stage"] for row in state.stage_rows if row["cached"]]
    executed = [row["stage"] for row in state.stage_rows if not row["cached"]]
    assert cached == ["frontend"]
    assert "aig-opt" in executed


def test_cached_and_uncached_runs_agree():
    cache = fresh_cache()
    first = Flow.default().run(build_circuit("s27", "quick"), stage_cache=cache)
    second = Flow.default().with_options("sequential", retime=False).run(
        build_circuit("s27", "quick"), stage_cache=cache
    )
    uncached = Flow.default().with_options("sequential", retime=False).run(
        build_circuit("s27", "quick"), use_stage_cache=False
    )
    assert cache.hits >= 1
    assert second.metrics() == uncached.metrics()
    assert first.metrics() != second.metrics()  # retime actually differs


def test_structurally_identical_designs_share_prefix_but_keep_names():
    # Fingerprints ignore the design name, so a renamed copy reuses the
    # cached prefix — but the restored state must carry the new name.
    cache = fresh_cache()
    first = build_circuit("ctrl", "quick")
    renamed = build_circuit("ctrl", "quick")
    renamed.name = "ctrl_copy"
    a = Flow.from_options(FlowOptions(effort="none")).run(first, stage_cache=cache)
    b = Flow.from_options(FlowOptions(effort="none")).run(renamed, stage_cache=cache)
    assert cache.hits == 1
    assert a.name == "ctrl" and b.name == "ctrl_copy"
    assert a.metrics()["circuit"] == "ctrl"
    assert b.metrics()["circuit"] == "ctrl_copy"


def test_stage_cache_lru_eviction():
    cache = StageCache(maxsize=2)
    for circuit in ("ctrl", "dec", "int2float"):
        Flow.from_options(FlowOptions(effort="none")).run(
            build_circuit(circuit, "quick"), stage_cache=cache
        )
    assert len(cache) <= 2


# ---------------------------------------------------------------------------
# Custom user stages
# ---------------------------------------------------------------------------


def test_user_registered_stage_composes():
    calls = []

    @register_stage("test-notifier", defaults={"tag": "x"}, description="test stage")
    def notifier(state, options):
        calls.append((options["tag"], state.aig.num_ands))
        return state

    try:
        flow = Flow.from_script(
            [
                "frontend",
                ("aig-opt", {"effort": "none"}),
                ("test-notifier", {"tag": "after-opt"}),
                "polarity",
                "map",
                "sequential",
                "report",
            ]
        )
        result = flow.run(build_circuit("ctrl", "quick"), stage_cache=fresh_cache())
        assert result.netlist.num_logic_cells > 0
        assert calls and calls[0][0] == "after-opt"
        assert ("test-notifier" in [name for name, _ in flow.signature()])
    finally:
        STAGES.pop("test-notifier", None)


def test_from_script_mixes_stages_and_aig_passes():
    flow = Flow.from_script(
        ["frontend", "balance", "rewrite", "polarity", "map", "sequential", "report"]
    )
    result = flow.run(build_circuit("ctrl", "quick"), stage_cache=fresh_cache())
    assert result.netlist.num_logic_cells > 0


def test_report_without_mapping_raises():
    with pytest.raises(FlowError, match="no mapped netlist"):
        Flow.from_script(["frontend", "report"]).run(
            build_circuit("ctrl", "quick"), stage_cache=fresh_cache()
        )


def test_flow_without_report_raises_on_run():
    with pytest.raises(FlowError, match="append a 'report' stage"):
        Flow.from_script(["frontend", "polarity", "map"]).run(
            build_circuit("ctrl", "quick"), stage_cache=fresh_cache()
        )


def test_flowstate_initial_accepts_aig():
    from repro.aig import network_to_aig

    aig = network_to_aig(build_circuit("ctrl", "quick"))
    state = FlowState.initial(aig, name="renamed")
    assert state.aig is aig and state.name == "renamed"
    result = Flow.default().run(aig, stage_cache=fresh_cache())
    assert result.name == aig.name
