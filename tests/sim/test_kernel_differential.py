"""Differential wall for the struct-of-arrays pulse fast path.

Pins vectorized :class:`PulseSimulator` runs bit-identical to the scalar
event loop and to :class:`ReferencePulseSimulator` across every
``repro.gen`` family x flow variant, across reset/replay and
split-``until`` resume seams, with ``observe_only`` capture restriction,
dangling-net recording, zero-pattern batches, and PYTHONHASHSEED-varied
subprocess byte-identity of traces.

Fault models are on the wall too: jitter at several magnitudes on every
family x variant (including one that forces the interleave abort),
zero-magnitude models of all four kinds, batches on both sides of the
list/numpy floor, drop/dup and ``record_log`` models staying scalar, and
per-net fault streams left exactly where the scalar loop leaves them.
Traces, event counts and ``injection_counts()`` are compared bit-equal.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import flow_variant, flow_variant_names
from repro.faults import FaultModel
from repro.gen import FAMILIES, generate_specs
from repro._compat import load_numpy
from repro.faults import default_scenario
from repro.sim.pulse import (
    BatchedNetlistSimulator,
    PulseSimulator,
    ReferencePulseSimulator,
    build_simulator,
    soa,
)
from repro.sim.pulse.elements import (
    FaCell,
    JtlCell,
    LaCell,
    MergerCell,
    SourceCell,
    SplitterCell,
)
from repro.sim.pulse.xsfq_sim import _constant_nets, _drive_constants, _drive_input
from repro.verify import stimulus_suite

REPO_ROOT = Path(__file__).resolve().parents[2]

# The suite also runs in CI with REPRO_SCALAR_KERNELS=1 to prove the
# scalar fallback stays healthy; fast-path-taken assertions scale by this.
_EXPECTED_VEC = 0 if os.environ.get("REPRO_SCALAR_KERNELS", "") == "1" else 1
#: A jitter half-width (ps) that reorders LA/FA pairs of the ``dag``
#: netlist, so the kernel aborts on its interleave check.
_INTERLEAVING_JITTER = 400.0

FAMILY_SPECS = {
    family: generate_specs(1, seed=13, families=[family])[0]
    for family in sorted(FAMILIES)
}
# Other test modules register throwaway "test-*" variants at import time
# (e.g. tests/gen/test_fuzz.py's fault-injected flow); skip those.
VARIANTS = [v for v in flow_variant_names() if not v.startswith("test-")]
UNITS = [(family, variant) for family in sorted(FAMILY_SPECS) for variant in VARIANTS]


@pytest.fixture(scope="module")
def synthesized():
    """One synthesis per family x flow variant, shared by the tests."""
    results = {}
    for family, spec in FAMILY_SPECS.items():
        for variant in VARIANTS:
            results[(family, variant)] = flow_variant(variant).run(spec.build())
    return results


def _drive(
    netlist,
    vectorize,
    num_patterns=12,
    fault_model=None,
    full_trace=True,
    allow_exhaustive=True,
):
    sim = BatchedNetlistSimulator(
        netlist, full_trace=full_trace, vectorize=vectorize, fault_model=fault_model
    )
    suite = stimulus_suite(
        sim.pi_names,
        num_patterns=num_patterns,
        seed=4,
        allow_exhaustive=allow_exhaustive and not sim.is_sequential,
    )
    if sim.is_sequential:
        vectors = [dict(zip(suite.inputs, row)) for row in next(suite.sequences(5))]
        run = sim.run_sequence(vectors)
    else:
        run = sim.run_combinational(suite.as_dicts())
    return sim, run


def _assert_identical(vec_pair, scalar_pair):
    vec_sim, vec_run = vec_pair
    scalar_sim, scalar_run = scalar_pair
    assert vec_run.outputs == scalar_run.outputs
    assert vec_run.trace == scalar_run.trace
    assert vec_run.dangling_nets == scalar_run.dangling_nets
    assert vec_run.all_cells_reinitialised == scalar_run.all_cells_reinitialised
    assert vec_sim.simulator.events_processed == scalar_sim.simulator.events_processed


@pytest.mark.parametrize(("family", "variant"), UNITS, ids=lambda u: str(u))
def test_vectorized_matches_scalar_on_family_x_variant(family, variant, synthesized):
    netlist = synthesized[(family, variant)].netlist
    vec = _drive(netlist, vectorize=None)
    scalar = _drive(netlist, vectorize=False)
    _assert_identical(vec, scalar)
    assert scalar[0].simulator.vectorized_runs == 0
    if not vec[0].is_sequential:
        # Combinational batches must actually ride the fast path.
        assert vec[0].simulator.vectorized_runs == _EXPECTED_VEC


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
def test_vectorized_matches_reference_core(family, synthesized):
    """Replay the vectorized run's raw stimulus through the reference oracle."""
    netlist = synthesized[(family, "default")].netlist
    sim, run = _drive(netlist, vectorize=None)
    reference = ReferencePulseSimulator()
    reference.add_elements(build_simulator(netlist)[0].elements)
    driven = {net for cell in netlist.cells for net in cell.outputs}
    raw_stimulus = {
        net: times for net, times in run.trace.items() if net not in driven
    }
    assert reference.run(raw_stimulus) == run.trace
    assert reference.dangling_nets() == sim.simulator.dangling_nets()


@pytest.mark.parametrize(
    "fault_kwargs",
    [
        {"drop_rate": 0.08},
        {"dup_rate": 0.08},
        {"jitter": 6.0},
        {"skew": 4.0},
    ],
    ids=lambda kw: next(iter(kw)),
)
@pytest.mark.parametrize("family", ["dag", "fsm"])
def test_fault_kinds_fall_back_to_scalar_bit_identically(
    family, fault_kwargs, synthesized
):
    """All four fault kinds at nonzero magnitude: drop and dup break the
    LA/FA pairing and run scalar, jitter and skew ride the kernel on
    combinational batches, and both vectorize settings agree byte-for-byte."""
    netlist = synthesized[(family, "default")].netlist
    vec_model = FaultModel(seed=3, **fault_kwargs)
    scalar_model = FaultModel(seed=3, **fault_kwargs)
    vec = _drive(netlist, vectorize=None, fault_model=vec_model)
    scalar = _drive(netlist, vectorize=False, fault_model=scalar_model)
    _assert_identical(vec, scalar)
    assert vec_model.injection_counts() == scalar_model.injection_counts()
    pairing_kept = next(iter(fault_kwargs)) in ("jitter", "skew")
    expected = _EXPECTED_VEC if pairing_kept and not vec[0].is_sequential else 0
    assert vec[0].simulator.vectorized_runs == expected
    assert json.dumps(vec[1].trace, sort_keys=True) == json.dumps(
        scalar[1].trace, sort_keys=True
    )


def _assert_faulted_identical(vec_pair, scalar_pair, vec_model, scalar_model):
    _assert_identical(vec_pair, scalar_pair)
    assert vec_model.injection_counts() == scalar_model.injection_counts()
    assert scalar_pair[0].simulator.vectorized_runs == 0


def _drive_pair(netlist, **fault_kwargs):
    """Kernel-allowed and scalar-forced runs under two equal fault models."""
    vec_model = FaultModel(seed=11, **fault_kwargs)
    scalar_model = FaultModel(seed=11, **fault_kwargs)
    vec = _drive(netlist, vectorize=None, fault_model=vec_model)
    scalar = _drive(netlist, vectorize=False, fault_model=scalar_model)
    _assert_faulted_identical(vec, scalar, vec_model, scalar_model)
    return vec, vec_model


@pytest.mark.parametrize("jitter", [0.5, 4.0, 40.0])
@pytest.mark.parametrize(("family", "variant"), UNITS, ids=lambda u: str(u))
def test_jitter_matches_scalar_on_family_x_variant(family, variant, jitter, synthesized):
    netlist = synthesized[(family, variant)].netlist
    (sim, _), model = _drive_pair(netlist, jitter=jitter)
    assert model.injection_counts()["jitter"] > 0
    if not sim.is_sequential:
        assert sim.simulator.vectorized_runs == _EXPECTED_VEC


def test_large_jitter_interleave_aborts_to_scalar(synthesized, monkeypatch):
    """Jitter wide enough to reorder LA/FA pairs hands the run back to the
    scalar loop before any stream or counter moves."""
    aborts = []
    paired = soa._ListOps.paired

    def spy(a, b, last):
        try:
            return paired(a, b, last)
        except soa._Fallback:
            aborts.append(len(a))
            raise

    monkeypatch.setattr(soa._ListOps, "paired", staticmethod(spy))
    netlist = synthesized[("dag", "default")].netlist
    (sim, _), model = _drive_pair(netlist, jitter=_INTERLEAVING_JITTER)
    assert sim.simulator.vectorized_runs == 0
    assert len(aborts) == _EXPECTED_VEC
    assert model.injection_counts()["jitter"] > 0


@pytest.mark.parametrize("kind", ["drop", "dup", "jitter", "skew"])
@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
def test_zero_magnitude_models_ride_the_kernel(family, kind, synthesized):
    """Emission-inert models run like fault-free ones and build no stream."""
    netlist = synthesized[(family, "default")].netlist
    models = [default_scenario(kind, seed=0).with_magnitude(0.0).model() for _ in range(2)]
    vec = _drive(netlist, vectorize=None, fault_model=models[0])
    scalar = _drive(netlist, vectorize=False, fault_model=models[1])
    _assert_faulted_identical(vec, scalar, *models)
    _assert_identical(vec, _drive(netlist, vectorize=False))
    for model in models:
        assert model.injection_counts() == {"drop": 0, "dup": 0, "jitter": 0}
        assert not any(model._streams)
    if not vec[0].is_sequential:
        assert vec[0].simulator.vectorized_runs == _EXPECTED_VEC


@pytest.mark.parametrize("below_floor", [True, False], ids=["lists", "numpy"])
def test_jitter_on_both_sides_of_the_numpy_floor(below_floor, synthesized, monkeypatch):
    """Batches shorter than the floor run on lists, longer ones on numpy
    (when installed); both are bit-equal to the scalar core."""
    forms = []
    array_ops = soa._array_ops

    def spy(longest_train):
        ops = array_ops(longest_train)
        forms.append(type(ops))
        return ops

    monkeypatch.setattr(soa, "_array_ops", spy)
    netlist = synthesized[("dag", "default")].netlist
    patterns = soa.NUMPY_MIN_TRAIN - 1 if below_floor else soa.NUMPY_MIN_TRAIN
    # Wider than most cell delays, so some offsets clamp to the cause.
    models = [FaultModel(jitter=12.0, seed=2) for _ in range(2)]
    vec = _drive(
        netlist, None, num_patterns=patterns, fault_model=models[0], allow_exhaustive=False
    )
    scalar = _drive(
        netlist, False, num_patterns=patterns, fault_model=models[1], allow_exhaustive=False
    )
    _assert_faulted_identical(vec, scalar, *models)
    assert vec[0].simulator.vectorized_runs == _EXPECTED_VEC
    numpy_form = soa._ListOps if load_numpy() is None else soa._NumpyOps
    expected = soa._ListOps if below_floor else numpy_form
    assert forms == [expected] * _EXPECTED_VEC


@pytest.mark.parametrize("fault_kwargs", [{"drop_rate": 0.05}, {"dup_rate": 0.05}])
def test_pairing_breaking_models_stay_scalar(fault_kwargs, synthesized):
    netlist = synthesized[("arith", "default")].netlist
    (sim, _), _ = _drive_pair(netlist, **fault_kwargs)
    assert sim.simulator.vectorized_runs == 0


def test_record_log_stays_scalar(synthesized):
    """The injection log is in global chronological order: scalar only."""
    netlist = synthesized[("dag", "default")].netlist
    models = [FaultModel(jitter=3.0, seed=6, record_log=True) for _ in range(2)]
    vec = _drive(netlist, vectorize=None, fault_model=models[0])
    scalar = _drive(netlist, vectorize=False, fault_model=models[1])
    _assert_faulted_identical(vec, scalar, *models)
    assert vec[0].simulator.vectorized_runs == 0
    assert models[0].injection_log() == models[1].injection_log()
    assert models[0].injection_log()


def test_kernel_leaves_every_stream_where_the_scalar_loop_does(synthesized):
    """After a kernel run, each net's next draw is the scalar run's."""
    netlist = synthesized[("arith", "default")].netlist
    (vec_sim, _), vec_model = _drive_pair(netlist, jitter=2.0)
    assert vec_sim.simulator.vectorized_runs == _EXPECTED_VEC
    scalar_model = FaultModel(seed=11, jitter=2.0)
    scalar_sim, _ = _drive(netlist, vectorize=False, fault_model=scalar_model)
    names = vec_sim.simulator._net_names
    assert names == scalar_sim.simulator._net_names
    for nid in range(len(names)):
        assert vec_model.peek_draws(nid, 2) == scalar_model.peek_draws(nid, 2)


def _resumed_jitter_runs(vectorize):
    """A kernel-eligible first run, then a resumed (always scalar) run."""
    sim = PulseSimulator()
    sim.vectorize = vectorize
    sim.add_element(SplitterCell("s0", ["a"], ["a1", "a2"], 1.5))
    sim.add_element(LaCell("la0", ["a1", "b"], ["x"], 2.0))
    sim.add_element(FaCell("fa0", ["a2", "c"], ["y"], 2.5))
    sim.add_element(MergerCell("m0", ["x", "y"], ["z"], 0.5))
    model = FaultModel(jitter=0.75, seed=4)
    sim.set_fault_model(model)
    sim.run({"a": [1.0, 20.0], "b": [3.0, 21.0], "c": [2.0, 22.0]}, until=60.0)
    trace = sim.run({"a": [70.0, 90.0], "b": [72.0, 91.0], "c": [71.0, 93.0]}, until=200.0)
    return sim, model, {k: list(v) for k, v in trace.items()}


def test_scalar_run_resumed_after_a_kernel_run_continues_the_streams():
    vec_sim, vec_model, vec_trace = _resumed_jitter_runs(vectorize=True)
    scalar_sim, scalar_model, scalar_trace = _resumed_jitter_runs(vectorize=False)
    assert vec_sim.vectorized_runs == 1
    assert scalar_sim.vectorized_runs == 0
    assert vec_trace == scalar_trace
    assert vec_model.injection_counts() == scalar_model.injection_counts()
    assert vec_sim.events_processed == scalar_sim.events_processed


def _two_delay_net(vectorize, fault_model):
    sim = PulseSimulator()
    sim.vectorize = vectorize
    sim.add_element(JtlCell("j0", ["a"], ["z"], 1.0))
    sim.add_element(JtlCell("j1", ["b"], ["z"], 2.5))
    if fault_model is not None:
        sim.set_fault_model(fault_model)
    trace = sim.run({"a": [1.0, 10.0], "b": [2.0, 12.0]}, until=50.0)
    return sim, {k: list(v) for k, v in trace.items()}


def test_jitter_on_a_net_with_two_delays_runs_scalar():
    """Draw order on a net with mixed delays is not cause order: abort."""
    vec_model, scalar_model = FaultModel(jitter=0.5, seed=1), FaultModel(jitter=0.5, seed=1)
    vec_sim, vec_trace = _two_delay_net(True, vec_model)
    scalar_sim, scalar_trace = _two_delay_net(False, scalar_model)
    assert vec_sim.vectorized_runs == 0
    assert vec_trace == scalar_trace
    assert vec_model.injection_counts() == scalar_model.injection_counts() == {
        "drop": 0,
        "dup": 0,
        "jitter": 4,
    }
    # Fault-free, the same net shifts each part by its own delay.
    plain_sim, plain_trace = _two_delay_net(True, None)
    assert plain_sim.vectorized_runs == 1
    assert plain_trace == _two_delay_net(False, None)[1]


def test_reset_replay_is_bit_identical(synthesized):
    netlist = synthesized[("dag", "default")].netlist
    sim, _ = _drive(netlist, vectorize=None)
    vectors = [
        {name: (i >> k) & 1 for k, name in enumerate(sim.pi_names)}
        for i in range(9)
    ]
    runs = [sim.run_combinational(vectors) for _ in range(2)]
    assert runs[0].outputs == runs[1].outputs
    assert runs[0].trace == runs[1].trace
    assert sim.simulator.vectorized_runs == 3 * _EXPECTED_VEC  # drive + replays


def test_split_until_resume_matches_one_shot(synthesized):
    """A run stopped mid-batch resumes on the scalar loop; the combined
    trace must equal the one-shot vectorized trace."""
    netlist = synthesized[("dag", "default")].netlist
    sim = BatchedNetlistSimulator(netlist, full_trace=True, vectorize=None)
    rng = random.Random(8)
    vectors = [{n: rng.randint(0, 1) for n in sim.pi_names} for _ in range(6)]
    one_shot = sim.run_combinational(vectors)
    assert sim.simulator.vectorized_runs == _EXPECTED_VEC

    split = BatchedNetlistSimulator(netlist, full_trace=True, vectorize=None)
    period = split.phase_period
    # Rebuild the exact stimulus run_combinational would, then split it.
    split.simulator.reset()
    stimulus = {}
    constants = _constant_nets(netlist)
    for cycle, vector in enumerate(vectors):
        excite, relax = (2 * cycle) * period, (2 * cycle + 1) * period
        for pi in split.pi_names:
            _drive_input(stimulus, pi, vector.get(pi, 0), excite, relax, offset=1.0)
        _drive_constants(stimulus, constants, excite, relax, offset=1.0)
    total = 2 * len(vectors) * period + period
    split.simulator.run(stimulus, until=total / 3)
    trace = split.simulator.run(None, until=total)
    assert split.simulator.vectorized_runs == 0  # mid-batch stop forces scalar
    assert {k: v for k, v in trace.items() if v} == one_shot.trace
    assert split.simulator.events_processed == sim.simulator.events_processed


def test_observe_only_restriction_under_soa(synthesized):
    netlist = synthesized[("dag", "default")].netlist
    observed_sim, observed = _drive(netlist, vectorize=None, full_trace=False)
    full_sim, full = _drive(netlist, vectorize=None, full_trace=True)
    assert observed_sim.simulator.vectorized_runs == _EXPECTED_VEC
    output_nets = {port.net for port in netlist.output_ports}
    assert set(observed.trace) <= output_nets
    assert observed.outputs == full.outputs
    for net in observed.trace:
        assert observed.trace[net] == full.trace[net]
    # Unobserved pulses still count as events and still flag dangling nets.
    assert observed_sim.simulator.events_processed == full_sim.simulator.events_processed
    assert observed.dangling_nets == full.dangling_nets


def test_zero_pattern_batch(synthesized):
    netlist = synthesized[("arith", "default")].netlist
    vec_sim = BatchedNetlistSimulator(netlist, vectorize=None)
    vec_run = vec_sim.run_combinational([])
    scalar_sim = BatchedNetlistSimulator(netlist, vectorize=False)
    scalar_run = scalar_sim.run_combinational([])
    assert vec_run.outputs == scalar_run.outputs == []
    assert vec_run.trace == scalar_run.trace == {}
    assert vec_sim.simulator.events_processed == scalar_sim.simulator.events_processed == 0


def _hand_built_pair(vectorize):
    """Tiny feed-forward circuit with a dangling splitter leg and a merger."""
    sim = PulseSimulator()
    sim.vectorize = vectorize
    sim.add_element(SplitterCell("s0", ["a"], ["a1", "a2"], 1.5))
    sim.add_element(LaCell("la0", ["a1", "b"], ["x"], 2.0))
    sim.add_element(FaCell("fa0", ["a2", "c"], ["y"], 2.5))
    sim.add_element(MergerCell("m0", ["x", "y"], ["z"], 0.5))
    sim.add_element(SourceCell("src", "c", [4.0, 30.0]))
    stimulus = {"a": [1.0, 20.0], "b": [3.0, 21.0], "dangling_in": [2.0]}
    trace = sim.run(stimulus, until=100.0)
    return sim, {k: list(v) for k, v in trace.items()}


def test_hand_built_feed_forward_circuit_matches_scalar():
    # vectorize=True insists on the fast path even when the environment
    # forces scalar kernels — the explicit toggle always wins.
    vec_sim, vec_trace = _hand_built_pair(vectorize=True)
    scalar_sim, scalar_trace = _hand_built_pair(vectorize=False)
    assert vec_sim.vectorized_runs == 1
    assert scalar_sim.vectorized_runs == 0
    assert vec_trace == scalar_trace
    assert vec_sim.dangling_nets() == scalar_sim.dangling_nets()
    assert "dangling_in" in vec_sim.dangling_nets()
    assert "z" in vec_sim.dangling_nets()
    assert vec_sim.events_processed == scalar_sim.events_processed
    assert vec_sim.trace("z") == scalar_sim.trace("z")


def test_int_stimulus_times_fall_back_to_scalar():
    """Scalar traces preserve int stimulus times; the fast path must not
    silently convert them to floats."""
    sim = PulseSimulator()
    sim.add_element(SplitterCell("s0", ["a"], ["b", "c"], 1.0))
    trace = sim.run({"a": [1, 2]}, until=10.0)
    assert sim.vectorized_runs == 0
    assert trace["a"] == [1, 2]
    assert all(isinstance(t, int) for t in trace["a"])


SUBPROCESS_SNIPPET = r"""
import hashlib, json
from repro.core import flow_variant
from repro.gen import generate_specs
from repro.sim.pulse import BatchedNetlistSimulator
from repro.verify import stimulus_suite

spec = generate_specs(1, seed=13, families=["dag"])[0]
result = flow_variant("default").run(spec.build())
sim = BatchedNetlistSimulator(result.netlist, full_trace=True)
suite = stimulus_suite(sim.pi_names, num_patterns=16, seed=4)
run = sim.run_combinational(suite.as_dicts())
payload = json.dumps(
    {"trace": run.trace, "outputs": run.outputs},
    sort_keys=True,
)
print(hashlib.sha256(payload.encode()).hexdigest())
"""


def _subprocess_digest(hash_seed, scalar):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if scalar:
        env["REPRO_SCALAR_KERNELS"] = "1"
    else:
        env.pop("REPRO_SCALAR_KERNELS", None)
    proc = subprocess.run(
        [sys.executable, "-c", SUBPROCESS_SNIPPET],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout.strip()


@pytest.mark.parametrize("scalar", [False, True], ids=["vectorized", "scalar-forced"])
def test_trace_bytes_stable_across_hash_seeds(scalar):
    """PYTHONHASHSEED-varied subprocesses produce byte-identical traces,
    with and without the SoA fast path."""
    digests = {_subprocess_digest(seed, scalar) for seed in ("0", "31337")}
    assert len(digests) == 1


def test_scalar_forced_subprocess_matches_vectorized_subprocess():
    """The scalar and vectorized kernels agree byte-for-byte end to end."""
    assert _subprocess_digest("7", scalar=False) == _subprocess_digest("7", scalar=True)


# ---------------------------------------------------------------------------
# Sequential trajectories as kernel lanes
# ---------------------------------------------------------------------------

#: Catalog FSMs (retimed by the default flow) for the lane wall.
LANE_CATALOG = ("s27", "s298", "s344", "s641")
#: Fault-free, two jitter widths and a relax-phase skew.
LANE_MODELS = [{}, {"jitter": 0.6}, {"jitter": 2.5}, {"skew": 6.0}]


@pytest.fixture(scope="module")
def lane_netlists():
    """Sequential netlists: the catalog FSMs (retimed), s298 without
    retiming, and the Figure 7 counter."""
    from repro.circuits import build as build_circuit
    from repro.eval.experiments import counter_network

    netlists = {
        name: flow_variant("default").run(build_circuit(name, "quick")).netlist
        for name in LANE_CATALOG
    }
    netlists["s298-no-retime"] = flow_variant("no-retime").run(build_circuit("s298", "quick")).netlist
    netlists["figure7-counter"] = flow_variant("default").run(counter_network(2)).netlist
    return netlists


def _element_states(sim):
    return [
        (getattr(e, "_arrived", None), getattr(e, "_fired", None), getattr(e, "state", None))
        for e in sim.simulator.elements
    ]


def _assert_lanes_match_scalar(netlist, fault_kwargs, trajectories=5, cycles=6, full_trace=True):
    """Each lane equals a scalar ``run_sequence`` of its trajectory, and the
    simulator and fault model end where the last scalar run leaves them."""
    models = [FaultModel(seed=9, **fault_kwargs) if fault_kwargs else None for _ in range(2)]
    scalar, lanes = (
        BatchedNetlistSimulator(netlist, full_trace=full_trace, fault_model=model, vectorize=vectorize)
        for model, vectorize in zip(models, (False, None))
    )
    suite = stimulus_suite(scalar.pi_names, num_patterns=trajectories * cycles, seed=2, allow_exhaustive=False)
    vectors = [[dict(zip(suite.inputs, row)) for row in sequence] for sequence in suite.sequences(cycles)]
    expected = [scalar.run_sequence(trajectory) for trajectory in vectors]
    runs = lanes.run_sequences(vectors)
    if not _EXPECTED_VEC:
        assert runs is None
        return lanes
    assert runs is not None, lanes.simulator.kernel_aborts
    for want, got in zip(expected, runs):
        assert got.outputs == want.outputs
        assert got.trace == want.trace
        assert got.dangling_nets == want.dangling_nets
        assert got.all_cells_reinitialised == want.all_cells_reinitialised
    a, b = scalar.simulator, lanes.simulator
    assert b.vectorized_runs == len(vectors)
    assert b.events_processed == a.events_processed
    assert b.dangling_nets() == a.dangling_nets()
    assert (b._sequence, b._processed_until) == (a._sequence, a._processed_until)
    assert _element_states(lanes) == _element_states(scalar)
    assert {k: list(v) for k, v in b.run().items()} == {k: list(v) for k, v in a.run().items()}
    if fault_kwargs:
        assert models[1].injection_counts() == models[0].injection_counts()
        size = len(b._net_names)
        assert models[1].draw_tables(size)[1] == models[0].draw_tables(size)[1]
    return lanes


@pytest.mark.parametrize("fault_kwargs", LANE_MODELS, ids=lambda kw: next(iter(kw), "none"))
@pytest.mark.parametrize("name", [*LANE_CATALOG, "s298-no-retime", "figure7-counter"])
def test_lanes_match_scalar_trajectories(name, fault_kwargs, lane_netlists):
    _assert_lanes_match_scalar(lane_netlists[name], fault_kwargs)


@pytest.mark.parametrize("fault_kwargs", LANE_MODELS[:2] + LANE_MODELS[3:], ids=lambda kw: next(iter(kw), "none"))
@pytest.mark.parametrize("variant", VARIANTS)
def test_lanes_match_scalar_on_fsm_family(variant, fault_kwargs, synthesized):
    """The fuzz FSM family under every flow variant.  (At 2.5 ps of jitter
    its default mapping has an FA whose second input pulses twice before
    the first one arrives, which the sweep does not model: it aborts and
    the trajectories run on the scalar loop.)"""
    _assert_lanes_match_scalar(synthesized[("fsm", variant)].netlist, fault_kwargs)


def test_lanes_observe_only_primary_outputs(lane_netlists):
    """Verify-style capture: only the primary-output rails are traced."""
    _assert_lanes_match_scalar(lane_netlists["s344"], {"jitter": 1.0}, trajectories=9, full_trace=False)


def test_lanes_abort_without_moving_anything(lane_netlists):
    """Jitter wide enough to push data across clock edges: the sweep gives
    up, records why, and leaves the simulator and the model untouched."""
    model = FaultModel(seed=9, jitter=60.0)
    sim = BatchedNetlistSimulator(lane_netlists["s298"], fault_model=model)
    suite = stimulus_suite(sim.pi_names, num_patterns=24, seed=2, allow_exhaustive=False)
    vectors = [[dict(zip(suite.inputs, row)) for row in sequence] for sequence in suite.sequences(6)]
    sim.run_sequence(vectors[0])
    before = (sim.simulator.events_processed, sim.simulator._sequence, dict(model.totals), list(model._cursors))
    assert sim.run_sequences(vectors) is None
    assert (sim.simulator.events_processed, sim.simulator._sequence, dict(model.totals), list(model._cursors)) == before
    assert sim.simulator.vectorized_runs == 0
    assert sum(sim.simulator.kernel_aborts.values()) == _EXPECTED_VEC


def test_lanes_veto_commits_nothing(lane_netlists):
    sim = BatchedNetlistSimulator(lane_netlists["s27"])
    suite = stimulus_suite(sim.pi_names, num_patterns=12, seed=2, allow_exhaustive=False)
    vectors = [[dict(zip(suite.inputs, row)) for row in sequence] for sequence in suite.sequences(4)]
    seen = []
    assert sim.run_sequences(vectors, accept=lambda runs: seen.append(len(runs))) is None
    assert seen == [len(vectors)] * _EXPECTED_VEC
    assert sim.simulator.events_processed == 0
    assert (sim.batches_run, sim.patterns_run) == (0, 0)


@pytest.mark.parametrize("name", ["s27", "s344"])
def test_sequential_verdicts_match_the_scalar_loop(name):
    """Verify through lanes and on the scalar loop alone: same verdicts
    (counterexamples in later trajectories included), same injections
    and events, across a margin search's magnitudes."""
    from repro.circuits import build as build_circuit
    from repro.verify.equivalence import NetlistVerifier

    network = build_circuit(name, "quick")
    result = flow_variant("default").run(network)
    verifiers = [NetlistVerifier(result, golden=network, patterns=64) for _ in range(2)]
    verifiers[1].sim.simulator.vectorize = False
    later = 0
    for kwargs in ({}, {"jitter": 1.5}, {"jitter": 3.5}, {"jitter": 6.0}, {"skew": 8.0}, {"skew": 40.0}):
        models = [FaultModel(seed=0, **kwargs) for _ in verifiers]
        verdicts = [v.verify(m, localise=False).to_dict() for v, m in zip(verifiers, models)]
        assert verdicts[0] == verdicts[1]
        assert models[0].injection_counts() == models[1].injection_counts()
        cex = verdicts[0]["counterexample"]
        later += bool(cex and cex["sequence"] > 0)
    lanes, scalar = (v.sim.simulator for v in verifiers)
    assert lanes.events_processed == scalar.events_processed
    assert scalar.vectorized_runs == 0
    assert later > 0
    if _EXPECTED_VEC:
        assert lanes.vectorized_runs > 0


def test_lane_miscompare_is_rederived_on_the_scalar_loop():
    """A golden that disagrees with s27 only on G0 & G1 & !G3: trajectory
    0 passes, the lanes see the miscompare, veto their own result, and
    the verdict comes from the scalar loop with nothing counted twice."""
    from repro.aig import network_to_aig
    from repro.circuits import build as build_circuit
    from repro.verify.equivalence import NetlistVerifier

    network = build_circuit("s27", "quick")
    result = flow_variant("default").run(network)
    golden = network_to_aig(network)
    pi = {name: 2 * node for node, name in zip(golden.pi_nodes, golden.pi_names)}
    rare = golden.add_and(golden.add_and(pi["G0"], pi["G1"]), pi["G3"] ^ 1)
    golden.po_lits[0] = golden.add_xor(golden.po_lits[0], rare)
    verifiers = [NetlistVerifier(result, golden=golden, patterns=64) for _ in range(2)]
    verifiers[1].sim.simulator.vectorize = False
    verdicts = [v.verify(None).to_dict() for v in verifiers]
    assert verdicts[0] == verdicts[1]
    assert verdicts[0]["status"] == "counterexample"
    assert verdicts[0]["counterexample"]["sequence"] > 0
    lanes, scalar = (v.sim.simulator for v in verifiers)
    assert lanes.kernel_aborts == {}
    assert lanes.vectorized_runs == 0
    assert lanes.events_processed == scalar.events_processed


def test_lanes_of_different_lengths_are_declined_and_counted(lane_netlists):
    sim = BatchedNetlistSimulator(lane_netlists["s27"])
    vectors = [[{pi: 1 for pi in sim.pi_names}] * cycles for cycles in (3, 4)]
    assert sim.run_sequences(vectors) is None
    assert sim.simulator.events_processed == 0
    assert sim.simulator.kernel_aborts == ({"lane-dependent clock": 1} if _EXPECTED_VEC else {})
