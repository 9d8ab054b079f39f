"""The no-op guarantee: zero-magnitude faults reproduce nominal traces.

Every simulating test runs on both pulse engines, through its
``vectorize`` argument.  The plain test keeps the default
``vectorize=None``, under which combinational batches take the per-net
kernel and sequential trajectories its lanes (``run_sequences``), both
of which accept emission-inert models (and jitter-only ones); its
``*_on_scalar_hooks`` twin passes ``vectorize=False``, under which a
zero-rate / zero-magnitude :class:`FaultModel` is installed on the
scalar loop, which recognises it as emission-inert.  Either way the
*code path* under test is the faulty one, and its output must be
byte-identical to a simulator without any model installed.
``ReferencePulseSimulator`` remains the fault-free differential oracle
throughout.
"""

import os

import pytest

from repro.circuits import build
from repro.core import Flow
from repro.faults import FaultModel, default_scenario
from repro.sim.pulse import BatchedNetlistSimulator

#: Catalog samples: combinational + sequential, small enough to be fast.
SAMPLES = ("ctrl", "int2float", "s27", "s298")

KINDS = ("drop", "dup", "jitter", "skew")

#: ``vectorize=None`` lets combinational batches take the per-net kernel
#: unless REPRO_SCALAR_KERNELS=1; ``False`` forces the scalar hooks.
_KERNEL_ON = os.environ.get("REPRO_SCALAR_KERNELS", "") != "1"


@pytest.fixture(scope="module")
def synthesized():
    return {name: Flow.default().run(build(name, "quick")) for name in SAMPLES}


def _vectors(sim, count=6):
    return [
        {pi: (i + j) % 2 for j, pi in enumerate(sim.pi_names)}
        for i in range(count)
    ]


def _run(sim, vectors):
    """One batch; a sequential one as a lane when kernels are allowed."""
    if not sim.is_sequential:
        return sim.run_combinational(vectors)
    if sim.simulator.vectorize is not False:
        lanes = sim.run_sequences([vectors])
        if lanes is not None:
            return lanes[0]
    return sim.run_sequence(vectors)


def _expected_kernel_runs(sim, vectorize, runs=1):
    """Kernel runs (batches or lanes) a faulted simulator should report."""
    return runs if vectorize is None and _KERNEL_ON else 0


@pytest.mark.parametrize("name", SAMPLES)
@pytest.mark.parametrize("kind", KINDS)
def test_zero_magnitude_scenario_is_bit_exact(synthesized, name, kind, vectorize=None):
    result = synthesized[name]
    plain = BatchedNetlistSimulator(result.netlist, full_trace=True, vectorize=False)
    model = default_scenario(kind, seed=0).with_magnitude(0.0).model()
    assert model.is_noop()
    faulty = BatchedNetlistSimulator(
        result.netlist, full_trace=True, fault_model=model, vectorize=vectorize
    )
    vectors = _vectors(plain)
    nominal, injected = _run(plain, vectors), _run(faulty, vectors)
    assert injected.trace == nominal.trace
    assert injected.outputs == nominal.outputs
    assert model.injection_counts() == {"drop": 0, "dup": 0, "jitter": 0}
    assert faulty.simulator.vectorized_runs == _expected_kernel_runs(faulty, vectorize)


@pytest.mark.parametrize("name", SAMPLES)
@pytest.mark.parametrize("kind", KINDS)
def test_zero_magnitude_scenario_is_bit_exact_on_scalar_hooks(synthesized, name, kind):
    test_zero_magnitude_scenario_is_bit_exact(synthesized, name, kind, vectorize=False)


def test_zero_magnitude_survives_resets(synthesized, vectorize=None):
    """Sequential batching resets between trajectories; still bit-exact."""
    result = synthesized["s27"]
    plain = BatchedNetlistSimulator(result.netlist, full_trace=True)
    faulty = BatchedNetlistSimulator(
        result.netlist, full_trace=True, fault_model=FaultModel(), vectorize=vectorize
    )
    for offset in range(3):
        vectors = [
            {pi: (i + offset) % 2 for pi in plain.pi_names} for i in range(4)
        ]
        assert _run(faulty, vectors).trace == plain.run_sequence(vectors).trace
    assert faulty.simulator.vectorized_runs == _expected_kernel_runs(faulty, vectorize, 3)


def test_zero_magnitude_survives_resets_on_scalar_hooks(synthesized):
    test_zero_magnitude_survives_resets(synthesized, vectorize=False)


def test_reference_simulator_has_no_fault_hook():
    """The differential oracle stays fault-free by construction."""
    from repro.sim.pulse import ReferencePulseSimulator

    assert not hasattr(ReferencePulseSimulator, "set_fault_model")


def test_zero_magnitude_survives_combinational_resets(synthesized, vectorize=None):
    """Replayed combinational batches stay bit-exact on either engine."""
    result = synthesized["int2float"]
    plain = BatchedNetlistSimulator(result.netlist, full_trace=True)
    faulty = BatchedNetlistSimulator(
        result.netlist, full_trace=True, fault_model=FaultModel(), vectorize=vectorize
    )
    for offset in range(3):
        vectors = [
            {pi: (i + offset) % 2 for pi in plain.pi_names} for i in range(4)
        ]
        assert faulty.run_combinational(vectors).trace == plain.run_combinational(vectors).trace
    assert faulty.simulator.vectorized_runs == _expected_kernel_runs(faulty, vectorize, 3)


def test_zero_magnitude_survives_combinational_resets_on_scalar_hooks(synthesized):
    test_zero_magnitude_survives_combinational_resets(synthesized, vectorize=False)


def test_nonzero_jitter_changes_internal_timing(synthesized, vectorize=None):
    """Sanity: the hook is live — a real magnitude perturbs the trace."""
    result = synthesized["ctrl"]
    plain = BatchedNetlistSimulator(result.netlist, full_trace=True)
    model = default_scenario("jitter", seed=0).model()  # 2 ps
    faulty = BatchedNetlistSimulator(
        result.netlist, full_trace=True, fault_model=model, vectorize=vectorize
    )
    vectors = _vectors(plain)
    assert faulty.run_combinational(vectors).trace != plain.run_combinational(vectors).trace
    assert model.injection_counts()["jitter"] > 0
    assert faulty.simulator.vectorized_runs == _expected_kernel_runs(faulty, vectorize)


def test_nonzero_jitter_changes_internal_timing_on_scalar_hooks(synthesized):
    test_nonzero_jitter_changes_internal_timing(synthesized, vectorize=False)
