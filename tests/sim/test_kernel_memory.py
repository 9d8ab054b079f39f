"""The per-net pulse kernel's working set follows the live cut, not the net count.

Each net's pulse train is dropped right after its last consumer runs,
unless its trace is captured (the primary-output rails under
``observe_only``).  One warm 256-pattern list-form batch of c880 (medium
effort) peaks at ~0.9 MB under ``tracemalloc``; keeping every net's full
train alive until the end of the run peaks at ~4.4 MB.

Sequential lanes follow the same release schedule within each pulse
index: 31 warm verify-style lanes of s344 (8 cycles each) peak at
~0.8 MB, and keeping every net's lane values of every index alive peaks
at ~2.2 MB.
"""

import os
import random
import tracemalloc

import pytest

from repro.circuits import build as build_circuit
from repro.core import Flow, FlowOptions
from repro.sim.pulse import BatchedNetlistSimulator, soa

PATTERNS = 256
PEAK_LIMIT_MB = 1.5
LANES = 31
LANE_PEAK_LIMIT_MB = 1.5

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SCALAR_KERNELS", "") == "1",
    reason="measures the per-net kernel, which REPRO_SCALAR_KERNELS=1 disables",
)


def test_c880_batch_peak_stays_near_the_live_cut():
    result = Flow.from_options(FlowOptions(effort="medium")).run(build_circuit("c880", "quick"))
    sim = BatchedNetlistSimulator(result.netlist)
    rng = random.Random(0)
    vectors = [{name: rng.randint(0, 1) for name in sim.pi_names} for _ in range(PATTERNS)]
    assert soa._array_ops(PATTERNS) is soa._LIST_OPS
    warm = sim.run_combinational(vectors)  # compiles the plan, interns every net

    tracemalloc.start()
    try:
        run = sim.run_combinational(vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert sim.simulator.vectorized_runs == 2
    assert run.outputs == warm.outputs
    assert peak <= PEAK_LIMIT_MB * 1e6, f"peak {peak / 1e6:.2f} MB"


def test_s344_lanes_peak_stays_near_the_live_cut():
    result = Flow.default().run(build_circuit("s344", "quick"))
    sim = BatchedNetlistSimulator(result.netlist)
    rng = random.Random(0)
    trajectories = [
        [{name: rng.randint(0, 1) for name in sim.pi_names} for _ in range(8)]
        for _ in range(LANES)
    ]
    warm = sim.run_sequences(trajectories)  # compiles the plan, interns every net

    tracemalloc.start()
    try:
        runs = sim.run_sequences(trajectories)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert sim.simulator.vectorized_runs == 2 * LANES
    assert [run.outputs for run in runs] == [run.outputs for run in warm]
    assert peak <= LANE_PEAK_LIMIT_MB * 1e6, f"peak {peak / 1e6:.2f} MB"
