"""Registered benchmark suites over the repo's real workloads.

Five scenario families mirror the operator-facing campaigns (catalog
verification, differential fuzzing, fault-margin search, synthesis
flow) plus the two simulation kernels the campaigns spend their time in
(batched pulse simulation, word-parallel AIG simulation).  Every family exists in a
``smoke`` size — seconds, CI-friendly, compared against the committed
baseline in ``benchmarks/baselines/`` — and a full size for local
optimisation work.

All workloads run with the on-disk result cache disabled and (via the
harness) a fresh in-process stage cache per invocation, so repeats pay
the true cost.  Verification workloads additionally assert that every
verdict is EQUIVALENT — a benchmark silently timing a broken campaign
would be worse than no benchmark.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from .harness import BenchSpec

#: Circuits small enough for the smoke suite but structurally diverse
#: (EPFL control, ISCAS85 combinational, two sequential controllers).
SMOKE_VERIFY_CIRCUITS = ("ctrl", "c432", "s27", "s298")
SMOKE_SYNTH_CIRCUITS = ("c880", "s344")
FULL_SYNTH_CIRCUITS = ("c1908", "c3540", "voter", "s838.1")
SMOKE_FAULT_CIRCUITS = ("ctrl", "s27", "s298")


def _campaign_workload(
    batch: Callable[[], object], counters: Callable[[object], Mapping[str, float]]
) -> Callable[[], Mapping[str, float]]:
    """A verify, fuzz or faults batch, run serially; any failing unit fails it."""

    def run() -> Mapping[str, float]:
        from ..eval.runner import Runner

        report = Runner(jobs=1, cache=None).campaign(batch())
        if not report.all_equivalent:
            failed = [r.get("circuit") for r in report.failures + report.errors]
            raise RuntimeError(f"{report.name} benchmark failed on {failed}")
        return counters(report)

    return run


def _verify_workload(
    circuits, patterns: int, effort: str = "medium"
) -> Callable[[], Mapping[str, float]]:
    def batch():
        from ..core import Flow, FlowOptions
        from ..verify import VerificationCampaign, catalog_specs

        flow = Flow.from_options(FlowOptions(effort=effort))
        names = list(circuits) if circuits else None
        return VerificationCampaign(catalog_specs(names, "quick", flow, patterns))

    return _campaign_workload(
        batch, lambda report: {"patterns": report.total_patterns(), "circuits": len(report.records)}
    )


def _fuzz_workload(budget: int, seed: int = 0) -> Callable[[], Mapping[str, float]]:
    def batch():
        from ..gen import FuzzCampaign

        return FuzzCampaign(budget=budget, seed=seed).batch()

    return _campaign_workload(
        batch,
        lambda report: {
            "patterns": float(report.total_patterns()),
            "units": float(len(report.records)),
        },
    )


def _soak_batch_workload(
    budget: int, batch_size: int, seed: int = 0
) -> Callable[[], Mapping[str, float]]:
    """One cold soak shard: batched verify + coverage folding + checkpoints.

    Each invocation runs in a fresh temporary checkpoint directory, so
    repeats measure the full batch loop (verification, feature
    extraction, checkpoint serialisation) rather than a resume no-op.
    """

    def run() -> Mapping[str, float]:
        import tempfile
        from pathlib import Path

        from ..cov.soak import SoakCampaign, run_soak
        from ..eval.runner import Runner
        from ..gen import FuzzCampaign

        campaign = SoakCampaign(
            fuzz=FuzzCampaign(budget=budget, seed=seed, steer=True),
            batch_size=batch_size,
        )
        with tempfile.TemporaryDirectory(prefix="repro-soak-bench-") as tmp:
            state = run_soak(campaign, Runner(jobs=1, cache=None), Path(tmp))
        if state.failures:
            raise RuntimeError("soak benchmark produced counterexamples")
        return {
            "units": float(state.units_done),
            "new_features": float(state.new_features_total()),
        }

    return run


def _faults_margin_workload(
    circuits: Sequence[str], kind: str = "jitter", patterns: int = 32
) -> Callable[[], Mapping[str, float]]:
    """Margin bisection per circuit: the fault subsystem's hot loop.

    Each margin search re-verifies the circuit once per probe with the
    fault model installed, so this times the injected simulator path
    (per-net RNG draws on every emission) end to end.
    """

    def batch():
        from ..faults import FaultCampaign

        campaign = FaultCampaign(
            circuits=tuple(circuits), kinds=(kind,), patterns=patterns, margin=True
        )
        return campaign.batch()

    def counters(report) -> Mapping[str, float]:
        probes = sum(len(r.get("margin_probes") or ()) for r in report.records)
        return {"units": float(len(report.records)), "probes": float(probes)}

    return _campaign_workload(batch, counters)


def _synthesis_workload(
    circuits: Sequence[str], effort: str = "medium"
) -> Callable[[], Mapping[str, float]]:
    def run() -> Mapping[str, float]:
        from ..circuits import build as build_circuit
        from ..core import Flow, FlowOptions

        flow = Flow.from_options(FlowOptions(effort=effort))
        cells = 0
        for name in circuits:
            result = flow.run(build_circuit(name, "quick"))
            cells += len(result.netlist.cells)
        return {"circuits": float(len(circuits)), "cells": float(cells)}

    return run


@lru_cache(maxsize=None)
def _synthesized(circuit: str, effort: str):
    """Synthesise once per process: the kernel benches time simulation only."""
    from ..circuits import build as build_circuit
    from ..core import Flow, FlowOptions

    network = build_circuit(circuit, "quick")
    return network, Flow.from_options(FlowOptions(effort=effort)).run(network)


def _pulse_batch_workload(
    circuit: str, patterns: int, effort: str = "medium"
) -> Callable[[], Mapping[str, float]]:
    def run() -> Mapping[str, float]:
        from ..sim.pulse import BatchedNetlistSimulator

        network, result = _synthesized(circuit, effort)
        sim = BatchedNetlistSimulator(result.netlist)
        rng = random.Random(0)
        vectors = [
            {name: rng.randint(0, 1) for name in sim.pi_names}
            for _ in range(patterns)
        ]
        sim.run_combinational(vectors)
        return {"patterns": float(patterns)}

    return run


def _aig_sim_workload(
    circuit: str, num_patterns: int, rounds: int
) -> Callable[[], Mapping[str, float]]:
    def run() -> Mapping[str, float]:
        from ..aig import network_to_aig
        from ..aig.simulate import simulate_random
        from ..circuits import build as build_circuit

        aig = network_to_aig(build_circuit(circuit, "quick"))
        for round_index in range(rounds):
            simulate_random(aig, num_patterns=num_patterns, seed=round_index)
        return {"patterns": float(num_patterns * rounds)}

    return run


@lru_cache(maxsize=None)
def _wide_aig(num_pis: int, width: int, depth: int):
    """Deterministic wide synthetic DAG exercising the numpy AIG kernel.

    The catalog circuits are narrow (mean AND-level width below ~10), so
    the ``auto`` dispatch correctly keeps them on the bigint kernel; a
    dedicated wide graph is needed to benchmark the levelised numpy
    sweep at its operating point.
    """
    from ..aig.graph import Aig

    rng = random.Random(0xA16)
    aig = Aig(f"wide{width}x{depth}")
    layer = [aig.add_pi() for _ in range(num_pis)]
    for _ in range(depth):
        layer = [
            aig.add_and(a ^ rng.randint(0, 1), b ^ rng.randint(0, 1))
            for a, b in (rng.sample(layer, 2) for _ in range(width))
        ]
    for lit in layer[: min(8, len(layer))]:
        aig.add_po(lit)
    return aig


def _aig_sim_wide_workload(
    num_patterns: int, rounds: int, width: int = 1500, depth: int = 8
) -> Callable[[], Mapping[str, float]]:
    def run() -> Mapping[str, float]:
        from ..aig.simulate import simulate_random

        aig = _wide_aig(64, width, depth)
        for round_index in range(rounds):
            simulate_random(aig, num_patterns=num_patterns, seed=round_index)
        return {"patterns": float(num_patterns * rounds)}

    return run


def _exec_overhead_workload(
    units: int = 400, spin: int = 200
) -> Callable[[], Mapping[str, float]]:
    """Pure scheduling overhead of the supervised persistent-worker backend.

    Probe units do near-zero work, so the measured wall time is
    dominated by the ``repro.exec`` lifecycle itself: keying, dispatch
    over the worker queues, result collection, event emission.  A
    regression here means every campaign pays more per unit.
    """

    def run() -> Mapping[str, float]:
        from ..exec import PersistentWorkerExecutor, ProbeUnit, run_units

        probes = [ProbeUnit(index=i, spin=spin) for i in range(units)]
        with PersistentWorkerExecutor(jobs=2) as executor:
            outcome = run_units(probes, executor=executor, jobs=2)
        if outcome.errors or outcome.computed != units:
            raise RuntimeError("exec overhead benchmark lost units")
        return {"units": float(units)}

    return run


def _specs(entries: Sequence[BenchSpec]) -> Dict[str, BenchSpec]:
    return {spec.name: spec for spec in entries}


SPECS: Dict[str, BenchSpec] = _specs(
    [
        # Smoke workloads are sized to run a few hundred milliseconds at
        # least: much shorter and the CI regression gate's percentage
        # threshold starts measuring scheduler jitter instead of code.
        BenchSpec(
            "verify-smoke",
            f"catalog verify subset ({', '.join(SMOKE_VERIFY_CIRCUITS)}, 128 patterns)",
            _verify_workload(SMOKE_VERIFY_CIRCUITS, patterns=128),
            tags=("verify",),
        ),
        BenchSpec(
            "fuzz-smoke",
            "differential fuzz campaign (budget 20, default flows)",
            _fuzz_workload(budget=20),
            tags=("fuzz",),
        ),
        BenchSpec(
            "soak-batch-smoke",
            "steered soak shard (budget 8, batch 4, fresh checkpoints)",
            _soak_batch_workload(budget=8, batch_size=4),
            tags=("fuzz", "soak"),
        ),
        BenchSpec(
            "soak-batch",
            "steered soak shard (budget 60, batch 20, fresh checkpoints)",
            _soak_batch_workload(budget=60, batch_size=20),
            repeat=2,
            tags=("fuzz", "soak"),
        ),
        BenchSpec(
            "faults-margin-smoke",
            f"fault-margin bisection, jitter ({', '.join(SMOKE_FAULT_CIRCUITS)}, 32 patterns)",
            _faults_margin_workload(SMOKE_FAULT_CIRCUITS),
            tags=("faults",),
        ),
        BenchSpec(
            "synthesis-smoke",
            f"synthesis flow, medium effort ({', '.join(SMOKE_SYNTH_CIRCUITS)})",
            _synthesis_workload(SMOKE_SYNTH_CIRCUITS),
            tags=("synthesis",),
        ),
        BenchSpec(
            "pulse-batch-smoke",
            "batched pulse simulation of c880 (512 patterns, one elaboration)",
            _pulse_batch_workload("c880", patterns=512),
            tags=("kernel",),
        ),
        BenchSpec(
            "aig-sim-smoke",
            "word-parallel AIG simulation of voter (256-bit words x 2048 rounds)",
            _aig_sim_workload("voter", num_patterns=256, rounds=2048),
            tags=("kernel",),
        ),
        BenchSpec(
            "aig-sim-wide-smoke",
            "levelised numpy AIG sweep, wide synthetic DAG (12k nodes, 64-bit words x 1024 rounds)",
            _aig_sim_wide_workload(num_patterns=64, rounds=1024),
            tags=("kernel",),
        ),
        BenchSpec(
            "aig-sim-wide",
            "levelised numpy AIG sweep, wide synthetic DAG (12k nodes, 256-bit words x 4096 rounds)",
            _aig_sim_wide_workload(num_patterns=256, rounds=4096),
            tags=("kernel",),
        ),
        BenchSpec(
            "exec-overhead-smoke",
            "repro.exec per-unit scheduling overhead (400 probe units, 2 workers)",
            _exec_overhead_workload(units=400),
            tags=("exec",),
        ),
        BenchSpec(
            "verify-catalog",
            "full catalog verification campaign (37 circuits, 256 patterns)",
            _verify_workload(None, patterns=256),
            repeat=2,
            tags=("verify",),
        ),
        BenchSpec(
            "fuzz-campaign",
            "differential fuzz campaign (budget 200, default flows)",
            _fuzz_workload(budget=200),
            repeat=2,
            tags=("fuzz",),
        ),
        BenchSpec(
            "synthesis-flow",
            f"synthesis flow, medium effort ({', '.join(FULL_SYNTH_CIRCUITS)})",
            _synthesis_workload(FULL_SYNTH_CIRCUITS),
            repeat=2,
            tags=("synthesis",),
        ),
        BenchSpec(
            "pulse-batch",
            "batched pulse simulation of c1908 (1024 patterns, one elaboration)",
            _pulse_batch_workload("c1908", patterns=1024),
            tags=("kernel",),
        ),
        BenchSpec(
            "aig-sim",
            "word-parallel AIG simulation of c6288 (1024-bit words x 64 rounds)",
            _aig_sim_workload("c6288", num_patterns=1024, rounds=64),
            tags=("kernel",),
        ),
    ]
)

#: Suite name -> ordered benchmark names.
SUITES: Dict[str, Tuple[str, ...]] = {
    "smoke": (
        "verify-smoke",
        "fuzz-smoke",
        "synthesis-smoke",
        "faults-margin-smoke",
        "pulse-batch-smoke",
        "aig-sim-smoke",
        "aig-sim-wide-smoke",
        "exec-overhead-smoke",
    ),
    "exec": ("exec-overhead-smoke",),
    "verify": ("verify-catalog",),
    "faults": ("faults-margin-smoke",),
    "fuzz": ("fuzz-campaign",),
    "soak": ("soak-batch-smoke", "soak-batch"),
    "synthesis": ("synthesis-flow",),
    "kernels": ("pulse-batch", "aig-sim", "aig-sim-wide"),
    "full": (
        "verify-catalog",
        "fuzz-campaign",
        "synthesis-flow",
        "pulse-batch",
        "aig-sim",
        "aig-sim-wide",
    ),
}


def suite_names() -> List[str]:
    return sorted(SUITES)


def suite_specs(suite: str) -> List[BenchSpec]:
    """Resolve a suite name into its ordered benchmark specs."""
    try:
        names = SUITES[suite]
    except KeyError:
        raise KeyError(
            f"unknown bench suite {suite!r}; known: {', '.join(suite_names())}"
        ) from None
    return [SPECS[name] for name in names]
