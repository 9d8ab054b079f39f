"""How the scalar loop applies fault models, and how often it seeds streams.

Emission-inert models (zero magnitude, or skew, which only moves the
stimulus) run the fault-free loop and never call ``FaultModel.emissions``;
jitter-only models are drawn inline from the same per-net streams the
hook reads, so a ``record_log`` model (which keeps the hook) must give
the same traces, totals and cursors.  The models of one seed installed
on one simulator share its value table: a margin search seeds each net's
stream once.
"""

from collections import Counter

import pytest

from repro.circuits import build
from repro.core import Flow
from repro.faults import FaultModel, default_scenario, fault_record
from repro.faults import models
from repro.sim.pulse import BatchedNetlistSimulator
from repro.verify import VerificationSpec

#: One combinational and two sequential catalog samples.
SAMPLES = ("ctrl", "s27", "s298")


@pytest.fixture(scope="module")
def synthesized():
    return {name: Flow.default().run(build(name, "quick")) for name in SAMPLES}


def _vectors(sim, count=6):
    return [{pi: (i * 7 + j) % 3 == 0 for j, pi in enumerate(sim.pi_names)} for i in range(count)]


def _scalar_run(result, model):
    sim = BatchedNetlistSimulator(result.netlist, full_trace=True, fault_model=model, vectorize=False)
    vectors = _vectors(sim)
    run = sim.run_sequence(vectors) if sim.is_sequential else sim.run_combinational(vectors)
    return sim, run


@pytest.mark.parametrize("name", SAMPLES)
@pytest.mark.parametrize(
    "model",
    [
        FaultModel(),
        FaultModel(skew=10.0),
        default_scenario("drop", seed=3).with_magnitude(0.0).model(),
        default_scenario("dup", seed=3).with_magnitude(0.0).model(),
    ],
    ids=["zero", "skew", "zero-drop", "zero-dup"],
)
def test_emission_inert_models_never_call_the_hook(synthesized, name, model, monkeypatch):
    calls = []
    hook = FaultModel.emissions

    def spy(self, nid, time, now):
        calls.append(nid)
        return hook(self, nid, time, now)

    monkeypatch.setattr(FaultModel, "emissions", spy)
    _, run = _scalar_run(synthesized[name], model.clone())
    _, nominal = _scalar_run(synthesized[name], None)
    assert calls == []
    if not model.skew:
        assert run.trace == nominal.trace


@pytest.mark.parametrize("name", SAMPLES)
@pytest.mark.parametrize("jitter", [0.75, 6.0])
def test_inline_jitter_draws_match_the_logged_hook(synthesized, name, jitter):
    """``record_log`` keeps the generic hook; the draws must be the inline ones."""
    inline = FaultModel(jitter=jitter, seed=8)
    logged = FaultModel(jitter=jitter, seed=8, record_log=True)
    inline_sim, inline_run = _scalar_run(synthesized[name], inline)
    logged_sim, logged_run = _scalar_run(synthesized[name], logged)
    assert inline_run.trace == logged_run.trace
    assert inline_run.outputs == logged_run.outputs
    assert inline.injection_counts() == logged.injection_counts()
    assert inline.injection_counts()["jitter"] == len(logged.injection_log()) > 0
    assert inline_sim.simulator.events_processed == logged_sim.simulator.events_processed
    size = len(inline_sim.simulator._net_names)
    assert inline.draw_tables(size)[1] == logged.draw_tables(size)[1]


def test_margin_search_seeds_each_net_stream_once(monkeypatch):
    """Every probe of a unit draws the same values: seed each net once."""
    seeded = Counter()
    stream_seed = models.stream_seed

    def spy(seed, net):
        seeded[(seed, net)] += 1
        return stream_seed(seed, net)

    monkeypatch.setattr(models, "stream_seed", spy)
    spec = VerificationSpec.create(
        "s27", patterns=64, scenario=default_scenario("jitter"), margin=True
    )
    record = fault_record(spec)
    assert record["status"] == "tolerated"
    assert len(record["margin_probes"]) > 2
    assert seeded and max(seeded.values()) == 1
