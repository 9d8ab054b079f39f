"""Benchmark: fast catalog-verify campaign on the smallest circuits.

The full ``repro verify --catalog`` campaign covers all 37 registry
circuits; this benchmark keeps CI honest with the smallest combinational
and sequential entries, still asserting the subsystem's core guarantees —
equivalence everywhere, one netlist elaboration per circuit, and a real
multi-pattern budget.
"""

from repro.eval import Runner
from repro.verify import VerificationCampaign, catalog_specs
from repro.circuits import CATALOG

from conftest import run_once

#: Smallest members of each suite (cells at quick scale stay in the hundreds).
SMALL_CIRCUITS = ["ctrl", "int2float", "mem_ctrl", "c432", "s27", "s298", "s386"]


def _verify_small(scale: str, effort: str):
    from repro.core import Flow, FlowOptions

    specs = catalog_specs(
        circuits=SMALL_CIRCUITS,
        scale=scale,
        flow=Flow.from_options(FlowOptions(effort=effort)),
        patterns=128,
        seed=0,
    )
    return Runner(jobs=1, cache=None).campaign(VerificationCampaign(specs))


def test_fast_catalog_verify(benchmark, scale, effort):
    report = run_once(benchmark, _verify_small, scale, effort)
    print()
    print(report.table())
    assert report.all_equivalent, [r["circuit"] for r in report.failures]
    assert {r["circuit"] for r in report.records} == set(SMALL_CIRCUITS)
    kinds = {r["circuit"]: r["kind"] for r in report.records}
    assert kinds == {name: CATALOG[name].kind for name in SMALL_CIRCUITS}
    for record in report.records:
        assert record["elaborations"] == 1  # batched: never re-elaborated
        assert record["patterns"] >= 32
