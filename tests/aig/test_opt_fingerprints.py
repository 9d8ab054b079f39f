"""Differential walls for ``aig-opt``: optimised AIGs and mapped netlists.

Each circuit is built at ``quick`` scale and pinned twice:

* the structural :func:`~repro.core.flowgraph.design_fingerprint` of its
  AIG after ``aig-opt`` at ``medium`` effort (one pass of the default
  script: ``rewrite``, ``refactor`` and their zero-gain variants);
* the cell counts and a netlist fingerprint of the xSFQ netlist the
  default flow maps it to.

Both must equal the entries in ``golden/aig_opt_fingerprints.json``, so a
speed-up of the passes that changes any replacement decision, or anything
downstream of it, fails here.

Two sets of circuits are pinned: every catalogue circuit, and the 50
generated circuits of a ``repro fuzz --budget 50 --seed 0`` batch.

After a deliberate change of the optimiser's output, rewrite the golden
file with::

    PYTHONPATH=src python tests/aig/test_opt_fingerprints.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.aig import network_to_aig, optimize
from repro.circuits.registry import build, names
from repro.core.flowgraph import Flow, design_fingerprint
from repro.gen import generate_specs

GOLDEN = Path(__file__).resolve().parent / "golden" / "aig_opt_fingerprints.json"

CATALOG = names()
FUZZ_BATCH = [spec.name() for spec in generate_specs(50, seed=0)]


def optimised_fingerprint(name):
    """Fingerprint of ``name`` after ``aig-opt`` at medium effort."""
    aig = network_to_aig(build(name, "quick"))
    return design_fingerprint(optimize(aig, effort="medium"))


def mapped_summary(name):
    """Cell counts and netlist fingerprint of ``name`` through the default flow."""
    netlist = Flow.default().run(build(name, "quick"), use_stage_cache=False).netlist
    hasher = hashlib.sha256()
    for cell in netlist.cells:
        hasher.update(
            f"{cell.name}:{cell.kind.value}:{cell.preload}:"
            f"{','.join(cell.inputs)}>{','.join(cell.outputs)};".encode()
        )
    hasher.update(("|".join(netlist.input_ports) + "\0").encode())
    for port in netlist.output_ports:
        hasher.update(f"{port.name}:{port.net}:{port.rail.value};".encode())
    hasher.update(("|".join(netlist.clock_nets) + "\0").encode())
    hasher.update(("|".join(netlist.trigger_nets) + "\0").encode())
    hasher.update(f"lead={netlist.input_phase_lead}".encode())
    counts = {kind.value: n for kind, n in netlist.counts_by_kind().items()}
    return {"cells": dict(sorted(counts.items())), "netlist": hasher.hexdigest()}


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.slow
@pytest.mark.parametrize("name", CATALOG)
def test_catalog_fingerprint(name):
    assert optimised_fingerprint(name) == _golden()["catalog"][name]


@pytest.mark.slow
@pytest.mark.parametrize("name", FUZZ_BATCH)
def test_fuzz_batch_fingerprint(name):
    assert optimised_fingerprint(name) == _golden()["fuzz_batch"][name]


@pytest.mark.slow
@pytest.mark.parametrize("name", CATALOG)
def test_catalog_mapped_netlist(name):
    assert mapped_summary(name) == _golden()["catalog_mapped"][name]


@pytest.mark.slow
@pytest.mark.parametrize("name", FUZZ_BATCH)
def test_fuzz_batch_mapped_netlist(name):
    assert mapped_summary(name) == _golden()["fuzz_batch_mapped"][name]


if __name__ == "__main__":
    document = {
        "catalog": {name: optimised_fingerprint(name) for name in CATALOG},
        "fuzz_batch": {name: optimised_fingerprint(name) for name in FUZZ_BATCH},
        "catalog_mapped": {name: mapped_summary(name) for name in CATALOG},
        "fuzz_batch_mapped": {name: mapped_summary(name) for name in FUZZ_BATCH},
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
