"""Differential wall for ``aig-opt``: the optimised AIG of every pinned circuit.

Each circuit is built at ``quick`` scale, converted to an AIG and optimised
at ``medium`` effort (one pass of the default script: ``rewrite``,
``refactor`` and their zero-gain variants).  The structural
:func:`~repro.core.flowgraph.design_fingerprint` of the result must equal the
one in ``golden/aig_opt_fingerprints.json``, so a speed-up of the passes
that changes any replacement decision fails here.

Two sets of circuits are pinned: every catalogue circuit, and the 50
generated circuits of a ``repro fuzz --budget 50 --seed 0`` batch.

After a deliberate change of the optimiser's output, rewrite the golden
file with::

    PYTHONPATH=src python tests/aig/test_opt_fingerprints.py
"""

import json
from pathlib import Path

import pytest

from repro.aig import network_to_aig, optimize
from repro.circuits.registry import build, names
from repro.core.flowgraph import design_fingerprint
from repro.gen import generate_specs

GOLDEN = Path(__file__).resolve().parent / "golden" / "aig_opt_fingerprints.json"

CATALOG = names()
FUZZ_BATCH = [spec.name() for spec in generate_specs(50, seed=0)]


def optimised_fingerprint(name):
    """Fingerprint of ``name`` after ``aig-opt`` at medium effort."""
    aig = network_to_aig(build(name, "quick"))
    return design_fingerprint(optimize(aig, effort="medium"))


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


if __name__ == "__main__":
    document = {
        "catalog": {name: optimised_fingerprint(name) for name in CATALOG},
        "fuzz_batch": {name: optimised_fingerprint(name) for name in FUZZ_BATCH},
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
