"""Regression-seed corpus replay.

Every JSON file under ``tests/gen/corpus/`` pins one ``(family, params,
seed)`` triple — typically a circuit that once exposed a bug — together
with the flow variants it must stay EQUIVALENT under.  The full replay
runs with ``-m fuzz`` (a dedicated CI job); tier-1 keeps a single-entry
smoke test so the corpus format itself cannot rot unnoticed.

Adding an entry: take the ``gen:<family>:<params>:s<seed>`` name from a
``repro fuzz`` failure line, split it into the JSON fields below (see
``docs/fuzzing.md``), and describe the bug in ``note``.
"""

import json
from pathlib import Path

import pytest

from repro.eval import Runner
from repro.gen import FuzzCampaign, GenSpec
from repro.gen.fuzz import FuzzUnit

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _units(entry: dict) -> list:
    gen = GenSpec.create(
        entry["family"], seed=entry["seed"], **entry.get("params", {})
    )
    return [
        FuzzUnit.create(
            gen,
            flow_name,
            patterns=int(entry.get("patterns", 32)),
            sequence_length=int(entry.get("sequence_length", 8)),
        )
        for flow_name in entry["flows"]
    ]


def _replay(entry: dict) -> None:
    units = _units(entry)
    campaign = FuzzCampaign(budget=0, flows=tuple(entry["flows"]))
    report = Runner(jobs=1, cache=None).campaign(campaign.batch(units))
    bad = [
        f"{r['circuit']} under {r['flow_variant']}: {r['status']}"
        for r in report.records
        if r["status"] != "equivalent"
    ]
    assert not bad, f"corpus regression ({entry.get('note', '')}): {bad}"


def test_corpus_is_present_and_well_formed():
    assert CORPUS_FILES, "tests/gen/corpus/ must hold at least one entry"
    for path in CORPUS_FILES:
        entry = _load(path)
        assert {"family", "params", "seed", "flows"} <= set(entry), path.name
        # The spec must be constructible (validates family + param names).
        GenSpec.create(entry["family"], seed=entry["seed"], **entry["params"])


def test_smallest_corpus_entry_replays_in_tier1():
    entry = _load(CORPUS_DIR / "dag-tiny.json")
    _replay(entry)


@pytest.mark.fuzz
@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_entry_still_verifies_equivalent(path):
    _replay(_load(path))
