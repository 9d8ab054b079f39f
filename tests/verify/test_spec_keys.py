"""Cache-key wall: verify, fuzz and fault specs keep their exact keys.

Every result-cache record is stored under ``spec.key()``, and the error
records of failed units carry ``spec.to_dict()``.  These literals pin
both, plus ``schema_kind`` and the progress label, for one spec of each
family.  A changed digest means every cached record of that family is
orphaned, so it needs a schema version bump, not an edit here.

The specs come from the public campaign builders, and the package
version is pinned, so a release bump does not move the digests.
"""

import hashlib
import json

import pytest

import repro.faults.campaign
import repro.verify.campaign
from repro.faults import FaultCampaign
from repro.gen import FuzzCampaign
from repro.verify import catalog_specs


@pytest.fixture(autouse=True)
def pinned_version(monkeypatch):
    for module in (repro.verify.campaign, repro.faults.campaign):
        if hasattr(module, "_package_version"):
            monkeypatch.setattr(module, "_package_version", lambda: "0.0.0-pinned")


def _fingerprint(spec):
    """``(schema_kind, key, label, digest of to_dict in field order)``."""
    fields = json.dumps(spec.to_dict()).encode("utf-8")
    return (
        spec.schema_kind,
        spec.key(),
        spec.label(),
        hashlib.sha256(fields).hexdigest()[:16],
    )


def test_catalog_verify_spec_key():
    (spec,) = catalog_specs(["c432"], patterns=64, seed=3)
    assert _fingerprint(spec) == (
        "verify",
        "ad14981f891b493146f981813935620945a7588310ec9f554852ba917d47e731",
        "c432@quick n=64 seed=3",
        "7e24b5d25279ce97",
    )


def test_fuzz_spec_keys_under_the_default_flows():
    units = FuzzCampaign(budget=1, seed=0, patterns=16).units()
    assert [unit.flow_name for unit in units] == ["default", "direct", "no-retime"]
    label = "gen:arith:mutations=3,width=5:s173879092@quick n=16 seed=0"
    assert [_fingerprint(unit.spec) for unit in units] == [
        (
            "verify",
            "74b0db38593a8ffecf832765a8a6003639f0dbeae7521cb9a4dab37bc968ff0a",
            label,
            "027cac721b3c6cae",
        ),
        (
            "verify",
            "8167937f61dabefba57d4498b649023c03b5ff1415290c0bad95f8a448f11e97",
            label,
            "95acd4f4e0dbacb0",
        ),
        (
            "verify",
            "90b3b9248d20e16c2c62a011dc52c0dc8347394d2314f153ce390843b83cabaf",
            label,
            "428719485f28357e",
        ),
    ]


def test_fixed_magnitude_fault_spec_key():
    (unit,) = FaultCampaign(circuits=("ctrl",), kinds=("jitter",), seed=2).units()
    assert _fingerprint(unit.spec) == (
        "fault",
        "84f323e741dcb9b2589da3257b790ce33dfcbc23e46cd0405cc4b63a1007e98a",
        "ctrl@quick fault:jitter:mag=2.0:s2",
        "4d72388cc478ff1a",
    )


def test_margin_fault_spec_key():
    (unit,) = FaultCampaign(
        circuits=("s27",), kinds=("skew",), patterns=32, stimulus_seed=5, margin=True
    ).units()
    assert _fingerprint(unit.spec) == (
        "fault",
        "371a5c0176248009062d4315506500fbd4c6ed1ed364b36125a37fe36f0e8d08",
        "s27@quick fault:skew:mag=5.0:s0 margin",
        "b6ae8764a3b16b31",
    )
