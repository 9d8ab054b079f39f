"""Executor equivalence: serial == workers for every campaign.

The acceptance contract of the execution layer: at the same seeds, the
in-process backend (``-j 1``) and the supervised workers (``-j 2``)
produce the same campaign report byte-for-byte once the report's
``elapsed_s`` and worker count ``jobs`` are removed: records and the
rendered table carry no wall clock.
Fault reports and soak checkpoints are deterministic by construction,
so those compare byte-identical with no scrubbing at all.
"""

import json

import pytest

from repro.cov.soak import SoakCampaign, checkpoint_path, run_soak
from repro.eval import Runner
from repro.faults.campaign import FaultCampaign
from repro.gen import FuzzCampaign
from repro.verify import VerificationCampaign, VerificationSpec

#: Backend name -> the job count that selects it.
EXECUTORS = {"serial": 1, "workers": 2}


def _runner(executor):
    return Runner(jobs=EXECUTORS[executor], cache=None)


def _canonical(report_dict):
    """Report JSON without the campaign wall clock and worker count."""
    doc = dict(report_dict)
    doc.pop("elapsed_s", None)
    doc.pop("jobs", None)
    return json.dumps(doc, sort_keys=True)


def _pairs(rendered):
    """(executor, bytes) pairs with a readable assertion message."""
    serial = rendered["serial"]
    for name, blob in rendered.items():
        assert blob == serial, f"{name} report diverges from serial"


def test_verify_reports_are_identical_across_backends():
    specs = [
        VerificationSpec.create(name, patterns=16) for name in ("ctrl", "s27")
    ]
    rendered = {
        name: _canonical(_runner(name).campaign(VerificationCampaign(specs)).to_dict())
        for name in EXECUTORS
    }
    _pairs(rendered)


def test_fuzz_reports_are_identical_across_backends():
    campaign = FuzzCampaign(budget=4, seed=0, patterns=8, sequence_length=4)
    rendered = {
        name: _canonical(_runner(name).campaign(campaign.batch()).to_dict())
        for name in EXECUTORS
    }
    _pairs(rendered)


def test_fault_reports_are_byte_identical_across_backends():
    # FaultReport.to_dict is documented to be a pure function of the
    # campaign identity — compare without any scrubbing.
    campaign = FaultCampaign(
        circuits=("ctrl", "s27"), kinds=("jitter",), patterns=16
    )
    rendered = {
        name: json.dumps(_runner(name).campaign(campaign.batch()).to_dict(), sort_keys=True)
        for name in EXECUTORS
    }
    _pairs(rendered)


@pytest.mark.parametrize("executor", ["workers"])
def test_soak_checkpoints_match_serial_byte_for_byte(executor, tmp_path):
    campaign = SoakCampaign(
        fuzz=FuzzCampaign(budget=6, seed=0, patterns=8, sequence_length=4),
        batch_size=3,
    )
    serial_dir = tmp_path / "serial"
    other_dir = tmp_path / executor
    run_soak(campaign, _runner("serial"), serial_dir)
    run_soak(campaign, _runner(executor), other_dir)
    serial_bytes = checkpoint_path(serial_dir, 1, 0).read_bytes()
    other_bytes = checkpoint_path(other_dir, 1, 0).read_bytes()
    assert serial_bytes == other_bytes
