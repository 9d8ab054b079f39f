"""Cross-process determinism of the fault subsystem.

Same harness as ``tests/cov/test_hash_stability.py``: the identical
campaign runs in two interpreters with *different* ``PYTHONHASHSEED``
values.  Scenario names, the per-net injection event stream, and the
full ``repro-faults/1`` report JSON must come back byte-identical —
fault streams are seeded from sha256 of the net name, never from
Python's randomised string hash.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")

_SNIPPET = """
import json

from repro.circuits import build
from repro.core import Flow
from repro.eval.runner import Runner
from repro.faults import FaultCampaign, default_scenario
from repro.sim.pulse import BatchedNetlistSimulator

for kind in ("drop", "dup", "jitter", "skew"):
    print(default_scenario(kind, seed=3).name())

result = Flow.default().run(build("ctrl", "quick"))
model = default_scenario("drop", seed=0, magnitude=0.2).model(record_log=True)
sim = BatchedNetlistSimulator(result.netlist, fault_model=model)
sim.run_combinational([
    {pi: (i + j) % 2 for j, pi in enumerate(sim.pi_names)} for i in range(4)
])
for aspect, net, when in model.injection_log():
    print(f"{aspect}@{net}@{when!r}")

campaign = FaultCampaign(
    circuits=("ctrl", "s27"), kinds=("jitter", "skew"), patterns=8, seed=0
)
report = Runner(jobs=1, cache=None).campaign(campaign.batch())
print(json.dumps(report.to_dict(), sort_keys=True))
"""


def _run(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", _SNIPPET],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout


def test_two_subprocesses_agree_bit_for_bit():
    first = _run(hash_seed="1")
    second = _run(hash_seed="2")
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "fault:drop:rate=0.01:s3"
    assert any(line.startswith("drop@") for line in lines)  # log is non-empty
    assert lines[-1].startswith('{"campaign":')  # sorted report JSON
