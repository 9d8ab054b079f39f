"""Verify, fault, fuzz and analog commands never import numpy or scipy.

Importing numpy costs +13.7 MB of resident memory and 0.10-0.13 s, more
than a whole verify, fault-margin or fuzz command gains from it.  The
per-net pulse kernel therefore compiles its plan without numpy and runs
batches below ``soa.NUMPY_MIN_TRAIN`` pulses per stimulus train (the
256-pattern verify batches included) on Python lists, and the golden
AIG simulation decides its backend from level widths computed without
numpy.  The RCSJ simulator integrates on Python lists too
(``sim.analog.rk45``), so ``repro run figure2_3``, which takes ~0.35 s
and peaks at ~21 MB, loads neither numpy nor scipy (they would add
~0.5 s and ~65 MB).
Each check runs in a fresh interpreter, where ``sys.modules`` shows
exactly what the code under test imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

COMPILE_SNIPPET = r"""
import sys
from repro.faults import FaultModel
from repro.sim.pulse import PulseSimulator, soa
from repro.sim.pulse.elements import FaCell, LaCell, SplitterCell

sim = PulseSimulator()
sim.add_element(SplitterCell("s0", ["a"], ["a1", "a2"], 1.5))
sim.add_element(LaCell("la0", ["a1", "b"], ["x"], 2.0))
sim.add_element(FaCell("fa0", ["a2", "b2"], ["y"], 2.5))
assert soa.compile_plan(sim) is not None
sim.set_fault_model(FaultModel(jitter=0.5, seed=1))
sim.run({"a": [1.0, 20.0], "b": [3.0, 21.0], "b2": [2.0, 22.0]}, until=100.0)
assert sim.vectorized_runs == 1
print(sorted({"numpy", "scipy"} & set(sys.modules)))
"""

CLI_SNIPPET = r"""
import sys
from repro.eval import cli

status = cli.main(sys.argv[1:])
assert status == 0, status
print(sorted({"numpy", "scipy"} & set(sys.modules)))
"""


def _heavy_imports(snippet, *args):
    """The subset of numpy and scipy that ``snippet`` left in ``sys.modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_SCALAR_KERNELS", None)
    proc = subprocess.run(
        [sys.executable, "-c", snippet, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        check=True,
    )
    return proc.stdout.strip().splitlines()[-1]


def test_compile_plan_and_a_short_kernel_run_import_no_numpy():
    assert _heavy_imports(COMPILE_SNIPPET) == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["faults", "--circuit", "ctrl", "--circuit", "s27", "--margin-search", "--no-cache"],
        ["fuzz", "--budget", "3", "-j", "1", "--no-cache"],
    ],
    ids=["faults-margin", "fuzz"],
)
def test_fault_and_fuzz_commands_import_no_numpy(argv):
    assert _heavy_imports(CLI_SNIPPET, *argv) == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        # A 256-pattern combinational batch plus a sequential circuit.
        ["verify", "--circuit", "c880", "--circuit", "s344", "--no-cache"],
        # 720 AIG nodes, narrow levels: the golden simulation stays on ints.
        ["verify", "--circuit", "sin", "--no-cache"],
    ],
    ids=["c880-s344", "sin"],
)
def test_verify_commands_import_no_numpy(argv):
    assert _heavy_imports(CLI_SNIPPET, *argv) == "[]"


def test_analog_characterisation_imports_no_numpy_or_scipy():
    assert _heavy_imports(CLI_SNIPPET, "run", "figure2_3", "--no-cache", "-q") == "[]"
