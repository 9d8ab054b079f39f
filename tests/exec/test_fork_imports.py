"""A supervised worker imports nothing its campaign parent had not loaded.

Workers are forked from the campaign parent, and the package's layers
load on first use.  A module that a worker's first unit imports is
imported once more in every worker, which shows in fuzz-parallel's
``cpu_s`` and ``wall_s``; so a campaign's own imports must cover what
its units run before the workers fork.  Each command runs in a fresh
interpreter: the snapshot of ``sys.modules`` taken in each forked child
is compared with ``sys.modules`` after each unit that child ran.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

PROBE_SNIPPET = r"""
import dataclasses
import functools
import json
import os
import sys

from repro.eval import cli, runner

AT_FORK = []
os.register_at_fork(after_in_child=lambda: AT_FORK.append(set(sys.modules)))


def probe(compute, spec):
    record = compute(spec)
    if AT_FORK:  # in a worker
        new = sorted(m for m in set(sys.modules) - AT_FORK[0] if m.startswith("repro"))
        with open(os.environ["PROBE_OUT"], "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"pid": os.getpid(), "new": new}) + "\n")
    return record


def probed_run_units(units, *args, **kwargs):
    units = [dataclasses.replace(u, compute=functools.partial(probe, u.compute)) for u in units]
    return run_units(units, *args, **kwargs)


run_units = runner.run_units
runner.run_units = probed_run_units
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--circuit", "ctrl", "--circuit", "s27", "--circuit", "dec", "--patterns", "16"],
        ["fuzz", "--budget", "2", "--patterns", "16", "--no-shrink"],
        ["faults", "--circuit", "ctrl", "--circuit", "s27", "--kinds", "jitter"],
    ],
    ids=["verify", "fuzz", "faults"],
)
def test_worker_units_import_nothing_the_parent_lacked(argv, tmp_path):
    out = tmp_path / "probe.jsonl"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PROBE_OUT=str(out))
    subprocess.run(
        [sys.executable, "-c", PROBE_SNIPPET, *argv, "-j", "2", "--no-cache", "-q"],
        env=env,
        cwd=str(tmp_path),
        check=True,
        capture_output=True,
    )
    probes = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len({probe["pid"] for probe in probes}) == 2
    assert [probe["new"] for probe in probes if probe["new"]] == []
