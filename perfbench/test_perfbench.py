"""Tests of the benchmark's own parsing and accounting.

Run with ``python3 -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import traced
from perfbench.probe import ChildRun, count_units
from perfbench.run import PER_LAYER, Runner, account
from perfbench.workloads import (
    ANALOG_EXPECTED,
    WORKLOADS,
    check_analog,
    netlist_jj_total,
)

ROOT = Path(__file__).resolve().parent.parent

PROGRESS = [
    "=== faults: ctrl, s27 (4 units, kinds jitter, skew, margin search, seed 0) ===",
    "  [1/4] probed ctrl@quick fault:jitter:mag=2.0:s0 margin flow=default [tolerated] (0.27s)",
    "  [2/4] ERROR ctrl@quick fault:skew:mag=5.0:s0: RuntimeError: boom",
    "  retrying    s27@quick (attempt 2: worker died)",
    "  [3/4] TIMEOUT s27@quick fault:jitter after 5.0s",
    "  [4/4] verified s27@quick n=64 seed=0 [counterexample] (0.05s)",
    "[faults] done in 0.46s (0 cached, 4 probed, 0 miscompares, 0 nominal failures)",
]


def _child(lines, exit_code=0) -> ChildRun:
    return ChildRun(exit_code, 1.0, 0.1, 0.1, 1.0, 10.0, lines=list(lines))


def test_progress_lines_count_attempted_and_failed():
    assert count_units(PROGRESS) == (4, 3)
    assert count_units(PROGRESS[:2]) == (4, 0)
    assert count_units(["=== verify ===", "summary"]) == (0, 0)


def test_report_gives_jj_total_once_per_netlist():
    from repro.core.cells import CellKind, default_library

    library = default_library()
    counts = {"FA": 3, "LA": 2, "SPLITTER": 5}
    expected = (
        3 * library.jj_count(CellKind.FA)
        + 2 * library.jj_count(CellKind.LA)
        + 5 * library.jj_count(CellKind.SPLITTER)
    )
    rows = [
        {"circuit": "ctrl", "flow_variant": "default", "cell_counts": counts},
        # A second fault kind on the same netlist is not counted again.
        {"circuit": "ctrl", "flow_variant": "default", "cell_counts": counts},
        {"circuit": "ctrl", "flow_variant": "direct", "cell_counts": {"LA": 1}},
    ]
    assert netlist_jj_total({"rows": rows}) == expected + library.jj_count(CellKind.LA)


def test_failed_check_counts_every_unit_as_failed():
    workload = WORKLOADS["verify-catalog"]
    lines = ["  [1/2] verified a [equivalent] (0.1s)", "  [2/2] verified b [equivalent] (0.1s)"]
    good = {"rows": [{"status": "equivalent"}] * 2, "summary": {"skipped": 0}}
    assert account(workload, _child(lines), good).failed == 0
    skipped = {"rows": [{"status": "equivalent"}] * 2, "summary": {"skipped": 1}}
    assert account(workload, _child(lines), skipped).failed == 2
    crashed = account(workload, _child(lines, exit_code=1), good)
    assert (crashed.attempted, crashed.failed) == (2, 2)
    silent = account(workload, _child([], exit_code=1), None)
    assert (silent.attempted, silent.failed) == (workload.units, workload.units)


def test_unknown_circuit_counts_as_failed_not_skipped():
    base = WORKLOADS["faults-margin"]

    def args(seed, out):
        return ["faults", "--circuit", "no-such-circuit", "--report", str(out / "faults.json")]

    execution, _ = Runner(dataclasses.replace(base, args=args), seed=0).execute()
    assert execution.child.exit_code != 0
    assert execution.attempted == base.units
    assert execution.failed == execution.attempted
    assert execution.problems


def test_traced_run_reaches_every_synthesis_layer():
    base = WORKLOADS["faults-margin"]

    def args(seed, out):
        return ["faults", "--margin-search", "--circuit", "s27", "--report", str(out / "faults.json")]

    execution, spans = Runner(dataclasses.replace(base, args=args), seed=0).execute(trace=True)
    assert (execution.attempted, execution.failed) == (2, 0)
    layers = {name.split(".")[0] for name, *_ in spans}
    assert {"process", "cli", "exec", "cache", "circuits", "flow", "aig", "verify",
            "pulse", "faults"} <= layers
    totals = traced.totals(spans)
    assert totals["pulse.run"]["faulted"] > 0
    assert totals["cli.main"]["elaborations"] == totals["verify.elaborate"]["calls"]


def test_analog_check_pins_pulses_and_delays():
    rows = [
        {"scenario": name, "output_pulses": pulses, "delay_ps": delay}
        for name, (pulses, delay) in ANALOG_EXPECTED.items()
    ]
    assert check_analog({"rows": rows}) == []
    shifted = [dict(row) for row in rows]
    shifted[0]["delay_ps"] += 0.05
    assert check_analog({"rows": shifted}) == []
    shifted[0]["delay_ps"] += 0.1
    assert len(check_analog({"rows": shifted})) == 1
    wrong = [dict(row) for row in rows]
    wrong[1]["output_pulses"] = 1
    assert len(check_analog({"rows": wrong})) == 1
    assert check_analog({"rows": rows[1:]})


def test_layer_metrics_from_spans():
    spans = [
        ["process.import", 0.0, 0.5, -1, {}],
        ["cli.main", 0.5, 10.5, -1, {"elaborations": 3, "pulse_events": 100,
                                     "stage_cache_hits": 1, "stage_cache_lookups": 4}],
        ["exec.run_units", 1.0, 9.0, 1, {"jobs": 2, "unit_compute_s": 12.0, "units": 3}],
        ["flow.aig-opt", 1.0, 3.0, 2, {"ands_in": 10, "ands_out": 7}],
        ["aig.refactor", 1.5, 2.5, 3, {}],
        ["pulse.run", 4.0, 6.0, 2, {"kind": "sequential", "faulted": True}],
        ["cache.get", 0.9, 1.0, 1, {"hit": True}],
    ]
    metrics = traced.layer_metrics(
        spans, spans, traced_wall=11.0, untraced_wall=10.0, untraced_teardown=0.2, injections=5
    )
    assert set(PER_LAYER) <= set(metrics)
    assert metrics["exec.idle_s"] == 2 * 8.0 - 12.0
    assert metrics["exec.busy_ratio"] == 12.0 / 16.0
    assert metrics["aig.refactor_s"] == 1.0 and metrics["aig.refactor.calls"] == 1
    assert (metrics["aig.ands_in"], metrics["aig.ands_out"]) == (10, 7)
    assert metrics["pulse.events_per_s"] == 50.0
    assert (metrics["pulse.runs_sequential"], metrics["pulse.runs_faulted"]) == (1, 1)
    assert (metrics["cache.lookups"], metrics["cache.hits"]) == (1, 1)
    assert metrics["trace.unaccounted_s"] == 11.0 - 10.5
    assert metrics["trace.overhead_s"] == 1.0
    split = traced.self_times(spans)
    assert split["aig"] == 1.0 and split["flow"] == 1.0
    assert split["exec"] == 8.0 - 2.0 - 2.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "faults-margin", "--seed", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
