"""Process-level benchmark of real ``repro`` commands.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload verify-catalog --seed 0 --seconds 15 --trace 0

``--trace 0`` runs the workload's command as untraced child processes —
closed loop, one client, one command at a time — for at least
``--seconds`` seconds, and reports the end-to-end metrics.  ``--trace 1``
runs it once untraced and once under ``perfbench.traced`` and reports the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import traced  # noqa: E402
from perfbench.probe import ChildRun, child_env, count_units, run_child  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, load_report  # noqa: E402

#: The metric contract: names and units come from ``BENCHMARK.json`` alone.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Printed with the end-to-end metrics but left out of the result object:
#: on three workloads teardown is a short interval whose spread over ten
#: seeds is too wide for a regression bound.  The traced run reports it
#: as ``process.teardown_s``.
UNGATED = {"teardown_s": "s"}
#: Scratch runs live here, inside the checkout; each run removes its own.
RUNS_DIR = ROOT / ".perfbench-runs"
#: One benchmark invocation must finish within this many seconds.
BUDGET_S = 170.0
#: Set-up-only spawns per untraced run, one before each command run and
#: the rest after the last.  Set-up is a few tenths of a second, so one
#: sample is at the mercy of a single scheduling hiccup; the median of
#: these and of every command run's own set-up is reported.  In a fresh
#: checkout the first probe also writes the bytecode cache.
SETUP_PROBES = 10


@dataclass
class Execution:
    """One command execution with its output check and unit accounting."""

    child: ChildRun
    attempted: int
    failed: int
    jj_total: int
    report: Optional[dict] = None
    problems: List[str] = field(default_factory=list)


def account(workload: Workload, child: ChildRun, report: Optional[dict]) -> Execution:
    """Check one execution and count its attempted and failed units.

    A unit fails on an ``ERROR``/``TIMEOUT`` line or a non-success
    status.  A run that timed out, exited non-zero, left no report or
    fails the workload's output check counts every unit as failed.
    """
    attempted, failed = count_units(child.lines)
    attempted = attempted or workload.units
    problems: List[str] = []
    if child.timed_out:
        problems.append("timed out")
    if child.exit_code != 0:
        problems.append(f"exit code {child.exit_code}: {child.stderr.strip()[-300:]}")
    if report is None:
        problems.append("no readable report")
    else:
        problems += workload.check(report)
    if problems:
        failed = attempted
    jj_total = workload.jj_total(report) if report is not None else 0
    return Execution(child, attempted, failed, jj_total, report, problems)


class Runner:
    """Runs one workload's commands in fresh scratch directories."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    @contextlib.contextmanager
    def scratch(self) -> Iterator[Path]:
        RUNS_DIR.mkdir(exist_ok=True)
        path = Path(tempfile.mkdtemp(prefix=f"{self.workload.name}-", dir=RUNS_DIR))
        try:
            (path / "out").mkdir()
            (path / "cache").mkdir()
            yield path
        finally:
            shutil.rmtree(path, ignore_errors=True)
            with contextlib.suppress(OSError):
                RUNS_DIR.rmdir()

    def _argv(self, run_dir: Path, serial: bool, spans: Optional[Path]) -> List[str]:
        make_args = self.workload.serial_args if serial else self.workload.args
        args = make_args(self.seed, run_dir / "out")
        if "--no-cache" not in args:
            args += ["--cache-dir", str(run_dir / "cache")]
        module = ["repro.eval.cli"] if spans is None else ["perfbench.traced", str(spans), "--"]
        return [sys.executable, "-u", "-m", *module, *args]

    def execute(self, serial: bool = False, trace: bool = False) -> "tuple[Execution, list]":
        """Run the command to completion; returns the execution and its spans."""
        with self.scratch() as run_dir:
            spans_path = run_dir / "spans.json" if trace else None
            child = run_child(
                self._argv(run_dir, serial, spans_path),
                run_dir,
                child_env(run_dir, ROOT, [ROOT] if trace else []),
                timeout=self.remaining(),
            )
            report = load_report(self.workload.report(self.seed, run_dir / "out"))
            spans = traced.load_spans(spans_path) if trace and spans_path.exists() else []
            return account(self.workload, child, report), spans

    def setup_probe(self) -> float:
        """Spawn the command and stop it at its first stdout line."""
        with self.scratch() as run_dir:
            child = run_child(
                self._argv(run_dir, False, None),
                run_dir,
                child_env(run_dir, ROOT),
                timeout=self.remaining(),
                stop_after_first_line=True,
            )
            return child.setup_s


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def untraced(runner: Runner, seconds: float) -> "tuple[List[Execution], Dict[str, float], Dict[str, int]]":
    """Whole commands, each after a set-up probe, until ``seconds`` have
    passed; then set-up probes up to ``SETUP_PROBES``."""
    setups: List[float] = []
    executions: List[Execution] = []
    started = time.monotonic()
    while not executions or (
        time.monotonic() - started < seconds
        and runner.remaining() > 1.5 * executions[-1].child.wall_s
    ):
        setups.append(runner.setup_probe())
        executions.append(runner.execute()[0])
    while len(setups) < SETUP_PROBES:
        setups.append(runner.setup_probe())
    children = [e.child for e in executions]
    setups += [c.setup_s for c in children]
    samples = {
        "wall_s": [c.wall_s for c in children],
        "setup_s": setups,
        "teardown_s": [c.teardown_s for c in children],
        "cpu_s": [c.cpu_s for c in children],
        "peak_rss_mb": [c.peak_rss_mb for c in children],
        "jj_total": [e.jj_total for e in executions],
    }
    return executions, {k: _median(v) for k, v in samples.items()}, {k: len(v) for k, v in samples.items()}


def traced_run(runner: Runner) -> "tuple[List[Execution], Dict[str, float], list]":
    """One untraced and one traced execution, plus a traced serial pass for
    a parallel workload.  Returns the executions, the per-layer metrics and
    ``(label, self time per layer, traced wall)`` for each traced run."""
    runner.setup_probe()  # warm-up: not counted
    baseline, _ = runner.execute()
    command, command_spans = runner.execute(trace=True)
    executions = [baseline, command]
    splits = [("command", command_spans, command.child.wall_s)]
    unit_spans = command_spans
    if runner.workload.serial_args is not None:
        serial, unit_spans = runner.execute(serial=True, trace=True)
        executions.append(serial)
        splits.append(("serial pass, -j 1", unit_spans, serial.child.wall_s))
    summary = (command.report or {}).get("summary", {})
    metrics = traced.layer_metrics(
        command_spans,
        unit_spans,
        traced_wall=command.child.wall_s,
        untraced_wall=baseline.child.wall_s,
        untraced_teardown=baseline.child.teardown_s,
        injections=int(summary.get("total_injections", 0)),
    )
    layer_splits = []
    for label, spans, wall in splits:
        split = traced.self_times(spans)
        split["(outside spans)"] = wall - traced.covered(spans)
        layer_splits.append((label, split, wall))
    return executions, metrics, layer_splits


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its metrics by name, return its result object."""
    runner = Runner(workload, seed)
    if trace:
        executions, metrics, splits = traced_run(runner)
        units = PER_LAYER
    else:
        executions, metrics, counts = untraced(runner, seconds)
        units = END_TO_END
    attempted = sum(e.attempted for e in executions)
    failed = sum(e.failed for e in executions)
    print(f"workload {workload.name} seed {seed} trace {int(trace)}: {len(executions)} command run(s)")
    for execution in executions:
        for problem in execution.problems:
            print(f"  CHECK FAILED: {problem}")
    for name, unit in {**units, **({} if trace else UNGATED)}.items():
        suffix = "" if trace else f"  (median of {counts[name]})"
        print(f"  {name:<26} {metrics[name]:>14.6g} {unit}{suffix}")
    print(f"  {'failure_ratio':<26} {failed}/{attempted} = {failed / attempted:.4f}")
    if trace:
        for label, split, wall in splits:
            print(f"  layer split, {label} (self time in s, share of its {wall:.2f} s wall):")
            for layer, layer_seconds in sorted(split.items(), key=lambda kv: -kv[1]):
                print(f"    {layer:<18} {layer_seconds:>9.3f}  {layer_seconds / wall:6.1%}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"],
        help="one workload, or 'all' to run each in turn",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "eval" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
