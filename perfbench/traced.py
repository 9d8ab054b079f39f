"""Traced run: spans around each layer's public entry points, and the
per-layer metrics derived from them.

Run as ``python -m perfbench.traced SPANS.json -- <repro CLI args>``, this
module starts a fresh interpreter, times ``import repro.eval.cli``,
wraps the entry points listed below, runs the command in-process through
``repro.eval.cli.main`` and writes the recorded spans to ``SPANS.json``.
Nothing under ``src/`` is edited: the wrappers replace module attributes
and registry entries at run time.

Wrapped entry points, by span name:

- ``aig.<pass>``: the callables in ``repro.aig.scripts.PASSES``;
- ``flow.<stage>``: the ``Stage.fn`` of each built-in stage in
  ``repro.core.flowgraph.STAGES``;
- ``verify.stimulus`` / ``verify.golden`` / ``verify.elaborate`` and
  ``pulse.run``: ``stimulus_suite``, ``simulate_patterns`` and
  ``BatchedNetlistSimulator`` as ``repro.verify.equivalence`` sees them;
- ``faults.margin_search``: ``search_margin`` as ``repro.faults.campaign``
  sees it;
- ``cache.get`` / ``cache.put``: ``repro.eval.engine.ResultCache``;
- ``exec.run_units``: ``run_units`` as ``repro.eval.runner`` sees it, with
  its ``ExecEvent`` stream tapped;
- ``analog.simulate``: ``solve_ivp`` as ``repro.sim.analog.rcsj`` sees it
  (patched when that module is first imported, so other workloads do not
  pay for importing scipy);
- ``circuits.build``: ``build_circuit`` in the verify, faults and engine
  modules.

The ``cli.main`` span carries the deltas of the public counters
``total_events_processed()``, ``elaboration_count()`` and
``StageCache.stats()``.  Spans stay in memory until the command returns.
Spans recorded inside forked pool workers are lost with the workers,
which is why a parallel workload takes its in-unit split from a serial
pass over the same units.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib.abc
import importlib.util
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

#: ``PASSES`` key -> metric stem.
AIG_PASSES = {
    "balance": "balance",
    "rewrite": "rewrite",
    "rewrite -z": "rewrite_z",
    "refactor": "refactor",
    "refactor -z": "refactor_z",
}
#: Built-in flow stages (``DEFAULT_STAGE_ORDER``); the AIG-pass stages
#: bridged into ``STAGES`` are covered by the ``PASSES`` wrappers.
FLOW_STAGES = ("frontend", "aig-opt", "pipeline", "polarity", "map", "sequential", "report")

class Tracer:
    """In-memory span recorder: ``[name, start, end, parent, counters]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counters: object) -> Iterator[Dict[str, object]]:
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, counters]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield counters
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, fn: Callable, name: str, observe: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``observe(counters, args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counters:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(counters, args, result)
                return result

        return traced


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Run ``patch(module)`` right after ``name`` is first imported."""

    def __init__(self, name: str, patch: Callable) -> None:
        self.name = name
        self.patch = patch

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        exec_module = spec.loader.exec_module

        def exec_and_patch(module) -> None:
            exec_module(module)
            self.patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def _counters() -> Dict[str, int]:
    from repro.core.flowgraph import get_stage_cache
    from repro.sim.pulse import elaboration_count, total_events_processed

    stats = get_stage_cache().stats()
    return {
        "stage_cache_hits": stats["hits"],
        "stage_cache_lookups": stats["hits"] + stats["misses"],
        "elaborations": elaboration_count(),
        "pulse_events": total_events_processed(),
    }


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point named in the module docstring."""
    from repro.aig import scripts
    from repro.core import flowgraph
    from repro.eval import engine, runner
    from repro.faults import campaign as faults_campaign
    from repro.verify import campaign as verify_campaign
    from repro.verify import equivalence

    for pass_name, stem in AIG_PASSES.items():
        scripts.PASSES[pass_name] = tracer.wrap(scripts.PASSES[pass_name], f"aig.{stem}")

    def count_ands(counters, args, state) -> None:
        counters["ands_in"] = args[0].aig.num_ands if args[0].aig is not None else 0
        counters["ands_out"] = state.aig.num_ands if state.aig is not None else 0

    for name in FLOW_STAGES:
        stage = flowgraph.STAGES[name]
        observe = count_ands if name == "aig-opt" else None
        flowgraph.STAGES[name] = dataclasses.replace(
            stage, fn=tracer.wrap(stage.fn, f"flow.{name}", observe)
        )

    equivalence.stimulus_suite = tracer.wrap(equivalence.stimulus_suite, "verify.stimulus")
    equivalence.simulate_patterns = tracer.wrap(equivalence.simulate_patterns, "verify.golden")
    base = equivalence.BatchedNetlistSimulator

    class TracedSimulator(base):
        def __init__(self, *args, **kwargs) -> None:
            with tracer.span("verify.elaborate"):
                super().__init__(*args, **kwargs)

        def run_combinational(self, *args, **kwargs):
            with tracer.span("pulse.run", kind="combinational", faulted=self.fault_model is not None):
                return super().run_combinational(*args, **kwargs)

        def run_sequence(self, *args, **kwargs):
            with tracer.span("pulse.run", kind="sequential", faulted=self.fault_model is not None):
                return super().run_sequence(*args, **kwargs)

    equivalence.BatchedNetlistSimulator = TracedSimulator

    def count_probes(counters, args, result) -> None:
        counters["probes"] = len(result.probes)

    faults_campaign.search_margin = tracer.wrap(
        faults_campaign.search_margin, "faults.margin_search", count_probes
    )

    def count_hit(counters, args, record) -> None:
        counters["hit"] = record is not None

    engine.ResultCache.get = tracer.wrap(engine.ResultCache.get, "cache.get", count_hit)
    engine.ResultCache.put = tracer.wrap(engine.ResultCache.put, "cache.put")

    run_units = runner.run_units

    def traced_run_units(units, *args, emit=None, jobs=1, **kwargs):
        with tracer.span("exec.run_units", jobs=jobs, unit_compute_s=0.0) as counters:
            finished = set()

            def tap(event) -> None:
                if event.kind in ("computed", "error", "timeout"):
                    finished.add(event.unit_key)
                if event.kind == "computed":
                    counters["unit_compute_s"] += event.seconds
                if emit is not None:
                    emit(event)

            try:
                return run_units(units, *args, emit=tap, jobs=jobs, **kwargs)
            finally:
                counters["units"] = len(finished)

    runner.run_units = traced_run_units

    for module in (verify_campaign, faults_campaign, engine):
        module.build_circuit = tracer.wrap(module.build_circuit, "circuits.build")

    def count_rhs(counters, args, solution) -> None:
        counters["rhs_evals"] = int(solution.nfev)

    def patch_rcsj(rcsj) -> None:
        rcsj.solve_ivp = tracer.wrap(rcsj.solve_ivp, "analog.simulate", count_rhs)

    sys.meta_path.insert(0, _PatchOnImport("repro.sim.analog.rcsj", patch_rcsj))


def main(argv: Sequence[str]) -> int:
    """``SPANS.json -- <repro CLI args>``: run the command traced."""
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: python -m perfbench.traced SPANS.json -- <repro args>")
    spans_path, cli_args = Path(argv[0]), list(argv[2:])
    tracer = Tracer()
    with tracer.span("process.import"):
        from repro.eval import cli
    install(tracer)
    before = _counters()
    try:
        with tracer.span("cli.main") as counters:
            return cli.main(cli_args)
    finally:
        after = _counters()
        counters.update({key: after[key] - before[key] for key in after})
        spans_path.write_text(json.dumps({"spans": tracer.spans}), encoding="utf-8")


# ---------------------------------------------------------------------------
# Deriving metrics from spans (runs in the benchmark process)
# ---------------------------------------------------------------------------


def load_spans(path: Path) -> List[list]:
    return json.loads(Path(path).read_text(encoding="utf-8"))["spans"]


def totals(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``seconds``, ``calls`` and every counter, summed."""
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for name, start, end, _parent, counters in spans:
        entry = out[name]
        entry["seconds"] += end - start
        entry["calls"] += 1
        for key, value in counters.items():
            if isinstance(value, (int, float)):
                entry[key] += value
            else:
                entry[f"{key}={value}"] += 1
    return out


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self time per layer (span-name prefix): duration minus direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        layers[name.split(".")[0]] += (end - start) - child_time[index]
    return dict(layers)


def covered(spans: Sequence[Sequence]) -> float:
    """Time covered by top-level spans (they run one after another)."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(
    command_spans: Sequence[Sequence],
    unit_spans: Sequence[Sequence],
    traced_wall: float,
    untraced_wall: float,
    untraced_teardown: float,
    injections: int,
) -> Dict[str, float]:
    """Every per-layer metric that ``BENCHMARK.json`` names, by name.

    ``command_spans`` come from the traced workload command itself (exec,
    cache, start-up and trace accounting); ``unit_spans`` give the
    in-unit layers, and are the same spans unless the workload is
    parallel, in which case they come from its serial pass.  Teardown
    is the untraced run's: the traced one also writes its spans then.
    """
    cmd, unit = totals(command_spans), totals(unit_spans)
    zero: Mapping[str, float] = defaultdict(float)

    def get(source, name: str, key: str = "seconds") -> float:
        return source.get(name, zero).get(key, 0.0)

    metrics: Dict[str, float] = {}
    for stem in AIG_PASSES.values():
        metrics[f"aig.{stem}_s"] = get(unit, f"aig.{stem}")
        metrics[f"aig.{stem}.calls"] = get(unit, f"aig.{stem}", "calls")
    metrics["aig.ands_in"] = get(unit, "flow.aig-opt", "ands_in")
    metrics["aig.ands_out"] = get(unit, "flow.aig-opt", "ands_out")
    for stage in ("frontend", "aig-opt", "polarity", "map", "sequential"):
        metrics[f"flow.{stage.replace('-', '_')}_s"] = get(unit, f"flow.{stage}")
    metrics["flow.stage_cache_hits"] = get(unit, "cli.main", "stage_cache_hits")
    metrics["flow.stage_cache_lookups"] = get(unit, "cli.main", "stage_cache_lookups")
    metrics["verify.stimulus_s"] = get(unit, "verify.stimulus")
    metrics["verify.golden_s"] = get(unit, "verify.golden")
    metrics["verify.elaborate_s"] = get(unit, "verify.elaborate")
    metrics["verify.elaborations"] = get(unit, "cli.main", "elaborations")
    metrics["pulse.run_s"] = get(unit, "pulse.run")
    metrics["pulse.events"] = get(unit, "cli.main", "pulse_events")
    metrics["pulse.events_per_s"] = _ratio(metrics["pulse.events"], metrics["pulse.run_s"])
    metrics["pulse.runs_combinational"] = get(unit, "pulse.run", "kind=combinational")
    metrics["pulse.runs_sequential"] = get(unit, "pulse.run", "kind=sequential")
    metrics["pulse.runs_faulted"] = get(unit, "pulse.run", "faulted")
    metrics["faults.margin_search_s"] = get(unit, "faults.margin_search")
    metrics["faults.probes"] = get(unit, "faults.margin_search", "probes")
    metrics["faults.injections"] = float(injections)

    compute = get(cmd, "exec.run_units", "unit_compute_s")
    capacity = sum(
        (end - start) * counters.get("jobs", 1)
        for name, start, end, _, counters in command_spans
        if name == "exec.run_units"
    )
    metrics["exec.units"] = get(cmd, "exec.run_units", "units")
    metrics["exec.unit_compute_s"] = compute
    metrics["exec.idle_s"] = max(0.0, capacity - compute)
    metrics["exec.busy_ratio"] = _ratio(compute, capacity)
    metrics["cache.get_s"] = get(cmd, "cache.get")
    metrics["cache.put_s"] = get(cmd, "cache.put")
    metrics["cache.lookups"] = get(cmd, "cache.get", "calls")
    metrics["cache.hits"] = get(cmd, "cache.get", "hit")
    metrics["analog.simulate_s"] = get(unit, "analog.simulate")
    metrics["analog.rhs_evals"] = get(unit, "analog.simulate", "rhs_evals")
    metrics["analog.rhs_evals_per_s"] = _ratio(metrics["analog.rhs_evals"], metrics["analog.simulate_s"])
    metrics["process.import_s"] = get(cmd, "process.import")
    metrics["process.teardown_s"] = untraced_teardown
    metrics["circuits.build_s"] = get(unit, "circuits.build")
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.unaccounted_s"] = traced_wall - covered(command_spans)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
