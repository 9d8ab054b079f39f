"""Declarative benchmark harness: specs, measurement, JSON emission, diffing.

This is the measurement core of the ``repro.perf`` subsystem.  A
:class:`BenchSpec` names a workload callable plus warmup/repeat control;
:func:`run_spec` executes it under isolation (fresh synthesis stage cache
per invocation, so repeats measure real work, and the caller's in-process
caches stay unpolluted), recording wall time, CPU time, the process RSS
high-water mark and *domain counters* — patterns, pulse events and
netlist elaborations are captured automatically around every workload,
and workloads may return extra counters of their own.  Rates (counter per
second of best wall time) are derived for throughput-style counters.

Results aggregate into a :class:`BenchReport` that serialises to a
schema-versioned ``BENCH_<suite>.json``; :func:`compare_reports` diffs a
fresh report against a stored baseline and drives the
``repro bench --compare BASELINE.json --fail-on-regress PCT`` workflow
(see ``docs/performance.md``).
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..schema import SchemaError, atomic_write_json, load_document, pack, schema_tag

#: Schema tag stamped into every emitted benchmark JSON document (the
#: ``bench`` kind of the ``repro.schema`` registry).
BENCH_SCHEMA = schema_tag("bench")

#: Counters that represent throughput and get a derived ``<name>_per_s`` rate.
RATE_COUNTERS = ("patterns", "events", "units", "new_features")

ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class BenchSpec:
    """One declarative, repeatable benchmark.

    Attributes:
        name: Stable identifier (baseline comparison matches on it).
        title: Human-readable description of the measured scenario.
        workload: Zero-argument callable performing the work; may return a
            mapping of extra domain counters (e.g. ``{"patterns": 600}``).
        warmup: Unmeasured invocations before timing starts (imports,
            lazy registries, allocator steady-state).
        repeat: Measured invocations; wall/CPU statistics aggregate them.
        tags: Free-form labels (suite membership is separate, see
            :mod:`repro.perf.suites`).
    """

    name: str
    title: str
    workload: Callable[[], Optional[Mapping[str, float]]]
    warmup: int = 1
    repeat: int = 3
    tags: Tuple[str, ...] = ()


@dataclass
class BenchResult:
    """Measurements of one :class:`BenchSpec` run.

    ``wall_s`` / ``cpu_s`` carry ``min``/``mean``/``max`` over the measured
    repeats (comparisons use ``min`` — the least-noise estimator of the
    workload's true cost).  ``counters`` come from the best (minimum-wall)
    repeat; ``rates`` divide throughput counters by the best wall time.

    ``peak_rss_kb`` is the **process-lifetime** high-water mark sampled
    after the benchmark (``ru_maxrss`` never decreases), so within one
    suite run it is monotone across benchmarks and attributes memory to
    the heaviest workload seen *so far*, not to each benchmark
    individually.  Compare it across runs of the same suite order only.
    """

    name: str
    title: str
    warmup: int
    repeat: int
    wall_s: Dict[str, float] = field(default_factory=dict)
    cpu_s: Dict[str, float] = field(default_factory=dict)
    peak_rss_kb: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    rates: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "title": self.title,
            "warmup": self.warmup,
            "repeat": self.repeat,
            "wall_s": dict(self.wall_s),
            "cpu_s": dict(self.cpu_s),
            "peak_rss_kb": self.peak_rss_kb,
            "counters": dict(self.counters),
            "rates": dict(self.rates),
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "BenchResult":
        return cls(
            name=str(record.get("name", "")),
            title=str(record.get("title", "")),
            warmup=int(record.get("warmup", 0)),
            repeat=int(record.get("repeat", 0)),
            wall_s={k: float(v) for k, v in (record.get("wall_s") or {}).items()},
            cpu_s={k: float(v) for k, v in (record.get("cpu_s") or {}).items()},
            peak_rss_kb=int(record.get("peak_rss_kb", 0)),
            counters={k: float(v) for k, v in (record.get("counters") or {}).items()},
            rates={k: float(v) for k, v in (record.get("rates") or {}).items()},
        )


@dataclass
class BenchReport:
    """Every result one suite run produced, ready for JSON emission."""

    suite: str
    results: List[BenchResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """The tagged ``repro-bench/1`` document (validated by ``pack``)."""
        return pack(
            "bench",
            {
                "suite": self.suite,
                "python": platform.python_version(),
                "platform": platform.platform(),
                "elapsed_s": self.elapsed_s,
                "results": [result.to_dict() for result in self.results],
            },
        )

    def write(self, directory: Path) -> Path:
        """Write ``BENCH_<suite>.json`` into ``directory`` and return the path.

        Emission is atomic (temp file + ``os.replace`` via
        :func:`repro.schema.atomic_write_json`): a crash mid-write
        leaves any previous report — e.g. a committed baseline the CI
        gate reads — intact instead of truncated.
        """
        path = Path(directory) / f"BENCH_{self.suite}.json"
        return atomic_write_json(path, self.to_dict())


def load_bench(path: Path) -> BenchReport:
    """Load (schema-check, and migrate) a previously emitted ``BENCH_*.json``."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    try:
        payload = load_document(data, "bench")
    except SchemaError as error:
        raise SchemaError(f"{path}: {error}") from None
    report = BenchReport(suite=str(payload.get("suite", "")))
    report.elapsed_s = float(payload.get("elapsed_s", 0.0))
    report.results = [BenchResult.from_dict(r) for r in payload.get("results") or []]
    return report


def _peak_rss_kb() -> int:
    """Process RSS high-water mark in KB (``ru_maxrss`` is bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def _domain_counter_snapshot() -> Dict[str, int]:
    """Process-wide domain counters captured around every workload."""
    from ..sim.pulse import elaboration_count, total_events_processed

    return {
        "events": total_events_processed(),
        "elaborations": elaboration_count(),
    }


def _measure(spec: BenchSpec) -> Tuple[Optional[Mapping[str, float]], float, float]:
    """One measured invocation: ``(extra counters, wall_s, cpu_s)``.

    The workload runs under a fresh synthesis stage cache: the flow's
    process-wide :class:`~repro.core.flowgraph.StageCache` would
    otherwise serve repeat N>1 from memory — benchmarks must pay the
    full synthesis cost every time, and must not pollute the caller's
    cache with benchmark artefacts.  It runs in-process (workloads are
    closures over live objects, and the domain counters are
    process-wide); an exception propagates, so ``repro bench`` crashes
    loudly instead of emitting a bogus report.
    """
    from ..core.flowgraph import StageCache, set_stage_cache

    previous = set_stage_cache(StageCache())
    started, cpu_started = time.perf_counter(), time.process_time()
    try:
        extra = spec.workload()
    finally:
        set_stage_cache(previous)
    return extra, time.perf_counter() - started, time.process_time() - cpu_started


def run_spec(
    spec: BenchSpec,
    repeat: Optional[int] = None,
    warmup: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
) -> BenchResult:
    """Execute one benchmark spec and aggregate its measurements."""
    note = progress or (lambda line: None)
    repeats = max(1, int(repeat if repeat is not None else spec.repeat))
    warmups = max(0, int(warmup if warmup is not None else spec.warmup))

    for index in range(warmups):
        note(f"    warmup {index + 1}/{warmups} {spec.name}")
        _measure(spec)

    walls: List[float] = []
    cpus: List[float] = []
    best_counters: Dict[str, float] = {}
    for index in range(repeats):
        before = _domain_counter_snapshot()
        extra, wall, cpu = _measure(spec)
        after = _domain_counter_snapshot()
        counters: Dict[str, float] = {
            key: float(after[key] - before[key]) for key in after
        }
        for key, value in (extra or {}).items():
            counters[key] = float(value)
        if not walls or wall < min(walls):
            best_counters = counters
        walls.append(wall)
        cpus.append(cpu)
        note(f"    [{index + 1}/{repeats}] {spec.name} {wall:.3f}s wall")

    best_wall = min(walls)
    rates = {
        f"{key}_per_s": best_counters[key] / best_wall
        for key in RATE_COUNTERS
        if best_counters.get(key) and best_wall > 0
    }
    return BenchResult(
        name=spec.name,
        title=spec.title,
        warmup=warmups,
        repeat=repeats,
        wall_s={
            "min": best_wall,
            "mean": sum(walls) / len(walls),
            "max": max(walls),
        },
        cpu_s={
            "min": min(cpus),
            "mean": sum(cpus) / len(cpus),
            "max": max(cpus),
        },
        peak_rss_kb=_peak_rss_kb(),
        counters=best_counters,
        rates=rates,
    )


def run_suite(
    suite: str,
    specs: Sequence[BenchSpec],
    repeat: Optional[int] = None,
    warmup: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
) -> BenchReport:
    """Run every spec of a suite and collect a :class:`BenchReport`."""
    note = progress or (lambda line: None)
    started = time.perf_counter()
    report = BenchReport(suite=suite)
    for spec in specs:
        note(f"  bench {spec.name}: {spec.title}")
        report.results.append(
            run_spec(spec, repeat=repeat, warmup=warmup, progress=progress)
        )
    report.elapsed_s = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


@dataclass
class BenchDelta:
    """Wall-time delta of one benchmark against the baseline."""

    name: str
    baseline_s: Optional[float]
    current_s: float
    delta_pct: Optional[float]

    def status(self, fail_on_regress: Optional[float]) -> str:
        if self.delta_pct is None:
            return "new"
        if fail_on_regress is not None and self.delta_pct > fail_on_regress:
            return "REGRESS"
        if self.delta_pct < 0:
            return "faster"
        return "ok"


@dataclass
class RateDelta:
    """Throughput-rate delta of one benchmark counter against the baseline.

    Rates are informational: the regression gate runs on wall time only,
    so a rate that is ``new`` (the baseline predates the counter — e.g. a
    benchmark refreshed after a kernel grew a new domain counter) or
    ``gone`` (the counter vanished from the current run) never fails the
    comparison; it is surfaced instead of crashing or being silently
    skipped.
    """

    name: str
    rate: str
    baseline: Optional[float]
    current: Optional[float]
    delta_pct: Optional[float]

    @property
    def status(self) -> str:
        if self.baseline is None:
            return "new"
        if self.current is None:
            return "gone"
        if self.delta_pct is not None and self.delta_pct > 0:
            return "faster"
        return "ok"


@dataclass
class BenchComparison:
    """Diff of a fresh report against a baseline report."""

    deltas: List[BenchDelta] = field(default_factory=list)
    rate_deltas: List[RateDelta] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    fail_on_regress: Optional[float] = None

    @property
    def regressions(self) -> List[BenchDelta]:
        return [
            delta
            for delta in self.deltas
            if delta.status(self.fail_on_regress) == "REGRESS"
        ]

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_reports(
    current: BenchReport,
    baseline: BenchReport,
    fail_on_regress: Optional[float] = None,
) -> BenchComparison:
    """Compare best wall times (and throughput rates) by benchmark name.

    ``fail_on_regress`` is a percentage: a benchmark whose best wall time
    grew by more than that over the baseline counts as a regression.
    Benchmarks absent from the baseline are flagged ``new`` (never a
    failure); baseline entries absent from the current run are listed in
    ``missing`` so a silently skipped workload cannot masquerade as green.

    Throughput rates (``*_per_s``) are additionally diffed per counter
    into ``rate_deltas``.  A counter the baseline predates is reported
    with status ``new`` rather than crashing the comparison or being
    silently dropped — refreshed baselines regularly gain counters when
    kernels or workloads grow; rates never affect the regression gate.
    """
    baseline_by_name = {result.name: result for result in baseline.results}
    comparison = BenchComparison(fail_on_regress=fail_on_regress)
    seen = set()
    for result in current.results:
        seen.add(result.name)
        base = baseline_by_name.get(result.name)
        current_s = float(result.wall_s.get("min", 0.0))
        base_rates: Mapping[str, float] = base.rates if base is not None else {}
        for rate in sorted(set(result.rates) | set(base_rates)):
            cur_value = result.rates.get(rate)
            base_value = base_rates.get(rate) if base is not None else None
            delta_pct = None
            if cur_value is not None and base_value:
                delta_pct = (cur_value - base_value) / base_value * 100.0
            comparison.rate_deltas.append(
                RateDelta(result.name, rate, base_value, cur_value, delta_pct)
            )
        if base is None:
            comparison.deltas.append(BenchDelta(result.name, None, current_s, None))
            continue
        base_s = float(base.wall_s.get("min", 0.0))
        delta_pct = ((current_s - base_s) / base_s * 100.0) if base_s > 0 else 0.0
        comparison.deltas.append(
            BenchDelta(result.name, base_s, current_s, delta_pct)
        )
    comparison.missing = sorted(set(baseline_by_name) - seen)
    return comparison


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_results_table(report: BenchReport) -> str:
    """Text table of one suite run (the ``repro bench`` default output)."""
    from ..core import format_table

    rows = []
    for result in report.results:
        interesting = [
            f"{key}={int(value):,}"
            for key, value in sorted(result.counters.items())
            if key in RATE_COUNTERS and value
        ]
        rates = [
            f"{key.removesuffix('_per_s')}/s={value:,.0f}"
            for key, value in sorted(result.rates.items())
        ]
        rows.append(
            [
                result.name,
                f"{result.wall_s.get('min', 0.0):.3f}",
                f"{result.wall_s.get('mean', 0.0):.3f}",
                f"{result.cpu_s.get('min', 0.0):.3f}",
                f"{result.peak_rss_kb / 1024:.0f}",
                " ".join(interesting + rates),
            ]
        )
    return format_table(
        ["Benchmark", "Wall min (s)", "Wall mean (s)", "CPU min (s)", "RSS (MB)", "Throughput"],
        rows,
    )


def render_comparison(comparison: BenchComparison) -> str:
    """Text tables for ``repro bench --compare`` (wall gate + rate info)."""
    from ..core import format_table

    rows = []
    for delta in comparison.deltas:
        rows.append(
            [
                delta.name,
                "-" if delta.baseline_s is None else f"{delta.baseline_s:.3f}",
                f"{delta.current_s:.3f}",
                "-" if delta.delta_pct is None else f"{delta.delta_pct:+.1f}%",
                delta.status(comparison.fail_on_regress),
            ]
        )
    for name in comparison.missing:
        rows.append([name, "?", "-", "-", "MISSING"])
    table = format_table(
        ["Benchmark", "Baseline (s)", "Current (s)", "Delta", "Status"], rows
    )
    if not comparison.rate_deltas:
        return table

    def fmt(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:,.0f}"

    rate_rows = [
        [
            delta.name,
            delta.rate,
            fmt(delta.baseline),
            fmt(delta.current),
            "-" if delta.delta_pct is None else f"{delta.delta_pct:+.1f}%",
            delta.status,
        ]
        for delta in comparison.rate_deltas
    ]
    rate_table = format_table(
        ["Benchmark", "Rate", "Baseline", "Current", "Delta", "Status"],
        rate_rows,
    )
    return f"{table}\n\nThroughput rates (informational, not gated):\n{rate_table}"
