"""Parallel experiment orchestration: specs, workers, cache, reports.

This is the operator-facing engine behind the ``repro`` CLI.  Every table
and figure of the paper's evaluation is registered here as a declarative
:class:`ExperimentSpec`: a name, a human title, the assembler function
from :mod:`repro.eval.experiments`, and an enumerator of the
:class:`~repro.eval.engine.SynthesisJob` units the assembler will need.

The :class:`Runner` schedules those jobs across worker processes,
memoises every record in a content-addressed
:class:`~repro.eval.engine.ResultCache`, then hands the pre-populated
cache to the assembler — so a warm cache reproduces any table with zero
re-synthesis, and a cold run is limited by the slowest single circuit
rather than the sum of all of them.  :class:`RunReport` carries the
assembled :class:`~repro.eval.experiments.ExperimentResult` together
with per-job timings and cache statistics, and can be emitted as JSON or
CSV for downstream tooling.  :meth:`Runner.campaign` runs verify, fuzz
and faults campaigns through the same scheduling and cache.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Protocol, Sequence, Tuple

from . import experiments
from ..exec import ExecEvent, SpecUnit, render_event, run_units, spec_units
from ..schema import atomic_write_json, canonical_json, parse_tag
from .engine import (
    ResultCache,
    SynthesisEngine,
    SynthesisJob,
    synthesis_record,
)
from .experiments import ExperimentResult

ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one schedulable experiment.

    Attributes:
        name: CLI identifier (``"table4"``, ``"figure7"``, ...).
        title: Human-readable description of what the paper artefact shows.
        run: Assembler ``(scale, effort, engine, circuits) -> ExperimentResult``.
        jobs: Enumerator of the synthesis jobs the assembler will request;
            ``None`` for experiments with no catalogued-circuit synthesis.
        default_effort: AIG effort used when the caller does not choose one.
        supports_circuits: Whether ``run``/``jobs`` accept a circuit subset.
    """

    name: str
    title: str
    run: Callable[..., ExperimentResult]
    jobs: Optional[Callable[..., List[SynthesisJob]]] = None
    default_effort: str = "medium"
    supports_circuits: bool = False

    def enumerate_jobs(
        self,
        scale: str = "quick",
        effort: Optional[str] = None,
        circuits: Optional[Sequence[str]] = None,
    ) -> List[SynthesisJob]:
        if self.jobs is None:
            return []
        effort = effort or self.default_effort
        if self.supports_circuits:
            return self.jobs(scale, effort, circuits)
        return self.jobs(scale, effort)

    def assemble(
        self,
        scale: str = "quick",
        effort: Optional[str] = None,
        engine: Optional[SynthesisEngine] = None,
        circuits: Optional[Sequence[str]] = None,
    ) -> ExperimentResult:
        effort = effort or self.default_effort
        if self.supports_circuits:
            return self.run(scale=scale, effort=effort, circuits=circuits, engine=engine)
        return self.run(scale=scale, effort=effort, engine=engine)


def _fixed(fn: Callable[[], ExperimentResult]) -> Callable[..., ExperimentResult]:
    """Adapt a no-argument experiment to the uniform assembler signature."""

    def run(scale: str = "quick", effort: str = "medium", engine=None, circuits=None):
        return fn()

    run.__doc__ = fn.__doc__
    return run


def _figure7(scale: str = "quick", effort: str = "medium", engine=None, circuits=None):
    return experiments.run_figure7(effort=effort)


EXPERIMENTS: Dict[str, ExperimentSpec] = {}


def _register(spec: ExperimentSpec) -> None:
    EXPERIMENTS[spec.name] = spec


_register(ExperimentSpec(
    "table1", "LA/FA cell responses to alternating input sequences",
    _fixed(experiments.run_table1),
))
_register(ExperimentSpec(
    "table2", "The xSFQ cell library (delays and JJ counts, both interconnects)",
    _fixed(experiments.run_table2),
))
_register(ExperimentSpec(
    "figure1", "Alternating dual-rail encoding of a bit stream",
    _fixed(experiments.run_figure1),
))
_register(ExperimentSpec(
    "figure2_3", "Analog (RCSJ) characterisation of JTL/LA/FA/DROC cells",
    _fixed(experiments.run_figure2_3),
))
_register(ExperimentSpec(
    "figure4_5", "Full-adder mapping walk-through (Section 3.1 progression)",
    _fixed(experiments.run_figure4_5),
))
_register(ExperimentSpec(
    "table3", "Duplication penalty on the EPFL control circuits",
    experiments.run_table3, experiments.table3_jobs,
))
_register(ExperimentSpec(
    "table4", "Combinational circuits vs the PBMap-like RSFQ baseline",
    experiments.run_table4, experiments.table4_jobs, supports_circuits=True,
))
_register(ExperimentSpec(
    "table5", "Pipelining study on the c6288-class multiplier",
    experiments.run_table5, experiments.table5_jobs,
))
_register(ExperimentSpec(
    "table6", "Sequential ISCAS89-class circuits vs the qSeq-like baseline",
    experiments.run_table6, experiments.table6_jobs, supports_circuits=True,
))
_register(ExperimentSpec(
    "figure7", "Pulse-level simulation of the 2-bit xSFQ counter",
    _figure7,
))
_register(ExperimentSpec(
    "ablation", "Contribution of each flow ingredient (opt, polarity, PTL, retime)",
    experiments.run_ablation, experiments.ablation_jobs,
))
_register(ExperimentSpec(
    "headline", "The abstract's claim: >80% average JJ reduction",
    experiments.run_headline, experiments.headline_jobs,
    default_effort="low",
))


@dataclass
class RunReport:
    """Everything one :meth:`Runner.run` invocation produced.

    Attributes:
        result: The assembled experiment result.
        scale: Circuit scale used.
        effort: AIG effort used.
        jobs: Worker-process count.
        total_jobs: Synthesis jobs the experiment needed.
        computed_jobs: Jobs actually synthesised this run (cache misses).
        cached_jobs: Jobs served from the result cache.
        job_timings: Seconds per computed job, keyed by a job label.
        stage_timings: Per-stage aggregate over every record the run
            touched: ``{stage: {"runs", "cached", "total_s", "mean_s"}}``.
            ``runs``/``total_s`` cover only stages executed this run;
            stage-cache hits and records replayed from the result cache
            count under ``cached``.  Rendered by ``repro run --stage-timing``.
        elapsed_s: Wall-clock for the whole run (synthesis + assembly).
    """

    result: ExperimentResult
    scale: str = "quick"
    effort: str = "medium"
    jobs: int = 1
    total_jobs: int = 0
    computed_jobs: int = 0
    cached_jobs: int = 0
    job_timings: Dict[str, float] = field(default_factory=dict)
    stage_timings: Dict[str, Dict[str, float]] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def experiment(self) -> str:
        return self.result.experiment

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.result.experiment,
            "scale": self.scale,
            "effort": self.effort,
            "jobs": self.jobs,
            "total_jobs": self.total_jobs,
            "computed_jobs": self.computed_jobs,
            "cached_jobs": self.cached_jobs,
            "job_timings": dict(self.job_timings),
            "stage_timings": {k: dict(v) for k, v in self.stage_timings.items()},
            "elapsed_s": self.elapsed_s,
            "rows": self.result.rows,
            "summary": self.result.summary,
            "text": self.result.text,
        }


def _aggregate_stage_timings(
    records_by_key: Mapping[str, Mapping[str, object]],
    computed_keys: Iterable[str],
) -> Dict[str, Dict[str, float]]:
    """Fold the per-record stage timing rows into one per-stage summary.

    Only records computed *this run* (``computed_keys``) count as executed
    stages; rows from records replayed out of the disk cache are folded
    into the ``cached`` column so the table matches the run's own
    "N synthesised" summary instead of echoing historical timings.
    """
    live = set(computed_keys)
    totals: Dict[str, Dict[str, float]] = {}
    for key, record in records_by_key.items():
        for row in record.get("stages") or []:
            entry = totals.setdefault(
                str(row.get("stage")),
                {"runs": 0, "cached": 0, "total_s": 0.0, "mean_s": 0.0},
            )
            if key in live and not row.get("cached"):
                entry["runs"] += 1
                entry["total_s"] += float(row.get("seconds") or 0.0)
            else:
                entry["cached"] += 1
    for entry in totals.values():
        executed = entry["runs"] or 1
        entry["mean_s"] = entry["total_s"] / executed
    return totals


def render_stage_timings(stage_timings: Mapping[str, Mapping[str, float]]) -> str:
    """Text table for ``repro run --stage-timing`` (and saved JSON reports)."""
    from ..core import format_table

    rows = [
        [
            stage,
            int(entry.get("runs", 0)),
            int(entry.get("cached", 0)),
            f"{entry.get('total_s', 0.0):.3f}",
            f"{entry.get('mean_s', 0.0):.4f}",
        ]
        for stage, entry in stage_timings.items()
    ]
    return format_table(["Stage", "Runs", "Cached", "Total (s)", "Mean (s)"], rows)


def _job_label(job: SynthesisJob) -> str:
    if job.options:
        tweaks = {
            key: value
            for key, value in job.options
            if value != getattr(experiments.FlowOptions(), key)
        }
        suffix = "".join(f" {k}={v}" for k, v in sorted(tweaks.items()))
    else:
        # Hand-composed flow: identify it by its stage sequence.
        suffix = " flow=" + ">".join(name for name, _ in job.signature())
    return f"{job.circuit}@{job.scale}{suffix}"


class Campaign(Protocol):
    """What :meth:`Runner.campaign` needs from a verify, fuzz or faults run.

    Implemented by :class:`~repro.verify.VerificationCampaign`,
    :class:`~repro.gen.FuzzBatch` and :class:`~repro.faults.FaultBatch`.
    """

    #: Past-tense verb of the per-unit progress lines and the done-line.
    verb: str

    def work_units(self) -> List[SpecUnit]:
        """Work units in campaign order, each with its compute function
        and progress description."""

    def report(self, records: List[Dict[str, object]], **stats):
        """The :class:`~repro.verify.campaign.CampaignReport` over
        ``records`` (one per work unit, in order); ``stats`` are
        ``jobs``/``computed``/``cached``/``elapsed_s``."""


class Runner:
    """Schedules experiments and campaigns through :mod:`repro.exec`.

    All scheduling is delegated to :func:`repro.exec.run_units`, which
    picks the backend per batch: in-process for one job (or one pending
    unit) without a unit timeout, supervised worker processes
    otherwise.  The runner only adapts specs into work units, assembles
    the reports, and renders :class:`~repro.exec.ExecEvent`\\ s onto the
    ``progress`` callback.

    Args:
        jobs: Worker processes; 1 runs everything in-process.
        cache: Shared result cache (a fresh default-directory cache when
            omitted; pass ``cache=None`` explicitly via ``use_cache=False``
            on the CLI to disable persistence).
        progress: Callback receiving one line per scheduling event.
        unit_timeout: Per-unit wall-clock budget in seconds; runs even a
            single job on a supervised worker so the budget holds.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressFn] = None,
        unit_timeout: Optional[float] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.progress = progress or (lambda line: None)
        self.unit_timeout = unit_timeout

    def emit(self, event: ExecEvent) -> None:
        """Render one structured execution event onto ``progress``."""
        line = render_event(event)
        if line is not None:
            self.progress(line)

    def run(
        self,
        experiment: str,
        scale: str = "quick",
        effort: Optional[str] = None,
        circuits: Optional[Sequence[str]] = None,
    ) -> RunReport:
        """Execute one registered experiment end to end."""
        spec = EXPERIMENTS.get(experiment)
        if spec is None:
            known = ", ".join(sorted(EXPERIMENTS))
            raise KeyError(f"unknown experiment {experiment!r}; known: {known}")
        effort = effort or spec.default_effort
        started = time.perf_counter()

        engine = SynthesisEngine(cache=self.cache)
        job_list = spec.enumerate_jobs(scale, effort, circuits)
        timings, computed_keys = self._prefetch(engine, job_list)

        result = spec.assemble(scale, effort, engine, circuits)
        # Jobs the assembler needed beyond the enumerated set (there should
        # be none — specs enumerate exactly what their assembler requests).
        for job, seconds in engine.computed:
            timings.setdefault(_job_label(job), seconds)
            computed_keys.add(job.key())

        elapsed = time.perf_counter() - started
        computed = len(timings)
        report = RunReport(
            result=result,
            scale=scale,
            effort=effort,
            jobs=self.jobs,
            total_jobs=len(job_list),
            computed_jobs=computed,
            cached_jobs=max(0, len(job_list) - computed),
            job_timings=timings,
            stage_timings=_aggregate_stage_timings(engine.memory, computed_keys),
            elapsed_s=elapsed,
        )
        self.progress(
            f"[{experiment}] done in {elapsed:.2f}s "
            f"({report.cached_jobs} cached, {report.computed_jobs} synthesised)"
        )
        return report

    def campaign(self, campaign: Campaign):
        """Run a verify, fuzz or faults campaign; return its report.

        Units whose content-addressed key is already in the result cache
        replay for free, the rest are computed (on workers when
        parallel) and cached.  A unit that raises, crashes or times out
        resolves to a ``status: "error"`` record instead of aborting the
        campaign; error records are never cached, so a rerun recomputes
        exactly the failed units.  Records reach ``report`` in unit
        order.
        """
        started = time.perf_counter()
        units = campaign.work_units()
        outcome = run_units(
            units,
            cache=self.cache,
            jobs=self.jobs,
            emit=self.emit,
            verb=campaign.verb,
            noun="verification",
            unit_timeout=self.unit_timeout,
        )
        report = campaign.report(
            [outcome.records[unit.key()] for unit in units],
            jobs=self.jobs,
            computed=outcome.computed,
            cached=outcome.cached,
            elapsed_s=time.perf_counter() - started,
        )
        self.progress(report.done_line(campaign.verb))
        return report

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _prefetch(
        self, engine: SynthesisEngine, job_list: Sequence[SynthesisJob]
    ) -> Tuple[Dict[str, float], set]:
        """Compute every enumerated job missing from the cache.

        Returns per-job wall times and the cache keys of the jobs actually
        synthesised this run (vs replayed from the result cache).
        """
        units = spec_units(job_list, synthesis_record, _job_label)
        # The lifecycle replays cache hits and writes fresh records back;
        # priming below only fills the engine's in-process memory.
        outcome = run_units(
            units,
            cache=self.cache,
            jobs=self.jobs,
            emit=self.emit,
            verb="synthesised",
            noun="synthesis",
            unit_timeout=self.unit_timeout,
        )
        by_key = {unit.key(): unit for unit in units}
        for key, record in outcome.records.items():
            # An errored job stays cold: the assembler recomputes it
            # serially and surfaces the real exception.
            if record.get("status") != "error":
                engine.prime(by_key[key].spec, record, persist=False)
        timings = {by_key[key].describe(): t for key, t in outcome.seconds.items()}
        return timings, set(outcome.seconds)


def run_experiment(
    experiment: str,
    scale: str = "quick",
    effort: Optional[str] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    circuits: Optional[Sequence[str]] = None,
    progress: Optional[ProgressFn] = None,
    unit_timeout: Optional[float] = None,
) -> RunReport:
    """One-call convenience wrapper around :class:`Runner`.

    ``repro.run_experiment("table4", jobs=4)`` reproduces Table 4 on 4
    worker processes, reusing (and growing) the on-disk result cache.
    """
    cache = ResultCache(cache_dir) if use_cache else None
    runner = Runner(
        jobs=jobs, cache=cache, progress=progress, unit_timeout=unit_timeout
    )
    return runner.run(experiment, scale=scale, effort=effort, circuits=circuits)


# ---------------------------------------------------------------------------
# Structured emission
# ---------------------------------------------------------------------------


def write_json(report: RunReport, path: Path) -> Path:
    """Write the full run report (rows, summary, timings) as JSON.

    Atomic and strict: the shared schema-layer writer rejects
    non-wire-safe values instead of ``default=str``-stringifying them.
    """
    return atomic_write_json(Path(path), report.to_dict())


def _flatten(value: object) -> object:
    if isinstance(value, (dict, list, tuple)):
        return canonical_json(value)
    return value


def write_csv(report: RunReport, path: Path) -> Path:
    """Write the experiment's per-row results as CSV (one row per table row)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = report.result.rows
    headers: List[str] = []
    for row in rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=headers)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _flatten(value) for key, value in row.items()})
    return path


def load_report(path: Path) -> Dict[str, object]:
    """Load a JSON report previously written by :func:`write_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def render_report(data: Mapping[str, object]) -> str:
    """Render a loaded JSON report back into the CLI's text format.

    Reads both a :class:`RunReport` and the saved verify/fuzz/faults
    campaign documents (named by ``experiment`` or, for the faults
    report, by its schema tag; it has no wall-clock or cache fields).
    """
    campaign = data.get("campaign") or {}
    name = data.get("experiment") or (parse_tag(data["schema"])[0] if "schema" in data else "?")
    identity = {"scale": data.get("scale", campaign.get("scale")), "effort": data.get("effort")}
    header = " ".join(
        [f"[{name}]"] + [f"{key}={value}" for key, value in identity.items() if value is not None]
    )
    if "elapsed_s" in data:
        header += f" elapsed={data['elapsed_s']:.2f}s"
    if "computed_jobs" in data:
        header += f" ({data.get('cached_jobs', 0)} cached, {data['computed_jobs']} synthesised)"
    elif "computed" in data:
        header += f" ({data.get('cached', 0)} cached, {data['computed']} computed)"
    lines = [header, str(data.get("text", ""))]
    summary = data.get("summary") or {}
    if summary:
        lines.append("summary:")
        for key in sorted(summary):
            lines.append(f"  {key}: {summary[key]}")
    return "\n".join(lines)
