"""Parallel experiment orchestration: specs, workers, cache, reports.

This is the operator-facing engine behind the ``repro`` CLI.  Every table
and figure of the paper's evaluation is registered here as a declarative
:class:`ExperimentSpec`: a name, a human title, the assembler function
from :mod:`repro.eval.fixed` or :mod:`repro.eval.experiments` (imported
on its first call), and an enumerator of the
:class:`~repro.eval.engine.SynthesisJob` units the assembler will need.

An :class:`ExperimentCampaign` makes one experiment a campaign over
those jobs, and :meth:`Runner.campaign` — the one scheduler, which also
runs the verify, fuzz and faults campaigns — computes them across worker
processes, memoising every record in a content-addressed
:class:`~repro.eval.engine.ResultCache`.  The campaign then hands the
records to the assembler, so a warm cache reproduces any table with zero
re-synthesis, and a cold run is limited by the slowest single circuit
rather than the sum of all of them.  :class:`ExperimentReport` carries
the assembled :class:`~repro.eval.fixed.ExperimentResult` together
with per-stage timings and cache statistics, and saves as JSON plus CSV
for downstream tooling.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Dict, Iterable, List, Mapping, Optional, Protocol, Sequence

from . import fixed
from ..core.report import format_table
from ..exec import ExecEvent, SpecUnit, render_event, run_units, spec_units
from ..exec.report import CampaignReport, error_detail
from ..schema import canonical_json, parse_tag
from .engine import (
    ResultCache,
    SynthesisEngine,
    SynthesisJob,
    synthesis_record,
)
from .fixed import ExperimentResult

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
            jobs = self.jobs(scale, effort, circuits)
        else:
            jobs = self.jobs(scale, effort)
        # Two parts of an experiment that need the same job share one unit.
        return list({job.key(): job for job in jobs}.values())

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


def _synthesis(name: str) -> Callable[..., object]:
    """``repro.eval.experiments.<name>``, imported on the first call.

    Those experiments load the synthesis flow and its baselines;
    ``repro --help`` and the fixed experiments load neither.
    """

    def call(*args, **kwargs):
        from . import experiments  # deferred: see above

        return getattr(experiments, name)(*args, **kwargs)

    call.__name__ = name
    return call


def _figure7(scale: str = "quick", effort: str = "medium", engine=None, circuits=None):
    return _synthesis("run_figure7")(effort=effort)


EXPERIMENTS: Dict[str, ExperimentSpec] = {}


def _register(spec: ExperimentSpec) -> None:
    EXPERIMENTS[spec.name] = spec


_register(ExperimentSpec(
    "table1", "LA/FA cell responses to alternating input sequences",
    _fixed(fixed.run_table1),
))
_register(ExperimentSpec(
    "table2", "The xSFQ cell library (delays and JJ counts, both interconnects)",
    _fixed(fixed.run_table2),
))
_register(ExperimentSpec(
    "figure1", "Alternating dual-rail encoding of a bit stream",
    _fixed(fixed.run_figure1),
))
_register(ExperimentSpec(
    "figure2_3", "Analog (RCSJ) characterisation of JTL/LA/FA/DROC cells",
    _fixed(fixed.run_figure2_3),
))
_register(ExperimentSpec(
    "figure4_5", "Full-adder mapping walk-through (Section 3.1 progression)",
    _fixed(fixed.run_figure4_5),
))
_register(ExperimentSpec(
    "table3", "Duplication penalty on the EPFL control circuits",
    _synthesis("run_table3"), _synthesis("table3_jobs"),
))
_register(ExperimentSpec(
    "table4", "Combinational circuits vs the PBMap-like RSFQ baseline",
    _synthesis("run_table4"), _synthesis("table4_jobs"), supports_circuits=True,
))
_register(ExperimentSpec(
    "table5", "Pipelining study on the c6288-class multiplier",
    _synthesis("run_table5"), _synthesis("table5_jobs"),
))
_register(ExperimentSpec(
    "table6", "Sequential ISCAS89-class circuits vs the qSeq-like baseline",
    _synthesis("run_table6"), _synthesis("table6_jobs"), supports_circuits=True,
))
_register(ExperimentSpec(
    "figure7", "Pulse-level simulation of the 2-bit xSFQ counter",
    _figure7,
))
_register(ExperimentSpec(
    "ablation", "Contribution of each flow ingredient (opt, polarity, PTL, retime)",
    _synthesis("run_ablation"), _synthesis("ablation_jobs"),
))
_register(ExperimentSpec(
    "headline", "The abstract's claim: >80% average JJ reduction",
    _synthesis("run_headline"), _synthesis("headline_jobs"),
    default_effort="low",
))


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


class Campaign(Protocol):
    """What :meth:`Runner.campaign` needs from an experiment, verify, fuzz or faults run.

    Implemented by :class:`ExperimentCampaign` and by
    :class:`~repro.verify.VerificationCampaign`, which serves verify,
    fuzz (:meth:`~repro.gen.FuzzCampaign.batch`) and faults
    (:meth:`~repro.faults.FaultCampaign.batch`).
    """

    #: Past-tense verb of the per-unit progress lines and the done-line.
    verb: str
    #: Job noun of the ``scheduling N <noun> jobs`` progress line.
    noun: str

    def work_units(self) -> List[SpecUnit]:
        """Work units in campaign order, each with its compute function
        and progress description."""

    def report(self, records: List[Dict[str, object]], **stats):
        """The :class:`~repro.verify.campaign.CampaignReport` over
        ``records`` (one per work unit, in order); ``stats`` are
        ``jobs``/``computed``/``cached``/``fresh``."""


@dataclass
class ExperimentReport(CampaignReport):
    """The report of an :class:`ExperimentCampaign` (``repro run``).

    ``records`` are the synthesis records of the experiment's jobs, in
    job order.  A false boolean shape check in the summary fails the run.

    Attributes:
        result: The assembled experiment result; an empty one reading
            ``(not assembled)`` when a job errored.
        stage_timings: Per-stage aggregate over the experiment's records:
            ``{stage: {"runs", "cached", "total_s", "mean_s"}}``.
            ``runs``/``total_s`` cover only stages executed this run;
            stage-cache hits and records replayed from the result cache
            count under ``cached``.  Rendered by ``repro run --stage-timing``.
    """

    result: Optional[ExperimentResult] = None
    stage_timings: Dict[str, Dict[str, float]] = field(default_factory=dict)

    timing_words = ("jobs", "synthesised")

    @property
    def name(self) -> str:
        return self.campaign.spec.name

    @property
    def failures(self) -> List[str]:
        """The boolean shape checks of the summary that are false."""
        return [key for key, value in self.summary().items() if value is False]

    def table(self) -> str:
        return self.result.text

    def summary(self) -> Dict[str, object]:
        return self.result.summary

    def identity(self) -> Dict[str, object]:
        campaign = self.campaign
        return {"scale": campaign.scale, "effort": campaign.effort or campaign.spec.default_effort}

    def to_dict(self) -> Dict[str, object]:
        return {
            **super().to_dict(),
            "rows": self.result.rows,
            "stage_timings": {k: dict(v) for k, v in self.stage_timings.items()},
        }

    def save(self, path: Path) -> List[Path]:
        """The JSON document at ``path`` and the table rows next to it as CSV."""
        return [*super().save(path), write_csv(self, Path(path).with_suffix(".csv"))]


@dataclass(frozen=True)
class ExperimentCampaign:
    """One registered experiment as a campaign over its synthesis jobs.

    The units are the jobs the experiment's spec enumerates; ``report``
    assembles the experiment from their records, so assembly never
    synthesises anything itself.
    """

    spec: ExperimentSpec
    scale: str = "quick"
    effort: Optional[str] = None
    circuits: Optional[Sequence[str]] = None
    verb: ClassVar[str] = "synthesised"
    noun: ClassVar[str] = "synthesis"

    def jobs(self) -> List[SynthesisJob]:
        return self.spec.enumerate_jobs(self.scale, self.effort, self.circuits)

    def work_units(self) -> List[SpecUnit]:
        return spec_units(self.jobs(), synthesis_record, SynthesisJob.label)

    def report(self, records: List[Dict[str, object]], **stats) -> ExperimentReport:
        memory = {job.key(): record for job, record in zip(self.jobs(), records)}
        result = ExperimentResult(self.spec.name, text="(not assembled)")
        if not any(record.get("status") == "error" for record in records):
            engine = SynthesisEngine(memory=memory)
            result = self.spec.assemble(self.scale, self.effort, engine, self.circuits)
        return ExperimentReport(
            self,
            records,
            result=result,
            stage_timings=_aggregate_stage_timings(memory, stats["fresh"]),
            **stats,
        )


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

    def campaign(self, campaign: Campaign):
        """Run an experiment, verify, fuzz or faults campaign; return its report.

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
            noun=campaign.noun,
            unit_timeout=self.unit_timeout,
        )
        report = campaign.report(
            [outcome.records[unit.key()] for unit in units],
            jobs=self.jobs,
            computed=outcome.computed,
            cached=outcome.cached,
            fresh=outcome.fresh,
        )
        # Taken after report(): an experiment's wall clock includes assembly.
        report.elapsed_s = time.perf_counter() - started
        self.progress(report.done_line(campaign.verb))
        return report


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
) -> ExperimentReport:
    """One-call convenience wrapper around :class:`Runner`.

    ``repro.run_experiment("table4", jobs=4)`` reproduces Table 4 on 4
    worker processes, reusing (and growing) the on-disk result cache.
    Raises ``KeyError`` for an unknown experiment and ``RuntimeError``
    when a synthesis job errored, so the experiment was not assembled.
    """
    spec = EXPERIMENTS.get(experiment)
    if spec is None:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment!r}; known: {known}")
    cache = ResultCache(cache_dir) if use_cache else None
    runner = Runner(
        jobs=jobs, cache=cache, progress=progress, unit_timeout=unit_timeout
    )
    report = runner.campaign(ExperimentCampaign(spec, scale, effort, circuits))
    if report.errors:
        details = "; ".join(error_detail(record) for record in report.errored_units)
        raise RuntimeError(f"{experiment} was not assembled: {details}")
    return report


# ---------------------------------------------------------------------------
# Structured emission
# ---------------------------------------------------------------------------


def _flatten(value: object) -> object:
    if isinstance(value, (dict, list, tuple)):
        return canonical_json(value)
    return value


def write_csv(report: ExperimentReport, path: Path) -> Path:
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
    """Load a JSON report previously saved by ``repro run``/``verify``/``fuzz``/``faults``."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def render_report(data: Mapping[str, object]) -> str:
    """Render a loaded JSON report back into the CLI's text format.

    Reads the saved run/verify/fuzz/faults campaign documents (named by
    ``experiment`` or, for the faults report, by its schema tag; it has
    no wall-clock or cache fields).
    """
    campaign = data.get("campaign") or {}
    name = data.get("experiment") or (parse_tag(data["schema"])[0] if "schema" in data else "?")
    identity = {"scale": data.get("scale", campaign.get("scale")), "effort": data.get("effort")}
    header = " ".join(
        [f"[{name}]"] + [f"{key}={value}" for key, value in identity.items() if value is not None]
    )
    if "elapsed_s" in data:
        header += f" elapsed={data['elapsed_s']:.2f}s"
    if "computed" in data:
        header += f" ({data.get('cached', 0)} cached, {data['computed']} computed)"
    lines = [header, str(data.get("text", ""))]
    summary = data.get("summary") or {}
    if summary:
        lines.append("summary:")
        for key in sorted(summary):
            lines.append(f"  {key}: {summary[key]}")
    return "\n".join(lines)
