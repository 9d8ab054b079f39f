"""Differential fuzzing campaigns: generated circuits x flow variants.

A :class:`FuzzCampaign` is a pure function of ``(budget, seed, families,
flows)``: it derives ``budget`` generated circuits with
:func:`repro.gen.spec.generate_specs` and crosses each with every
selected flow variant from
:data:`repro.core.flowgraph.FLOW_VARIANTS`, yielding one
:class:`~repro.verify.campaign.FlowUnit` per ``(circuit, flow)`` pair.
Each unit's spec *is* a
:class:`~repro.verify.campaign.VerificationSpec` — the pulse-accurate
equivalence oracle from PR 3 judges every pair for free — so campaign
verdicts land in the same content-addressed result cache as ``repro
verify``, workers never recompute a seen pair, and a warm cache replays
a whole campaign in milliseconds.

Failures carry their full identity in the circuit name
(``gen:<family>:<params>:s<seed>``), so the one line the CLI prints
replays anywhere; :func:`shrink_unit` additionally reduces the failing
netlist to a 1-minimal reproducer with
:func:`repro.gen.shrink.shrink_network` (the oracle re-runs the failing
flow variant on every candidate).

:meth:`FuzzCampaign.batch` gives the
:class:`~repro.verify.campaign.VerificationCampaign` that
:meth:`repro.eval.runner.Runner.campaign` schedules, and
:func:`shrink_failures` is the explicit shrinking post-step; the CLI
surface is ``repro fuzz`` (see ``docs/fuzzing.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.flowgraph import flow_variant
from ..core.report import format_table
from ..netlist.bench import write_bench
from ..netlist.network import LogicNetwork
from ..verify.campaign import (
    FlowUnit,
    VerificationCampaign,
    VerificationReport,
    VerificationSpec,
    verification_record,
)
from ..verify.equivalence import verify_result
from .shrink import ShrinkResult, shrink_network
from .spec import GenSpec, generate_specs, parse_name

__all__ = [
    "DEFAULT_FLOWS",
    "FuzzCampaign",
    "FuzzReport",
    "replay_line",
    "shrink_failures",
    "shrink_unit",
    "units_for_replay",
]

#: Flow variants a campaign runs when the caller does not choose —
#: the paper's full flow plus the two mapping ablations, covering both
#: polarity strategies and (via "default" vs "no-retime") both
#: sequential storage styles.
DEFAULT_FLOWS: Tuple[str, ...] = ("default", "direct", "no-retime")


@dataclass(frozen=True)
class FuzzCampaign:
    """Declarative identity of one differential fuzzing run.

    Attributes:
        budget: Circuits to generate.
        seed: Master seed deriving every circuit's ``(params, seed)``.
        families: Family subset (default: every registered family).
        flows: Flow-variant names to cross every circuit with.
        patterns: Stimulus budget per verification.
        sequence_length: Cycles per trajectory for sequential circuits.
        stimulus_seed: Seed of the stimulus suites (independent of the
            circuit-generation master seed).
        steer: Draw circuits with the coverage-steered generator
            (:func:`repro.cov.steer.steered_specs`) instead of the pure
            uniform stream.  Still fully deterministic: the steered
            stream is a pure function of ``(budget, seed, families)``.
    """

    budget: int = 100
    seed: int = 0
    families: Tuple[str, ...] = ()
    flows: Tuple[str, ...] = DEFAULT_FLOWS
    patterns: int = 64
    sequence_length: int = 8
    stimulus_seed: int = 0
    steer: bool = False

    def circuits(self) -> List[GenSpec]:
        """The campaign's generated circuits, in order."""
        if self.steer:
            # Imported lazily: repro.cov feeds on repro.gen at module
            # level, so the dependency must not run both ways at import.
            from ..cov.steer import steered_specs

            return steered_specs(self.budget, self.seed, self.families or None)
        return generate_specs(self.budget, self.seed, self.families or None)

    def units(self, names: Optional[Sequence[str]] = None) -> List[FlowUnit]:
        """Every ``(circuit, flow)`` pair, circuit-major order, over the
        circuit ``names`` (default: :meth:`circuits`)."""
        names = [gen.name() for gen in self.circuits()] if names is None else names
        return [
            FlowUnit(flow_name, VerificationSpec.create(
                name,
                flow=flow_variant(flow_name),
                patterns=self.patterns,
                seed=self.stimulus_seed,
                sequence_length=self.sequence_length,
            ))
            for name in names
            for flow_name in self.flows
        ]

    def batch(self, units: Optional[Sequence[FlowUnit]] = None) -> VerificationCampaign:
        """This campaign's units (or ``units``, e.g. a replay) to schedule.

        Generated circuits are rebuilt in workers from their names.
        """
        units = self.units() if units is None else units
        return VerificationCampaign.of(units, self, verification_record, FuzzReport)

    def to_dict(self) -> Dict[str, object]:
        return {
            "budget": self.budget,
            "seed": self.seed,
            "families": list(self.families),
            "flows": list(self.flows),
            "patterns": self.patterns,
            "sequence_length": self.sequence_length,
            "stimulus_seed": self.stimulus_seed,
            "steer": self.steer,
        }


def replay_line(record: Mapping[str, object]) -> str:
    """The one-line reproducer printed for a failing record."""
    return (
        f"{record.get('circuit')} [flow={record.get('flow_variant')}] -- replay: "
        f"repro fuzz --replay '{record.get('circuit')}' "
        f"--flows {record.get('flow_variant')}"
    )


def shrink_unit(
    gen: GenSpec,
    flow_name: str,
    patterns: int = 64,
    stimulus_seed: int = 0,
    sequence_length: int = 8,
    max_attempts: int = 400,
) -> Optional[ShrinkResult]:
    """Minimise a failing ``(circuit, flow)`` pair.

    Rebuilds the circuit from its spec, confirms the failure, then
    greedily shrinks the netlist while the same flow variant still
    produces a counterexample.  Returns ``None`` when the failure does
    not reproduce in-process (e.g. a stale cached verdict).
    """
    network = gen.build()

    def failing(candidate: LogicNetwork) -> bool:
        try:
            result = flow_variant(flow_name).run(candidate, use_stage_cache=False)
            verdict = verify_result(
                result,
                golden=candidate,
                patterns=patterns,
                seed=stimulus_seed,
                sequence_length=sequence_length,
            )
        except Exception:
            # A crash is a different bug than the counterexample being
            # minimised; shrinking must preserve *this* failure.
            return False
        return verdict.status == "counterexample"

    if not failing(network):
        return None
    return shrink_network(network, failing, max_attempts=max_attempts)


@dataclass
class FuzzReport(VerificationReport):
    """The report of a :class:`FuzzCampaign` run (``repro fuzz``).

    ``campaign`` is the :class:`FuzzCampaign` that was run; each record is
    an annotated verdict of one ``(circuit, flow)`` unit, and the summary
    adds unit and flow counts to the verify summary.  ``shrunk``
    holds the bench text of each minimised reproducer, keyed by
    ``"<circuit>|<flow>"``, plus the shrink statistics.
    """

    shrunk: Dict[str, Dict[str, object]] = field(default_factory=dict)

    name = "fuzz"
    verb: ClassVar[str] = "fuzzed"

    @staticmethod
    def annotate(unit: FlowUnit, record: Mapping[str, object]) -> Dict[str, object]:
        """The verification record plus its unit's generation metadata."""
        gen = parse_name(unit.spec.circuit)
        return {
            **record,
            "flow_variant": unit.flow_name,
            "family": gen.family,
            "gen_params": dict(gen.params),
            "gen_seed": gen.seed,
        }

    def table(self) -> str:
        """Aggregate per-(family, flow) summary table."""
        buckets: Dict[Tuple[str, str], Dict[str, int]] = {}
        for record in self.records:
            key = (str(record.get("family")), str(record.get("flow_variant")))
            bucket = buckets.setdefault(
                key, {"circuits": 0, "equivalent": 0, "counterexamples": 0, "skipped": 0, "patterns": 0}
            )
            bucket["circuits"] += 1
            status = str(record.get("status"))
            if status == "error":
                continue
            if status == "equivalent":
                bucket["equivalent"] += 1
            elif status == "counterexample":
                bucket["counterexamples"] += 1
            else:
                bucket["skipped"] += 1
            bucket["patterns"] += int(record.get("patterns") or 0)
        rows = [
            [
                family,
                flow,
                bucket["circuits"],
                bucket["equivalent"],
                bucket["counterexamples"],
                bucket["skipped"],
                bucket["patterns"],
            ]
            for (family, flow), bucket in sorted(buckets.items())
        ]
        return format_table(
            ["Family", "Flow", "Units", "Equiv", "Cex", "Skip", "Patterns"], rows
        )

    def summary(self) -> Dict[str, object]:
        return {
            **super().summary(),
            "circuits": len({r.get("circuit") for r in self.records}),
            "units": len(self.records),
            "flows": len(self.campaign.flows),
        }

    def done_extras(self) -> List[str]:
        return [f"{len(self.failures)} failures"]

    def identity(self) -> Dict[str, object]:
        return {
            "campaign": self.campaign.to_dict(),
            "shrunk": {k: dict(v) for k, v in self.shrunk.items()},
        }


def shrink_failures(
    report: FuzzReport, progress: Callable[[str], None] = lambda line: None
) -> None:
    """Minimise every failing unit of ``report`` in-process.

    The explicit post-step after ``Runner.campaign``: each failing
    record is re-run from its own stimulus identity, and its reproducer
    is attached to ``report.shrunk``.
    """
    for record in report.failures:
        circuit, flow_name = record.get("circuit"), record.get("flow_variant")
        progress(f"  shrinking {circuit} flow={flow_name} ...")
        result = shrink_unit(
            parse_name(str(circuit)),
            str(flow_name),
            patterns=int(record["requested_patterns"]),
            stimulus_seed=int(record["seed"]),
            sequence_length=int(record["sequence_length"]),
        )
        if result is not None:
            key = f"{circuit}|{flow_name}"
            report.shrunk[key] = {**result.to_dict(), "bench": write_bench(result.network)}
            progress(f"    {result.summary()}")


def units_for_replay(
    name: str,
    flows: Sequence[str],
    patterns: int = 64,
    stimulus_seed: int = 0,
    sequence_length: int = 8,
) -> List[FlowUnit]:
    """Units re-verifying one generated circuit (``repro fuzz --replay``)."""
    campaign = FuzzCampaign(
        flows=tuple(flows),
        patterns=patterns,
        stimulus_seed=stimulus_seed,
        sequence_length=sequence_length,
    )
    return campaign.units([parse_name(name).name()])
