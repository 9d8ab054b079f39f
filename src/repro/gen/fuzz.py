"""Differential fuzzing campaigns: generated circuits x flow variants.

A :class:`FuzzCampaign` is a pure function of ``(budget, seed, families,
flows)``: it derives ``budget`` generated circuits with
:func:`repro.gen.spec.generate_specs` and crosses each with every
selected flow variant from
:data:`repro.core.flowgraph.FLOW_VARIANTS`, yielding one
:class:`FuzzUnit` per ``(circuit, flow)`` pair.  Each unit *is* a
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

:meth:`FuzzCampaign.batch` gives the :class:`FuzzBatch` that
:meth:`repro.eval.runner.Runner.campaign` schedules, and
:meth:`FuzzBatch.shrink_failures` is the explicit shrinking post-step;
the CLI surface is ``repro fuzz`` (see ``docs/fuzzing.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.flowgraph import flow_variant
from ..core.report import format_table
from ..netlist.bench import write_bench
from ..netlist.network import LogicNetwork
from ..exec import SpecUnit
from ..verify.campaign import VerificationReport, VerificationSpec, verification_record
from ..verify.equivalence import verify_result
from .shrink import ShrinkResult, shrink_network
from .spec import GenSpec, generate_specs, parse_name

__all__ = [
    "DEFAULT_FLOWS",
    "FuzzBatch",
    "FuzzCampaign",
    "FuzzReport",
    "FuzzUnit",
    "replay_line",
    "shrink_unit",
]

#: Flow variants a campaign runs when the caller does not choose —
#: the paper's full flow plus the two mapping ablations, covering both
#: polarity strategies and (via "default" vs "no-retime") both
#: sequential storage styles.
DEFAULT_FLOWS: Tuple[str, ...] = ("default", "direct", "no-retime")


@dataclass(frozen=True)
class FuzzUnit:
    """One schedulable ``(generated circuit, flow variant)`` pair."""

    gen: GenSpec
    flow_name: str
    spec: VerificationSpec

    @classmethod
    def create(
        cls,
        gen: GenSpec,
        flow_name: str,
        patterns: int = 64,
        stimulus_seed: int = 0,
        sequence_length: int = 8,
    ) -> "FuzzUnit":
        return cls(
            gen=gen,
            flow_name=flow_name,
            spec=VerificationSpec.create(
                gen.name(),
                flow=flow_variant(flow_name),
                patterns=patterns,
                seed=stimulus_seed,
                sequence_length=sequence_length,
            ),
        )

    def annotate(self, record: Mapping[str, object]) -> Dict[str, object]:
        """The verification record plus this unit's generation metadata."""
        merged = dict(record)
        merged["flow_variant"] = self.flow_name
        merged["family"] = self.gen.family
        merged["gen_params"] = dict(self.gen.params)
        merged["gen_seed"] = self.gen.seed
        return merged


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

    def units(self) -> List[FuzzUnit]:
        """Every ``(circuit, flow)`` pair, circuit-major order."""
        return [
            FuzzUnit.create(
                gen,
                flow_name,
                patterns=self.patterns,
                stimulus_seed=self.stimulus_seed,
                sequence_length=self.sequence_length,
            )
            for gen in self.circuits()
            for flow_name in self.flows
        ]

    def batch(self, units: Optional[Sequence[FuzzUnit]] = None) -> "FuzzBatch":
        """This campaign's units (or ``units``, e.g. a replay) to schedule."""
        return FuzzBatch(self, tuple(self.units() if units is None else units))

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
    """The report of a :class:`FuzzBatch` (``repro fuzz``).

    ``campaign`` is the :class:`FuzzCampaign` that was run; each record is
    an annotated verdict of one ``(circuit, flow)`` unit, and the summary
    adds unit and flow counts to the verify summary.  ``shrunk``
    holds the bench text of each minimised reproducer, keyed by
    ``"<circuit>|<flow>"``, plus the shrink statistics.
    """

    shrunk: Dict[str, Dict[str, object]] = field(default_factory=dict)

    name = "fuzz"

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


@dataclass(frozen=True)
class FuzzBatch:
    """Units of one fuzz run (:meth:`FuzzCampaign.batch`) for ``Runner.campaign``.

    Generated circuits are rebuilt in workers from their names.
    """

    campaign: FuzzCampaign
    units: Tuple[FuzzUnit, ...]
    verb: ClassVar[str] = "fuzzed"

    def work_units(self) -> List[SpecUnit]:
        return [
            SpecUnit(u.spec, verification_record, f"{u.spec.label()} flow={u.flow_name}")
            for u in self.units
        ]

    def report(self, records: List[Dict[str, object]], **stats) -> FuzzReport:
        annotated = [unit.annotate(r) for unit, r in zip(self.units, records)]
        return FuzzReport(self.campaign, annotated, **stats)

    def shrink_failures(
        self, report: FuzzReport, progress: Callable[[str], None] = lambda line: None
    ) -> None:
        """Minimise every failing unit of ``report`` in-process.

        The explicit post-step after ``Runner.campaign``: each reproducer
        is attached to ``report.shrunk``.
        """
        for record in report.failures:
            # Records keep unit order, so match on circuit + flow variant.
            unit = next(
                u
                for u in self.units
                if u.spec.circuit == record.get("circuit")
                and u.flow_name == record.get("flow_variant")
            )
            progress(f"  shrinking {unit.spec.circuit} flow={unit.flow_name} ...")
            result = shrink_unit(
                unit.gen,
                unit.flow_name,
                patterns=unit.spec.patterns,
                stimulus_seed=unit.spec.seed,
                sequence_length=unit.spec.sequence_length,
            )
            if result is not None:
                key = f"{record.get('circuit')}|{record.get('flow_variant')}"
                report.shrunk[key] = {**result.to_dict(), "bench": write_bench(result.network)}
                progress(f"    {result.summary()}")


def units_for_replay(
    name: str,
    flows: Sequence[str],
    patterns: int = 64,
    stimulus_seed: int = 0,
    sequence_length: int = 8,
) -> List[FuzzUnit]:
    """Units re-verifying one generated circuit (``repro fuzz --replay``)."""
    gen = parse_name(name)
    return [
        FuzzUnit.create(
            gen,
            flow_name,
            patterns=patterns,
            stimulus_seed=stimulus_seed,
            sequence_length=sequence_length,
        )
        for flow_name in flows
    ]
