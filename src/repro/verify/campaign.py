"""Verification campaigns on the eval execution engine: verify, fuzz, faults.

A :class:`VerificationSpec` is the verification analogue of
:class:`repro.eval.engine.SynthesisJob`: a declarative, picklable unit —
circuit name, scale, the flow's canonical signature, the stimulus
parameters (pattern budget, seed, trajectory length) and, for a fault
unit, the scenario to inject.  Its content-addressed
:meth:`~VerificationSpec.key` is what the shared
:class:`repro.eval.engine.ResultCache` stores verdict records under, so a
warm cache replays an entire campaign with zero re-synthesis and zero
re-simulation, and the workers of
:meth:`repro.eval.runner.Runner.campaign` never compute the same spec
twice.  :class:`VerificationCampaign` is the spec list in the shape
``Runner.campaign`` takes, for verify, fuzz and faults alike.

:func:`verification_record` is the fault-free worker-process entry point:
build the catalogued circuit, run the flow (reusing the in-process stage
cache), verify the mapped netlist against the *source network* — an
end-to-end check of the whole synthesis stack — and flatten the verdict
to JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..circuits import build as build_circuit
from ..circuits import info as circuit_info
from ..circuits import names as circuit_names
from ..core import Flow, get_stage_cache
from ..core.report import format_table
from ..exec import SpecUnit
from ..exec.report import CampaignReport, error_detail
from ..schema import _package_version, content_key, schema_tag
from .equivalence import VerificationVerdict, verify_result

__all__ = [
    "FlowUnit",
    "VerificationCampaign",
    "VerificationReport",
    "VerificationSpec",
    "catalog_specs",
    "render_verification_table",
    "verification_record",
]

#: A flow signature as stored on a spec (same shape as SynthesisJob.stages).
StageSignature = Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...]


@dataclass(frozen=True)
class VerificationSpec:
    """One schedulable, cacheable verification unit, fault-free or with a fault.

    Attributes:
        circuit: Name from :mod:`repro.circuits.registry` (``gen:`` included).
        scale: ``"quick"`` or ``"paper"`` circuit dimensions.
        stages: Canonical flow signature of the synthesis under test.
        patterns: Stimulus pattern budget.
        seed: Stimulus seed (independent of the fault seed).
        sequence_length: Cycles per trajectory (sequential circuits).
        scenario: Canonical ``fault:<kind>:<k=v,...>:s<seed>`` name of
            the fault to inject (:mod:`repro.faults`); empty for a
            fault-free check.
        margin: With a scenario, sweep its robustness margin instead of
            injecting its fixed magnitude.
    """

    circuit: str
    scale: str = "quick"
    stages: StageSignature = ()
    patterns: int = 256
    seed: int = 0
    sequence_length: int = 8
    scenario: str = ""
    margin: bool = False

    @classmethod
    def create(
        cls,
        circuit: str,
        scale: str = "quick",
        flow: Optional[Flow] = None,
        patterns: int = 256,
        seed: int = 0,
        sequence_length: int = 8,
        scenario: object = "",
        margin: bool = False,
    ) -> "VerificationSpec":
        """Build a spec for a circuit under an arbitrary flow (default flow when omitted).

        ``scenario`` is a :class:`~repro.faults.FaultScenario` or its
        name; a name is validated and canonicalised.
        """
        if scenario:
            from ..faults.scenario import FaultScenario, parse_fault_name

            if not isinstance(scenario, FaultScenario):
                scenario = parse_fault_name(str(scenario))
            scenario = scenario.name()
        flow = flow if flow is not None else Flow.default()
        return cls(
            circuit=circuit,
            scale=scale,
            stages=flow.signature(),
            patterns=int(patterns),
            seed=int(seed),
            sequence_length=int(sequence_length),
            scenario=scenario,
            margin=bool(margin),
        )

    @property
    def schema_kind(self) -> str:
        """Message kind this spec's records are stored under (see ``repro.schema``)."""
        return "fault" if self.scenario else "verify"

    def flow(self) -> Flow:
        """Reconstruct the runnable flow this spec verifies."""
        return Flow.from_signature(self.stages) if self.stages else Flow.default()

    def _fields(self, flow: object) -> Dict[str, object]:
        """The verify record fields, or the fault ones, whose seed is ``stimulus_seed``."""
        if not self.scenario:
            return {"circuit": self.circuit, "scale": self.scale, "flow": flow,
                    "patterns": self.patterns, "seed": self.seed,
                    "sequence_length": self.sequence_length}
        return {"circuit": self.circuit, "scenario": self.scenario, "scale": self.scale,
                "flow": flow, "patterns": self.patterns, "stimulus_seed": self.seed,
                "sequence_length": self.sequence_length, "margin": self.margin}

    def key(self) -> str:
        """Content-addressed cache key: flow signature + stimulus (+ fault) identity.

        Canonicalised through :func:`repro.schema.content_key` — no
        ``default=str`` escape hatch, so a non-JSON-native value in the
        flow signature raises instead of destabilising the key.
        """
        return content_key({
            "schema": schema_tag(self.schema_kind),
            "version": _package_version(),
            **self._fields(self.stages or Flow.default().signature()),
        })

    def label(self) -> str:
        if self.scenario:
            suffix = " margin" if self.margin else ""
            return f"{self.circuit}@{self.scale} {self.scenario}{suffix}"
        return f"{self.circuit}@{self.scale} n={self.patterns} seed={self.seed}"

    def to_dict(self) -> Dict[str, object]:
        return self._fields([[name, dict(options)] for name, options in self.stages])


class FlowUnit(NamedTuple):
    """One ``(flow variant, spec)`` unit of a fuzz or fault campaign."""

    flow_name: str
    spec: VerificationSpec


def catalog_specs(
    circuits: Optional[Sequence[str]] = None,
    scale: str = "quick",
    flow: Optional[Flow] = None,
    patterns: int = 256,
    seed: int = 0,
    sequence_length: int = 8,
) -> List[VerificationSpec]:
    """Specs for a circuit subset (default: the whole registry catalog)."""
    names = list(circuits) if circuits else circuit_names()
    return [
        VerificationSpec.create(
            name,
            scale=scale,
            flow=flow,
            patterns=patterns,
            seed=seed,
            sequence_length=sequence_length,
        )
        for name in names
    ]


def verification_record(spec: VerificationSpec) -> Dict[str, object]:
    """Worker-process entry: synthesise, verify, flatten to a JSON record."""
    info = circuit_info(spec.circuit)
    network = build_circuit(spec.circuit, spec.scale)
    result = spec.flow().run(network, stage_cache=get_stage_cache())
    verdict = verify_result(
        result,
        golden=network,
        patterns=spec.patterns,
        seed=spec.seed,
        sequence_length=spec.sequence_length,
    )
    record = verdict.to_dict()
    spec_fields = spec.to_dict()
    # The verdict's "patterns" is the count actually verified (exhaustive
    # suites finish in fewer than requested); keep it, and store the
    # request under its own key instead of clobbering it.
    record["requested_patterns"] = spec_fields.pop("patterns")
    record.update(spec_fields)
    record["kind"] = info.kind
    record["suite"] = info.suite
    record["cell_counts"] = _cell_counts(result)
    return record


def _cell_counts(result) -> Dict[str, int]:
    """Histogram of mapped cell families, sorted by family name.

    The coverage subsystem (:mod:`repro.cov`) buckets these into
    flow x cell-family features; sorting keeps records canonical.
    """
    counts: Dict[str, int] = {}
    netlist = getattr(result, "netlist", None)
    for cell in getattr(netlist, "cells", ()) or ():
        family = cell.kind.value
        counts[family] = counts.get(family, 0) + 1
    return dict(sorted(counts.items()))


class VerificationReport(CampaignReport):
    """The report of a :class:`VerificationCampaign` (``repro verify``)."""

    name = "verify"
    #: Past-tense verb of the campaign's progress lines and done-line.
    verb: ClassVar[str] = "verified"

    @staticmethod
    def annotate(unit: FlowUnit, record: Dict[str, object]) -> Dict[str, object]:
        """``record`` as the report holds it; a plain verify adds nothing."""
        return record

    def table(self) -> str:
        return render_verification_table(self.records)

    def summary(self) -> Dict[str, object]:
        return {
            "circuits": len(self.records),
            "equivalent": self.count("equivalent"),
            "counterexamples": len(self.failures),
            "skipped": self.count("skipped"),
            "errors": len(self.errors),
            "total_patterns": self.total_patterns(),
            "all_equivalent": self.all_equivalent,
        }

    def identity(self) -> Dict[str, object]:
        specs = self.campaign.specs
        first = specs[0] if specs else VerificationSpec("", patterns=0)
        return {"scale": first.scale, "patterns": first.patterns, "seed": first.seed}


def render_verification_table(records: Sequence[Mapping[str, object]]) -> str:
    """The ``repro verify`` summary table."""

    def detail(record: Mapping[str, object]) -> str:
        if record.get("status") == "error":
            return error_detail(record)
        return VerificationVerdict.from_dict(record).summary()

    rows = [
        [
            record.get("circuit", "?"),
            record.get("kind", "?"),
            record.get("status", "?").upper(),
            int(record.get("patterns") or 0),
            int(record.get("elaborations") or 0),
            detail(record),
        ]
        for record in records
    ]
    return format_table(
        ["Circuit", "Kind", "Status", "Patterns", "Elab", "Detail"],
        rows,
    )


@dataclass(frozen=True)
class VerificationCampaign:
    """One verify, fuzz or faults run, in the shape ``Runner.campaign`` takes.

    Attributes:
        specs: The specs to check, in order.
        flow_names: Each spec's flow-variant name (fuzz and fault units).
        campaign: The campaign the report saves (``None``: this batch).
        compute: Module-level ``spec -> record`` worker entry point
            (``None``: :func:`verification_record`).
        report_class: The report over the records; it names the progress
            verb and annotates each record with its unit.
    """

    specs: Sequence[VerificationSpec]
    flow_names: Sequence[str] = ()
    campaign: Any = None
    compute: Optional[Callable[[VerificationSpec], Dict[str, object]]] = None
    report_class: type = VerificationReport
    noun: ClassVar[str] = "verification"

    @classmethod
    def of(cls, units: Sequence[FlowUnit], campaign: Any, compute: Callable,
           report_class: type) -> "VerificationCampaign":
        """The run of ``campaign``'s ``(flow variant, spec)`` units."""
        specs = tuple(unit.spec for unit in units)
        flow_names = tuple(unit.flow_name for unit in units)
        return cls(specs, flow_names, campaign, compute, report_class)

    @property
    def verb(self) -> str:
        return self.report_class.verb

    def units(self) -> List[FlowUnit]:
        flow_names = self.flow_names or [""] * len(self.specs)
        return [FlowUnit(name, spec) for name, spec in zip(flow_names, self.specs)]

    def work_units(self) -> List[SpecUnit]:
        compute = self.compute or verification_record
        return [
            SpecUnit(spec, compute, f"{spec.label()} flow={name}" if name else spec.label())
            for name, spec in self.units()
        ]

    def report(self, records: List[Dict[str, object]], **stats) -> CampaignReport:
        annotate = self.report_class.annotate
        annotated = [annotate(unit, record) for unit, record in zip(self.units(), records)]
        campaign = self if self.campaign is None else self.campaign
        return self.report_class(campaign, annotated, **stats)
