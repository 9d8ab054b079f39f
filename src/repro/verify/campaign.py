"""Catalog-wide verification campaigns on the eval execution engine.

A :class:`VerificationSpec` is the verification analogue of
:class:`repro.eval.engine.SynthesisJob`: a declarative, picklable unit —
circuit name, scale, the flow's canonical signature, and the stimulus
parameters (pattern budget, seed, trajectory length).  Its
content-addressed :meth:`~VerificationSpec.key` is what the shared
:class:`repro.eval.engine.ResultCache` stores verdict records under, so a
warm cache replays an entire catalog campaign with zero re-synthesis and
zero re-simulation, and the workers of
:meth:`repro.eval.runner.Runner.campaign` never compute the same spec
twice.  :class:`VerificationCampaign` is the spec list in the shape
``Runner.campaign`` takes; :class:`VerificationReport` is its
:class:`~repro.exec.report.CampaignReport`.

:func:`verification_record` is the worker-process entry point: build the
catalogued circuit, run the flow (reusing the in-process stage cache),
verify the mapped netlist against the *source network* — an end-to-end
check of the whole synthesis stack — and flatten the verdict to JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

from ..circuits import build as build_circuit
from ..circuits import info as circuit_info
from ..circuits import names as circuit_names
from ..core import Flow, get_stage_cache
from ..core.report import format_table
from ..exec import SpecUnit, spec_units
from ..exec.report import CampaignReport, error_detail
from ..schema import _package_version, content_key, schema_tag
from .equivalence import VerificationVerdict, verify_result

__all__ = [
    "CampaignReport",
    "VerificationCampaign",
    "VerificationReport",
    "VerificationSpec",
    "catalog_specs",
    "error_detail",
    "render_verification_table",
    "verification_record",
]

#: A flow signature as stored on a spec (same shape as SynthesisJob.stages).
StageSignature = Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...]


@dataclass(frozen=True)
class VerificationSpec:
    """One schedulable, cacheable verification unit.

    Attributes:
        circuit: Name from :mod:`repro.circuits.registry`.
        scale: ``"quick"`` or ``"paper"`` circuit dimensions.
        stages: Canonical flow signature of the synthesis under test.
        patterns: Stimulus pattern budget.
        seed: Stimulus seed.
        sequence_length: Cycles per trajectory (sequential circuits).
    """

    #: Message kind this spec's records are stored under (see ``repro.schema``).
    schema_kind: ClassVar[str] = "verify"

    circuit: str
    scale: str = "quick"
    stages: StageSignature = ()
    patterns: int = 256
    seed: int = 0
    sequence_length: int = 8

    @classmethod
    def create(
        cls,
        circuit: str,
        scale: str = "quick",
        flow: Optional[Flow] = None,
        patterns: int = 256,
        seed: int = 0,
        sequence_length: int = 8,
    ) -> "VerificationSpec":
        """Build a spec for a circuit under an arbitrary flow (default flow when omitted)."""
        flow = flow if flow is not None else Flow.default()
        return cls(
            circuit=circuit,
            scale=scale,
            stages=flow.signature(),
            patterns=int(patterns),
            seed=int(seed),
            sequence_length=int(sequence_length),
        )

    def flow(self) -> Flow:
        """Reconstruct the runnable flow this spec verifies."""
        return Flow.from_signature(self.stages) if self.stages else Flow.default()

    def key(self) -> str:
        """Content-addressed cache key: flow signature + stimulus identity.

        Canonicalised through :func:`repro.schema.content_key` — no
        ``default=str`` escape hatch, so a non-JSON-native value in the
        flow signature raises instead of destabilising the key.
        """
        payload = {
            "schema": schema_tag(self.schema_kind),
            "version": _package_version(),
            "circuit": self.circuit,
            "scale": self.scale,
            "flow": self.stages or Flow.default().signature(),
            "patterns": self.patterns,
            "seed": self.seed,
            "sequence_length": self.sequence_length,
        }
        return content_key(payload)

    def label(self) -> str:
        return f"{self.circuit}@{self.scale} n={self.patterns} seed={self.seed}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit,
            "scale": self.scale,
            "flow": [[name, dict(options)] for name, options in self.stages],
            "patterns": self.patterns,
            "seed": self.seed,
            "sequence_length": self.sequence_length,
        }


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
    """A verify run over explicit specs, in the shape ``Runner.campaign`` takes."""

    specs: Sequence[VerificationSpec]
    verb: ClassVar[str] = "verified"
    noun: ClassVar[str] = "verification"

    def work_units(self) -> List[SpecUnit]:
        return spec_units(self.specs, verification_record, VerificationSpec.label)

    def report(self, records: List[Dict[str, object]], **stats) -> VerificationReport:
        return VerificationReport(self, records, **stats)
