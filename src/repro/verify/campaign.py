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
``Runner.campaign`` takes; :class:`CampaignReport` is the report shape
(and the verdict rules) the verify, fuzz and faults reports share.

:func:`verification_record` is the worker-process entry point: build the
catalogued circuit, run the flow (reusing the in-process stage cache),
verify the mapped netlist against the *source network* — an end-to-end
check of the whole synthesis stack — and flatten the verdict to JSON.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

from ..circuits import build as build_circuit
from ..circuits import info as circuit_info
from ..circuits import names as circuit_names
from ..core import Flow, get_stage_cache
from ..core.report import format_table
from ..exec import SpecUnit, spec_units
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

#: Current version of the ``repro-verify/<N>`` message type.
#: 2: records gained ``cell_counts`` (mapped cell-family histogram).
#: 3: records are stamped with the ``repro.schema`` envelope on disk
#: (untagged v2 documents still load, via migration).
VERIFY_SCHEMA = 3

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
    synth_started = time.perf_counter()
    result = spec.flow().run(network, stage_cache=get_stage_cache())
    synth_seconds = time.perf_counter() - synth_started
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
    record["synth_seconds"] = synth_seconds
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


def error_detail(record: Mapping[str, object]) -> str:
    """``type: message`` of a ``status: "error"`` record (table detail cell)."""
    error = record.get("error") or {}
    return f"{error.get('type', 'Error')}: {error.get('message', '')}"


@dataclass
class CampaignReport:
    """Everything one verify, fuzz or faults campaign produced.

    The base of :class:`VerificationReport`,
    :class:`~repro.gen.FuzzReport` and :class:`~repro.faults.FaultReport`,
    which add their ``table()``/``summary()``.  A ``status: "error"``
    record — a unit that raised, crashed or timed out — is never a pass:
    it counts under ``errors``, fails the campaign, and stays out of the
    pattern totals.

    Attributes:
        campaign: The campaign that was run (its identity).
        records: One record per work unit, in unit order.
        jobs: Worker-process count.
        computed: Units computed this run (cache misses).
        cached: Units replayed from the result cache.
        elapsed_s: Wall clock for the whole campaign.
    """

    campaign: Any
    records: List[Dict[str, object]] = field(default_factory=list)
    jobs: int = 1
    computed: int = 0
    cached: int = 0
    elapsed_s: float = 0.0

    #: ``experiment`` of the saved document and ``[name]`` of the done-line.
    name: ClassVar[str]
    #: Record status that fails the campaign (besides errors).
    failure_status: ClassVar[str] = "counterexample"
    #: ``(record noun, verb)`` of the CLI timing line.
    timing_words: ClassVar[Tuple[str, str]] = ("verdicts", "verified")

    def count(self, status: str) -> int:
        return sum(1 for r in self.records if r.get("status") == status)

    @property
    def errors(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("status") == "error"]

    @property
    def failures(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("status") == self.failure_status]

    @property
    def all_equivalent(self) -> bool:
        return not self.failures and not self.errors

    @property
    def errored_units(self) -> List[Dict[str, object]]:
        """``errors`` with each unit once: a spec listed twice runs (and
        fails) once, as ``computed`` counts it."""
        unique: List[Dict[str, object]] = []
        for record in self.errors:
            if record not in unique:
                unique.append(record)
        return unique

    @property
    def completed(self) -> int:
        """Units computed this run that did not error."""
        return self.computed - len(self.errored_units)

    def total_patterns(self) -> int:
        healthy = (r for r in self.records if r.get("status") != "error")
        return sum(int(r.get("patterns") or 0) for r in healthy)

    def done_extras(self) -> List[str]:
        """Report-specific counts appended to the done-line."""
        return []

    def done_line(self, verb: str) -> str:
        """The ``[name] done in ...`` progress line; errors are not ``verb``-ed."""
        errors = len(self.errored_units)
        parts = [f"{self.cached} cached", f"{self.completed} {verb}"]
        if errors:
            parts.append(f"{errors} errors")
        parts += self.done_extras()
        return f"[{self.name}] done in {self.elapsed_s:.2f}s ({', '.join(parts)})"

    def identity(self) -> Dict[str, object]:
        """The fields that say which campaign a saved document is."""
        return {"campaign": self.campaign.to_dict()}

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.name,
            **self.identity(),
            "jobs": self.jobs,
            "computed": self.computed,
            "cached": self.cached,
            "elapsed_s": self.elapsed_s,
            "rows": self.records,
            # Rendered table, so `repro report` re-renders saved campaigns.
            "text": self.table(),
            "summary": self.summary(),
        }


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
            f"{float(record.get('seconds') or 0.0):.2f}",
            detail(record),
        ]
        for record in records
    ]
    return format_table(
        ["Circuit", "Kind", "Status", "Patterns", "Elab", "Sim (s)", "Detail"],
        rows,
    )


@dataclass(frozen=True)
class VerificationCampaign:
    """A verify run over explicit specs, in the shape ``Runner.campaign`` takes."""

    specs: Sequence[VerificationSpec]
    verb: ClassVar[str] = "verified"

    def work_units(self) -> List[SpecUnit]:
        return spec_units(self.specs, verification_record, VerificationSpec.label)

    def report(self, records: List[Dict[str, object]], **stats) -> VerificationReport:
        return VerificationReport(self, records, **stats)
