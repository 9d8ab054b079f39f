"""Fault-injection campaigns on the eval execution engine.

A fault unit is a :class:`repro.verify.campaign.VerificationSpec` with a
``scenario`` — the canonical fault-scenario name — and, optionally,
``margin`` set.  Its content-addressed key lets verdict records ride the
shared :class:`repro.eval.engine.ResultCache` and the worker processes
of :meth:`repro.eval.runner.Runner.campaign` unchanged
(:meth:`FaultCampaign.batch` gives the
:class:`~repro.verify.campaign.VerificationCampaign` it runs).

:func:`fault_record` is the worker-process entry point.  Per unit it:

1. synthesises the circuit under the spec's flow (stage cache reused);
2. verifies the mapped netlist *nominally* — with a zero-magnitude
   fault model installed, so the injection code path itself is under
   test — against the source network, on a
   :class:`~repro.verify.equivalence.NetlistVerifier` that every later
   probe of the unit reuses (one elaboration per unit); a circuit that
   is not EQUIVALENT nominally is reported as ``nominal-miscompare`` (a
   real synthesis bug) or ``skipped`` and never blamed on the injected
   fault;
3. either injects the scenario at its fixed magnitude (status
   ``tolerated`` / ``miscompare``, with injection counts, the
   counterexample and the first divergence net), or binary-searches the
   robustness margin (:mod:`repro.faults.margin`) — the largest
   magnitude before the first miscompare — capped at 1.0 for rate
   faults and half the synchronous phase period for timing faults.

Records carry **no wall-clock fields**: two runs of the same campaign
(same seeds, same circuits) emit byte-identical ``repro-faults/1``
reports, which is an acceptance criterion pinned by ``tests/faults``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

from ..circuits import build as build_circuit
from ..circuits import info as circuit_info
from ..circuits import names as circuit_names
from ..core import Flow, get_stage_cache
from ..core.report import format_table
from ..core.flowgraph import flow_variant
from ..schema import load_document, pack, schema_tag
from ..sim.pulse import suggest_phase_period
from ..exec.report import CampaignReport, error_detail
from ..verify.campaign import FlowUnit, VerificationCampaign, VerificationSpec, _cell_counts
from ..verify.equivalence import NetlistVerifier
from .margin import MarginResult, search_margin
from .scenario import FaultScenario, default_scenario, fault_kind, parse_fault_name

__all__ = [
    "DEFAULT_FAULT_FLOWS",
    "DEFAULT_FAULT_KINDS",
    "FAULTS_SCHEMA",
    "FaultCampaign",
    "FaultReport",
    "fault_record",
    "load_fault_report",
]

#: Schema tag of the ``repro faults --report`` JSON document (the
#: ``faults`` kind of the ``repro.schema`` registry).
FAULTS_SCHEMA = schema_tag("faults")

#: Kinds a campaign injects when the caller does not choose: the two
#: timing aspects, whose margins are the headline robustness numbers.
DEFAULT_FAULT_KINDS: Tuple[str, ...] = ("jitter", "skew")

#: Flow variants a campaign crosses circuits with by default.
DEFAULT_FAULT_FLOWS: Tuple[str, ...] = ("default",)


def fault_record(spec: VerificationSpec) -> Dict[str, object]:
    """Worker-process entry: synthesise, inject, flatten to a JSON record."""
    info = circuit_info(spec.circuit)
    network = build_circuit(spec.circuit, spec.scale)
    result = spec.flow().run(network, stage_cache=get_stage_cache())
    scenario = parse_fault_name(spec.scenario)
    record: Dict[str, object] = {
        "circuit": spec.circuit,
        "scale": spec.scale,
        "kind": info.kind,
        "suite": info.suite,
        "scenario": spec.scenario,
        "fault_kind": scenario.kind,
        "fault_seed": scenario.seed,
        "magnitude": scenario.magnitude,
        "requested_patterns": spec.patterns,
        "stimulus_seed": spec.seed,
        "sequence_length": spec.sequence_length,
        "flow": [[name, dict(options)] for name, options in spec.stages],
        "margin_search": spec.margin,
        "cell_counts": _cell_counts(result),
        "margin": None,
        "counterexample": None,
        "first_divergence_net": None,
        "reason": "",
    }

    # One elaboration and one stimulus suite serve the nominal gate and
    # every probe; each check installs its own model.
    verifier = NetlistVerifier(
        result,
        golden=network,
        patterns=spec.patterns,
        seed=spec.seed,
        sequence_length=spec.sequence_length,
    )

    def check(magnitude: float, localise: bool = True):
        model = scenario.with_magnitude(magnitude).model()
        return verifier.verify(model, localise=localise), model

    # Nominal gate: margins and miscompares only mean something on a
    # mapping that is equivalent fault-free.  The zero-magnitude model
    # keeps the injection hooks on this path too (no-op guarantee).
    nominal, _ = check(0.0)
    record["mode"] = nominal.mode
    record["patterns"] = nominal.patterns
    if nominal.status != "equivalent":
        _record_failure(record, nominal, "nominal-miscompare")
        record["injections"] = {"drop": 0, "dup": 0, "jitter": 0}
        return record

    if spec.margin:
        injections = {"drop": 0, "dup": 0, "jitter": 0}
        cap = (
            1.0
            if scenario.info().rate_like
            else suggest_phase_period(result.netlist) / 2.0
        )

        def tolerated(magnitude: float) -> bool:
            # A probe's miscompare is only a "no": skip localising it.
            verdict, model = check(magnitude, localise=False)
            for aspect, count in model.totals.items():
                injections[aspect] += count
            return verdict.status == "equivalent"

        found: MarginResult = search_margin(tolerated, cap, kind=scenario.kind)
        record.update(found.to_dict())
        record["status"] = "tolerated"
        record["injections"] = injections
        return record

    verdict, model = check(scenario.magnitude)
    record["patterns"] = verdict.patterns
    record["injections"] = model.injection_counts()
    if verdict.status == "equivalent":
        record["status"] = "tolerated"
    else:
        _record_failure(record, verdict, "miscompare")
    return record


def _record_failure(record: Dict[str, object], verdict, miscompare: str) -> None:
    """Stamp a verdict that is not EQUIVALENT: ``miscompare`` with its
    counterexample, or ``skipped`` with the reason."""
    if verdict.status == "counterexample":
        record["status"] = miscompare
        cex = verdict.counterexample
        record["counterexample"] = cex.to_dict() if cex else None
        record["first_divergence_net"] = verdict.first_divergence_net
    else:
        record["status"] = "skipped"
        record["reason"] = verdict.reason


@dataclass(frozen=True)
class FaultCampaign:
    """Declarative identity of one fault-injection run.

    Attributes:
        circuits: Circuit subset (empty = the whole registry catalog).
        kinds: Fault kinds to inject per circuit.
        flows: Flow-variant names to cross every circuit with.
        seed: Fault-injection seed shared by every scenario.
        scale: Circuit scale.
        patterns: Stimulus budget per verification.
        stimulus_seed: Stimulus-suite seed.
        sequence_length: Cycles per trajectory for sequential circuits.
        margin: Sweep robustness margins instead of fixed magnitudes.
        magnitudes: Per-kind ``(kind, value)`` overrides of the default
            injected rate/magnitude.
    """

    circuits: Tuple[str, ...] = ()
    kinds: Tuple[str, ...] = DEFAULT_FAULT_KINDS
    flows: Tuple[str, ...] = DEFAULT_FAULT_FLOWS
    seed: int = 0
    scale: str = "quick"
    patterns: int = 64
    stimulus_seed: int = 0
    sequence_length: int = 8
    margin: bool = False
    magnitudes: Tuple[Tuple[str, float], ...] = ()

    def scenarios(self) -> List[FaultScenario]:
        """One scenario per selected kind, at default or overridden magnitude."""
        overrides = dict(self.magnitudes)
        for kind in overrides:
            fault_kind(kind)  # raise early on unknown override keys
        return [
            default_scenario(kind, seed=self.seed, magnitude=overrides.get(kind))
            for kind in self.kinds
        ]

    def units(self) -> List[FlowUnit]:
        """Every ``(circuit, scenario, flow)`` triple, circuit-major order."""
        names = list(self.circuits) if self.circuits else circuit_names()
        return [
            FlowUnit(flow_name, VerificationSpec.create(
                circuit,
                scale=self.scale,
                flow=flow_variant(flow_name),
                patterns=self.patterns,
                seed=self.stimulus_seed,
                sequence_length=self.sequence_length,
                scenario=scenario,
                margin=self.margin,
            ))
            for circuit in names
            for scenario in self.scenarios()
            for flow_name in self.flows
        ]

    def batch(self, units: Optional[Sequence[FlowUnit]] = None) -> VerificationCampaign:
        """This campaign's units (or ``units``) to schedule."""
        units = self.units() if units is None else units
        return VerificationCampaign.of(units, self, fault_record, FaultReport)

    def to_dict(self) -> Dict[str, object]:
        return {
            "circuits": list(self.circuits),
            "kinds": list(self.kinds),
            "flows": list(self.flows),
            "seed": self.seed,
            "scale": self.scale,
            "patterns": self.patterns,
            "stimulus_seed": self.stimulus_seed,
            "sequence_length": self.sequence_length,
            "margin": self.margin,
            "magnitudes": [list(pair) for pair in self.magnitudes],
        }


class FaultReport(CampaignReport):
    """The report of a :class:`FaultCampaign` run (``repro faults``).

    ``campaign`` is the :class:`FaultCampaign` that was run; each record
    is annotated with its flow variant.  ``elapsed_s`` is deliberately
    **not** part of :meth:`to_dict`: the emitted report must be
    byte-identical across reruns of the same campaign.
    """

    name = "faults"
    verb: ClassVar[str] = "probed"
    timing_words = ("records", "probed")

    #: Records whose *nominal* verification failed — real flow bugs.  A
    #: ``miscompare`` under an injected fault is campaign data, not a
    #: failure: the whole point is measuring where circuits break.
    failure_status: ClassVar[str] = "nominal-miscompare"

    @staticmethod
    def annotate(unit: FlowUnit, record: Mapping[str, object]) -> Dict[str, object]:
        """The fault record plus its unit's flow-variant name."""
        return {**record, "flow_variant": unit.flow_name}

    @property
    def miscompares(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("status") == "miscompare"]

    def margins(self) -> List[Dict[str, object]]:
        healthy = (r for r in self.records if r.get("status") != "error")
        return [r for r in healthy if r.get("margin") is not None]

    def table(self) -> str:
        """The ``repro faults`` summary/margin table."""
        rows = [
            [
                record.get("circuit", "?"),
                record.get("kind", "?"),
                record.get("flow_variant", "default"),
                record.get("fault_kind", "?"),
                str(record.get("status", "?")).upper(),
                int(record.get("patterns") or 0),
                _margin_cell(record),
                _detail_cell(record),
            ]
            for record in self.records
        ]
        return format_table(
            ["Circuit", "Kind", "Flow", "Fault", "Status", "Patterns", "Margin", "Detail"],
            rows,
        )

    def done_extras(self) -> List[str]:
        return [
            f"{len(self.miscompares)} miscompares",
            f"{len(self.failures)} nominal failures",
        ]

    def summary(self) -> Dict[str, object]:
        margins = self.margins()
        return {
            "units": len(self.records),
            "circuits": len({r.get("circuit") for r in self.records}),
            "tolerated": self.count("tolerated"),
            "miscompares": len(self.miscompares),
            "nominal_miscompares": len(self.failures),
            "skipped": self.count("skipped"),
            "errors": len(self.errors),
            "margins_found": len(margins),
            "margins_saturated": sum(1 for r in margins if r.get("margin_saturated")),
            "margins_positive": sum(
                1 for r in margins if float(r.get("margin") or 0.0) > 0.0
            ),
            "total_injections": sum(
                int(count)
                for r in self.records
                for count in (r.get("injections") or {}).values()
            ),
            "all_nominal_equivalent": self.all_equivalent,
        }

    def coverage(self):
        """Fold the campaign into a :class:`repro.cov.CoverageMap`.

        Hits the ``fault`` feature group (flow x fault-kind x verdict)
        so robustness campaigns land in the same coverage algebra as
        fuzzing; see :func:`repro.cov.features.fault_features`.
        """
        from ..cov import CoverageMap
        from ..cov.features import fault_features, unit_digest

        coverage = CoverageMap()
        for record in self.records:
            flow = str(record.get("flow_variant") or "default")
            token = f"{record.get('circuit')}|{record.get('scenario')}"
            coverage.add(fault_features(flow, record), unit_digest(token, flow))
        return coverage

    def to_dict(self) -> Dict[str, object]:
        """The schema-versioned ``repro-faults/1`` report document.

        Every field is a pure function of the campaign identity — no
        wall-clock, no worker counts, no cache statistics — so two runs
        of the same campaign serialise byte-identically.  The envelope
        tag is stamped (and the payload validated) by
        :func:`repro.schema.pack`.
        """
        return pack(
            "faults",
            {
                **self.identity(),
                "rows": self.records,
                "text": self.table(),
                "summary": self.summary(),
            },
        )


def load_fault_report(path: Path) -> Dict[str, object]:
    """Load (and schema-check) a saved ``repro faults --report`` document.

    Returns the validated payload — ``campaign``, ``rows``, ``text``,
    ``summary`` — with the envelope tag stripped.  Raises
    :class:`repro.schema.SchemaError` (a ``ValueError``) on a foreign or
    unmigratable document.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return load_document(document, "faults", source=str(path))


def _margin_cell(record: Mapping[str, object]) -> str:
    margin = record.get("margin")
    if margin is None or record.get("status") == "error":
        return "-"
    unit = "" if str(record.get("fault_kind")) in ("drop", "dup") else " ps"
    suffix = "+" if record.get("margin_saturated") else ""
    return f"{float(margin):.3f}{unit}{suffix}"


def _detail_cell(record: Mapping[str, object]) -> str:
    status = str(record.get("status") or "")
    if status in ("miscompare", "nominal-miscompare"):
        cex = record.get("counterexample") or {}
        net = record.get("first_divergence_net")
        where = f"pattern {cex.get('pattern')}" if cex else "unknown pattern"
        out = (
            f"{cex.get('output')}: expected {cex.get('expected')}, "
            f"got {cex.get('observed')}"
            if cex
            else ""
        )
        suffix = f"; first divergence at net {net!r}" if net else ""
        return f"{where}, {out}{suffix}"
    if status == "skipped":
        return str(record.get("reason") or "skipped")
    if status == "error":
        return error_detail(record)
    injections = record.get("injections") or {}
    total = sum(int(v) for v in injections.values())
    if record.get("margin") is not None:
        probes = len(record.get("margin_probes") or ())
        cap = float(record.get("margin_cap") or 0.0)
        return f"{probes} probes, cap {cap:.1f}, {total} injections"
    return f"{total} injections ({record.get('mode')})"
