"""Deterministic structural features of generated circuits and fuzz units.

A *feature* is a short, human-readable bucket id — ``alpha:xor:n3-4:d5-8``,
``latch:n2:self+cross``, ``region:dag:gates=q3``, ``cell:no-retime:DROC`` —
computed from nothing but the circuit structure, the generation spec and
the (deterministic) verification record.  The same unit produces the
same feature list in every process on every platform: bucketing is pure
integer arithmetic, iteration orders are fixed, and digests use SHA-256
rather than Python's per-process string hash.

Feature groups:

``alpha``
    Gate-alphabet histogram x depth: one bucket per gate type present,
    crossed with the gate-count bucket of that type and the circuit's
    logic-depth bucket.
``depth`` / ``latch``
    Circuit depth buckets; latch-count buckets crossed with a latch
    topology class (``indep``/``self``/``cross`` combinations — whether
    next-state cones reach no latch, the latch itself, or other latches).
``region``
    The generation-side parameter region: each family parameter's
    quartile within its registered fuzz range.  These are the buckets
    the steered generator (:mod:`repro.cov.steer`) samples toward.
``corpus``
    Shrink-corpus neighborhood: whether the spec lands near a pinned
    regression-corpus entry (same family, every parameter within a
    quarter fuzz-range of the entry's value).
``cell`` / ``verdict``
    Run-side features: flow variant x mapped cell family (from the
    verification record's ``cell_counts``) and flow variant x verdict
    status.
``fault``
    Robustness-campaign features: flow variant x injected fault kind x
    campaign status (``tolerated``/``miscompare``/...), folded from
    :class:`repro.faults.FaultReport` records so fault campaigns land
    in the same coverage algebra as fuzzing.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from ..gen.families import FAMILIES, family_info
from ..gen.spec import GenSpec, parse_name
from ..netlist.network import COMBINATIONAL_TYPES, GateType, LogicNetwork
from .map import CoverageMap

if TYPE_CHECKING:
    from ..verify.campaign import FlowUnit

__all__ = [
    "FAULT_STATUSES",
    "corpus_features",
    "count_bucket",
    "fault_features",
    "feature_universe",
    "fold_fuzz_units",
    "generation_features",
    "load_corpus_specs",
    "region_features",
    "run_side_features",
    "structural_features",
    "unit_digest",
]

#: Logarithmic bucket labels shared by gate counts and logic depth.
BUCKET_LABELS: Tuple[str, ...] = ("0", "1", "2", "3-4", "5-8", "9-16", "17-32", ">32")


def count_bucket(value: int) -> str:
    """Logarithmic bucket label for a non-negative count."""
    value = int(value)
    if value <= 0:
        return "0"
    if value <= 2:
        return str(value)
    for upper, label in ((4, "3-4"), (8, "5-8"), (16, "9-16"), (32, "17-32")):
        if value <= upper:
            return label
    return ">32"


def unit_digest(circuit: str, flow_name: str = "") -> str:
    """Stable short digest identifying one ``(circuit, flow)`` unit."""
    token = f"{circuit}|{flow_name}"
    return hashlib.sha256(token.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Structural features (network-side)
# ---------------------------------------------------------------------------


def _latches_feeding(network: LogicNetwork, signal: str) -> set:
    """Latch outputs in the combinational cone feeding ``signal``."""
    seen: set = set()
    found: set = set()
    stack = [signal]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        gate = network.gates.get(name)
        if gate is None:
            continue
        if gate.is_latch():
            found.add(name)
            continue
        stack.extend(gate.fanins)
    return found


def _latch_topology_class(network: LogicNetwork) -> str:
    """Classify latch-to-latch connectivity: ``indep``/``self``/``cross``.

    Per latch: the next-state cone reaches no latch (``indep``), the
    latch itself (``self``) and/or other latches (``cross``); the class
    is the sorted ``+``-joined set of flags present anywhere in the
    network.
    """
    flags: set = set()
    for latch in network.latches:
        sources = _latches_feeding(network, latch.fanins[0])
        if not sources:
            flags.add("indep")
        if latch.name in sources:
            flags.add("self")
        if sources - {latch.name}:
            flags.add("cross")
    return "+".join(sorted(flags)) if flags else "none"


def structural_features(network: LogicNetwork) -> List[str]:
    """Alphabet-histogram x depth and latch features of one netlist."""
    depth_label = count_bucket(network.depth())
    features = [f"depth:d{depth_label}"]
    histogram: Dict[str, int] = {}
    for gate in network.gates.values():
        if gate.is_combinational():
            histogram[gate.gate_type.value] = histogram.get(gate.gate_type.value, 0) + 1
    for gate_type in sorted(histogram):
        features.append(
            f"alpha:{gate_type}:n{count_bucket(histogram[gate_type])}:d{depth_label}"
        )
    num_latches = len(network.latches)
    if num_latches:
        features.append(
            f"latch:n{count_bucket(num_latches)}:{_latch_topology_class(network)}"
        )
    else:
        features.append("latch:n0:none")
    return features


# ---------------------------------------------------------------------------
# Region features (spec-side)
# ---------------------------------------------------------------------------

#: Quartile sub-buckets per integer fuzz-range parameter.
REGION_BUCKETS = 4


def region_quartile(lo: int, hi: int, value: int) -> int:
    """Quartile index (0..3) of ``value`` within the inclusive range."""
    span = max(1, hi - lo + 1)
    return min(REGION_BUCKETS - 1, max(0, (int(value) - lo) * REGION_BUCKETS // span))


def region_features(spec: GenSpec) -> List[str]:
    """One feature per family parameter: its quartile (or boolean value)."""
    info = spec.info()
    defaults = dict(info.defaults)
    params = dict(spec.params)
    features: List[str] = []
    for key, (lo, hi) in info.fuzz_ranges:
        value = params.get(key, defaults.get(key, lo))
        if isinstance(defaults.get(key), bool):
            features.append(f"region:{spec.family}:{key}={int(bool(value))}")
        else:
            features.append(
                f"region:{spec.family}:{key}=q{region_quartile(lo, hi, int(value))}"
            )
    return features


# ---------------------------------------------------------------------------
# Shrink-corpus neighborhood
# ---------------------------------------------------------------------------

#: Neighborhood half-width as a fraction of the parameter's fuzz range.
CORPUS_NEIGHBORHOOD = 0.25

_CORPUS_CACHE: Dict[str, List[Tuple[str, GenSpec]]] = {}


def default_corpus_dir() -> Optional[Path]:
    """The pinned regression corpus (``tests/gen/corpus``), when present."""
    candidate = Path(__file__).resolve().parents[3] / "tests" / "gen" / "corpus"
    return candidate if candidate.is_dir() else None


def load_corpus_specs(
    directory: Optional[Path] = None,
) -> List[Tuple[str, GenSpec]]:
    """``(entry name, spec)`` pairs of the pinned shrink corpus, sorted.

    Entries that no longer parse (removed family, renamed parameter) or
    fail ``repro-corpus/1`` schema validation are skipped rather than
    fatal: coverage must keep working while the corpus evolves.  Results
    are cached per directory.
    """
    from ..schema import load_document

    directory = directory if directory is not None else default_corpus_dir()
    if directory is None:
        return []
    key = str(Path(directory).resolve())
    cached = _CORPUS_CACHE.get(key)
    if cached is not None:
        return cached
    entries: List[Tuple[str, GenSpec]] = []
    for path in sorted(Path(directory).glob("*.json")):
        try:
            data = load_document(
                json.loads(path.read_text(encoding="utf-8")),
                "corpus",
                source=str(path),
            )
            spec = GenSpec.create(
                str(data["family"]),
                seed=int(data.get("seed", 0)),
                **dict(data.get("params") or {}),
            )
        except (OSError, ValueError, KeyError, TypeError):
            continue
        entries.append((path.stem, spec))
    _CORPUS_CACHE[key] = entries
    return entries


def _near(spec: GenSpec, entry: GenSpec) -> bool:
    if spec.family != entry.family:
        return False
    ranges = dict(spec.info().fuzz_ranges)
    defaults = dict(spec.info().defaults)
    entry_params = dict(entry.params)
    for key, value in spec.params:
        other = entry_params.get(key, value)
        if isinstance(defaults.get(key), bool):
            if bool(value) != bool(other):
                return False
            continue
        lo, hi = ranges.get(key, (int(other), int(other)))
        radius = max(1, int(round((hi - lo) * CORPUS_NEIGHBORHOOD)))
        if abs(int(value) - int(other)) > radius:
            return False
    return True


def corpus_features(
    spec: GenSpec, corpus: Optional[Sequence[Tuple[str, GenSpec]]] = None
) -> List[str]:
    """``corpus:near:<entry>`` for each pinned entry the spec lands near."""
    corpus = corpus if corpus is not None else load_corpus_specs()
    return [f"corpus:near:{name}" for name, entry in corpus if _near(spec, entry)]


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def generation_features(
    spec: GenSpec,
    network: Optional[LogicNetwork] = None,
    corpus: Optional[Sequence[Tuple[str, GenSpec]]] = None,
) -> List[str]:
    """Every feature computable *before* running a flow on the circuit.

    This is the feature set the steered generator feeds on: structural
    (alphabet x depth, latches), parameter region, and shrink-corpus
    neighborhood.  ``network`` avoids a rebuild when the caller already
    has the instantiated circuit.
    """
    network = network if network is not None else spec.build()
    return (
        structural_features(network)
        + region_features(spec)
        + corpus_features(spec, corpus)
    )


def run_side_features(flow_name: str, record: Mapping[str, object]) -> List[str]:
    """Features only a completed flow run can produce.

    Flow-variant x mapped-cell-family hits (presence and count-bucketed,
    from the verification record's ``cell_counts``) plus the flow x
    verdict-status bucket.
    """
    features: List[str] = []
    cell_counts = record.get("cell_counts") or {}
    for kind in sorted(cell_counts):
        count = int(cell_counts[kind])
        if count <= 0:
            continue
        features.append(f"cell:{flow_name}:{kind}")
        features.append(f"cell:{flow_name}:{kind}:n{count_bucket(count)}")
    status = str(record.get("status") or "unknown")
    features.append(f"verdict:{flow_name}:{status}")
    return features


#: Statuses a fault-campaign record can carry (the ``fault`` group axis).
FAULT_STATUSES: Tuple[str, ...] = (
    "tolerated",
    "miscompare",
    "nominal-miscompare",
    "skipped",
)


def fault_features(flow_name: str, record: Mapping[str, object]) -> List[str]:
    """The fault-campaign bucket of one record: flow x kind x status."""
    kind = str(record.get("fault_kind") or "unknown")
    status = str(record.get("status") or "unknown")
    return [f"fault:{flow_name}:{kind}:{status}"]


def fold_fuzz_units(
    coverage: CoverageMap,
    units: Sequence["FlowUnit"],
    records: Sequence[Mapping[str, object]],
    memo: Optional[Dict[str, List[str]]] = None,
) -> int:
    """Add every completed ``(circuit, flow)`` fuzz unit to ``coverage``.

    Each unit hits its circuit's generation features plus its flow's
    run-side features, under :func:`unit_digest`.  ``memo`` caches the
    generation features per circuit name (across calls, for batched
    folds).  Returns the number of features new to ``coverage``.
    """
    memo = {} if memo is None else memo
    fresh = 0
    for unit, record in zip(units, records):
        name = unit.spec.circuit
        if name not in memo:
            memo[name] = generation_features(parse_name(name))
        features = memo[name] + run_side_features(unit.flow_name, record)
        fresh += len(coverage.add(features, unit_digest(name, unit.flow_name)))
    return fresh


# ---------------------------------------------------------------------------
# The known universe (hit/miss denominators)
# ---------------------------------------------------------------------------


def _latch_classes() -> List[str]:
    flags = ("cross", "indep", "self")
    classes = ["none"]
    for size in range(1, len(flags) + 1):
        classes.extend("+".join(combo) for combo in combinations(flags, size))
    return classes


def feature_universe(
    flows: Sequence[str],
    families: Optional[Sequence[str]] = None,
    corpus: Optional[Sequence[Tuple[str, GenSpec]]] = None,
) -> Dict[str, List[str]]:
    """Enumerable feature buckets per group, for hit/miss reporting.

    The universe is intentionally the *reachable-in-principle* set (every
    gate type x every bucket, every flow x every cell kind, ...); a
    campaign is not expected to exhaust it — the point is a stable
    denominator so coverage percentages compare across campaigns.
    """
    from ..core.cells import CellKind

    selected = sorted(families) if families else sorted(FAMILIES)
    nonzero = [label for label in BUCKET_LABELS if label != "0"]
    universe: Dict[str, List[str]] = {}
    universe["depth"] = [f"depth:d{label}" for label in BUCKET_LABELS]
    universe["alpha"] = [
        f"alpha:{gate_type.value}:n{n}:d{d}"
        for gate_type in sorted(COMBINATIONAL_TYPES, key=lambda t: t.value)
        for n in nonzero
        for d in nonzero
    ]
    universe["latch"] = [
        f"latch:n{label}:{cls}" for label in BUCKET_LABELS for cls in _latch_classes()
    ]
    region: List[str] = []
    for family in selected:
        info = family_info(family)
        defaults = dict(info.defaults)
        for key, (lo, hi) in info.fuzz_ranges:
            if isinstance(defaults.get(key), bool):
                region.extend(f"region:{family}:{key}={v}" for v in (0, 1))
            else:
                region.extend(
                    f"region:{family}:{key}=q{q}" for q in range(REGION_BUCKETS)
                )
    universe["region"] = region
    corpus = corpus if corpus is not None else load_corpus_specs()
    universe["corpus"] = [f"corpus:near:{name}" for name, _ in corpus]
    universe["cell"] = [
        f"cell:{flow}:{kind.value}" for flow in flows for kind in CellKind
    ]
    universe["verdict"] = [
        f"verdict:{flow}:{status}"
        for flow in flows
        for status in ("equivalent", "counterexample", "skipped")
    ]
    # Lazy import: repro.faults imports repro.verify, which must stay
    # importable before repro.cov during package init.
    from ..faults.scenario import fault_kind_names

    universe["fault"] = [
        f"fault:{flow}:{kind}:{status}"
        for flow in flows
        for kind in fault_kind_names()
        for status in FAULT_STATUSES
    ]
    return universe


#: GateType is re-exported for callers building synthetic feature ids.
GATE_TYPES: Tuple[GateType, ...] = tuple(
    sorted(COMBINATIONAL_TYPES, key=lambda t: t.value)
)
