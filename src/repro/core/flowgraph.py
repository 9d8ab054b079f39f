"""Composable pass-manager for the xSFQ synthesis flow.

This module decomposes the end-to-end flow (historically the monolithic
``synthesize_xsfq`` funnel) into first-class, composable **stages** — the
same way :mod:`repro.aig.scripts` treats AIG passes as named ``PassFn``s.
The building blocks:

* :class:`FlowState` — the value threaded through the pipeline.  It
  carries every intermediate artifact (``LogicNetwork``, ``Aig``,
  ``RailAnalysis``, ``XsfqNetlist``, per-stage metrics), so callers and
  tests can inspect, snapshot and resume a synthesis mid-flow.
* :class:`Stage` — a named, pure ``(FlowState, options) -> FlowState``
  callable plus its default options, registered in the global
  :data:`STAGES` registry via :func:`register_stage`.  Every named AIG
  pass from :data:`repro.aig.scripts.PASSES` is bridged into the same
  registry, so ``Flow.from_script(["frontend", "balance", "rewrite",
  ...])`` mixes flow stages and raw AIG passes freely.
* :class:`Flow` — an ordered list of ``(stage name, option overrides)``
  pairs with constructors replacing the old boolean soup:
  :meth:`Flow.default`, :meth:`Flow.direct_mapping`,
  :meth:`Flow.from_options` and :meth:`Flow.from_script`.  A flow's
  :meth:`~Flow.signature` — the ordered stage names with their fully
  merged options — is the canonical cache identity used by
  :mod:`repro.eval.engine`.
* **Stage rows** — every run appends one ``{"stage", "seconds",
  "cached"}`` row per stage to :attr:`FlowState.stage_rows`; the eval
  engine stores them in each record for ``repro run --stage-timing``.
* :class:`StageCache` — stage-level memoisation.  States at cacheable
  stage boundaries (``frontend``, ``aig-opt``) are keyed on the input
  fingerprint plus the signature *prefix*, so a cached post-``aig-opt``
  AIG is reused across polarity/mapping variants — the bulk of the
  ablation and table-sweep wall clock.

The default stage order is ``frontend -> aig-opt -> pipeline ->
polarity -> map -> sequential -> report``.  ``pipeline`` runs before
``polarity`` because architectural pipelining re-runs the polarity
assignment per pipeline region; when it maps the design, the later
``polarity``/``map``/``sequential`` stages see a finished netlist and
pass the state through untouched.  Stages that do not apply (``map`` on
a sequential AIG, ``sequential`` on a combinational one) are no-ops, so
one default flow serves every design kind.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..aig import Aig, network_to_aig, optimize
from ..aig.scripts import PASSES
from ..netlist.network import LogicNetwork
from .dual_rail import map_combinational
from .flow import FlowOptions, XsfqSynthesisResult
from .pipeline import PipelineResult, pipeline_combinational
from .polarity import (
    RailAnalysis,
    analyze_rails,
    assign_output_polarities,
    direct_mapping_analysis,
)
from .sequential import SequentialMappingInfo, map_sequential

__all__ = [
    "DEFAULT_STAGE_ORDER",
    "FLOW_VARIANTS",
    "Flow",
    "FlowError",
    "FlowState",
    "Stage",
    "STAGES",
    "flow_variant",
    "flow_variant_names",
    "register_flow_variant",
    "register_stage",
    "resolve_stage",
    "render_stage_table",
    "StageCache",
    "design_fingerprint",
    "get_stage_cache",
    "set_stage_cache",
]


class FlowError(Exception):
    """A flow was mis-composed or executed on an incompatible design."""


# ---------------------------------------------------------------------------
# FlowState: the value threaded through the stages
# ---------------------------------------------------------------------------


@dataclass
class FlowState:
    """Everything a synthesis-in-progress has produced so far.

    Stages treat the state as immutable: they :meth:`copy` it, update the
    copy and return it.  That makes stage functions pure, lets the stage
    cache hand out snapshots safely, and lets callers keep a reference to
    any intermediate state (e.g. the post-``aig-opt`` AIG) for inspection
    or for resuming with :meth:`Flow.resume`.
    """

    name: str = ""
    network: Optional[LogicNetwork] = None
    aig: Optional[Aig] = None
    analysis: Optional[RailAnalysis] = None
    netlist: Optional["XsfqNetlist"] = None  # noqa: F821 - forward ref for docs
    sequential_info: Optional[SequentialMappingInfo] = None
    pipeline_result: Optional[PipelineResult] = None
    source_stats: Dict[str, int] = field(default_factory=dict)
    #: Free-form per-stage metrics (node counts, cell counts, ...).
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Extension point for user stages and non-xSFQ flows (e.g. the
    #: clocked-RSFQ baselines store their mapping result here).
    artifacts: Dict[str, object] = field(default_factory=dict)
    result: Optional[XsfqSynthesisResult] = None
    #: How many stages of the producing flow have already executed;
    #: lets :meth:`Flow.resume` continue a partial run where it stopped.
    stage_index: int = 0
    #: One ``{"stage", "seconds", "cached"}`` row per stage run so far;
    #: stages restored from the stage cache read ``cached: True``.
    stage_rows: List[Dict[str, object]] = field(default_factory=list)

    @classmethod
    def initial(
        cls, design: Union[LogicNetwork, Aig], name: Optional[str] = None
    ) -> "FlowState":
        """Wrap an input design into the state the first stage consumes."""
        if isinstance(design, Aig):
            return cls(name=name or design.name, aig=design)
        return cls(name=name or design.name, network=design)

    def copy(self) -> "FlowState":
        """Shallow per-field copy (artifact objects themselves are shared)."""
        return replace(
            self,
            source_stats=dict(self.source_stats),
            metrics=dict(self.metrics),
            artifacts=dict(self.artifacts),
            stage_rows=list(self.stage_rows),
        )

    def snapshot(self) -> "FlowState":
        """Isolated copy for the stage cache.

        Deep-copies the AIG so cache entries never alias an AIG handed to
        (or mutated by) a caller, and drops the source-network reference —
        cached prefixes end at AIG-producing stages, so downstream stages
        never need it and large input netlists are not pinned in memory.
        The stage rows are dropped too: a restored prefix reads as cached,
        never with the producing run's seconds.
        """
        state = self.copy()
        state.network = None
        state.stage_rows = []
        if state.aig is not None:
            state.aig = state.aig.copy()
        return state

    def require_aig(self, stage: str) -> Aig:
        if self.aig is None:
            raise FlowError(
                f"stage {stage!r} needs an AIG; run the 'frontend' stage first"
            )
        return self.aig

    def require_result(self) -> XsfqSynthesisResult:
        if self.result is None:
            ran = [row["stage"] for row in self.stage_rows]
            raise FlowError(
                "flow produced no XsfqSynthesisResult; append a 'report' stage "
                f"(stages ran: {ran})"
            )
        return self.result


# ---------------------------------------------------------------------------
# Stage registry
# ---------------------------------------------------------------------------

StageFn = Callable[[FlowState, Mapping[str, object]], FlowState]


@dataclass(frozen=True)
class Stage:
    """A named, pure flow stage with default options.

    Attributes:
        name: Registry key; also the name used in flow signatures.
        fn: ``(state, options) -> state`` implementation.
        defaults: Full option namespace of the stage; overrides passed to
            a :class:`Flow` are merged over these, and the merged mapping
            is what enters the flow signature.
        cacheable: Whether the state *after* this stage may be memoised
            in a :class:`StageCache` (reserve for expensive, reusable
            boundaries such as ``aig-opt``).
        description: One-line human description (``repro list`` and docs).
    """

    name: str
    fn: StageFn
    defaults: Tuple[Tuple[str, object], ...] = ()
    cacheable: bool = False
    description: str = ""

    def run(self, state: FlowState, options: Mapping[str, object]) -> FlowState:
        return self.fn(state, options)


#: Global registry of named stages (the flow-level analogue of
#: :data:`repro.aig.scripts.PASSES`, which is bridged in below).
STAGES: Dict[str, Stage] = {}


def register_stage(
    name: str,
    defaults: Optional[Mapping[str, object]] = None,
    cacheable: bool = False,
    description: str = "",
) -> Callable[[StageFn], StageFn]:
    """Decorator: register a ``(state, options) -> state`` callable.

    Re-registering a name replaces the previous stage, so tests and user
    code can shadow built-ins (see ``examples/custom_flow.py``).
    """

    def decorator(fn: StageFn) -> StageFn:
        doc = (fn.__doc__ or "").strip()
        STAGES[name] = Stage(
            name=name,
            fn=fn,
            defaults=tuple(sorted((defaults or {}).items())),
            cacheable=cacheable,
            description=description or (doc.splitlines()[0] if doc else ""),
        )
        return fn

    return decorator


def _aig_pass_stage(pass_name: str) -> Stage:
    """Bridge a named AIG pass from :data:`repro.aig.scripts.PASSES`."""

    def run_pass(state: FlowState, options: Mapping[str, object]) -> FlowState:
        aig = state.require_aig(pass_name)
        state = state.copy()
        state.aig = PASSES[pass_name](aig)
        return state

    return Stage(
        name=pass_name,
        fn=run_pass,
        description=f"AIG pass {pass_name!r} from repro.aig.scripts.PASSES",
    )


#: Stages registered by a layer above this one -> the module that registers
#: them.  ``import repro`` loads neither, so a lookup imports it.
_DEFERRED_STAGES = {
    "verify": "repro.verify.flowstage",
    "rsfq-opt": "repro.baselines.flows",
    "rsfq-map": "repro.baselines.flows",
}


def resolve_stage(name: str) -> Stage:
    """Look up a stage by name, falling back to the AIG pass registry.

    A stage that a layer above this one registers (``verify``,
    ``rsfq-opt``, ``rsfq-map``) is registered by importing its module on
    the first lookup.  The pass fallback keeps the two registries
    unified even for passes added to ``PASSES`` *after* this module was
    imported.
    """
    if name not in STAGES and name in _DEFERRED_STAGES:
        importlib.import_module(_DEFERRED_STAGES[name])
    stage = STAGES.get(name)
    if stage is not None:
        return stage
    if name in PASSES:
        return _aig_pass_stage(name)
    known = sorted(set(STAGES) | set(PASSES) | set(_DEFERRED_STAGES))
    raise FlowError(f"unknown stage {name!r}; known stages: {', '.join(known)}")


# ---------------------------------------------------------------------------
# Built-in stages (the decomposed synthesize_xsfq)
# ---------------------------------------------------------------------------


@register_stage(
    "frontend",
    cacheable=True,
    description="Convert the input design into a structurally hashed AIG",
)
def _stage_frontend(state: FlowState, options: Mapping[str, object]) -> FlowState:
    state = state.copy()
    if state.aig is None:
        if state.network is None:
            raise FlowError("frontend stage needs a LogicNetwork or Aig input")
        state.aig = network_to_aig(state.network)
    if state.name:
        state.aig.name = state.name
    else:
        state.name = state.aig.name
    state.source_stats = state.aig.stats()
    return state


@register_stage(
    "aig-opt",
    defaults={"effort": "medium", "verify": False},
    cacheable=True,
    description="Optimise the AIG with the off-the-shelf scripts (ABC analogue)",
)
def _stage_aig_opt(state: FlowState, options: Mapping[str, object]) -> FlowState:
    aig = state.require_aig("aig-opt")
    state = state.copy()
    effort = str(options["effort"])
    if effort != "none":
        state.aig = optimize(aig, effort=effort, verify=bool(options["verify"]))
    else:
        state.aig = aig.cleanup()
    state.metrics["aig_ands_after_opt"] = state.aig.num_ands
    return state


@register_stage(
    "pipeline",
    defaults={"stages": 0, "optimize_polarity": True, "splitter_style": "balanced"},
    description="Insert architectural pipeline DROC ranks into combinational AIGs",
)
def _stage_pipeline(state: FlowState, options: Mapping[str, object]) -> FlowState:
    stages = int(options["stages"])
    aig = state.require_aig("pipeline")
    if stages <= 0 or not aig.is_combinational():
        return state
    state = state.copy()
    pipe = pipeline_combinational(
        aig,
        stages,
        optimize_polarity=bool(options["optimize_polarity"]),
        splitter_style=str(options["splitter_style"]),
        name=state.name,
    )
    state.pipeline_result = pipe
    state.aig = pipe.aig
    state.netlist = pipe.netlist
    state.analysis = pipe.analysis if pipe.analysis is not None else analyze_rails(pipe.aig)
    return state


@register_stage(
    "polarity",
    defaults={"mode": "optimize", "sweeps": 4},
    description="Rail-requirement analysis / output phase assignment (Sec. 3.1.4-3.1.5)",
)
def _stage_polarity(state: FlowState, options: Mapping[str, object]) -> FlowState:
    if state.netlist is not None:  # pipelined upstream: already analysed + mapped
        return state
    aig = state.require_aig("polarity")
    mode = str(options["mode"])
    state = state.copy()
    if mode == "direct":
        state.analysis = direct_mapping_analysis(aig)
    elif mode == "optimize":
        _, state.analysis = assign_output_polarities(aig, max_sweeps=int(options["sweeps"]))
    elif mode == "positive":
        state.analysis = analyze_rails(aig)
    else:
        raise FlowError(
            f"polarity mode must be 'direct', 'positive' or 'optimize', not {mode!r}"
        )
    state.metrics["duplication"] = state.analysis.duplication_penalty
    return state


@register_stage(
    "map",
    defaults={"splitter_style": "balanced"},
    description="Dual-rail LA/FA mapping + splitter insertion (combinational designs)",
)
def _stage_map(state: FlowState, options: Mapping[str, object]) -> FlowState:
    aig = state.require_aig("map")
    if state.netlist is not None or not aig.is_combinational():
        return state
    if state.analysis is None:
        raise FlowError("'map' needs a rail analysis; run the 'polarity' stage first")
    state = state.copy()
    state.netlist = map_combinational(
        aig, state.analysis, name=state.name, splitter_style=str(options["splitter_style"])
    )
    return state


@register_stage(
    "sequential",
    defaults={"retime": True, "splitter_style": "balanced"},
    description="DROC storage-rank insertion + initialisation (sequential designs)",
)
def _stage_sequential(state: FlowState, options: Mapping[str, object]) -> FlowState:
    aig = state.require_aig("sequential")
    if state.netlist is not None or aig.is_combinational():
        return state
    if state.analysis is None:
        raise FlowError(
            "'sequential' needs a rail analysis; run the 'polarity' stage first"
        )
    state = state.copy()
    state.netlist, state.sequential_info = map_sequential(
        aig,
        state.analysis,
        name=state.name,
        retime=bool(options["retime"]),
        splitter_style=str(options["splitter_style"]),
    )
    return state


@register_stage(
    "report",
    description="Assemble the XsfqSynthesisResult with every paper-style metric",
)
def _stage_report(state: FlowState, options: Mapping[str, object]) -> FlowState:
    if state.netlist is None:
        raise FlowError(
            "'report' found no mapped netlist; the flow needs a 'map', "
            "'sequential' or 'pipeline' stage before it"
        )
    analysis = state.analysis
    if analysis is None:
        analysis = analyze_rails(state.require_aig("report"))
    state = state.copy()
    state.analysis = analysis
    state.result = XsfqSynthesisResult(
        name=state.name,
        netlist=state.netlist,
        aig=state.require_aig("report"),
        analysis=analysis,
        sequential_info=state.sequential_info,
        pipeline_result=state.pipeline_result,
        source_stats=dict(state.source_stats),
    )
    return state


# Bridge every already-registered AIG pass into the stage registry so
# `Flow.from_script` and `repro list`-style tooling see one namespace.
for _pass_name in PASSES:
    STAGES.setdefault(_pass_name, _aig_pass_stage(_pass_name))


def render_stage_table(rows: Iterable[Mapping[str, object]]) -> str:
    """Format per-stage rows (:attr:`FlowState.stage_rows`) as a text table."""
    from .report import format_table

    body = [
        [
            row["stage"],
            f"{float(row.get('seconds', 0.0)):.4f}",
            "cached" if row.get("cached") else "run",
        ]
        for row in rows
    ]
    return format_table(["Stage", "Seconds", "Source"], body)


# ---------------------------------------------------------------------------
# Stage-level cache
# ---------------------------------------------------------------------------


def design_fingerprint(design: Union[LogicNetwork, Aig]) -> str:
    """Stable structural hash of an input design (stage-cache identity).

    Covers the full structure — node types, fanins, PI/PO names, latch
    initial values — but *not* the design name, so renamed copies of the
    same circuit share cached prefixes.
    """
    hasher = hashlib.sha256()
    if isinstance(design, Aig):
        hasher.update(b"aig\0")
        for node in design.nodes():
            hasher.update(
                f"{design.node_type(node).name}:{design.fanin0(node)}:{design.fanin1(node)};".encode()
            )
        for latch in design.latches:
            hasher.update(f"L{latch.node}:{latch.next_lit}:{latch.init};".encode())
        hasher.update(("|".join(design.pi_names) + "\0").encode())
        hasher.update(("|".join(design.po_names) + "\0").encode())
        hasher.update(":".join(str(lit) for lit in design.po_lits).encode())
    else:
        hasher.update(b"network\0")
        for gate_name in sorted(design.gates):
            gate = design.gates[gate_name]
            hasher.update(
                f"{gate_name}:{gate.gate_type.value}:{','.join(gate.fanins)}:{gate.init};".encode()
            )
        hasher.update(("|".join(design.inputs) + "\0").encode())
        hasher.update(("|".join(design.outputs) + "\0").encode())
    return hasher.hexdigest()


class StageCache:
    """In-process LRU memo of :class:`FlowState` snapshots at stage boundaries.

    Keys combine the input design's :func:`design_fingerprint` with the
    flow-signature *prefix* up to (and including) a cacheable stage.  Two
    flows that share a prefix — e.g. a polarity sweep over the same
    ``frontend``/``aig-opt`` options — resume from the cached state
    instead of re-optimising the AIG.
    """

    def __init__(self, maxsize: int = 64) -> None:
        self.maxsize = max(1, int(maxsize))
        self._states: "OrderedDict[str, FlowState]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def prefix_key(fingerprint: str, signature_prefix: Sequence[object]) -> str:
        from ..schema import content_key

        return content_key({"input": fingerprint, "stages": tuple(signature_prefix)})

    def get(self, key: str) -> Optional[FlowState]:
        state = self._states.get(key)
        if state is None:
            self.misses += 1
            return None
        self._states.move_to_end(key)
        self.hits += 1
        return state.snapshot()

    def contains(self, key: str) -> bool:
        return key in self._states

    def put(self, key: str, state: FlowState) -> None:
        self._states[key] = state.snapshot()
        self._states.move_to_end(key)
        while len(self._states) > self.maxsize:
            self._states.popitem(last=False)

    def clear(self) -> None:
        self._states.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._states)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._states)}


_STAGE_CACHE = StageCache()


def get_stage_cache() -> StageCache:
    """The process-wide stage cache (used by the eval engine)."""
    return _STAGE_CACHE


def set_stage_cache(cache: Optional[StageCache]) -> StageCache:
    """Install (or, with ``None``, reset) the process-wide stage cache."""
    global _STAGE_CACHE
    previous = _STAGE_CACHE
    _STAGE_CACHE = cache if cache is not None else StageCache()
    return previous


# ---------------------------------------------------------------------------
# Flow
# ---------------------------------------------------------------------------

#: One flow entry in canonical signature form: (stage name, merged options).
SignatureEntry = Tuple[str, Tuple[Tuple[str, object], ...]]

#: The stages Flow.default() composes, in execution order.
DEFAULT_STAGE_ORDER: Tuple[str, ...] = (
    "frontend",
    "aig-opt",
    "pipeline",
    "polarity",
    "map",
    "sequential",
    "report",
)


class Flow:
    """An ordered, named composition of synthesis stages.

    A ``Flow`` is cheap, immutable-by-convention data: a list of
    ``(stage name, option overrides)`` pairs.  Stage implementations are
    resolved from the registry at run time, so re-registering a stage
    (or adding an AIG pass) immediately affects existing flows.

    Attributes:
        stages: The ordered ``(name, overrides)`` pairs.
        options: The equivalent :class:`FlowOptions` when the flow was
            built from one (kept for the backwards-compatible result
            metadata); ``None`` for hand-composed flows.
    """

    def __init__(
        self,
        stages: Sequence[Tuple[str, Mapping[str, object]]],
        options: Optional[FlowOptions] = None,
    ) -> None:
        self.stages: List[Tuple[str, Dict[str, object]]] = [
            (name, dict(overrides)) for name, overrides in stages
        ]
        self.options = options
        for name, overrides in self.stages:
            stage = resolve_stage(name)  # raises on unknown stages early
            valid = {key for key, _ in stage.defaults}
            unknown = set(overrides) - valid
            if unknown:
                raise FlowError(
                    f"stage {name!r} has no option(s) {sorted(unknown)}; "
                    f"valid options: {sorted(valid) or '(none)'}"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def default(cls) -> "Flow":
        """The paper's full flow with default options."""
        return cls.from_options(FlowOptions())

    @classmethod
    def direct_mapping(cls, effort: str = "none", **overrides: object) -> "Flow":
        """The Section 3.1.1 baseline: a full LA-FA pair per AIG node."""
        return cls.from_options(
            FlowOptions(effort=effort, direct_mapping=True, **overrides)  # type: ignore[arg-type]
        )

    @classmethod
    def from_options(cls, options: Union[FlowOptions, Mapping[str, object], None] = None) -> "Flow":
        """Build the staged equivalent of ``synthesize_xsfq(design, options)``."""
        if options is None:
            options = FlowOptions()
        elif not isinstance(options, FlowOptions):
            options = FlowOptions.from_dict(dict(options))
        if options.direct_mapping:
            polarity_mode = "direct"
        elif options.optimize_polarity:
            polarity_mode = "optimize"
        else:
            polarity_mode = "positive"
        stages: List[Tuple[str, Dict[str, object]]] = [
            ("frontend", {}),
            ("aig-opt", {"effort": options.effort, "verify": options.verify}),
            (
                "pipeline",
                {
                    "stages": options.pipeline_stages,
                    "optimize_polarity": options.optimize_polarity
                    and not options.direct_mapping,
                    "splitter_style": options.splitter_style,
                },
            ),
            ("polarity", {"mode": polarity_mode, "sweeps": options.polarity_sweeps}),
            ("map", {"splitter_style": options.splitter_style}),
            (
                "sequential",
                {"retime": options.retime, "splitter_style": options.splitter_style},
            ),
            ("report", {}),
        ]
        return cls(stages, options=options)

    @classmethod
    def from_script(
        cls, script: Sequence[Union[str, Tuple[str, Mapping[str, object]]]]
    ) -> "Flow":
        """Build a flow from stage names and/or AIG pass names.

        Entries are either a bare name (``"aig-opt"``, ``"balance"``) or a
        ``(name, options)`` pair::

            Flow.from_script([
                "frontend", "balance", "rewrite",
                ("polarity", {"mode": "positive"}),
                "map", "sequential", "report",
            ])
        """
        stages: List[Tuple[str, Mapping[str, object]]] = []
        for entry in script:
            if isinstance(entry, str):
                stages.append((entry, {}))
            else:
                name, overrides = entry
                stages.append((name, dict(overrides)))
        return cls(stages)

    @classmethod
    def from_signature(cls, signature: Sequence[SignatureEntry]) -> "Flow":
        """Rebuild a flow from :meth:`signature` output (cache keys, jobs)."""
        return cls([(name, dict(options)) for name, options in signature])

    # ------------------------------------------------------------------
    # Composition helpers
    # ------------------------------------------------------------------
    def stage_names(self) -> List[str]:
        return [name for name, _ in self.stages]

    def stage_options(self, name: str) -> Dict[str, object]:
        """Fully merged options of the first stage called ``name``."""
        for entry_name, overrides in self.stages:
            if entry_name == name:
                stage = resolve_stage(entry_name)
                merged = dict(stage.defaults)
                merged.update(overrides)
                return merged
        raise FlowError(f"flow has no stage {name!r} (stages: {self.stage_names()})")

    def with_options(self, name: str, **overrides: object) -> "Flow":
        """A new flow with extra option overrides on stage ``name``."""
        if name not in self.stage_names():
            raise FlowError(f"flow has no stage {name!r} (stages: {self.stage_names()})")
        stages = [
            (entry, {**opts, **overrides} if entry == name else dict(opts))
            for entry, opts in self.stages
        ]
        return Flow(stages)

    def with_stage(
        self,
        name: str,
        options: Optional[Mapping[str, object]] = None,
        before: Optional[str] = None,
    ) -> "Flow":
        """A new flow with stage ``name`` appended (or inserted ``before``)."""
        stages = [(entry, dict(opts)) for entry, opts in self.stages]
        entry = (name, dict(options or {}))
        if before is None:
            stages.append(entry)
        else:
            names = [n for n, _ in stages]
            if before not in names:
                raise FlowError(f"flow has no stage {before!r} (stages: {names})")
            stages.insert(names.index(before), entry)
        return Flow(stages)

    def without_stage(self, name: str) -> "Flow":
        """A new flow with every stage called ``name`` removed."""
        return Flow([(n, dict(o)) for n, o in self.stages if n != name])

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def signature(self) -> Tuple[SignatureEntry, ...]:
        """Canonical identity: ordered stage names + fully merged options.

        This — not a pickled :class:`FlowOptions` — is what the result
        cache in :mod:`repro.eval.engine` keys records on, and its
        prefixes are the stage-cache keys.
        """
        entries: List[SignatureEntry] = []
        for name, overrides in self.stages:
            stage = resolve_stage(name)
            merged = dict(stage.defaults)
            merged.update(overrides)
            entries.append((name, tuple(sorted(merged.items()))))
        return tuple(entries)

    def signature_prefix(self, until: str) -> Tuple[SignatureEntry, ...]:
        """The signature up to and including the first stage named ``until``."""
        entries = []
        for entry in self.signature():
            entries.append(entry)
            if entry[0] == until:
                return tuple(entries)
        raise FlowError(f"flow has no stage {until!r} (stages: {self.stage_names()})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Flow {' -> '.join(self.stage_names())}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Flow) and self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_state(
        self,
        design: Union[LogicNetwork, Aig, FlowState],
        name: Optional[str] = None,
        stage_cache: Optional[StageCache] = None,
        use_stage_cache: bool = True,
        until: Optional[str] = None,
    ) -> FlowState:
        """Execute the flow and return the final :class:`FlowState`.

        The state's ``stage_rows`` gain one row per stage: its wall
        seconds, or ``cached: True`` for a prefix restored from the stage
        cache.  A resumed state keeps the rows of the stages it already ran.

        Args:
            design: Input network/AIG, or an existing :class:`FlowState`
                (e.g. one returned with ``until=...``) to resume from —
                its ``stage_index`` records how far it already ran.
            name: Optional result name override.
            stage_cache: Stage memo to consult/populate; defaults to the
                process-wide cache from :func:`get_stage_cache`.
            use_stage_cache: Disable memoisation entirely when False.
            until: Stop after the first stage with this name (inclusive),
                returning the mid-flow state for inspection.
        """
        state = self._coerce_state(design, name)
        signature = self.signature()
        stop_index = self._stop_index(until)
        cache = stage_cache if stage_cache is not None else get_stage_cache()
        start_index = min(state.stage_index, stop_index)
        fingerprint = self._fingerprint_for(state, use_stage_cache and start_index == 0)
        if fingerprint is not None:
            state, start_index = self._restore_cached_prefix(
                state, signature, stop_index, cache, fingerprint, name
            )

        for index in range(start_index, stop_index):
            state = self._run_stage(state, index)
            stage = resolve_stage(self.stages[index][0])
            if fingerprint is not None and stage.cacheable:
                key = StageCache.prefix_key(fingerprint, signature[: index + 1])
                if not cache.contains(key):
                    cache.put(key, state)
        if (
            state.result is not None
            and state.result.options is None
            and self.options is not None
        ):
            state.result.options = self.options
        return state

    @staticmethod
    def _coerce_state(
        design: Union[LogicNetwork, Aig, FlowState], name: Optional[str]
    ) -> FlowState:
        if isinstance(design, FlowState):
            state = design.copy()
            if name:
                state.name = name
            return state
        return FlowState.initial(design, name)

    def _stop_index(self, until: Optional[str]) -> int:
        if until is None:
            return len(self.stages)
        names = self.stage_names()
        if until not in names:
            raise FlowError(f"flow has no stage {until!r} (stages: {names})")
        return names.index(until) + 1

    def _fingerprint_for(self, state: FlowState, enabled: bool) -> Optional[str]:
        if not enabled:
            return None
        # Hashing the design only pays off when some stage can be memoised
        # (the baseline flows, for instance, have no cacheable stage).
        if not any(resolve_stage(name).cacheable for name, _ in self.stages):
            return None
        source = state.aig if state.aig is not None else state.network
        return design_fingerprint(source) if source is not None else None

    def _restore_cached_prefix(
        self,
        state: FlowState,
        signature: Tuple[SignatureEntry, ...],
        stop_index: int,
        cache: StageCache,
        fingerprint: str,
        name: Optional[str],
    ) -> Tuple[FlowState, int]:
        """Resume from the longest cached prefix ending at a cacheable stage."""
        # Structurally identical designs share cached prefixes regardless of
        # their name, so re-apply the current design's name on restore.
        desired_name = name or state.name
        for index in range(stop_index, 0, -1):
            if not resolve_stage(self.stages[index - 1][0]).cacheable:
                continue
            cached = cache.get(StageCache.prefix_key(fingerprint, signature[:index]))
            if cached is not None:
                if desired_name:
                    cached.name = desired_name
                    if cached.aig is not None:
                        cached.aig.name = desired_name
                cached.stage_rows = [
                    {"stage": stage_name, "seconds": 0.0, "cached": True}
                    for stage_name, _ in self.stages[:index]
                ]
                return cached, index
        return state, 0

    def _run_stage(self, state: FlowState, index: int) -> FlowState:
        """Execute one stage with its merged options and record its row."""
        stage_name, overrides = self.stages[index]
        stage = resolve_stage(stage_name)
        merged = dict(stage.defaults)
        merged.update(overrides)
        started = time.perf_counter()
        state = stage.run(state, merged)
        seconds = time.perf_counter() - started
        state.stage_index = index + 1
        state.stage_rows.append({"stage": stage_name, "seconds": seconds, "cached": False})
        return state

    def run(
        self,
        design: Union[LogicNetwork, Aig, FlowState],
        name: Optional[str] = None,
        stage_cache: Optional[StageCache] = None,
        use_stage_cache: bool = True,
    ) -> XsfqSynthesisResult:
        """Execute the flow end to end and return the synthesis result."""
        return self.run_state(
            design, name=name, stage_cache=stage_cache, use_stage_cache=use_stage_cache
        ).require_result()

    def resume(
        self, state: FlowState, stage_cache: Optional[StageCache] = None
    ) -> FlowState:
        """Run the remaining stages on a mid-flow state from ``until=...``.

        The state's ``stage_index`` records where the partial run stopped,
        so already-executed stages are skipped, not re-run.
        """
        return self.run_state(state, stage_cache=stage_cache)


# ---------------------------------------------------------------------------
# Named flow variants
# ---------------------------------------------------------------------------

#: Named flow factories: ``{name: (factory, description)}``.  Variants are
#: factories (not Flow instances) so each caller gets a fresh composition
#: and late-registered stages/passes are picked up at build time.
FLOW_VARIANTS: Dict[str, Tuple[Callable[[], "Flow"], str]] = {}


def register_flow_variant(
    name: str, factory: Callable[[], "Flow"], description: str = ""
) -> None:
    """Register (or replace) a named flow variant.

    Variants are the enumerable flow compositions that campaign tooling
    — ``repro fuzz`` differential runs, ablation sweeps — iterates over.
    """
    FLOW_VARIANTS[name] = (factory, description)


def flow_variant(name: str) -> "Flow":
    """Build a fresh flow for a registered variant name."""
    try:
        factory, _ = FLOW_VARIANTS[name]
    except KeyError:
        known = ", ".join(sorted(FLOW_VARIANTS))
        raise FlowError(f"unknown flow variant {name!r}; known: {known}") from None
    return factory()


def flow_variant_names() -> List[str]:
    """Registered variant names, sorted."""
    return sorted(FLOW_VARIANTS)


register_flow_variant(
    "default", Flow.default,
    "the paper's full flow (medium effort, polarity optimisation, retiming)",
)
register_flow_variant(
    "direct", Flow.direct_mapping,
    "Section 3.1.1 direct mapping: a full LA-FA pair per AIG node",
)
register_flow_variant(
    "positive",
    lambda: Flow.from_options(FlowOptions(optimize_polarity=False)),
    "positive-polarity mapping (no output phase assignment)",
)
register_flow_variant(
    "no-retime",
    lambda: Flow.from_options(FlowOptions(retime=False)),
    "sequential mapping without DROC retiming (paired storage ranks)",
)
register_flow_variant(
    "unopt",
    lambda: Flow.from_options(FlowOptions(effort="none")),
    "no AIG optimisation: maps the structurally hashed frontend AIG",
)
