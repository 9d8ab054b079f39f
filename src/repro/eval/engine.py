"""Synthesis engine: cacheable, schedulable units of experiment work.

Every table and figure of the paper's evaluation decomposes into
per-circuit synthesis runs.  This module turns one such run into a
declarative, picklable :class:`SynthesisJob` (circuit name + scale + a
:class:`~repro.core.flowgraph.Flow` *signature*), computes it into a
flat JSON-serialisable *record* of metrics, and memoises records in a
content-addressed on-disk :class:`ResultCache` keyed on the flow
signature (ordered stage names + per-stage options) plus the package
version.  Because the key is the staged signature rather than a pickled
``FlowOptions``, any flow — including hand-composed ones with custom
stages — caches uniformly, and the in-process *stage cache*
(:class:`repro.core.flowgraph.StageCache`) additionally memoises the
expensive shared prefixes: a cached post-``aig-opt`` AIG is reused
across polarity/mapping variants of the same circuit, which is the bulk
of the ablation and table-sweep wall clock.

The :class:`SynthesisEngine` is the seam between the experiment
assemblers in :mod:`repro.eval.experiments` and the scheduler in
:mod:`repro.eval.runner`: assemblers ask the engine for records, and an
experiment campaign hands them an engine whose ``memory`` already holds
every record its jobs produced, so the assembly step never synthesises
anything itself.  A module-level
default engine lets long-running hosts (the benchmark harness, the CLI)
install a shared cache once and have every experiment pick it up.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Dict, Iterator, List, Mapping, Optional, Tuple

from .. import core
from ..circuits import build as build_circuit
from ..circuits import info as circuit_info
from ..schema import (
    _package_version,
    atomic_write_json,
    content_key,
    load_document,
    pack,
    quarantine,
    schema_tag,
)

#: A flow signature entry as stored on a job: (stage name, merged options).
StageSignature = Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...]


@dataclass(frozen=True)
class SynthesisJob:
    """One unit of schedulable work: synthesise a catalogued circuit.

    Attributes:
        circuit: Name from :mod:`repro.circuits.registry`.
        scale: ``"quick"`` or ``"paper"`` circuit dimensions.
        options: Flow options as a sorted ``(key, value)`` tuple, kept for
            backwards compatibility and for jobs whose flow was derived
            from a :class:`FlowOptions`; empty for hand-composed flows.
        stages: The flow's canonical signature (ordered stage names +
            fully merged per-stage options) — the cache identity.  Both
            fields are plain tuples so the job stays hashable and
            picklable across worker processes.
    """

    #: Message kind this job's records are stored under (see ``repro.schema``).
    schema_kind: ClassVar[str] = "record"

    circuit: str
    scale: str = "quick"
    options: Tuple[Tuple[str, object], ...] = ()
    stages: StageSignature = ()

    @classmethod
    def create(
        cls,
        circuit: str,
        scale: str = "quick",
        options: Optional[Mapping[str, object]] = None,
    ) -> "SynthesisJob":
        """Build a job from a plain options mapping (or ``FlowOptions``).

        Options are canonicalised through :class:`FlowOptions` so a partial
        mapping (``{"effort": "low"}``) and the equivalent full option set
        address the same cache record.
        """
        if not isinstance(options, core.FlowOptions):
            options = core.FlowOptions.from_dict(dict(options or {}))
        items = tuple(sorted(options.to_dict().items()))
        signature = core.Flow.from_options(options).signature()
        return cls(circuit=circuit, scale=scale, options=items, stages=signature)

    @classmethod
    def from_flow(
        cls, circuit: str, scale: str = "quick", flow: Optional[core.Flow] = None
    ) -> "SynthesisJob":
        """Build a job from an arbitrary :class:`~repro.core.flowgraph.Flow`.

        Flows derived from a :class:`FlowOptions` (``Flow.from_options``,
        ``Flow.default``, ``Flow.direct_mapping``) also carry the options
        tuple, so job labels and records stay as informative as before;
        hand-composed flows are identified by their signature alone.
        """
        flow = flow if flow is not None else core.Flow.default()
        items: Tuple[Tuple[str, object], ...] = ()
        if flow.options is not None:
            items = tuple(sorted(flow.options.to_dict().items()))
        return cls(circuit=circuit, scale=scale, options=items, stages=flow.signature())

    def flow(self) -> core.Flow:
        """Reconstruct the runnable flow this job describes."""
        if self.stages:
            flow = core.Flow.from_signature(self.stages)
            if self.options:
                flow.options = core.FlowOptions.from_dict(dict(self.options))
            return flow
        return core.Flow.from_options(self.flow_options())

    def flow_options(self) -> core.FlowOptions:
        """The equivalent ``FlowOptions`` (raises for hand-composed flows)."""
        if not self.options:
            if self.stages:
                raise ValueError(
                    "job was built from a hand-composed Flow with no "
                    "FlowOptions equivalent; use job.flow() instead"
                )
            return core.FlowOptions()
        return core.FlowOptions.from_dict(dict(self.options))

    def signature(self) -> StageSignature:
        """The flow signature (computed from options for legacy jobs)."""
        if self.stages:
            return self.stages
        return core.Flow.from_options(dict(self.options)).signature()

    def signature_prefix(self, until: str = "aig-opt") -> Tuple[object, ...]:
        """Hashable identity of this job's work up to stage ``until``.

        Two jobs with equal prefixes share the stage cache up to that
        stage (``repro list`` uses this to show which experiments reuse
        each other's cached ``aig-opt`` results).  Returns a tuple of
        (circuit, scale, signature-prefix); raises ``ValueError`` when
        the flow has no stage named ``until``.
        """
        entries = []
        for entry in self.signature():
            entries.append(entry)
            if entry[0] == until:
                return (self.circuit, self.scale, tuple(entries))
        raise ValueError(f"job flow has no stage {until!r}")

    def pipeline_stages(self) -> int:
        """Architectural pipeline stages the job's flow inserts (0 if none)."""
        for name, options in self.signature():
            if name == "pipeline":
                return int(dict(options).get("stages", 0))
        return 0

    def label(self) -> str:
        """Progress label: ``circuit@scale`` and the options that differ from the defaults."""
        if self.options:
            defaults = core.FlowOptions()
            tweaks = {key: value for key, value in self.options if value != getattr(defaults, key)}
            suffix = "".join(f" {k}={v}" for k, v in sorted(tweaks.items()))
        else:
            # Hand-composed flow: identify it by its stage sequence.
            suffix = " flow=" + ">".join(name for name, _ in self.signature())
        return f"{self.circuit}@{self.scale}{suffix}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit,
            "scale": self.scale,
            "options": dict(self.options) if self.options else None,
            "flow": [[name, dict(options)] for name, options in self.signature()],
        }

    def key(self) -> str:
        """Content-addressed cache key: flow signature + package version.

        Canonicalised through :func:`repro.schema.content_key`: a flow
        signature carrying a non-JSON-native option value raises
        :class:`repro.schema.WireFormatError` instead of being silently
        stringified into a collision-prone key.
        """
        payload = {
            "schema": schema_tag(self.schema_kind),
            "version": _package_version(),
            "circuit": self.circuit,
            "scale": self.scale,
            "flow": self.signature(),
        }
        return content_key(payload)


def synthesis_record(job: SynthesisJob) -> Dict[str, object]:
    """Compute the full metric record for one job (worker-process entry).

    Runs the xSFQ flow on the catalogued circuit and, depending on the
    circuit kind, the matching clocked-RSFQ baseline (PBMap-like for
    combinational circuits, qSeq-like for sequential ones), so a single
    cached record can serve every table that mentions the circuit.
    Pipelined jobs skip the baseline: no table compares pipelined xSFQ
    against a clocked flow.
    """
    # Here, where a job is computed: an experiment without jobs loads no baseline.
    from ..baselines import pbmap_like, qseq_like

    info = circuit_info(job.circuit)
    network = build_circuit(job.circuit, job.scale)
    timing = core.TimingObserver()
    result = job.flow().run(
        network, observers=(timing,), stage_cache=core.get_stage_cache()
    )
    record = result.metrics()
    record.update(job.to_dict())
    record["kind"] = info.kind
    record["suite"] = info.suite
    record["num_flipflops"] = len(network.latches)
    # The one wall clock a cached record keeps: these rows are the only
    # way stage times get out of worker processes to `--stage-timing`.
    record["stages"] = timing.rows()
    record["baseline_name"] = ""
    record["baseline_jj"] = None
    record["baseline_jj_clocked"] = None
    if job.pipeline_stages() == 0:
        if info.kind == "sequential":
            baseline = qseq_like(network)
            record["baseline_name"] = "qSeq-like"
        else:
            baseline = pbmap_like(network)
            record["baseline_name"] = "PBMap-like"
        record["baseline_jj"] = baseline.jj_count(include_clock_tree=False)
        record["baseline_jj_clocked"] = baseline.jj_count_with_clock_overhead()
    return record


class ResultCache:
    """Content-addressed on-disk store of synthesis records.

    One JSON file per record, named by the job's sha256 key, written
    atomically so concurrent workers and processes can share a directory.
    Hit/miss/put counters let the runner report how much re-synthesis a
    run actually performed.

    The cache is shared by every spec family that exposes ``key()`` /
    ``schema_kind`` (:class:`SynthesisJob` and
    :class:`~repro.verify.campaign.VerificationSpec`); records are stamped with
    the ``repro.schema`` envelope on ``put`` and validated/migrated on
    ``get``.  A record that fails to parse or validate — truncated by a
    crash, hand-edited, foreign — is **not** an error: it counts as a
    miss (so the unit recomputes), is quarantined as ``*.corrupt`` for
    inspection, and logs a warning.
    """

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        if directory is None:
            directory = os.environ.get("REPRO_CACHE_DIR") or (
                Path.home() / ".cache" / "repro-xsfq"
            )
        self.directory = Path(directory).expanduser()
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def contains(self, job: SynthesisJob) -> bool:
        return self._path(job.key()).exists()

    @staticmethod
    def _kind(job: SynthesisJob) -> str:
        return getattr(job, "schema_kind", "record")

    def get(self, job: SynthesisJob) -> Optional[Dict[str, object]]:
        path = self._path(job.key())
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            record = load_document(document, self._kind(job), source=str(path))
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError) as error:
            # Imported here, so that no ``repro`` command loads ``logging``
            # until a cache record turns out corrupt.
            import logging

            moved = quarantine(path)
            suffix = f"; quarantined as {moved.name}" if moved else ""
            logging.getLogger(__name__).warning(
                "corrupt cache record %s treated as a miss (%s)%s",
                path.name,
                error,
                suffix,
            )
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, job: SynthesisJob, record: Mapping[str, object]) -> None:
        if record.get("status") == "error":
            # Error placeholders describe a *failed execution*, not the
            # unit's true result; caching one would make the failure
            # sticky across reruns.  The execution lifecycle never puts
            # them — this guard is defense-in-depth for direct callers.
            raise ValueError(
                "refusing to cache a status='error' record; rerun the "
                "unit to compute a real result"
            )
        document = pack(self._kind(job), dict(record))
        atomic_write_json(self._path(job.key()), document, compact=True)
        self.puts += 1

    def clear(self) -> int:
        """Delete every cached record; returns how many were removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                with contextlib.suppress(OSError):
                    path.unlink()
                    removed += 1
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts}


@dataclass
class SynthesisEngine:
    """Serves synthesis records, optionally memoised in a :class:`ResultCache`.

    ``record()`` is the only entry point the experiment assemblers use;
    with no cache attached it degrades to direct serial computation,
    which keeps the refactored experiments behaviourally identical to
    the original inline-synthesis code path.
    """

    cache: Optional[ResultCache] = None
    #: Jobs computed by this engine (not served from cache).
    computed: List[SynthesisJob] = field(default_factory=list)
    #: When False, repeated requests re-synthesise (for timing studies).
    memoize: bool = True
    #: In-process memo so one engine never synthesises the same job twice,
    #: even with no disk cache attached.
    memory: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def record(
        self,
        circuit: str,
        scale: str = "quick",
        options: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        return self.record_for(SynthesisJob.create(circuit, scale, options))

    def record_for(self, job: SynthesisJob) -> Dict[str, object]:
        key = job.key()
        if self.memoize and key in self.memory:
            return self.memory[key]
        if self.cache is not None:
            cached = self.cache.get(job)
            if cached is not None:
                self.memory[key] = cached
                return cached
        record = synthesis_record(job)
        self.computed.append(job)
        self.memory[key] = record
        if self.cache is not None:
            self.cache.put(job, record)
        return record


_DEFAULT_ENGINE = SynthesisEngine()


def get_default_engine() -> SynthesisEngine:
    """The engine experiments use when none is passed explicitly."""
    return _DEFAULT_ENGINE


def set_default_engine(engine: Optional[SynthesisEngine]) -> SynthesisEngine:
    """Install (or, with ``None``, reset) the process-wide default engine."""
    global _DEFAULT_ENGINE
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine if engine is not None else SynthesisEngine()
    return previous


@contextlib.contextmanager
def use_engine(engine: SynthesisEngine) -> Iterator[SynthesisEngine]:
    """Temporarily install ``engine`` as the process-wide default."""
    previous = set_default_engine(engine)
    try:
        yield engine
    finally:
        set_default_engine(previous)
