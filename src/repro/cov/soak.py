"""Resumable, shardable soak campaigns over the fuzz stack.

A soak run is an ordinary differential fuzzing campaign executed in
*batches* with a durable cursor: after every batch the accumulated
corpus (verdict records), the coverage map and the campaign cursor are
written to a schema-versioned JSON checkpoint, so a run killed at any
point resumes from its checkpoint and finishes **byte-identical** to
the uninterrupted run.

The determinism contract, and how each piece honours it:

* the unit stream is a pure function of the campaign identity
  (steered or not — see :mod:`repro.cov.steer`), recomputed on resume
  rather than persisted;
* shard ``i`` of ``N`` takes units ``i, i+N, i+2N, ...`` of that one
  shared stream, so shards need no coordination and the union of all
  shard corpora *is* the single-shard corpus; :func:`merge_states`
  re-sorts records by their global unit index and set-unions the
  coverage maps, reconstructing the 1-shard result exactly;
* records are stripped of wall-clock fields before persisting
  (:data:`VOLATILE_RECORD_FIELDS`) — everything a checkpoint holds is
  reproducible, so checkpoint files compare with ``cmp``;
* checkpoints are written atomically (temp file + rename): a kill
  mid-write leaves the previous batch's checkpoint intact;
* a batch with a unit that raised, crashed or timed out is never
  checkpointed: the run stops before it, so a resume recomputes it
  (its completed units replay from the result cache).

Scheduling rides on :meth:`repro.eval.runner.Runner.campaign`, so cached
verdicts replay for free and worker processes apply per batch.  The CLI
surface is ``repro fuzz --soak --checkpoint DIR [--shards N
[--shard-index I]] [--merge]``; see ``docs/fuzzing.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..exec import ExecEvent
from ..gen.fuzz import FuzzCampaign, FuzzUnit
from ..schema import atomic_write_json, canonical_json, load_document, pack, schema_tag
from .features import fold_fuzz_units
from .map import CoverageMap

__all__ = [
    "SOAK_SCHEMA",
    "SoakCampaign",
    "SoakState",
    "VOLATILE_RECORD_FIELDS",
    "checkpoint_path",
    "load_state",
    "merge_states",
    "merged_path",
    "run_soak",
    "shard_paths",
    "write_state",
]

#: Schema tag of the checkpoint layout (the ``soak`` kind of the
#: ``repro.schema`` registry).
SOAK_SCHEMA = schema_tag("soak")

#: Wall-clock record fields stripped before persisting: checkpoints hold
#: only reproducible data, so resumed and uninterrupted runs emit
#: byte-identical files.
VOLATILE_RECORD_FIELDS: Tuple[str, ...] = ("seconds", "synth_seconds")


@dataclass(frozen=True)
class SoakCampaign:
    """Identity of one (shard of a) soak run.

    Attributes:
        fuzz: The underlying campaign (budget, seed, families, flows,
            stimulus identity, steering).
        batch_size: Units verified between checkpoints.
        shards: Total shard count the unit stream is partitioned into.
        shard_index: This run's shard (``0 <= shard_index < shards``).
    """

    fuzz: FuzzCampaign
    batch_size: int = 30
    shards: int = 1
    shard_index: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if not 0 <= self.shard_index < self.shards:
            raise ValueError(
                f"shard index {self.shard_index} outside 0..{self.shards - 1}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")

    def identity(self) -> Dict[str, object]:
        """The checkpoint-compatibility key: everything that shapes the stream."""
        return {
            "campaign": self.fuzz.to_dict(),
            "batch_size": self.batch_size,
            "shards": self.shards,
            "shard_index": self.shard_index,
        }

    def base_identity(self) -> Dict[str, object]:
        """Identity shared by every shard of the same campaign."""
        base = self.identity()
        base.pop("shard_index")
        return base

    def shard_units(self) -> List[Tuple[int, FuzzUnit]]:
        """This shard's ``(global unit index, unit)`` slice, in order."""
        return list(enumerate(self.fuzz.units()))[self.shard_index :: self.shards]


@dataclass
class SoakState:
    """Everything one shard has durably accumulated.

    Attributes:
        campaign: The producing :meth:`SoakCampaign.identity` dict.
        units_total: Units in this shard's slice of the stream.
        units_done: Cursor — units verified and persisted so far.
        batches: Per-batch progress rows
            (``{"units": n, "new_features": n}``), in batch order.
        records: Stripped verdict records, each carrying its global
            ``unit_index``; together with the spec names inside, this is
            the campaign's corpus.
        coverage: The shard's coverage map.
        errors: The ``status: "error"`` records of the batch that
            stopped this run; never persisted, since that batch is not
            checkpointed and a resume reruns it.
    """

    campaign: Dict[str, object]
    units_total: int = 0
    units_done: int = 0
    batches: List[Dict[str, int]] = field(default_factory=list)
    records: List[Dict[str, object]] = field(default_factory=list)
    coverage: CoverageMap = field(default_factory=CoverageMap)
    errors: List[Dict[str, object]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.units_done >= self.units_total

    @property
    def failures(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("status") == "counterexample"]

    def new_features_total(self) -> int:
        return sum(int(b.get("new_features", 0)) for b in self.batches)

    def to_dict(self) -> Dict[str, object]:
        """The tagged ``repro-soak/1`` document (validated by ``pack``)."""
        return pack(
            "soak",
            {
                "campaign": dict(self.campaign),
                "units_total": self.units_total,
                "units_done": self.units_done,
                "batches": [dict(b) for b in self.batches],
                "records": [dict(r) for r in self.records],
                "coverage": self.coverage.to_dict(),
            },
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SoakState":
        payload = load_document(data, "soak", source="soak checkpoint")
        return cls(
            campaign=dict(payload.get("campaign") or {}),
            units_total=int(payload.get("units_total", 0)),
            units_done=int(payload.get("units_done", 0)),
            batches=[dict(b) for b in payload.get("batches") or []],
            records=[dict(r) for r in payload.get("records") or []],
            coverage=CoverageMap.from_dict(payload.get("coverage") or {}),
        )

    def corpus_json(self) -> str:
        """Canonical corpus serialisation (byte-identical when equal)."""
        return canonical_json(self.records)


# ---------------------------------------------------------------------------
# Checkpoint IO
# ---------------------------------------------------------------------------


def checkpoint_path(directory: Path, shards: int = 1, shard_index: int = 0) -> Path:
    """The canonical checkpoint file of one shard."""
    return Path(directory) / f"soak-shard{int(shard_index)}of{int(shards)}.json"


def merged_path(directory: Path) -> Path:
    """Where :func:`merge_states` results are conventionally written."""
    return Path(directory) / "soak-merged.json"


def shard_paths(directory: Path) -> List[Path]:
    """Every shard checkpoint present in ``directory``, sorted."""
    return sorted(Path(directory).glob("soak-shard*of*.json"))


def write_state(state: SoakState, path: Path) -> Path:
    """Atomically persist a checkpoint (shared schema-layer writer)."""
    return atomic_write_json(Path(path), state.to_dict())


def load_state(path: Path) -> SoakState:
    with open(path, "r", encoding="utf-8") as handle:
        return SoakState.from_dict(json.load(handle))


def merge_states(states: Sequence[SoakState]) -> SoakState:
    """Combine shard states into the single-shard equivalent.

    Records are re-interleaved by global unit index and coverage maps
    set-union, so merging the complete shards of one campaign yields
    exactly the corpus and coverage a 1-shard run produces.  Per-batch
    progress rows are shard-local wall history, not campaign state, and
    are dropped.
    """
    if not states:
        raise ValueError("nothing to merge: no shard states")
    shards = int(states[0].campaign.get("shards", 1) or 1)
    base = {k: v for k, v in states[0].campaign.items() if k != "shard_index"}
    seen_indices = set()
    for state in states:
        other = {k: v for k, v in state.campaign.items() if k != "shard_index"}
        if other != base:
            raise ValueError(
                "shard checkpoints disagree on campaign identity; "
                "refusing to merge unrelated soak runs"
            )
        seen_indices.add(int(state.campaign.get("shard_index", 0)))
    missing = set(range(shards)) - seen_indices
    if missing:
        raise ValueError(
            f"incomplete shard set: missing shard index(es) {sorted(missing)}"
        )
    merged_campaign = dict(base)
    merged_campaign["shards"] = 1
    merged_campaign["shard_index"] = 0
    merged = SoakState(
        campaign=merged_campaign,
        units_total=sum(s.units_total for s in states),
        units_done=sum(s.units_done for s in states),
        records=sorted(
            (dict(r) for s in states for r in s.records),
            key=lambda r: int(r.get("unit_index", 0)),
        ),
        coverage=CoverageMap.merge_all(s.coverage for s in states),
    )
    return merged


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _stripped(record: Mapping[str, object], unit_index: int) -> Dict[str, object]:
    clean = {
        key: value
        for key, value in record.items()
        if key not in VOLATILE_RECORD_FIELDS
    }
    clean["unit_index"] = int(unit_index)
    return clean


def run_soak(
    campaign: SoakCampaign,
    runner,
    checkpoint_dir: Path,
    max_batches: Optional[int] = None,
) -> SoakState:
    """Run (or resume) one shard of a soak campaign.

    Args:
        campaign: The shard's identity.
        runner: A :class:`repro.eval.runner.Runner` — scheduling, result
            caching and worker processes are its concern; soak adds batching,
            coverage folding and the durable cursor.
        checkpoint_dir: Directory holding the shard checkpoints.
        max_batches: Stop after this many batches *this call* (the
            checkpoint keeps the campaign resumable); ``None`` runs to
            completion.

    Returns:
        The final (possibly still incomplete) :class:`SoakState`.  A
        batch with error records stops the run before it is folded in
        or checkpointed; its errors are on the returned state.
    """
    units = campaign.shard_units()
    path = checkpoint_path(checkpoint_dir, campaign.shards, campaign.shard_index)
    if path.exists():
        state = load_state(path)
        if state.campaign != campaign.identity():
            raise ValueError(
                f"checkpoint {path} belongs to a different campaign; "
                "pick a fresh --checkpoint directory or matching flags"
            )
        runner.emit(ExecEvent(
            kind="note",
            description=(
                f"[soak] resuming shard "
                f"{campaign.shard_index + 1}/{campaign.shards} "
                f"from {path.name}: {state.units_done}/{len(units)} units done"
            ),
        ))
    else:
        state = SoakState(campaign=campaign.identity(), units_total=len(units))

    spec_features: Dict[str, List[str]] = {}
    batches_this_call = 0
    while state.units_done < len(units):
        if max_batches is not None and batches_this_call >= max_batches:
            break
        chunk = units[state.units_done : state.units_done + campaign.batch_size]
        report = runner.campaign(
            campaign.fuzz.batch([unit for _, unit in chunk])
        )
        if report.errors:
            state.errors = report.errors
            break
        new_count = fold_fuzz_units(
            state.coverage, [unit for _, unit in chunk], report.records, spec_features
        )
        for (global_index, _), record in zip(chunk, report.records):
            state.records.append(_stripped(record, global_index))
        state.batches.append({"units": len(chunk), "new_features": new_count})
        state.units_done += len(chunk)
        write_state(state, path)
        batches_this_call += 1
        runner.emit(ExecEvent(
            kind="note",
            description=(
                f"[soak] batch {len(state.batches)}: {len(chunk)} units, "
                f"{new_count} new features "
                f"({state.units_done}/{len(units)} units, "
                f"{len(state.coverage)} features total) -> {path.name}"
            ),
        ))
    return state
