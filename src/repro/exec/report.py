"""The report frame every campaign shares: run, verify, fuzz and faults.

:class:`CampaignReport` holds a campaign's records and run statistics,
applies the verdict rules (an errored unit is never a pass), and writes
the saved document.  The experiment, verification, fuzz and fault
reports subclass it.  It imports no synthesis or simulation, so
``repro run`` reports a figure without loading the verification stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Mapping, Set, Tuple

from ..schema import atomic_write_json

__all__ = ["CampaignReport", "error_detail"]


def error_detail(record: Mapping[str, object]) -> str:
    """``type: message`` of a ``status: "error"`` record (table detail cell)."""
    error = record.get("error") or {}
    return f"{error.get('type', 'Error')}: {error.get('message', '')}"


@dataclass
class CampaignReport:
    """Everything one run, verify, fuzz or faults campaign produced.

    The base of :class:`~repro.eval.runner.ExperimentReport`,
    :class:`~repro.verify.campaign.VerificationReport`,
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
        fresh: Keys of the records computed this run (cache replays and
            errored units are absent); not part of the saved document.
    """

    campaign: Any
    records: List[Dict[str, object]] = field(default_factory=list)
    jobs: int = 1
    computed: int = 0
    cached: int = 0
    elapsed_s: float = 0.0
    fresh: Set[str] = field(default_factory=set, repr=False)

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

    def save(self, path: Path) -> List[Path]:
        """Write the saved document to ``path``; returns every file written."""
        return [atomic_write_json(path, self.to_dict())]
