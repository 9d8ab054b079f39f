"""Work units: the one currency every executor backend trades in.

A *work unit* is the smallest schedulable piece of a campaign — one
synthesis job, one verification spec, one fault scenario.  The
:class:`WorkUnit` protocol pins down what the execution lifecycle needs
from it:

* ``key()`` — a content-addressed identity used for dedupe and result
  caching (the spec families already provide this, keyed on the schema
  tag + package version + payload).
* ``schema_kind`` — which ``repro.schema`` message type the unit's
  records are packed under ("record", "verify", "fault").
* ``describe()`` — the human-oriented label progress events carry.
* ``run()`` — compute the record.  Units must be **picklable** so the
  persistent-worker backend can ship them to worker
  processes; :class:`SpecUnit` achieves this by holding a module-level
  compute function (pickled by qualified name) next to a frozen spec.

:class:`SpecUnit` adapts both spec families
(:class:`~repro.eval.engine.SynthesisJob` and
:class:`~repro.verify.campaign.VerificationSpec`, which verify, fuzz,
soak and fault units all use) without either learning anything about
execution.  :class:`ProbeUnit` is a deliberately trivial picklable unit
used by the executor tests and the ``exec-overhead-smoke`` benchmark
to measure pure scheduling cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Protocol, runtime_checkable

from ..schema import content_key

__all__ = ["WorkUnit", "SpecUnit", "ProbeUnit", "spec_units"]


@runtime_checkable
class WorkUnit(Protocol):
    """Protocol every executor-schedulable unit satisfies."""

    @property
    def schema_kind(self) -> str:
        """``repro.schema`` message kind the unit's records ride."""

    def key(self) -> str:
        """Content-addressed identity (dedupe + cache addressing)."""

    def describe(self) -> str:
        """Human-oriented label for progress events."""

    def run(self) -> Dict[str, object]:
        """Compute the unit's record (called inside a worker process)."""


@dataclass(frozen=True)
class SpecUnit:
    """Adapter lifting one campaign spec into the :class:`WorkUnit` shape.

    Attributes:
        spec: Any frozen spec exposing ``key()`` and ``schema_kind``
            (``SynthesisJob``, ``VerificationSpec``).
        compute: **Module-level** function ``spec -> record``; pickled by
            qualified name, so lambdas and closures are rejected by the
            worker backend exactly as they would be today.
        description: Pre-rendered progress label (campaign paths decorate
            specs with flow-variant context the spec itself lacks).
    """

    spec: Any
    compute: Callable[[Any], Dict[str, object]]
    description: str = ""

    @property
    def schema_kind(self) -> str:
        return getattr(self.spec, "schema_kind", "record")

    def key(self) -> str:
        return self.spec.key()

    def describe(self) -> str:
        return self.description or str(self.spec)

    def run(self) -> Dict[str, object]:
        return self.compute(self.spec)


def spec_units(specs, compute, describe) -> list:
    """Wrap a spec sequence as :class:`SpecUnit`\\ s in one call.

    Args:
        specs: Iterable of campaign specs.
        compute: Module-level ``spec -> record`` function shared by all.
        describe: ``spec -> str`` labeller (may be a lambda; it runs in
            the parent process only, the description travels as a plain
            string).
    """
    return [SpecUnit(spec=s, compute=compute, description=describe(s)) for s in specs]


def _probe_compute(payload: Dict[str, object]) -> Dict[str, object]:
    """Deterministic toy workload: fold the payload into a checksum.

    The record carries the fields the ``record`` message type requires
    (circuit/scale/flow), so probe results are cacheable like any real
    synthesis record.
    """
    total = 0
    for _ in range(int(payload.get("spin", 0))):
        total = (total * 31 + 7) % 1_000_003
    return {
        "status": "ok",
        "index": payload.get("index"),
        "checksum": total,
        "circuit": f"probe{payload.get('index')}",
        "scale": "quick",
        "flow": [],
    }


@dataclass(frozen=True)
class ProbeUnit:
    """Trivial picklable unit for overhead benchmarks and executor tests.

    ``spin`` busy-loops a deterministic counter so tests can give units
    nonzero (but tiny) cost; the record depends only on the payload, so
    every backend produces identical results.
    """

    index: int
    spin: int = 0
    payload: Dict[str, object] = field(default_factory=dict)

    @property
    def schema_kind(self) -> str:
        return "record"

    def key(self) -> str:
        return content_key(
            {"probe-unit": self.index, "spin": self.spin, "payload": self.payload}
        )

    def describe(self) -> str:
        return f"probe#{self.index}"

    def run(self) -> Dict[str, object]:
        return _probe_compute({"index": self.index, "spin": self.spin, **self.payload})
