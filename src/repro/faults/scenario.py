"""Fault scenarios as first-class, self-describing names.

A :class:`FaultScenario` is the reproducible identity of one injected
fault configuration, mirroring :class:`repro.gen.spec.GenSpec` for
generated circuits.  Its canonical :meth:`~FaultScenario.name` encodes
the full identity in a single parseable token::

    fault:jitter:mag=2.0:s0
    fault:drop:rate=0.01:s7

so a scenario printed anywhere (a campaign table, a CI log) replays
anywhere: :func:`parse_fault_name` rebuilds the exact
:class:`~repro.faults.models.FaultModel`, and the name is part of the
content-addressed cache key of every fault unit's
:class:`~repro.verify.campaign.VerificationSpec`.

Each *kind* perturbs one aspect of the pulse protocol and owns exactly
one parameter — a probability (``rate``) for the discrete aspects, a
magnitude in picoseconds (``mag``) for the timing aspects — which is
what the margin search (:mod:`repro.faults.margin`) sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .models import FaultModel

__all__ = [
    "FAULT_KINDS",
    "FAULT_PREFIX",
    "FaultKind",
    "FaultScenario",
    "default_scenario",
    "fault_kind",
    "fault_kind_names",
    "is_fault_name",
    "parse_fault_name",
]

#: Canonical name prefix of fault scenarios.
FAULT_PREFIX = "fault:"


@dataclass(frozen=True)
class FaultKind:
    """Registry row describing one injectable fault aspect.

    Attributes:
        name: The kind key (``drop`` / ``dup`` / ``jitter`` / ``skew``).
        param: The single swept parameter (``rate`` or ``mag``).
        default: Parameter value used when the caller does not choose.
        unit: Human unit of the parameter (``"ps"`` or ``""``).
        rate_like: True when the parameter is a probability in [0, 1]
            (its margin-search cap); timing magnitudes are capped at
            half the circuit's synchronous phase period instead.
        description: One-line human explanation.
    """

    name: str
    param: str
    default: float
    unit: str
    rate_like: bool
    description: str


FAULT_KINDS: Dict[str, FaultKind] = {
    "drop": FaultKind(
        "drop", "rate", 0.01, "", True,
        "swallow each cell emission with per-net probability <rate>",
    ),
    "dup": FaultKind(
        "dup", "rate", 0.01, "", True,
        "echo each cell emission 2 ps later with probability <rate>",
    ),
    "jitter": FaultKind(
        "jitter", "mag", 2.0, "ps", False,
        "uniform delay offset in [-mag, +mag] ps on every cell emission",
    ),
    "skew": FaultKind(
        "skew", "mag", 5.0, "ps", False,
        "shift every relax-phase stimulus/clock event by +mag ps",
    ),
}


def fault_kind_names() -> List[str]:
    return sorted(FAULT_KINDS)


def fault_kind(name: str) -> FaultKind:
    info = FAULT_KINDS.get(name)
    if info is None:
        raise ValueError(
            f"unknown fault kind {name!r}; known: {', '.join(fault_kind_names())}"
        )
    return info


@dataclass(frozen=True)
class FaultScenario:
    """The reproducible identity of one fault configuration.

    Attributes:
        kind: Key into :data:`FAULT_KINDS`.
        params: Sorted ``(key, value)`` pairs — always the kind's full
            (single-entry) parameter namespace, values stored as floats
            so equal scenarios are equal dataclasses.
        seed: Seed of every per-net injection stream.
    """

    kind: str
    params: Tuple[Tuple[str, float], ...] = ()
    seed: int = 0

    @classmethod
    def create(cls, kind: str, seed: int = 0, **params: float) -> "FaultScenario":
        """Build a scenario, validating parameters against the kind."""
        info = fault_kind(kind)
        values: Dict[str, float] = {info.param: float(info.default)}
        unknown = set(params) - set(values)
        if unknown:
            raise ValueError(
                f"fault kind {kind!r} has no parameter(s) {sorted(unknown)}; "
                f"valid: {sorted(values)}"
            )
        for key, value in params.items():
            values[key] = float(value)
        magnitude = values[info.param]
        if not (math.isfinite(magnitude) and magnitude >= 0.0) or (
            info.rate_like and magnitude > 1.0
        ):
            bound = "[0, 1]" if info.rate_like else "finite and >= 0"
            raise ValueError(
                f"fault {kind!r} parameter {info.param!r} must be {bound}, "
                f"got {magnitude!r}"
            )
        return cls(kind=kind, params=tuple(sorted(values.items())), seed=int(seed))

    def info(self) -> FaultKind:
        return fault_kind(self.kind)

    @property
    def magnitude(self) -> float:
        """The swept parameter's value (rate or picosecond magnitude)."""
        return dict(self.params)[self.info().param]

    def with_magnitude(self, magnitude: float) -> "FaultScenario":
        """The same scenario at a different rate/magnitude (margin probes)."""
        return FaultScenario.create(
            self.kind, seed=self.seed, **{self.info().param: float(magnitude)}
        )

    def name(self) -> str:
        """Canonical self-describing scenario name (see module docstring).

        Floats render via ``repr`` — the shortest round-tripping form —
        so the name is byte-stable across platforms and processes.
        """
        rendered = ",".join(f"{key}={value!r}" for key, value in self.params)
        return f"{FAULT_PREFIX}{self.kind}:{rendered}:s{self.seed}"

    def model(self, record_log: bool = False) -> FaultModel:
        """Instantiate the :class:`FaultModel` this scenario describes."""
        magnitude = self.magnitude
        kwargs: Dict[str, float] = {
            "drop": {"drop_rate": magnitude},
            "dup": {"dup_rate": magnitude},
            "jitter": {"jitter": magnitude},
            "skew": {"skew": magnitude},
        }[self.kind]
        return FaultModel(seed=self.seed, record_log=record_log, **kwargs)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "params": dict(self.params), "seed": self.seed}


def default_scenario(
    kind: str, seed: int = 0, magnitude: Optional[float] = None
) -> FaultScenario:
    """The kind's scenario at its default (or an overridden) magnitude."""
    info = fault_kind(kind)
    value = info.default if magnitude is None else float(magnitude)
    return FaultScenario.create(kind, seed=seed, **{info.param: value})


def is_fault_name(name: str) -> bool:
    """True when ``name`` uses the fault-scenario grammar."""
    return name.startswith(FAULT_PREFIX)


def parse_fault_name(name: str) -> FaultScenario:
    """Parse a canonical ``fault:<kind>:<k=v,...>:s<seed>`` name back."""
    if not is_fault_name(name):
        raise ValueError(f"{name!r} is not a fault-scenario name ({FAULT_PREFIX}...)")
    parts = name.split(":")
    if len(parts) != 4 or not parts[3].startswith("s"):
        raise ValueError(
            f"malformed fault-scenario name {name!r}; "
            "expected fault:<kind>:<k=v,...>:s<seed>"
        )
    _, kind, rendered, seed_token = parts
    params: Dict[str, float] = {}
    for pair in filter(None, rendered.split(",")):
        key, _, value = pair.partition("=")
        if not key or not value:
            raise ValueError(f"malformed parameter {pair!r} in {name!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise ValueError(f"malformed parameter {pair!r} in {name!r}") from None
    try:
        seed = int(seed_token[1:])
    except ValueError:
        raise ValueError(f"malformed seed token {seed_token!r} in {name!r}") from None
    return FaultScenario.create(kind, seed=seed, **params)
