"""Deterministic, seeded pulse-level fault models.

A :class:`FaultModel` perturbs the emissions of the event-driven pulse
simulator (:class:`repro.sim.pulse.PulseSimulator`): each time a cell
emits an output pulse, the installed model decides — per output net —
whether the pulse is dropped, duplicated, and/or shifted by a bounded
uniform delay offset.  A fourth aspect, clock ``skew``, is not applied
here at all: it shifts the *stimulus* (relax-phase input waves and
relax-phase clock pulses) and is consumed by
:class:`repro.sim.pulse.BatchedNetlistSimulator` when it builds the
drive schedule.

Determinism contract (the whole point of the subsystem):

* every net owns an independent ``random.Random`` stream seeded from
  ``sha256(f"{seed}|{net_name}")`` — a pure function of the model seed
  and the net *name*, never of Python's per-process string hash, so two
  processes with different ``PYTHONHASHSEED`` values draw identical
  fault streams;
* streams advance one draw per *active* aspect per emission, in the
  fixed order drop → jitter → dup, so adding an aspect never reshuffles
  another aspect's draws;
* each stream is seeded once per model and keeps every value it has
  drawn behind a cursor; :meth:`reset_streams` rewinds the cursors (the
  pulse simulator calls it from
  :meth:`~repro.sim.pulse.PulseSimulator.reset`), mirroring the
  simulator's own sequence-counter rewind: each sequential trajectory
  replays bit-identical injections without re-seeding anything;
* the per-net pulse kernel (:mod:`repro.sim.pulse.soa`) takes a net's
  next *n* jitter draws in one block (:meth:`FaultModel.peek_draws` /
  :meth:`FaultModel.consume_draws`), so a scalar run resumed after a
  kernel run continues exactly where the scalar loop would have been;
* a model that perturbs no emission (zero drop, dup and jitter; skew
  only moves the stimulus) builds no stream, draws nothing and returns
  each emission time unchanged, so traces are byte-identical to a
  fault-free run even though the injection code path executes (see
  ``tests/faults``).

Jittered times are clamped to the causing event's time: an effect
scheduled *behind* its cause would break the monotone-trace invariant
the simulator's sort-free traces and bisect decode windows rely on.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["DUP_SPACING", "FaultModel", "stream_seed"]

#: Delay (ps) between a pulse and its duplicated echo.  Short enough to
#: land in the same synchronous phase, long enough to be a distinct event.
DUP_SPACING = 2.0


class _NetStream:
    """One net's seeded draw sequence, replayable from a cursor."""

    __slots__ = ("_rng", "values", "cursor")

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        #: Every value drawn so far, in draw order.
        self.values: List[float] = []
        #: Index of the next value to hand out.
        self.cursor = 0

    def draw(self) -> float:
        cursor = self.cursor
        self.cursor = cursor + 1
        values = self.values
        if cursor == len(values):
            values.append(self._rng.random())
        return values[cursor]

    def peek(self, count: int) -> List[float]:
        """The next ``count`` values, drawn as needed, cursor unmoved."""
        end = self.cursor + count
        values = self.values
        if len(values) < end:
            rand = self._rng.random
            values.extend([rand() for _ in range(end - len(values))])
        return values[self.cursor:end]


def stream_seed(seed: int, net: str) -> int:
    """PYTHONHASHSEED-stable RNG seed for one net's fault stream."""
    token = f"{int(seed)}|{net}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(token).digest()[:8], "big")


class FaultModel:
    """Seeded perturbation of cell emissions (drop / dup / jitter / skew).

    Attributes:
        drop_rate: Per-emission probability of swallowing the pulse.
        dup_rate: Per-emission probability of an extra echo pulse
            :data:`DUP_SPACING` later.
        jitter: Half-width (ps) of the uniform delay offset added to
            every emission (``0.0`` disables the draw entirely).
        skew: Shift (ps) applied to relax-phase stimulus and clock
            events by :class:`~repro.sim.pulse.BatchedNetlistSimulator`
            (inert inside :meth:`emissions`).
        seed: Master seed deriving every per-net stream.
        totals: Cumulative injection counts per aspect.  Survive
            :meth:`reset_streams`, so a multi-trajectory verification
            reports the whole run's injections.
    """

    def __init__(
        self,
        drop_rate: float = 0.0,
        dup_rate: float = 0.0,
        jitter: float = 0.0,
        skew: float = 0.0,
        seed: int = 0,
        record_log: bool = False,
    ) -> None:
        for name, value, upper in (
            ("drop_rate", drop_rate, 1.0),
            ("dup_rate", dup_rate, 1.0),
            ("jitter", jitter, None),
            ("skew", skew, None),
        ):
            if value < 0.0 or (upper is not None and value > upper):
                bound = f"[0, {upper}]" if upper is not None else ">= 0"
                raise ValueError(f"{name} must be {bound}, got {value!r}")
        self.drop_rate = float(drop_rate)
        self.dup_rate = float(dup_rate)
        self.jitter = float(jitter)
        self.skew = float(skew)
        self.seed = int(seed)
        self.totals: Dict[str, int] = {"drop": 0, "dup": 0, "jitter": 0}
        self._log: Optional[List[Tuple[str, str, float]]] = [] if record_log else None
        #: Live reference to the simulator's interned net-name list
        #: (grown by the simulator as nets appear); bound lazily.
        self._net_names: Sequence[str] = ()
        self._streams: List[Optional[_NetStream]] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, net_names: Sequence[str]) -> None:
        """Attach to a simulator's (live) net-id -> name table."""
        self._net_names = net_names
        self._streams = []

    def reset_streams(self) -> None:
        """Rewind every per-net stream (totals and the log persist).

        Called by :meth:`repro.sim.pulse.PulseSimulator.reset` so each
        trajectory of a batched sequential run replays the exact same
        injections — the analogue of the simulator rewinding its event
        sequence counter.  Drawn values are kept, so a replay re-reads
        them instead of re-seeding the stream.
        """
        for stream in self._streams:
            if stream is not None:
                stream.cursor = 0

    def is_noop(self) -> bool:
        """True when no aspect can perturb anything."""
        return not (self.drop_rate or self.dup_rate or self.jitter or self.skew)

    def keeps_pairing(self) -> bool:
        """True when the per-net pulse kernel can replay this model exactly.

        That holds for emission-inert and jitter-only models: no
        emission is dropped or echoed, so LA/FA inputs keep their
        equal-count pairing.  A recorded log stays on the scalar loop,
        which writes it in global chronological order.
        """
        return not (self.drop_rate or self.dup_rate) and self._log is None

    def clone(self) -> "FaultModel":
        """A fresh, unbound model with the same parameters.

        Divergence localisation re-simulates a whole failing batch on a
        clone so the replay draws the exact stream the original run drew.
        """
        return FaultModel(
            drop_rate=self.drop_rate,
            dup_rate=self.dup_rate,
            jitter=self.jitter,
            skew=self.skew,
            seed=self.seed,
            record_log=self._log is not None,
        )

    def params(self) -> Dict[str, float]:
        return {
            "drop_rate": self.drop_rate,
            "dup_rate": self.dup_rate,
            "jitter": self.jitter,
            "skew": self.skew,
        }

    # ------------------------------------------------------------------
    # Injection (simulator hot path)
    # ------------------------------------------------------------------
    def _stream(self, nid: int) -> _NetStream:
        streams = self._streams
        if len(streams) <= nid:
            streams.extend([None] * (nid + 1 - len(streams)))
        stream = streams[nid]
        if stream is None:
            stream = streams[nid] = _NetStream(stream_seed(self.seed, self._net_names[nid]))
        return stream

    def emissions(self, nid: int, time: float, now: float) -> Tuple[float, ...]:
        """Perturbed delivery times for one cell emission.

        Args:
            nid: Interned id of the net the pulse is emitted onto.
            time: Nominal emission time.
            now: Time of the causing event; perturbed times are clamped
                to it so effects never precede their cause.

        Returns:
            Zero (dropped), one, or two (duplicated) delivery times.
        """
        if not (self.drop_rate or self.dup_rate or self.jitter):
            return (time,)
        streams = self._streams
        stream = streams[nid] if nid < len(streams) else None
        if stream is None:
            stream = self._stream(nid)
        if self.drop_rate and stream.draw() < self.drop_rate:
            self.totals["drop"] += 1
            if self._log is not None:
                self._log.append(("drop", self._net_names[nid], time))
            return ()
        out = time
        if self.jitter:
            out = time + (2.0 * stream.draw() - 1.0) * self.jitter
            if out < now:
                out = now
            self.totals["jitter"] += 1
            if self._log is not None:
                self._log.append(("jitter", self._net_names[nid], out))
        if self.dup_rate and stream.draw() < self.dup_rate:
            self.totals["dup"] += 1
            echo = out + DUP_SPACING
            if self._log is not None:
                self._log.append(("dup", self._net_names[nid], echo))
            return (out, echo)
        return (out,)

    def peek_draws(self, nid: int, count: int) -> List[float]:
        """Net ``nid``'s next ``count`` draws, without consuming them.

        The per-net kernel reads these for a jitter-only model; it calls
        :meth:`consume_draws` only once the whole run has succeeded, so
        an aborted kernel run leaves every stream where it was.
        """
        return self._stream(nid).peek(count)

    def consume_draws(self, counts: Mapping[int, int]) -> None:
        """Advance each net's cursor past the draws the kernel used.

        ``counts`` maps net id to the number of jittered emissions; each
        is one injection, as in :meth:`emissions`.
        """
        streams = self._streams
        for nid, count in counts.items():
            streams[nid].cursor += count
            self.totals["jitter"] += count

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def injection_counts(self) -> Dict[str, int]:
        """Copy of the cumulative per-aspect injection counters."""
        return dict(self.totals)

    def injection_log(self) -> List[Tuple[str, str, float]]:
        """Chronological ``(aspect, net, time)`` log (``record_log`` only)."""
        if self._log is None:
            raise ValueError("injection log disabled; build with record_log=True")
        return list(self._log)
