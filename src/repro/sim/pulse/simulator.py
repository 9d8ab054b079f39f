"""Event-driven pulse simulator core.

A :class:`PulseSimulator` owns a set of :class:`PulseElement` instances
connected by named nets and processes pulses in global time order.  Unlike
a physical xSFQ netlist, the simulator allows a net to fan out to several
element inputs (convenient for test benches); synthesised netlists carry
explicit splitters anyway, so simulating them exercises the real structure.

The event loop is the innermost hot path of the verification and fuzzing
campaigns, so the implementation works on integer net ids: every net name
is interned once at construction time, sinks and traces live in flat lists
indexed by net id, and the heap carries ``(time, sequence, net_id)``
tuples.  Trace capture can additionally be restricted to an observed net
subset (:meth:`observe_only`) so batched netlist simulation only pays for
the rails it decodes.  ``repro.sim.pulse.reference`` keeps the original
string-keyed implementation for differential testing.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..._compat import scalar_kernels_forced
from . import soa
from .elements import (
    JtlCell,
    MergerCell,
    PulseElement,
    SourceCell,
    SplitterCell,
)

#: Cell types whose response to a pulse is a fixed fan of delayed output
#: events — the simulator inlines them instead of calling ``on_pulse``.
#: Exact types only: subclasses may override ``on_pulse`` (test probes do).
_STATELESS_TYPES = (SplitterCell, MergerCell, JtlCell)


class SimulationError(Exception):
    """Raised for malformed pulse circuits or stimuli."""


#: Process-wide count of processed pulse events (see :func:`total_events_processed`).
_TOTAL_EVENTS = 0


def total_events_processed() -> int:
    """Cumulative pulse events processed by every simulator in this process.

    The performance harness (:mod:`repro.perf`) snapshots this around a
    workload to derive its events/s domain rate; per-instance counts are
    on :attr:`PulseSimulator.events_processed`.
    """
    return _TOTAL_EVENTS


class PulseSimulator:
    """Discrete-event simulator over pulse elements."""

    def __init__(self) -> None:
        self.elements: List[PulseElement] = []
        #: Cumulative number of events processed by :meth:`run` (a domain
        #: counter for the performance harness; survives :meth:`reset`).
        self.events_processed = 0
        self._net_id: Dict[str, int] = {}
        self._net_names: List[str] = []
        #: Per-net fanout: ``(bound on_pulse, port, 0.0)`` for stateful
        #: sinks, ``(None, output-net-id tuple, delay)`` for inlined
        #: stateless fan cells (splitter / merger / JTL).
        self._sink_table: List[List[Tuple[object, object, float]]] = []
        self._trace_lists: List[List[float]] = []
        self._capture: List[bool] = []
        self._observed: Optional[Set[str]] = None
        self._dangling_ids: Set[int] = set()
        self._queue: List[Tuple[float, int, int]] = []
        self._sequence = 0
        self._pending_sources: List[SourceCell] = []
        #: Time of the last processed event; stimuli may not be injected
        #: behind it (that would break the monotone-trace invariant the
        #: sort-free traces and bisect-based decode windows rely on).
        self._processed_until = float("-inf")
        #: Optional fault model perturbing cell emissions (see
        #: :meth:`set_fault_model`); ``None`` keeps the loop fault-free.
        self._fault_model = None
        #: ``None`` follows the module default (on unless
        #: ``REPRO_SCALAR_KERNELS=1``); ``True``/``False`` force the
        #: struct-of-arrays fast path on or off for this instance.
        self.vectorize: Optional[bool] = None
        #: Number of :meth:`run` calls served by the SoA fast path (the
        #: differential tests assert both engagement and fallback).
        self.vectorized_runs = 0
        #: Compiled feed-forward plan: ``None`` = not compiled for the
        #: current element set, ``False`` = netlist ineligible.
        self._ff_plan = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _intern(self, net: str) -> int:
        nid = self._net_id.get(net)
        if nid is None:
            nid = len(self._net_names)
            self._net_id[net] = nid
            self._net_names.append(net)
            self._sink_table.append([])
            self._trace_lists.append([])
            self._capture.append(self._observed is None or net in self._observed)
        return nid

    def add_element(self, element: PulseElement) -> PulseElement:
        """Register an element and its input connections."""
        self.elements.append(element)
        self._ff_plan = None  # structural change: recompile the SoA plan
        if type(element) in _STATELESS_TYPES:
            # Stateless fan cell: a pulse on any input port becomes one
            # delayed event per output net (all outputs for a splitter,
            # the single output for merger/JTL) — inlined in the loop.
            out_ids = tuple(self._intern(net) for net in element.outputs)
            if type(element) is not SplitterCell:
                out_ids = out_ids[:1]
            sink = (None, out_ids, element.delay)
            for net in element.inputs:
                self._sink_table[self._intern(net)].append(sink)
        else:
            for port, net in enumerate(element.inputs):
                self._sink_table[self._intern(net)].append(
                    (element.on_pulse, port, 0.0)
                )
            for net in element.outputs:
                self._intern(net)
        if isinstance(element, SourceCell):
            self._pending_sources.append(element)
        return element

    def add_elements(self, elements: Iterable[PulseElement]) -> None:
        for element in elements:
            self.add_element(element)

    def observe_only(self, nets: Optional[Iterable[str]]) -> None:
        """Restrict trace capture to ``nets`` (``None`` restores all nets).

        Pulses on unobserved nets still propagate, still count as events
        and still flag dangling nets — they are simply not recorded, which
        is what makes large batched runs cheap when only the primary
        output rails are decoded.
        """
        self._observed = None if nets is None else set(nets)
        if self._observed is None:
            self._capture = [True] * len(self._net_names)
        else:
            observed = self._observed
            self._capture = [name in observed for name in self._net_names]

    def set_fault_model(self, model) -> None:
        """Install (or with ``None`` remove) a fault model on cell emissions.

        Every output event a cell emits — stateful ``on_pulse`` results
        and inlined stateless fans alike — is routed through the model's
        ``emissions`` hook, which may drop it, duplicate it or shift its
        delivery time (clamped to the causing event, preserving the
        monotone-trace invariant).  Externally scheduled stimulus pulses
        are *not* perturbed: stimulus-side faults (clock skew) are
        applied where the stimulus is built.  The model binds to the
        live interned net-name table so its per-net streams are keyed on
        stable names, never ids.  The struct-of-arrays fast path replays
        models that keep the LA/FA pairing without calling the hook per
        emission, drawing the same per-net values (:mod:`.soa`).
        """
        self._fault_model = model
        if model is not None:
            model.bind(self._net_names)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def schedule(self, net: str, time: float) -> None:
        """Schedule an externally driven pulse.

        Raises:
            SimulationError: When ``time`` lies behind an already
                processed event — a resumed run cannot rewrite history,
                and traces must stay monotone.
        """
        if time < self._processed_until:
            raise SimulationError(
                f"cannot schedule a pulse on {net!r} at {time} behind the "
                f"simulated frontier {self._processed_until}; reset() first"
            )
        self._sequence += 1
        heapq.heappush(self._queue, (time, self._sequence, self._intern(net)))

    def run(
        self,
        stimulus: Optional[Mapping[str, Sequence[float]]] = None,
        until: Optional[float] = None,
    ) -> Dict[str, List[float]]:
        """Run the simulation and return the pulse trace of every net.

        Args:
            stimulus: Extra pulses to drive, mapping net name to pulse times.
            until: Stop processing events beyond this time (None = run dry).
                Later events stay pending; a subsequent :meth:`run` resumes
                from them without re-injecting source emissions.

        Returns:
            Mapping from net name to the list of pulse times observed, in
            time order (events pop off the heap monotonically, so no sort
            is needed).  The lists are live internal buffers shared with
            later resumed runs; treat them as read-only.

        Fresh runs of feed-forward netlists are served by the
        struct-of-arrays fast path (:mod:`repro.sim.pulse.soa`) when its
        checks pass, with or without a fault model that keeps the LA/FA
        pairing (emission-inert or jitter-only, see
        :meth:`_vectorize_enabled`); every other run — resumed,
        sequential, dropping/duplicating or logging faults, ineligible —
        takes the scalar event loop below.  Both produce bit-identical
        traces, counters, dangling records and injection counts.
        """
        if self._vectorize_enabled():
            result = self._run_vectorized(stimulus, until)
            if result is not None:
                return result
        if stimulus:
            frontier = self._processed_until
            for net, times in stimulus.items():
                nid = self._intern(net)
                for time in times:
                    if time < frontier:
                        raise SimulationError(
                            f"cannot schedule a pulse on {net!r} at {time} "
                            f"behind the simulated frontier {frontier}; "
                            f"reset() first"
                        )
                    self._sequence += 1
                    heapq.heappush(self._queue, (time, self._sequence, nid))
        if self._pending_sources:
            # Initial emissions are injected exactly once per reset: a
            # resumed run() must not duplicate the pulse trains already
            # consumed (or still pending) from a previous call.
            for element in self._pending_sources:
                for net, time in element.initial_emissions():
                    self.schedule(net, time)
            self._pending_sources.clear()

        queue = self._queue
        net_id = self._net_id
        sink_table = self._sink_table
        trace_lists = self._trace_lists
        capture = self._capture
        dangling = self._dangling_ids
        heappop = heapq.heappop
        heappush = heapq.heappush
        limit = float("inf") if until is None else until
        sequence = self._sequence
        frontier = self._processed_until
        fault = self._fault_model
        processed = 0
        while queue:
            event = heappop(queue)
            time = event[0]
            if time > limit:
                # Keep late events pending rather than silently dropping
                # them: a later run() (or a larger ``until``) observes them.
                heappush(queue, event)
                break
            frontier = time
            nid = event[2]
            processed += 1
            if capture[nid]:
                trace_lists[nid].append(time)
            sinks = sink_table[nid]
            if not sinks:
                # The pulse is still recorded in the trace above; remember
                # the net so verifiers can surface a dangling-net warning.
                dangling.add(nid)
                continue
            if fault is None:
                for on_pulse, payload, delay in sinks:
                    if on_pulse is None:
                        out_time = time + delay
                        for oid in payload:
                            sequence += 1
                            heappush(queue, (out_time, sequence, oid))
                    else:
                        for out_net, out_time in on_pulse(payload, time):
                            sequence += 1
                            heappush(queue, (out_time, sequence, net_id[out_net]))
            else:
                # Fault-injected variant of the branch above: every cell
                # emission is routed through the model, which may drop it,
                # echo it, or shift its delivery (never behind ``time``).
                for on_pulse, payload, delay in sinks:
                    if on_pulse is None:
                        out_time = time + delay
                        for oid in payload:
                            for t in fault.emissions(oid, out_time, time):
                                sequence += 1
                                heappush(queue, (t, sequence, oid))
                    else:
                        for out_net, out_time in on_pulse(payload, time):
                            oid = net_id[out_net]
                            for t in fault.emissions(oid, out_time, time):
                                sequence += 1
                                heappush(queue, (t, sequence, oid))
        self._sequence = sequence
        self._processed_until = frontier
        self.events_processed += processed
        global _TOTAL_EVENTS
        _TOTAL_EVENTS += processed
        return {
            name: times
            for name, times in zip(self._net_names, trace_lists)
            if times
        }

    def _vectorize_enabled(self) -> bool:
        """Whether this :meth:`run` call may try the SoA fast path.

        Only fresh (never-run / freshly reset) states qualify: resumed
        runs carry pending heap events and cell state that only the
        scalar loop models.  An installed fault model must keep the
        LA/FA pairing (:meth:`~repro.faults.FaultModel.keeps_pairing`):
        emission-inert and jitter-only models do; drop, dup and a
        recorded injection log stay on the scalar loop.
        """
        if self.vectorize is not None:
            if not self.vectorize:
                return False
        elif scalar_kernels_forced():
            return False
        fault = self._fault_model
        return (
            (fault is None or fault.keeps_pairing())
            and not self._queue
            and self._processed_until == float("-inf")
        )

    def _run_vectorized(
        self,
        stimulus: Optional[Mapping[str, Sequence[float]]],
        until: Optional[float],
    ) -> Optional[Dict[str, List[float]]]:
        """Try the SoA fast path; commit and return its trace, or ``None``."""
        plan = self._ff_plan
        if plan is None:
            plan = soa.compile_plan(self)
            # Cache ``False`` for ineligible netlists so the (linear)
            # compile is attempted once per structure, not once per run.
            self._ff_plan = plan if plan is not None else False
        if plan is False or plan is None:
            return None
        outcome = soa.run_vectorized(self, plan, stimulus, until, self._fault_model)
        if outcome is None:
            return None
        total, frontier, tolist = outcome.events, outcome.frontier, outcome.tolist
        trace_lists = self._trace_lists
        for nid, pulses in outcome.captured:
            trace_lists[nid].extend(tolist(pulses))
        self._dangling_ids.update(outcome.dangling)
        if outcome.draws:
            self._fault_model.consume_draws(outcome.draws)
        self._pending_sources.clear()
        # The scalar loop bumps ``_sequence`` once per scheduled event;
        # tracking the same count keeps a scalar run resumed *after* a
        # vectorized one ordering ties exactly as an all-scalar history.
        self._sequence += total
        if frontier > self._processed_until:
            self._processed_until = frontier
        self.events_processed += total
        self.vectorized_runs += 1
        global _TOTAL_EVENTS
        _TOTAL_EVENTS += total
        return {
            name: times
            for name, times in zip(self._net_names, trace_lists)
            if times
        }

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def trace(self, net: str) -> List[float]:
        """Pulse times recorded on ``net`` so far (already time-ordered)."""
        nid = self._net_id.get(net)
        if nid is None:
            return []
        return list(self._trace_lists[nid])

    def pulses_in_window(self, net: str, start: float, end: float) -> int:
        """Number of pulses on ``net`` with ``start <= time < end``."""
        nid = self._net_id.get(net)
        if nid is None:
            return 0
        times = self._trace_lists[nid]
        return bisect_left(times, end) - bisect_left(times, start)

    def dangling_nets(self) -> List[str]:
        """Nets that received pulses but have no registered sinks.

        Externally observed nets (primary outputs, probes) legitimately
        appear here; anything else usually indicates a mis-wired netlist.
        """
        return sorted(self._net_names[nid] for nid in self._dangling_ids)

    def has_sinks(self, net: str) -> bool:
        """True when at least one element input listens on ``net``."""
        nid = self._net_id.get(net)
        return nid is not None and bool(self._sink_table[nid])

    def elements_in_initial_state(self) -> bool:
        """True when every element reports its initial state (Table 1 check)."""
        return all(element.is_initial_state() for element in self.elements)

    def reset(self) -> None:
        """Clear traces, pending events, dangling records and element state.

        Also rewinds the event sequence counter (so tie-breaking — and
        therefore traces — are bit-identical across resets) and re-arms
        every :class:`SourceCell`'s initial emissions for the next run.
        Trace buffers are replaced, not cleared in place: trace dicts
        returned by earlier :meth:`run` calls keep their recorded pulses.
        """
        self._trace_lists = [[] for _ in self._trace_lists]
        self._queue.clear()
        self._dangling_ids.clear()
        self._sequence = 0
        self._processed_until = float("-inf")
        self._pending_sources = [
            element for element in self.elements if isinstance(element, SourceCell)
        ]
        if self._fault_model is not None:
            # Rewind the injection streams alongside the sequence counter:
            # each trajectory of a batched run replays identical faults.
            self._fault_model.reset_streams()
        for element in self.elements:
            element.reset()
