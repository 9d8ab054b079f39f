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
    DrocCell,
    FaCell,
    JtlCell,
    LaCell,
    MergerCell,
    PulseElement,
    SourceCell,
    SplitterCell,
)

#: Cell types whose response to a pulse is a fixed fan of delayed output
#: events — the simulator inlines them instead of calling ``on_pulse``.
#: Exact types only: subclasses may override ``on_pulse`` (test probes do).
_STATELESS_TYPES = (SplitterCell, MergerCell, JtlCell)

#: Sink kinds of :attr:`PulseSimulator._sink_table` entries.  The loop
#: runs the state machines of the exact LA, FA and DROC types inline
#: (their state stays on the element, so ``reset`` and
#: ``is_initial_state`` still hold); any other element is called.
_FAN, _LA, _FA, _DROC_DATA, _DROC_CLOCK, _CALL = range(6)
_INLINE_KINDS = {LaCell: _LA, FaCell: _FA}


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
        #: Per-net fanout: ``(kind, cell, port, output-net-id tuple(s),
        #: delay)`` entries.  ``cell`` is the element for the inlined LA /
        #: FA / DROC kinds, ``None`` for stateless fans (splitter /
        #: merger / JTL) and the bound ``on_pulse`` for :data:`_CALL`.
        self._sink_table: List[List[Tuple[int, object, int, object, float]]] = []
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
        #: Kernel runs handed back to the scalar loop, by the reason the
        #: kernel gave (:mod:`.soa`); no fallback goes unrecorded.
        self.kernel_aborts: Dict[str, int] = {}
        #: Compiled feed-forward plan: ``None`` = not compiled for the
        #: current element set, ``False`` = netlist ineligible.
        self._ff_plan = None
        #: Per-seed fault-stream value tables (see :meth:`set_fault_model`).
        self._stream_tables: Dict[int, list] = {}

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
        cell_type = type(element)
        out_ids = tuple(self._intern(net) for net in element.outputs)
        if cell_type in _STATELESS_TYPES:
            # Stateless fan cell: a pulse on any input port becomes one
            # delayed event per output net (all outputs for a splitter,
            # the single output for merger/JTL).
            if cell_type is not SplitterCell:
                out_ids = out_ids[:1]
            sink = (_FAN, None, 0, out_ids, element.delay)
            for net in element.inputs:
                self._sink_table[self._intern(net)].append(sink)
        elif cell_type in _INLINE_KINDS and len(element.inputs) == 2 and out_ids:
            kind = _INLINE_KINDS[cell_type]
            for port, net in enumerate(element.inputs):
                self._sink_table[self._intern(net)].append(
                    (kind, element, port, out_ids[:1], element.delay)
                )
        elif cell_type is DrocCell and len(element.inputs) == 2 and len(out_ids) == 2:
            data, clock = (self._intern(net) for net in element.inputs)
            self._sink_table[data].append((_DROC_DATA, element, 0, (), 0.0))
            self._sink_table[clock].append(
                (_DROC_CLOCK, element, 1, (out_ids[:1], out_ids[1:]), element.delay)
            )
        else:
            for port, net in enumerate(element.inputs):
                self._sink_table[self._intern(net)].append(
                    (_CALL, element.on_pulse, port, (), 0.0)
                )
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
        stable names, never ids, and reads them from this simulator's
        value table for its seed: every model of one seed installed here
        (a fault unit's margin probes) shares the drawn values, and each
        net is seeded once.  The tables live as long as the simulator.
        Emission-inert models run the fault-free loop, and jitter-only
        ones are drawn inline, without calling the hook; the
        struct-of-arrays fast path replays both, drawing the same per-net
        values (:mod:`.soa`).
        """
        self._fault_model = model
        if model is not None:
            model.bind(self._net_names, self._stream_tables.setdefault(model.seed, []))

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
        takes the scalar event loop below.  (Several fresh trajectories
        of a sequential netlist run on the kernel through
        :meth:`run_lanes`.)  Both produce bit-identical traces, counters,
        dangling records and injection counts.

        The loop runs the state machines of the exact LA, FA and DROC
        types inline, with their state on the elements; other cells
        (subclassed test probes, DRO) are called.  An emission-inert
        fault model runs the fault-free branch, a jitter-only one draws
        each offset inline from the model's per-net streams, and drop,
        dup and ``record_log`` models go through
        :meth:`~repro.faults.FaultModel.emissions`.
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
        # Emission modes: 0 fault-free (no model, or an emission-inert
        # one), 1 jitter-only (drawn inline from the model's per-net
        # streams, as ``emissions`` would), 2 the generic hook.
        fault = self._fault_model
        mode = 0
        if fault is not None and fault.perturbs_emissions():
            mode = 1 if fault.keeps_pairing() else 2
        if mode == 1:
            jitter = fault.jitter
            streams, cursors = fault.draw_tables(len(self._net_names))
            new_stream = fault._stream
        jittered = 0
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
            for kind, cell, port, targets, delay in sinks:
                # The state machines of elements.py, inlined: each branch
                # either falls through with the fired ``targets`` or
                # continues with the state updated and nothing emitted.
                if kind == _FAN:
                    pass
                elif kind == _LA:
                    arrived = cell._arrived
                    if arrived[port]:
                        continue  # a repeated pulse is ignored
                    if not arrived[1 - port]:
                        arrived[port] = True
                        continue
                    arrived[1 - port] = False
                elif kind == _FA:
                    if cell._fired:
                        cell._fired = False  # the second arrival is absorbed
                        continue
                    cell._fired = True
                elif kind == _DROC_CLOCK:
                    targets = targets[0] if cell.state else targets[1]
                    cell.state = False
                elif kind == _DROC_DATA:
                    cell.state = True
                    continue
                else:
                    for out_net, out_time in cell(port, time):
                        oid = net_id[out_net]
                        if mode == 0:
                            sequence += 1
                            heappush(queue, (out_time, sequence, oid))
                        else:
                            for t in fault.emissions(oid, out_time, time):
                                sequence += 1
                                heappush(queue, (t, sequence, oid))
                    continue
                out_time = time + delay
                if mode == 0:
                    for oid in targets:
                        sequence += 1
                        heappush(queue, (out_time, sequence, oid))
                elif mode == 1:
                    # ``FaultModel.emissions`` for a jitter-only model.
                    for oid in targets:
                        cursor = cursors[oid]
                        cursors[oid] = cursor + 1
                        stream = streams[oid]
                        if stream is None:
                            stream = new_stream(oid)
                        values = stream.values
                        if cursor >= len(values):
                            values = stream.extend(cursor + 1)
                        t = out_time + (2.0 * values[cursor] - 1.0) * jitter
                        if t < time:
                            t = time
                        jittered += 1
                        sequence += 1
                        heappush(queue, (t, sequence, oid))
                else:
                    # Drop / dup / logging models: the model may swallow
                    # the emission, echo it, or shift its delivery (never
                    # behind ``time``).
                    for oid in targets:
                        for t in fault.emissions(oid, out_time, time):
                            sequence += 1
                            heappush(queue, (t, sequence, oid))
        if jittered:
            fault.totals["jitter"] += jittered
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

    def run_lanes(
        self,
        stimuli: Sequence[Mapping[str, Sequence[float]]],
        until: Optional[float] = None,
        accept=None,
    ) -> Optional[List[Tuple[Dict[str, List[float]], List[str], bool]]]:
        """Run each stimulus as one fresh run, all as lanes of one kernel sweep.

        Lane ``i`` is what :meth:`reset` followed by ``run(stimuli[i],
        until)`` would compute for a sequential netlist
        (:func:`.soa.run_lanes`): the result is one ``(trace, dangling
        nets, elements in initial state)`` triple per lane, bit-equal to
        those scalar runs, and the
        simulator is left as the last of them leaves it — traces,
        dangling record, element states, sequence counter, frontier and
        fault-stream cursors — with every lane's events and injections
        counted.  Returns ``None``, with nothing moved and the reason
        counted in :attr:`kernel_aborts`, when the netlist or a fault
        model is not kernel-eligible or any lane fails a kernel check;
        the caller then runs the trajectories on the scalar loop.
        ``accept(lanes)`` may veto the result before anything is
        committed (a verifier that finds a miscompare re-derives it on
        the scalar loop); a veto also returns ``None``.
        """
        if not stimuli or not self._kernel_allowed():
            return None
        plan = self._compiled_plan()
        try:
            if plan is False or not plan.sequential:
                raise soa._Fallback("no sequential plan")
            outcome = soa.run_lanes(self, plan, stimuli, until, self._fault_model)
        except soa._Fallback as abort:
            self._record_abort(abort)
            return None
        names = self._net_names
        lanes = [
            (
                {names[nid]: pulses for nid, pulses in traces.items()},
                sorted(names[nid] for nid in dangling),
                reinitialised,
            )
            for traces, dangling, reinitialised in zip(
                outcome.traces, outcome.dangling, outcome.reinitialised
            )
        ]
        if accept is not None and not accept(lanes):
            return None
        self.reset()
        last = len(stimuli) - 1
        trace_lists = self._trace_lists
        for nid, pulses in outcome.traces[last].items():
            trace_lists[nid].extend(pulses)
        self._dangling_ids.update(outcome.dangling[last])
        self._pending_sources.clear()
        for cell, state in outcome.states:
            if type(cell) is LaCell:
                cell._arrived = state
            elif type(cell) is FaCell:
                cell._fired = state
            else:
                cell.state = state
        self._sequence = outcome.events[last]
        self._processed_until = outcome.frontier
        fault = self._fault_model
        if fault is not None and outcome.draws:
            fault.consume_draws(outcome.draws, sum(outcome.injections))
        total = sum(outcome.events)
        self.events_processed += total
        self.vectorized_runs += len(stimuli)
        global _TOTAL_EVENTS
        _TOTAL_EVENTS += total
        return lanes

    def _kernel_allowed(self) -> bool:
        """The :attr:`vectorize` switch and the fault-model check of both kernels."""
        if self.vectorize is not None:
            if not self.vectorize:
                return False
        elif scalar_kernels_forced():
            return False
        fault = self._fault_model
        return fault is None or fault.keeps_pairing()

    def _compiled_plan(self):
        """The cached :class:`.soa.FeedForwardPlan`, or ``False`` if ineligible."""
        plan = self._ff_plan
        if plan is None:
            plan = soa.compile_plan(self)
            # Cache ``False`` for ineligible netlists so the (linear)
            # compile is attempted once per structure, not once per run.
            self._ff_plan = plan = plan if plan is not None else False
        return plan

    def _vectorize_enabled(self) -> bool:
        """Whether this :meth:`run` call may try the SoA fast path.

        Only fresh (never-run / freshly reset) states qualify: resumed
        runs carry pending heap events and cell state that only the
        scalar loop models.  An installed fault model must keep the
        LA/FA pairing (:meth:`~repro.faults.FaultModel.keeps_pairing`):
        emission-inert and jitter-only models do; drop, dup and a
        recorded injection log stay on the scalar loop.
        """
        return (
            self._kernel_allowed()
            and not self._queue
            and self._processed_until == float("-inf")
        )

    def _run_vectorized(
        self,
        stimulus: Optional[Mapping[str, Sequence[float]]],
        until: Optional[float],
    ) -> Optional[Dict[str, List[float]]]:
        """Try the SoA fast path; commit and return its trace, or ``None``."""
        plan = self._compiled_plan()
        if plan is False or plan.sequential:
            return None  # sequential trajectories run as lanes (run_lanes)
        try:
            outcome = soa.run_vectorized(self, plan, stimulus, until, self._fault_model)
        except soa._Fallback as abort:
            self._record_abort(abort)
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

    def _record_abort(self, abort: Exception) -> None:
        reason = abort.args[0] if abort.args else "kernel abort"
        self.kernel_aborts[reason] = self.kernel_aborts.get(reason, 0) + 1

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
