"""Struct-of-arrays fast path for feed-forward pulse netlists.

The scalar event loop in :mod:`repro.sim.pulse.simulator` pays Python-level
heap traffic for every pulse.  Synthesised combinational xSFQ netlists do
not need any of that machinery: they are acyclic, every cell is one of
LA / FA / splitter / merger / JTL, and under the alternating dual-rail
protocol each cell's pulse stream can be computed *per net* as a sorted
array of times:

* **LA** (C element) pairs the i-th pulse of each input and fires at
  ``max(a_i, b_i) + delay``;
* **FA** (inverse C element) fires at ``min(a_i, b_i) + delay`` and
  absorbs the other pulse of the pair;
* **splitter / JTL** delay-shift their input onto each output;
* **merger** contributes a delay-shifted copy of each input to its output
  (net finalisation sorts the merged contributions).

The pairing for LA/FA is only valid when consecutive pulse pairs do not
interleave (``max(pair i) < min(pair i+1)``) and both inputs carry the
same number of pulses — exactly the protocol the batched stimulus
generators produce.  Whenever any check fails — cycles, unknown or
subclassed cell types, interleaved pairs, events beyond ``until``,
non-float stimulus times — the fast path aborts *without having mutated
any simulator or fault-stream state*, the simulator counts the reason
(:attr:`~repro.sim.pulse.PulseSimulator.kernel_aborts`) and the caller
falls back to the scalar event loop, which remains the semantics oracle.

Sequential netlists run as *lanes* (:func:`run_lanes`): several
independent trajectories of one netlist in one sweep.  The same plan,
compiled with DROC ops, is cut at every preloaded DROC, which makes it a
DAG; the DROC clock cone (clock and trigger through the merger) is the
same in every lane and runs once through :func:`_evaluate` on whole
trains, and the data path is swept once per pulse index with one value
per lane, the DROCs resolving their clocks in time order.  A single
resumable :meth:`~repro.sim.pulse.PulseSimulator.run` of a sequential
netlist stays on the scalar loop.

Fault models that keep the pairing run here too
(:meth:`repro.faults.FaultModel.keeps_pairing`): emission-inert models
(zero magnitude, or ``skew``, which only moves the stimulus) are
fault-free as far as emissions go, and a jitter-only model is replayed
exactly.  The scalar loop draws a net's offsets in the order the causing
events are processed, i.e. in cause-time order, from that net's own
stream; so for every cell-driven net the kernel sorts the cause times,
takes the same number of draws from the stream in one block, computes
``(now + delay) + (2r - 1) * jitter`` clamped to ``now`` in the scalar
operation order, and sorts the result.  Emissions with equal cause time
and equal delay are interchangeable, so the multiset matches; a net
whose emissions carry different delays aborts.  Drop and dup break the
equal-count pairing and stay scalar, as does a recorded injection log.

The kernel is written once over a handful of array primitives (shift,
pairwise max/min with the interleave check, merge-sort, jitter) with two
forms: sorted Python float lists, and numpy float64 arrays.  A batch
whose longest stimulus train reaches :data:`NUMPY_MIN_TRAIN` pulses uses
numpy; shorter batches use lists, so fault, fuzz, exhaustive and
256-pattern verify batches never import numpy (importing it costs
13.6 MB of resident memory and 0.07-0.18 s).

The working set is bounded by the DAG's live cut, not its net count.
The plan records, for each op, the input nets whose last consumer it
is; right after that op, each such net retires: its pulses are counted,
the frontier rises to its last pulse, it is noted as dangling if it has
no sinks, and its train is kept only if its trace is captured (the
primary-output rails under ``observe_only``).  Nets no op consumes
retire at the end of the run.

The differential suites in ``tests/sim/test_kernel_differential.py`` pin
traces, event counts, dangling-net records, injection counts and decode
results bit-equal to the scalar core and to ``ReferencePulseSimulator``,
for combinational batches and for lanes.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from operator import le, lt
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..._compat import load_numpy
from .elements import (
    DrocCell,
    FaCell,
    JtlCell,
    LaCell,
    MergerCell,
    SourceCell,
    SplitterCell,
)

#: Op kinds of the compiled plan.
_OP_LA = 0
_OP_FA = 1
_OP_FAN = 2  # delay-shift one input onto one or more outputs
#: DROC ops (sequential plans only; ``ins`` is ``(data, clock)``).  A
#: plain DROC latches its data and emits in dataflow order; a preloaded
#: one is split into an emit op (a source) and a latch op (a sink), which
#: is what cuts every feedback loop (see :func:`run_lanes`).
_OP_DROC = 3
_OP_EMIT = 4
_OP_LATCH = 5

#: Cell types the fast path understands.  Exact types only: subclasses
#: (test probes) may override ``on_pulse`` and must run scalar.
_PAIRED_TYPES = {LaCell: _OP_LA, FaCell: _OP_FA}
_FAN_TYPES = (SplitterCell, MergerCell, JtlCell)

#: Batches whose longest stimulus train holds at least this many pulses
#: run on numpy arrays, shorter ones on Python lists.  Numpy saves up
#: to ~17 ms per 256-pulse run, but importing it costs 0.07-0.18 s and
#: 13.6 MB of resident memory, and a verify command runs one
#: combinational batch per circuit.  So the 64-pattern fault and fuzz
#: batches and the 256-pattern verify batches stay on lists, and the
#: 512- and 1024-pattern kernel benchmarks run on numpy.
NUMPY_MIN_TRAIN = 512


#: One compiled op: ``(kind, input net ids, output net ids, delay,
#: released net ids, cell)``.  The released nets are the inputs whose
#: last consumer this op is; ``cell`` is the element (DROC ops read
#: and commit its state).
_Op = Tuple[int, Tuple[int, ...], Tuple[int, ...], float, Tuple[int, ...], object]


class FeedForwardPlan:
    """Topologically ordered vector ops compiled from a pulse netlist.

    ``ops`` covers the whole netlist.  A sequential plan (one with DROC
    ops) also splits it for :func:`run_lanes`: ``clock_ops`` is the
    cone of the DROC clock inputs, evaluated once per run on whole
    trains, and ``step_ops`` the DROC-cut data path, swept once per
    pulse index; each part carries its own release schedule.
    """

    __slots__ = ("ops", "sequential", "clock_ops", "step_ops", "clock_nets", "driven")

    def __init__(self, ops: Sequence[_Op], sequential: bool = False) -> None:
        #: :data:`_Op` tuples in dataflow order.
        self.ops = list(ops)
        self.sequential = sequential
        self.clock_ops: List[_Op] = []
        self.step_ops: List[_Op] = []
        #: Net ids on DROC clock inputs.
        self.clock_nets: Tuple[int, ...] = ()
        #: Net ids some op drives.
        self.driven = frozenset(out for op in self.ops for out in op[2])


def _released(ops: Sequence[Tuple]) -> List[_Op]:
    """``ops`` with each op's release list: the inputs it consumes last."""
    last_use: Dict[int, int] = {}
    for position, op in enumerate(ops):
        for net in op[1]:
            last_use[net] = position
    released: List[List[int]] = [[] for _ in ops]
    for net, position in last_use.items():
        released[position].append(net)
    return [
        (kind, ins, outs, delay, tuple(released[position]), cell)
        for position, (kind, ins, outs, delay, cell) in enumerate(ops)
    ]


def compile_plan(sim) -> Optional[FeedForwardPlan]:
    """Compile ``sim``'s element graph into a :class:`FeedForwardPlan`.

    Returns ``None`` when the netlist is ineligible: any element outside
    the supported exact types, an LA/FA without exactly two inputs, a
    DROC without exactly two inputs and two outputs, or a cycle that no
    preloaded DROC cuts.  Compiling imports nothing: the array form is
    picked per run (:data:`NUMPY_MIN_TRAIN`).
    """
    net_id = sim._net_id
    ops: List[Tuple[int, Tuple[int, ...], Tuple[int, ...], float, object]] = []
    sources = False
    for element in sim.elements:
        cell_type = type(element)
        if cell_type is SourceCell:
            # Sources carry no dataflow deps; their emissions enter as
            # stimulus-like contributions at run time.
            sources = True
            continue
        kind = _PAIRED_TYPES.get(cell_type)
        if kind is not None:
            if len(element.inputs) != 2 or not element.outputs:
                return None
            ins = (net_id[element.inputs[0]], net_id[element.inputs[1]])
            ops.append((kind, ins, (net_id[element.outputs[0]],), element.delay, element))
        elif cell_type in _FAN_TYPES:
            outs = tuple(net_id[net] for net in element.outputs)
            if cell_type is not SplitterCell:
                outs = outs[:1]
            if not outs:
                return None
            # Each input contributes an independent delay-fan; merger
            # confluence happens when the output net is finalised.
            for net in element.inputs:
                ops.append((_OP_FAN, (net_id[net],), outs, element.delay, element))
        elif cell_type is DrocCell:
            if len(element.inputs) != 2 or len(element.outputs) != 2:
                return None
            ins = (net_id[element.inputs[0]], net_id[element.inputs[1]])
            outs = (net_id[element.outputs[0]], net_id[element.outputs[1]])
            if element._preload:
                ops.append((_OP_EMIT, ins[1:], outs, element.delay, element))
                ops.append((_OP_LATCH, ins[:1], (), element.delay, element))
            else:
                ops.append((_OP_DROC, ins, outs, element.delay, element))
        else:
            return None

    # Kahn topological sort over net producers.  ``indegree[i]`` counts,
    # with multiplicity, the producer ops feeding op i's input nets.
    producers: Dict[int, List[int]] = {}
    for index, op in enumerate(ops):
        for out in op[2]:
            producers.setdefault(out, []).append(index)
    consumers: Dict[int, List[int]] = {}
    indegree = [0] * len(ops)
    for index, op in enumerate(ops):
        for net in op[1]:
            indegree[index] += len(producers.get(net, ()))
            consumers.setdefault(net, []).append(index)
    ready = [index for index, degree in enumerate(indegree) if degree == 0]
    order: List[int] = []
    while ready:
        index = ready.pop()
        order.append(index)
        for out in ops[index][2]:
            for consumer in consumers.get(out, ()):
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
    if len(order) != len(ops):
        return None  # a cycle no preloaded DROC cuts: scalar loop handles it
    ordered = [ops[index] for index in order]
    if sources and any(op[0] >= _OP_DROC for op in ordered):
        return None  # source cells are combinational-batch stimulus only
    plan = FeedForwardPlan(
        _released(ordered), sequential=any(op[0] >= _OP_DROC for op in ordered)
    )
    if plan.sequential:
        _split_sequential(plan, ordered, producers, ops)
    return plan


def _split_sequential(plan: FeedForwardPlan, ordered, producers, ops) -> None:
    """Split a sequential plan into its clock cone and its stepped data path.

    Leaves both parts empty (so :func:`run_lanes` aborts) when the cone
    is not a pure fan network feeding only DROC clocks, or when a data
    net has more than one producer (a merger), which the stepped sweep
    cannot hold.
    """
    clock_nets = {op[1][-1] for op in ordered if op[0] in (_OP_DROC, _OP_EMIT)}
    cone = set(clock_nets)
    stack = list(clock_nets)
    while stack:
        for index in producers.get(stack.pop(), ()):
            for net in ops[index][1]:
                if net not in cone:
                    cone.add(net)
                    stack.append(net)
    clock_ops, step_ops = [], []
    for op in ordered:
        if op[0] in (_OP_EMIT, _OP_LATCH, _OP_DROC):
            step_ops.append(op)
        elif set(op[2]) & cone:
            if op[0] != _OP_FAN or not cone.issuperset(op[2]):
                return
            clock_ops.append(op)
        else:
            step_ops.append(op)
    for op in step_ops:
        clock_ins = cone.intersection(op[1])
        if clock_ins and (op[0] not in (_OP_DROC, _OP_EMIT) or clock_ins != {op[1][-1]}):
            return  # a clock net that also carries data
    outputs = [out for op in step_ops for out in op[2]]
    if len(outputs) != len(set(outputs)):
        return  # a merged data net: two pulses per index
    plan.clock_ops = _released(clock_ops)
    plan.step_ops = _released(step_ops)
    plan.clock_nets = tuple(sorted(clock_nets))


class _Fallback(Exception):
    """Hands the current run back to the scalar event loop.

    ``args[0]`` names the check that failed; the simulator counts it in
    :attr:`~repro.sim.pulse.PulseSimulator.kernel_aborts`.
    """


class _ListOps:
    """Kernel primitives over sorted lists of Python floats."""

    #: Immutable: ``final`` hands it out for every silent net.
    empty: Tuple[float, ...] = ()

    @staticmethod
    def array(times: Sequence[float]) -> List[float]:
        return sorted(times)

    @staticmethod
    def shift(pulses: List[float], delay: float) -> List[float]:
        return [t + delay for t in pulses]

    @staticmethod
    def merge(parts: List[List[float]]) -> List[float]:
        if len(parts) == 1:
            return parts[0]
        merged = [t for part in parts for t in part]
        merged.sort()
        return merged

    @staticmethod
    def paired(a: List[float], b: List[float], last: bool) -> List[float]:
        upper = [x if x > y else y for x, y in zip(a, b)]
        lower = [y if x > y else x for x, y in zip(a, b)]
        if not all(map(lt, upper, lower[1:])):
            raise _Fallback("interleaved pairs")  # the scalar state machine decides
        return upper if last else lower

    @staticmethod
    def jitter(causes: List[float], delay: float, draws: List[float], jitter: float) -> List[float]:
        out = [
            now if (t := (now + delay) + (2.0 * r - 1.0) * jitter) < now else t
            for now, r in zip(causes, draws)
        ]
        out.sort()
        return out

    @staticmethod
    def tolist(pulses: List[float]) -> List[float]:
        return pulses


class _NumpyOps:
    """The same primitives over numpy float64 arrays."""

    def __init__(self, np) -> None:
        self.np = np
        self.empty = np.empty(0, dtype=np.float64)

    def array(self, times: Sequence[float]):
        return self.np.sort(self.np.array(times, dtype=self.np.float64))

    @staticmethod
    def shift(pulses, delay: float):
        return pulses + delay

    def merge(self, parts):
        if len(parts) == 1:
            return parts[0]
        return self.np.sort(self.np.concatenate(parts))

    def paired(self, a, b, last: bool):
        upper = self.np.maximum(a, b)
        lower = self.np.minimum(a, b)
        if len(a) > 1 and not (upper[:-1] < lower[1:]).all():
            raise _Fallback("interleaved pairs")  # the scalar state machine decides
        return upper if last else lower

    def jitter(self, causes, delay: float, draws: List[float], jitter: float):
        np = self.np
        out = (causes + delay) + (2.0 * np.array(draws, dtype=np.float64) - 1.0) * jitter
        return np.sort(np.maximum(out, causes))

    @staticmethod
    def tolist(pulses) -> List[float]:
        return pulses.tolist()


_LIST_OPS = _ListOps()


def _array_ops(longest_train: int):
    """List primitives for short batches, numpy ones (when present) for long."""
    np = load_numpy() if longest_train >= NUMPY_MIN_TRAIN else None
    return _LIST_OPS if np is None else _NumpyOps(np)


class KernelRun(NamedTuple):
    """A successful kernel run, not yet committed to the simulator."""

    #: ``(nid, pulses)`` for every pulsed net whose trace is captured
    #: (``sim._capture``), pulses in time order in the run's array form.
    captured: List[Tuple[int, object]]
    #: Ids of pulsed nets that have no sinks.
    dangling: List[int]
    events: int
    frontier: float
    #: Jitter draws taken per net id (empty without jitter).
    draws: Dict[int, int]
    #: Converts one ``captured`` train to a list of Python floats.
    tolist: object


def run_vectorized(sim, plan: FeedForwardPlan, stimulus, until, fault=None) -> KernelRun:
    """Evaluate one fresh run on the SoA arrays, without mutating ``sim``.

    ``fault`` is the installed fault model, which must keep the pairing
    (:meth:`~repro.faults.FaultModel.keeps_pairing`); its jitter is
    applied per cell-driven net from the net's own stream, read ahead
    without consuming it.  Returns a :class:`KernelRun`, or raises
    :class:`_Fallback` when the run must go to the scalar event loop.
    Interning stimulus net names and extending the fault streams'
    value tables are the only side effects, and both are what the
    scalar path would do anyway.
    """
    if plan.sequential:
        raise _Fallback("sequential netlist")
    trains = []
    if stimulus:
        for net, times in stimulus.items():
            # Scalar traces keep stimulus times exactly as given; ints
            # would be recorded as ints there but as floats here, so any
            # non-float time sends the whole run to the scalar loop.
            if not all(type(t) is float for t in times):
                raise _Fallback("non-float stimulus time")
            trains.append((sim._intern(net), times))
    for element in sim._pending_sources:
        times = element.times
        if not all(type(t) is float for t in times):
            raise _Fallback("non-float stimulus time")
        trains.append((sim._net_id[element.outputs[0]], times))
    ops = _array_ops(max((len(times) for _, times in trains), default=0))
    peek = fault.peek_draws if fault is not None else None
    return _evaluate(plan.ops, ops, trains, until, peek, _jitter(fault), sim._capture, sim._sink_table)


def _jitter(fault) -> float:
    return fault.jitter if fault is not None and fault.perturbs_emissions() else 0.0


def _evaluate(plan_ops, ops, trains, until, peek, jitter, keep, sink_table) -> KernelRun:
    """Run ``plan_ops`` over whole trains.

    ``peek(nid, count)`` gives a jittered net's draws; ``keep[nid]``
    marks the nets whose trains are returned in ``captured``.
    """
    #: Net id -> parts that are final pulse times (stimulus, fault-free shifts).
    contrib: Dict[int, List[object]] = {}
    #: Net id -> (delay, cause-time parts) awaiting jitter.
    jittered: Dict[int, Tuple[float, List[object]]] = {}
    draws: Dict[int, int] = {}
    for nid, times in trains:
        if times:
            contrib.setdefault(nid, []).append(ops.array(times))

    #: Finalised trains of nets that still have a consumer to run.
    finalized: Dict[int, object] = {}

    def final(nid: int):
        pulses = finalized.get(nid)
        if pulses is None:
            parts = contrib.pop(nid, [])
            entry = jittered.pop(nid, None)
            if entry is not None:
                delay, causes = entry
                causes = ops.merge(causes)
                count = len(causes)
                draws[nid] = count
                parts.append(ops.jitter(causes, delay, peek(nid, count), jitter))
            pulses = ops.merge(parts) if parts else ops.empty
            finalized[nid] = pulses
        return pulses

    captured: List[Tuple[int, object]] = []
    dangling: List[int] = []
    total = 0
    frontier = float("-inf")

    def retire(nid: int) -> None:
        # A retired net is complete: count it and drop its train unless
        # its trace is captured.
        nonlocal total, frontier
        pulses = finalized.pop(nid, None)
        if pulses is None or not len(pulses):
            return
        total += len(pulses)
        last = float(pulses[-1])
        if last > frontier:
            frontier = last
        if keep[nid]:
            captured.append((nid, pulses))
        if not sink_table[nid]:
            dangling.append(nid)

    shift, paired = ops.shift, ops.paired
    for kind, ins, outs, delay, released, _ in plan_ops:
        if kind == _OP_FAN:
            causes = final(ins[0])
            for nid in released:
                retire(nid)
            if not len(causes):
                continue
        else:
            a = final(ins[0])
            b = final(ins[1])
            for nid in released:
                retire(nid)
            if len(a) != len(b):
                raise _Fallback("unpaired pulses")  # cell state carries across
            if not len(a):
                continue
            causes = paired(a, b, kind == _OP_LA)
        if not jitter:
            shifted = shift(causes, delay)
            for out in outs:
                contrib.setdefault(out, []).append(shifted)
            continue
        for out in outs:
            entry = jittered.get(out)
            if entry is None:
                jittered[out] = (delay, [causes])
            elif entry[0] != delay:
                # One net, two delays: draw order is not cause order.
                raise _Fallback("two delays on a jittered net")
            else:
                entry[1].append(causes)

    # Nets no op consumes: primary outputs, dangling legs, unused inputs.
    for nid in dict.fromkeys([*contrib, *jittered]):
        final(nid)
        retire(nid)
    limit = float("inf") if until is None else until
    if frontier > limit:
        # Some events would stay pending past ``until``; resumable
        # pending state only exists in the scalar loop.
        raise _Fallback("events beyond until")
    return KernelRun(captured, dangling, total, frontier, draws, ops.tolist)


_INF = float("inf")


class LaneRun(NamedTuple):
    """A successful lane sweep, not yet committed to the simulator."""

    #: Per lane: ``{nid: pulses}`` of every pulsed net whose trace is captured.
    traces: List[Dict[int, List[float]]]
    #: Per lane: ids of pulsed nets that have no sinks.
    dangling: List[List[int]]
    #: Per lane: events processed (every pulse of every net).
    events: List[int]
    #: Per lane: jittered emissions (0 without jitter).
    injections: List[int]
    #: Per lane: whether every cell ends in its initial state.
    reinitialised: List[bool]
    #: ``(cell, state)`` of every LA / FA / DROC the last lane leaves off
    #: its initial state (its ``_arrived`` / ``_fired`` / ``state`` value).
    states: List[Tuple[object, object]]
    #: Time of the last lane's last pulse.
    frontier: float
    #: Jittered emissions per net id in the last lane (its stream cursors).
    draws: Dict[int, int]


def run_lanes(sim, plan: FeedForwardPlan, stimuli, until, fault=None) -> LaneRun:
    """Run independent trajectories of a sequential netlist as lanes.

    Each lane is one fresh run of ``sim`` on one stimulus mapping (as
    ``sim.reset()`` followed by ``sim.run(stimulus, until)``), and the
    result is bit-equal to those scalar runs: traces, events, dangling
    nets, injections and end states.  Raises :class:`_Fallback` without
    mutating ``sim`` or any fault stream cursor when a check fails.

    The DROC clock cone is the same in every lane and runs once on whole
    trains through :func:`_evaluate`.  The data path is cut at every
    preloaded DROC and swept once per pulse index ``k``: every net holds
    one value per lane (its ``k``-th pulse, or ``inf`` once it has no
    more), and each op turns its inputs' ``k``-th pulses into its
    outputs' ``k``-th pulses — LA/FA pair the ``k``-th pulse of each
    input, as the per-net kernel does.  A DROC resolves its clocks in
    time order: a clock before the latest data pulse emits the stored
    state; when an output's ``k``-th pulse is needed before the data
    that decides it, the next clocks are taken as empty and every later
    data pulse must arrive after them.  The checks are the per-net
    kernel's (strictly ordered pairs, one delay per jittered net) plus
    monotone pulse order on every jittered net, no data pulse on a clock
    edge or inside an already resolved clock window, and no event past
    ``until``.  A lane's ``k``-th emission on a net is its ``k``-th
    draw, so each step reads one offset per net for every lane.
    """
    if not plan.step_ops:
        raise _Fallback("no lane plan")
    lanes = len(stimuli)
    intern = sim._intern
    trains: Dict[int, List[List[float]]] = {}
    for lane, stimulus in enumerate(stimuli):
        for net, times in stimulus.items():
            if not all(type(t) is float for t in times):
                raise _Fallback("non-float stimulus time")
            if not all(map(le, times, islice(times, 1, None))):
                times = sorted(times)
            trains.setdefault(intern(net), [[] for _ in range(lanes)])[lane] = times
    if plan.driven.intersection(trains):
        raise _Fallback("stimulus on a cell-driven net")
    capture = sim._capture
    sink_table = sim._sink_table
    jitter = _jitter(fault)
    limit = _INF if until is None else until

    # The clock cone: identical in every lane, evaluated once.
    cone_inputs = {net for op in plan.clock_ops for net in op[1]} | set(plan.clock_nets)
    cone_trains = []
    for nid in cone_inputs.intersection(trains):
        lane_trains = trains.pop(nid)
        if any(train != lane_trains[0] for train in lane_trains):
            raise _Fallback("lane-dependent clock")
        cone_trains.append((nid, lane_trains[0]))
    keep = list(capture)
    for nid in plan.clock_nets:
        keep[nid] = True
    peek = None
    if jitter:
        peek = fault.stream_values
    cone = _evaluate(plan.clock_ops, _LIST_OPS, cone_trains, until, peek, jitter, keep, sink_table)
    clocks = dict(cone.captured)
    cone_traces = {nid: pulses for nid, pulses in cone.captured if capture[nid]}

    sweep = _LaneSweep(lanes, jitter, fault, capture)
    sweep.run(plan.step_ops, trains, clocks, limit)
    lengths, driven = sweep.lengths(plan.step_ops, trains)

    cone_draws = sum(cone.draws.values())
    events = [cone.events + sum(column) for column in zip(*lengths.values())]
    injections = [0] * lanes
    if jitter:
        injections = [cone_draws + sum(column) for column in zip(*(lengths[nid] for nid in driven))]
    sinkless = [(nid, counts) for nid, counts in lengths.items() if not sink_table[nid]]
    dangling = [
        cone.dangling + [nid for nid, counts in sinkless if counts[lane]] for lane in range(lanes)
    ]
    reinitialised, states = sweep.end_states(plan.step_ops, lengths)
    draws = dict(cone.draws)
    if jitter:
        draws.update((nid, lengths[nid][-1]) for nid in driven if lengths[nid][-1])
    return LaneRun(
        traces=[{**cone_traces, **traces} for traces in sweep.traces],
        dangling=dangling,
        events=events,
        injections=injections,
        reinitialised=reinitialised,
        states=states,
        frontier=max(cone.frontier, sweep.frontier),
        draws=draws,
    )


class _Droc:
    """One DROC's clock resolution in every lane of a sweep.

    Per lane: ``ci`` is the next unresolved clock, ``st`` the stored
    state and ``ended`` whether the data net has no pulses left;
    ``pulses[0]`` / ``pulses[1]`` hold the ``Qp`` / ``Qn`` pulses
    emitted so far from index ``base[0]`` / ``base[1]`` on, and
    ``clocks[0]`` / ``clocks[1]`` the index of the clock behind each.

    While every lane stands at the same clock ``c`` with nothing stored
    and as many pulses on each output (*pair mode*), each data pulse
    decides a whole clock pair at once: a pulse before ``clock[c]``
    makes that clock emit ``Qp`` and the next one ``Qn``, a pulse
    between them the reverse.  The sweep then handles all lanes with
    two list comprehensions, keeps only the last few pairs (nothing
    reads further back) and writes the per-lane state back only when a
    lane leaves the pattern.
    """

    __slots__ = (
        "clock", "emit_at", "offsets", "lanes", "ci", "st", "ended", "pulses", "clocks", "base",
        "paired", "c", "m", "m0", "pair_base", "pair_out", "pair_log", "tail",
    )

    #: Pair-mode emissions kept: a step reads its own and the previous one.
    WINDOW = 3

    def __init__(self, cell, clock, outs, lanes, sweep) -> None:
        self.clock = clock
        #: Fault-free emission time per clock.
        self.emit_at = [now + cell.delay for now in clock]
        #: Per output, the jitter offset of each emission (None: no jitter).
        self.offsets = (
            [sweep.offsets(out, len(clock) + 1) for out in outs] if sweep.jitter else None
        )
        self.lanes = lanes
        self.ci = [0] * lanes
        self.st = [bool(cell._preload)] * lanes
        self.ended = [False] * lanes
        self.base = [0, 0]
        self.paired = False
        if cell._preload:
            self.pulses = ([[] for _ in range(lanes)], [[] for _ in range(lanes)])
            self.clocks = ([[] for _ in range(lanes)], [[] for _ in range(lanes)])
        else:
            # Nothing emitted and nothing stored: pair mode from the start;
            # the per-lane lists are only built if a lane leaves it.
            self.pulses = self.clocks = ([], [])
            self._enter(0, 0)

    def _pair(self) -> None:
        """Enter pair mode if every lane stands at the same point."""
        ci = self.ci
        c = ci[0]
        qp, qn = self.pulses
        m = len(qp[0]) + self.base[0]
        if (
            any(self.st)
            or any(self.ended)
            or any(x != c for x in ci)
            or any(len(pulses) + self.base[0] != m for pulses in qp)
            or any(len(pulses) + self.base[1] != m for pulses in qn)
        ):
            return
        self._enter(c, m)

    def _enter(self, c: int, m: int) -> None:
        self.paired = True
        self.c = c
        self.m0 = self.m = self.pair_base = m
        #: Once every lane's data has ended in pair mode: the ``Qn``
        #: pulses of the remaining clocks, the same in every lane.
        self.tail: Optional[List[float]] = None
        #: The last pair-mode emissions, from index ``pair_base`` on: the
        #: ``Qp`` and the ``Qn`` lane vectors, and the clock pair's first
        #: index with the ``Qp`` pulse it emits (a lane whose ``Qp``
        #: pulse differs took the second clock).
        self.pair_out: Tuple[List[List[float]], List[List[float]]] = ([], [])
        self.pair_log: List[Tuple[int, float]] = []

    def _unpair(self, k: int) -> None:
        """Leave pair mode at step ``k``: write the emissions a step may
        still read (index ``k - 1`` on) into the per-lane state."""
        self.paired = False
        lanes = self.lanes
        self.ci = [self.c] * lanes
        keep = max(k - 1, 0)
        old_pulses, old_clocks = self.pulses, self.clocks
        self.pulses = ([[] for _ in range(lanes)], [[] for _ in range(lanes)])
        self.clocks = ([[] for _ in range(lanes)], [[] for _ in range(lanes)])
        first = max(keep, self.m0) - self.pair_base
        window = list(zip(self.pair_log[first:], self.pair_out[0][first:], self.pair_out[1][first:]))
        for negative in (0, 1):
            skip = keep - self.base[negative]
            for lane in range(lanes):
                pulses = self.pulses[negative][lane]
                clocks = self.clocks[negative][lane]
                if keep < self.m0:
                    pulses.extend(old_pulses[negative][lane][skip:])
                    clocks.extend(old_clocks[negative][lane][skip:])
                for (c, px), qp, qn in window:
                    pulses.append((qn if negative else qp)[lane])
                    clocks.append(c + ((qp[lane] == px) == bool(negative)))
            self.base[negative] = keep

    def _end(self) -> bool:
        """Pair mode, no lane has data left: every remaining clock emits ``Qn``."""
        clock = self.clock
        tail: List[float] = []
        if self.offsets is None:
            tail = self.emit_at[self.c:]
        else:
            vectors = self.pair_out[1]
            last = max(vectors[-1]) if vectors else max(
                (pulses[-1] for pulses in self.pulses[1] if pulses), default=-_INF
            )
            offsets = self.offsets[1]
            for j, index in enumerate(range(self.c, len(clock)), start=self.m):
                now = clock[index]
                t = self.emit_at[index] + offsets[j]
                if t < now:
                    t = now
                if t < last:
                    return False  # jitter reorders the Qn pulses
                tail.append(t)
                last = t
        self.tail = tail
        return True

    def _decide(self, data: List[float]) -> bool:
        """Pair mode: the next clock pair in every lane, or False to leave it."""
        if self.tail is not None:
            # Data after the last pulse: the data net is not monotone.
            raise _Fallback("DROC data inside a resolved clock window")
        c = self.c
        clock = self.clock
        if data.count(_INF) == self.lanes:
            return self._end()
        if c + 1 >= len(clock):
            return False
        x = clock[c]
        y = clock[c + 1]
        if not (min(data) > (clock[c - 1] if c else -_INF) and max(data) < y) or x in data:
            return False
        px = nx = self.emit_at[c]
        py = ny = self.emit_at[c + 1]
        if self.offsets is not None:
            m = self.m
            on_p = self.offsets[0][m]
            on_n = self.offsets[1][m]
            px, py, nx, ny = px + on_p, py + on_p, nx + on_n, ny + on_n
            px = x if px < x else px
            py = y if py < y else py
            nx = x if nx < x else nx
            ny = y if ny < y else ny
            if not self._ordered(0, min(px, py)) or not self._ordered(1, min(nx, ny)):
                return False
        if px == py:
            return False  # the clock behind a Qp pulse must stay recoverable
        out_p, out_n = self.pair_out
        out_p.append([px if t < x else py for t in data])
        out_n.append([ny if t < x else nx for t in data])
        self.pair_log.append((c, px))
        if len(out_p) > self.WINDOW:
            del out_p[0], out_n[0], self.pair_log[0]
            self.pair_base += 1
        self.c = c + 2
        self.m += 1
        return True

    def _ordered(self, negative: int, earliest: float) -> bool:
        """Whether every lane's last pulse on an output precedes ``earliest``."""
        vectors = self.pair_out[negative]
        if vectors:
            return max(vectors[-1]) <= earliest
        return all(pulses[-1] <= earliest for pulses in self.pulses[negative] if pulses)

    def _emit(self, lane: int, index: int, negative: int) -> None:
        pulses = self.pulses[negative][lane]
        t = self.emit_at[index]
        if self.offsets is not None:
            now = self.clock[index]
            t = t + self.offsets[negative][len(pulses) + self.base[negative]]
            if t < now:
                t = now
            if pulses and t < pulses[-1]:
                raise _Fallback("jitter reorders a DROC output")
        pulses.append(t)
        self.clocks[negative][lane].append(index)

    def _resolve(self, lane: int, end: int) -> None:
        """Emit every clock before index ``end`` from the stored state."""
        c = self.ci[lane]
        if c < end:
            self._emit(lane, c, not self.st[lane])
            self.st[lane] = False
            for c in range(c + 1, end):
                self._emit(lane, c, 1)
            self.ci[lane] = end

    def latch(self, data: List[float], k: int) -> None:
        """Store each lane's ``k``-th data pulse, resolving the clocks before it."""
        if self.paired:
            if self.tail is not None and data.count(_INF) == self.lanes:
                return
            if self._decide(data):
                return
            self._unpair(k)
        clock = self.clock
        count = len(clock)
        ci = self.ci
        for lane, t in enumerate(data):
            if t == _INF:
                if not self.ended[lane]:
                    # No more data: every remaining clock reads the state.
                    self.ended[lane] = True
                    self._resolve(lane, count)
                continue
            c = ci[lane]
            if self.ended[lane] or (c and not t > clock[c - 1]):
                raise _Fallback("DROC data inside a resolved clock window")
            capture = bisect_right(clock, t, c)
            if capture < count:
                if capture and clock[capture - 1] == t:
                    raise _Fallback("DROC data on a clock edge")
                self._resolve(lane, capture)
                self._emit(lane, capture, 0)
                ci[lane] = capture + 1
            else:
                self._resolve(lane, count)
                self.st[lane] = True
        self._pair()

    def outputs(self, k: int) -> Tuple[List[float], List[float]]:
        """Each lane's ``k``-th pulse on ``Qp`` and on ``Qn`` (``inf``: none)."""
        if self.paired:
            j = k - self.pair_base
            if k < self.m0:  # emitted before pair mode began
                qp, qn = self.pulses
                bp, bn = self.base
                return [pulses[k - bp] for pulses in qp], [pulses[k - bn] for pulses in qn]
            if j < len(self.pair_log):
                return self.pair_out[0][j], self.pair_out[1][j]
            if self.tail is not None:
                j = k - self.m
                qn = [self.tail[j]] * self.lanes if j < len(self.tail) else [_INF] * self.lanes
                return [_INF] * self.lanes, qn
            self._unpair(k)
        count = len(self.clock)
        ci = self.ci
        qp, qn = self.pulses
        bp, bn = self.base
        vp: List[float] = []
        vn: List[float] = []
        for lane in range(len(ci)):
            pulses = qp[lane]
            if len(pulses) + bp > k:
                vp.append(pulses[k - bp])
            elif self.ended[lane] or ci[lane] >= count:
                vp.append(_INF)
            elif self.st[lane]:
                self._resolve(lane, ci[lane] + 1)
                vp.append(pulses[k - bp] if len(pulses) + bp > k else _INF)
            else:
                raise _Fallback("DROC output ahead of its data")
            pulses = qn[lane]
            if len(pulses) + bn <= k and ci[lane] < count:
                # Take the next clocks as empty; the next data pulse checks it.
                self._resolve(lane, min(count, ci[lane] + k + 1 - len(pulses) - bn))
            vn.append(pulses[k - bn] if len(pulses) + bn > k else _INF)
        self._pair()
        return vp, vn

    def counts(self, negative: int) -> List[int]:
        """Each lane's pulse count on one output."""
        if self.paired:
            tail = len(self.tail) if negative and self.tail is not None else 0
            return [self.m + tail] * self.lanes
        base = self.base[negative]
        return [len(pulses) + base for pulses in self.pulses[negative]]

    def cause(self, negative: int, lane: int, k: int) -> float:
        """The clock time behind a lane's ``k``-th pulse on one output."""
        if self.paired and k >= self.m0:
            if k >= self.m:  # a tail Qn pulse
                return self.clock[self.c + k - self.m]
            if k < self.pair_base:
                raise _Fallback("tie behind the kept DROC pairs")
            c, px = self.pair_log[k - self.pair_base]
            first = self.pair_out[0][k - self.pair_base][lane] == px
            return self.clock[c + (first == bool(negative))]
        return self.clock[self.clocks[negative][lane][k - self.base[negative]]]


class _LaneSweep:
    """The stepped data-path sweep of :func:`run_lanes`."""

    def __init__(self, lanes: int, jitter: float, fault, capture) -> None:
        self.lanes = lanes
        self.jitter = jitter
        self.fault = fault
        self.capture = capture
        #: Per jittered net: its stream's values (the fault model's table).
        self._values: Dict[int, List[float]] = {}
        self.traces: List[Dict[int, List[float]]] = [{} for _ in range(lanes)]
        self.frontier = -_INF
        self.drocs: Dict[object, _Droc] = {}
        #: Previous step's pulses of each jittered net (order check).
        self._previous: Dict[int, List[float]] = {}
        #: ``(op position, lane)`` -> firing time of LAs left idle after
        #: an input ran out, and the FAs that absorbed a pulse after one
        #: ran out (see :meth:`_check_pairs`).
        self._ignored: Dict[Tuple[int, int], float] = {}
        self._absorbed: set = set()
        #: Net id -> what caused this step's and the last step's pulses:
        #: a per-lane time list, or ``(droc, output)`` (ties only).
        self._causes: Dict[int, object] = {}
        self._last_causes: Dict[int, object] = {}
        #: LA op position -> its last step's input pulses.
        self._pairs: Dict[int, Tuple[List[float], List[float]]] = {}

    def offsets(self, nid: int, count: int) -> List[float]:
        """Net ``nid``'s first ``count`` jitter offsets, ``(2r - 1) * jitter``."""
        jitter = self.jitter
        return [(2.0 * r - 1.0) * jitter for r in self.fault.stream_values(nid, count)[:count]]

    def run(self, step_ops, trains, clocks, limit) -> None:
        lanes = self.lanes
        jitter = self.jitter
        capture = self.capture
        stream_values = self._values
        previous = self._previous
        pairs = self._pairs
        none = [_INF] * lanes
        consumed = {net for op in step_ops for net in op[1]}
        #: Stimulus nets some op reads or whose trace is captured, with
        #: their shortest and longest lane train.
        stim = [
            (nid, lane_trains, min(map(len, lane_trains)), max(map(len, lane_trains)))
            for nid, lane_trains in trains.items()
            if nid in consumed or capture[nid]
        ]
        drocs = self.drocs
        #: Nets whose causes a tie at an LA may need (see :meth:`_check_pairs`).
        la_inputs = {net for op in step_ops if op[0] == _OP_LA for net in op[1]}
        prevs: Dict[int, List[float]] = {}
        # A jittered net read only by LAs and DROC latches needs no order
        # check of its own: their checks imply it (an LA's pair order, a
        # DROC's clock windows), and an LA past its last pair ignores the
        # order.  FA, fan, captured and sinkless nets are checked.
        readers: Dict[int, set] = {}
        for op in step_ops:
            for net in op[1]:
                readers.setdefault(net, set()).add(op[0])
        ordered = {
            net for net, kinds in readers.items()
            if kinds <= {_OP_LA, _OP_LATCH, _OP_DROC} and not capture[net]
        }
        #: The ops with, per op, the outputs an LA reads, whether any
        #: output is captured, and the jittered outputs to order-check.
        program = []
        for position, (kind, ins, outs, delay, released, cell) in enumerate(step_ops):
            if kind <= _OP_FA:
                prevs[position] = [-_INF] * lanes
            elif kind in (_OP_DROC, _OP_EMIT):
                drocs[cell] = _Droc(cell, clocks.get(ins[-1], []), outs, lanes, self)
            program.append((
                position, kind, ins, outs, delay, released, cell,
                tuple(out for out in outs if out in la_inputs),
                any(capture[out] for out in outs),
                tuple((out, out not in ordered) for out in outs),
            ))
        bounded = self._bounded(step_ops, trains, clocks, limit)
        last = -_INF
        k = 0
        while True:
            vals: Dict[int, List[float]] = {}
            self._last_causes = self._causes
            causes_of = self._causes = {}
            live = False
            for nid, lane_trains, shortest, longest in stim:
                if k < shortest:
                    pulses = [train[k] for train in lane_trains]
                elif k < longest:
                    pulses = [train[k] if k < len(train) else _INF for train in lane_trains]
                else:
                    vals[nid] = none
                    continue
                vals[nid] = pulses
                live = True
                if capture[nid]:
                    self._record(nid, pulses)
            for position, kind, ins, outs, delay, released, cell, la_outs, captured, checks in program:
                if kind <= _OP_FA:
                    a = vals[ins[0]]
                    b = vals[ins[1]]
                    prev = prevs[position]
                    overrides = None
                    if not (all(map(lt, prev, a)) and all(map(lt, prev, b))):
                        overrides = self._check_pairs(position, kind, ins, prev, a, b, k)
                    upper = [x if x > y else y for x, y in zip(a, b)]
                    prevs[position] = upper
                    if kind == _OP_LA:
                        pairs[position] = (a, b)
                        causes = upper
                    else:
                        causes = [y if x > y else x for x, y in zip(a, b)]
                        for lane, cause in overrides or ():
                            causes[lane] = cause
                elif kind == _OP_FAN:
                    causes = vals[ins[0]]
                else:
                    droc = drocs[cell]
                    if kind != _OP_EMIT:
                        droc.latch(vals[ins[0]], k)
                    for nid in released:
                        vals.pop(nid, None)
                    if kind == _OP_LATCH:
                        continue
                    outputs = droc.outputs(k)
                    for negative, out in enumerate(outs):
                        pulses = outputs[negative]
                        vals[out] = pulses
                        t = pulses[-1]
                        if last < t < _INF:
                            last = t
                        if not live and pulses.count(_INF) < lanes:
                            live = True
                    for out in la_outs:
                        causes_of[out] = (droc, outs.index(out))
                    if captured or not bounded:
                        for out in outs:
                            self._record(out, vals[out], None if bounded else limit)
                    continue
                for nid in released:
                    vals.pop(nid, None)
                if jitter:
                    for out, check in checks:
                        values = stream_values.get(out)
                        if values is None or k >= len(values):
                            if causes.count(_INF) == lanes:
                                vals[out] = causes  # nothing emitted: draw nothing
                                continue
                            values = stream_values[out] = self.fault.stream_values(out, k + 8)
                        off = (2.0 * values[k] - 1.0) * jitter
                        pulses = [now if (t := (now + delay) + off) < now else t for now in causes]
                        if check:
                            before = previous.get(out)
                            if before is not None and not all(map(le, before, pulses)):
                                raise _Fallback("jitter reorders a net's pulses")
                            previous[out] = pulses
                        vals[out] = pulses
                        t = pulses[-1]
                        if last < t < _INF:
                            last = t
                else:
                    pulses = [now + delay for now in causes]
                    t = pulses[-1]
                    if last < t < _INF:
                        last = t
                    for out in outs:
                        vals[out] = pulses
                for out in la_outs:
                    causes_of[out] = causes
                if captured or not bounded:
                    for out in outs:
                        self._record(out, vals[out], None if bounded else limit)
            if not live:
                break
            k += 1
        for lane_trains in trains.values():
            if any(train and train[-1] > limit for train in lane_trains):
                raise _Fallback("events beyond until")
            if lane_trains[-1] and lane_trains[-1][-1] > last:
                last = lane_trains[-1][-1]
        self.frontier = last

    def _record(self, nid: int, pulses: List[float], limit: Optional[float] = None) -> None:
        """Append a step's pulses to each lane's captured trace; check ``limit``."""
        if limit is not None and max(pulses) > limit and any(limit < t < _INF for t in pulses):
            raise _Fallback("events beyond until")
        if self.capture[nid]:
            for trace, t in zip(self.traces, pulses):
                if t != _INF:
                    trace.setdefault(nid, []).append(t)

    def _cause(self, nid: int, lane: int, k: int, causes: Dict[int, object]) -> float:
        """The time of the event that emitted net ``nid``'s ``k``-th pulse in ``lane``."""
        entry = causes.get(nid)
        if entry is None:
            return -_INF  # stimulus: scheduled before the run starts
        if type(entry) is tuple:
            droc, negative = entry
            return droc.cause(negative, lane, k)
        return entry[lane]

    def _check_pairs(self, position: int, kind: int, ins, prev, a, b, k: int) -> List[Tuple[int, float]]:
        """The exact pair-order check behind the fast ``prev < a, prev < b`` test.

        A pair must start after the previous pair completed.  A pair
        missing a pulse (``inf``: that input has no more) leaves the cell
        waiting, and the scalar cell then treats the other input's later
        pulses by its own rules.  An LA ignores them (a repeated pulse),
        but one that comes before the last pair fired leaves it idle, so
        the sweep remembers that firing time until a later pulse passes
        it; at the very time, the scalar event queue orders the two
        pulses by the times of the events that emitted them.  An FA
        takes the merged pulses in turn: the earlier of the last pair's
        second pulse and this one is absorbed and the later fires, then
        the next is absorbed; one more would fire again, which the sweep
        does not model.  Returns ``(lane, cause)`` overrides of this
        step's FA firings (``inf``: absorbed).
        """
        ignored = self._ignored
        overrides: List[Tuple[int, float]] = []
        for lane, (p, x, y) in enumerate(zip(prev, a, b)):
            first = x if x < y else y
            if first == _INF or p < first:
                continue
            if x != _INF and y != _INF:
                raise _Fallback("interleaved pairs")
            key = (position, lane)
            if kind == _OP_FA:
                if p != _INF:
                    overrides.append((lane, p))  # the last pair's second pulse fires
                elif key in self._absorbed:
                    raise _Fallback("interleaved pairs")
                else:
                    self._absorbed.add(key)
                    overrides.append((lane, _INF))
            elif p != _INF:
                if first == p and self._completes_first(position, ins, lane, p, x != _INF, k):
                    continue  # the pair fired before this pulse arrived
                ignored[key] = p  # the LA is idle; its last pair fired at p
            elif key in ignored and first >= ignored[key]:
                if first == ignored.pop(key):
                    raise _Fallback("LA pulse at its firing time")
        return overrides

    def _completes_first(self, position: int, ins, lane: int, fired: float, on_a: bool, k: int) -> bool:
        """Whether the scalar loop takes the pulse that completed the last
        pair before this step's pulse at the same time."""
        a, b = self._pairs[position]
        if a[lane] == b[lane]:
            raise _Fallback("simultaneous pair")
        completing = ins[0] if a[lane] == fired else ins[1]
        arriving = ins[0] if on_a else ins[1]
        if completing == arriving:
            raise _Fallback("simultaneous pulses on one net")
        before = self._cause(completing, lane, k - 1, self._last_causes)
        after = self._cause(arriving, lane, k, self._causes)
        if before == after:
            raise _Fallback("simultaneous causes")
        return before < after

    def _bounded(self, step_ops, trains, clocks, limit) -> bool:
        """True when no pulse can pass ``limit``, so the sweep need not check.

        Bounds each net's latest pulse along the data path: a cell emits
        at most its delay plus the jitter after its latest input, and a
        DROC after its last clock.
        """
        slack = self.jitter
        latest: Dict[int, float] = {
            nid: max((train[-1] for train in lane_trains if train), default=-_INF)
            for nid, lane_trains in trains.items()
        }
        for kind, ins, outs, delay, _, _ in step_ops:
            if kind == _OP_LATCH:
                continue
            if kind in (_OP_DROC, _OP_EMIT):
                train = clocks.get(ins[-1]) or [-_INF]
                bound = train[-1] + delay + slack
            else:
                bound = max(latest.get(nid, -_INF) for nid in ins) + delay + slack
            for out in outs:
                latest[out] = bound
        return max(latest.values(), default=-_INF) <= limit

    def lengths(self, step_ops, trains) -> Tuple[Dict[int, List[int]], List[int]]:
        """Per net, each lane's pulse count, and the cell-driven nets.

        Every net's pulses end at its first ``inf`` (the pair checks
        enforce it), so counts follow the ops: an LA fires on pairs with
        both pulses, an FA on pairs with either, a fan copies its input.
        """
        lengths = {nid: [len(t) for t in lane_trains] for nid, lane_trains in trains.items()}
        driven: List[int] = []
        for position, (kind, ins, outs, _, _, cell) in enumerate(step_ops):
            if kind == _OP_LATCH:
                continue
            if kind == _OP_LA:
                counts = [min(x, y) for x, y in zip(lengths[ins[0]], lengths[ins[1]])]
            elif kind == _OP_FA:
                counts = [
                    max(x, y) - ((position, lane) in self._absorbed)
                    for lane, (x, y) in enumerate(zip(lengths[ins[0]], lengths[ins[1]]))
                ]
            elif kind == _OP_FAN:
                counts = lengths[ins[0]]
            else:
                droc = self.drocs[cell]
                lengths[outs[0]] = droc.counts(0)
                lengths[outs[1]] = droc.counts(1)
                driven.extend(outs)
                continue
            for out in outs:
                lengths[out] = counts
            driven.extend(outs)
        return lengths, driven

    def end_states(self, step_ops, lengths) -> Tuple[List[bool], List[Tuple[object, object]]]:
        """Which lanes leave every LA / FA / DROC in its initial state, and
        ``(cell, state)`` of each one the last lane leaves off it (its
        ``_arrived`` / ``_fired`` / ``state`` value)."""
        lanes = self.lanes
        last = lanes - 1
        reinitialised = [True] * lanes
        states: List[Tuple[object, object]] = []
        for position, (kind, ins, _, _, _, cell) in enumerate(step_ops):
            if kind <= _OP_FA:
                a, b = lengths[ins[0]], lengths[ins[1]]
                if a == b:
                    continue
                for lane, (x, y) in enumerate(zip(a, b)):
                    key = (position, lane)
                    if x != y and key not in self._ignored and key not in self._absorbed:
                        reinitialised[lane] = False
                        if lane == last:
                            states.append((cell, [x > y, y > x] if kind == _OP_LA else True))
            elif kind in (_OP_DROC, _OP_LATCH):
                droc = self.drocs[cell]
                preload = bool(cell._preload)
                # Pair mode stores nothing in any lane.
                for lane, stored in enumerate([False] * lanes if droc.paired else droc.st):
                    if stored != preload:
                        reinitialised[lane] = False
                        if lane == last:
                            states.append((cell, stored))
        return reinitialised, states
