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
any simulator or fault-stream state* and the caller falls back to the
scalar event loop, which remains the semantics oracle.  Sequential
netlists always take the scalar path.

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
results bit-equal to the scalar core and to ``ReferencePulseSimulator``.
"""

from __future__ import annotations

from operator import lt
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..._compat import load_numpy
from .elements import (
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
#: released net ids)``.  The released nets are the inputs whose last
#: consumer this op is.
_Op = Tuple[int, Tuple[int, ...], Tuple[int, ...], float, Tuple[int, ...]]


class FeedForwardPlan:
    """Topologically ordered vector ops compiled from a feed-forward netlist."""

    __slots__ = ("ops",)

    def __init__(self, ops: Sequence[_Op]) -> None:
        #: :data:`_Op` tuples in dataflow order.
        self.ops = list(ops)


def compile_plan(sim) -> Optional[FeedForwardPlan]:
    """Compile ``sim``'s element graph into a :class:`FeedForwardPlan`.

    Returns ``None`` when the netlist is ineligible: any element outside
    the supported exact types, an LA/FA without exactly two inputs, or a
    combinational cycle.  Compiling imports nothing: the array form is
    picked per run (:data:`NUMPY_MIN_TRAIN`).
    """
    net_id = sim._net_id
    ops: List[Tuple[int, Tuple[int, ...], Tuple[int, ...], float]] = []
    for element in sim.elements:
        cell_type = type(element)
        if cell_type is SourceCell:
            # Sources carry no dataflow deps; their emissions enter as
            # stimulus-like contributions at run time.
            continue
        kind = _PAIRED_TYPES.get(cell_type)
        if kind is not None:
            if len(element.inputs) != 2 or not element.outputs:
                return None
            ins = (net_id[element.inputs[0]], net_id[element.inputs[1]])
            ops.append((kind, ins, (net_id[element.outputs[0]],), element.delay))
        elif cell_type in _FAN_TYPES:
            outs = tuple(net_id[net] for net in element.outputs)
            if cell_type is not SplitterCell:
                outs = outs[:1]
            if not outs:
                return None
            # Each input contributes an independent delay-fan; merger
            # confluence happens when the output net is finalised.
            for net in element.inputs:
                ops.append((_OP_FAN, (net_id[net],), outs, element.delay))
        else:
            return None

    # Kahn topological sort over net producers.  ``indegree[i]`` counts,
    # with multiplicity, the producer ops feeding op i's input nets.
    producers: Dict[int, List[int]] = {}
    for index, (_, _, outs, _) in enumerate(ops):
        for out in outs:
            producers.setdefault(out, []).append(index)
    consumers: Dict[int, List[int]] = {}
    indegree = [0] * len(ops)
    for index, (_, ins, _, _) in enumerate(ops):
        for net in ins:
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
        return None  # combinational cycle: scalar loop handles it
    # Release schedule: each input net retires after its last consumer.
    last_use: Dict[int, int] = {}
    for position, index in enumerate(order):
        for net in ops[index][1]:
            last_use[net] = position
    released: List[List[int]] = [[] for _ in order]
    for net, position in last_use.items():
        released[position].append(net)
    return FeedForwardPlan(
        [ops[index] + (tuple(released[position]),) for position, index in enumerate(order)]
    )


class _Fallback(Exception):
    """Hands the current run back to the scalar event loop."""


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
            raise _Fallback  # interleaved pairs: scalar state machine decides
        return upper if last else lower

    @staticmethod
    def jitter(causes: List[float], delay: float, draws: List[float], jitter: float) -> List[float]:
        out = []
        for now, r in zip(causes, draws):
            t = (now + delay) + (2.0 * r - 1.0) * jitter
            out.append(now if t < now else t)
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
            raise _Fallback  # interleaved pairs: scalar state machine decides
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


def run_vectorized(sim, plan: FeedForwardPlan, stimulus, until, fault=None) -> Optional[KernelRun]:
    """Evaluate one fresh run on the SoA arrays, without mutating ``sim``.

    ``fault`` is the installed fault model, which must keep the pairing
    (:meth:`~repro.faults.FaultModel.keeps_pairing`); its jitter is
    applied per cell-driven net from the net's own stream, read ahead
    without consuming it.  Returns a :class:`KernelRun`, or ``None``
    when the run must fall back to the scalar event loop.  Interning
    stimulus net names and extending the fault streams' drawn-value
    memo are the only side effects, and both are what the scalar path
    would do anyway.
    """
    trains = []
    if stimulus:
        for net, times in stimulus.items():
            # Scalar traces keep stimulus times exactly as given; ints
            # would be recorded as ints there but as floats here, so any
            # non-float time sends the whole run to the scalar loop.
            if not all(type(t) is float for t in times):
                return None
            trains.append((sim._intern(net), times))
    for element in sim._pending_sources:
        times = element.times
        if not all(type(t) is float for t in times):
            return None
        trains.append((sim._net_id[element.outputs[0]], times))
    ops = _array_ops(max((len(times) for _, times in trains), default=0))
    jitter = fault.jitter if fault is not None else 0.0
    try:
        return _evaluate(sim, plan, ops, trains, until, fault, jitter)
    except _Fallback:
        return None


def _evaluate(sim, plan, ops, trains, until, fault, jitter) -> KernelRun:
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
                parts.append(ops.jitter(causes, delay, fault.peek_draws(nid, count), jitter))
            pulses = ops.merge(parts) if parts else ops.empty
            finalized[nid] = pulses
        return pulses

    capture = sim._capture
    sink_table = sim._sink_table
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
        if capture[nid]:
            captured.append((nid, pulses))
        if not sink_table[nid]:
            dangling.append(nid)

    shift, paired = ops.shift, ops.paired
    for kind, ins, outs, delay, released in plan.ops:
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
                raise _Fallback  # unpaired pulses: cell state carries across
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
                raise _Fallback  # one net, two delays: draw order is not cause order
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
        raise _Fallback
    return KernelRun(captured, dangling, total, frontier, draws, ops.tolist)
