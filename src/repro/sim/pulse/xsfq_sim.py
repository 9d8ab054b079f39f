"""Pulse-level simulation of synthesised xSFQ netlists.

This is the functional-verification back end of the flow: the cell netlists
produced by :mod:`repro.core` are elaborated into pulse elements, their
primary inputs are driven with the alternating dual-rail encoding of
Figure 1, DROC ranks are clocked (with the one-shot trigger of Section 3.2)
and the primary outputs are decoded back into logical values, one per
logical cycle.  The test-suite and :mod:`repro.verify` compare those decoded
values against golden gate-level/AIG simulation of the original design,
which closes the loop from RTL to pulses — the role PyLSE plays in the
paper (Figure 7).

The work-horse is :class:`BatchedNetlistSimulator`: the netlist is
elaborated into pulse elements **once** and then driven with any number of
stimulus batches — hundreds of combinational patterns ride in a single
event-queue run (one logical cycle each), and sequential trajectories reuse
the elaborated elements across runs via :meth:`PulseSimulator.reset`, or
run side by side as lanes of the per-net kernel
(:meth:`BatchedNetlistSimulator.run_sequences`).  The
module-level :func:`simulate_combinational` / :func:`simulate_sequential`
helpers are thin one-batch wrappers kept for convenience and backwards
compatibility.  :func:`elaboration_count` exposes a process-wide counter of
netlist elaborations so regression tests can assert that batched
verification does not rebuild the simulator per pattern.

Protocol summary (see the paper's Figures 1, 6 and 7):

* every logical cycle spans two synchronous phases, excite then relax;
* a primary input with value ``v`` pulses its positive rail during the
  excite phase iff ``v = 1`` and its negative rail otherwise, with the
  mirrored pattern in the relax phase;
* sequential designs receive one trigger phase before normal operation —
  the preloaded DROC rank emits its stored pulses, which primes the
  downstream LA/FA cells into their excite phase;
* the architectural state visible in logical cycle 1 is recorded per latch
  by the mapper (``SequentialMappingInfo.start_state``): a boundary DROC
  capturing the positive rail of its next-state value starts at 1, one
  capturing the negative rail starts at 0 (historically every capture was
  positive, hence the all-ones convention of :func:`reference_start_state`);
* retimed netlists register every cut-crossing signal in a mid-rank DROC;
  input waves then need one extra phase to traverse that rank, so they are
  driven ``XsfqNetlist.input_phase_lead`` phases early — aligned with the
  start-up trigger — which keeps the output decode windows unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ...core.cells import CellKind, XsfqLibrary, default_library
from ...core.dual_rail import XsfqNetlist
from ...core.polarity import Rail
from ...core.sequential import CLOCK_NET, TRIGGER_NET
from .elements import (
    DroCell,
    DrocCell,
    FaCell,
    JtlCell,
    LaCell,
    MergerCell,
    SplitterCell,
)
from .simulator import PulseSimulator, SimulationError

#: Process-wide count of netlist elaborations (see :func:`elaboration_count`).
_ELABORATIONS = 0


def elaboration_count() -> int:
    """How many times :func:`build_simulator` elaborated a netlist.

    Regression tests snapshot this before and after a batched verification
    run to assert that N patterns cost one elaboration, not N.
    """
    return _ELABORATIONS


@dataclass
class XsfqSimulationResult:
    """Decoded output of a pulse-level run.

    Attributes:
        outputs: One dictionary per logical cycle mapping PO name to 0/1.
        trace: Raw pulse times per net, in time order.  Covers every net
            for the one-shot ``simulate_*`` helpers; a
            :class:`BatchedNetlistSimulator` restricts capture to the
            primary-output rails unless built with ``full_trace=True``.
        phase_period: Phase length used (ps).
        all_cells_reinitialised: Whether every LA/FA cell was back in its
            initial state when the simulation ended (the Table 1 property).
        dangling_nets: Nets that pulsed but have no consuming element —
            primary outputs legitimately appear here; anything else points
            at a mis-wired netlist (see ``repro.verify``).
    """

    outputs: List[Dict[str, int]]
    trace: Dict[str, List[float]]
    phase_period: float
    all_cells_reinitialised: bool
    dangling_nets: List[str] = field(default_factory=list)


def build_simulator(
    netlist: XsfqNetlist, library: Optional[XsfqLibrary] = None
) -> Tuple[PulseSimulator, List[str]]:
    """Elaborate an :class:`XsfqNetlist` into a :class:`PulseSimulator`.

    Returns the simulator and the list of clock input nets of all DROC
    cells (the preloaded rank listens on the merged clock+trigger net when
    the netlist carries a trigger merger).
    """
    global _ELABORATIONS
    _ELABORATIONS += 1
    library = library or default_library()
    simulator = PulseSimulator()
    droc_clock_nets: List[str] = []
    preload_clock = f"{CLOCK_NET}_preload" if netlist.trigger_nets else CLOCK_NET

    for cell in netlist.cells:
        delay = library.delay(cell.kind if not (cell.kind is CellKind.DROC and cell.preload) else CellKind.DROC)
        if cell.kind is CellKind.LA:
            simulator.add_element(LaCell(cell.name, cell.inputs, cell.outputs, delay))
        elif cell.kind is CellKind.FA:
            simulator.add_element(FaCell(cell.name, cell.inputs, cell.outputs, delay))
        elif cell.kind is CellKind.SPLITTER:
            simulator.add_element(SplitterCell(cell.name, cell.inputs, cell.outputs, delay))
        elif cell.kind is CellKind.MERGER:
            simulator.add_element(MergerCell(cell.name, cell.inputs, cell.outputs, delay))
        elif cell.kind is CellKind.JTL:
            simulator.add_element(JtlCell(cell.name, cell.inputs, cell.outputs, delay))
        elif cell.kind is CellKind.DRO:
            clock = preload_clock if cell.preload else CLOCK_NET
            simulator.add_element(
                DroCell(cell.name, [cell.inputs[0], clock], cell.outputs, delay, preload=cell.preload)
            )
            droc_clock_nets.append(clock)
        elif cell.kind in (CellKind.DROC, CellKind.DROC_PRELOAD):
            clock = preload_clock if cell.preload else CLOCK_NET
            simulator.add_element(
                DrocCell(cell.name, [cell.inputs[0], clock], cell.outputs, delay, preload=cell.preload)
            )
            droc_clock_nets.append(clock)
        else:
            raise SimulationError(f"cell kind {cell.kind} is not supported by the pulse simulator")
    return simulator, droc_clock_nets


def suggest_phase_period(
    netlist: XsfqNetlist, library: Optional[XsfqLibrary] = None
) -> float:
    """A safe synchronous phase length for a netlist (picoseconds).

    Every wave must settle through the worst combinational segment well
    inside one phase, so the period is sized from the netlist's critical
    path delay with generous margin (never below the historical 500 ps).
    """
    delay = netlist.critical_path_delay(library or default_library())
    return max(500.0, 1.5 * delay + 50.0)


def _input_rail_nets(pi_name: str) -> Tuple[str, str]:
    return f"{pi_name}_p", f"{pi_name}_n"


def _drive_input(
    stimulus: Dict[str, List[float]],
    pi_name: str,
    value: int,
    excite_start: float,
    relax_start: float,
    offset: float,
) -> None:
    """Drive one PI value: the rail that is 1 pulses in the excite phase."""
    rails = [(pi_name, *_input_rail_nets(pi_name))]
    _drive_cycle(stimulus, rails, {pi_name: value}, excite_start + offset, relax_start + offset)


def _drive_cycle(
    stimulus: Dict[str, List[float]],
    pi_rails: Sequence[Tuple[str, str, str]],
    vector: Mapping[str, int],
    excite: float,
    relax: float,
) -> None:
    """Drive one cycle's PI values, ``pi_rails`` listing ``(pi, pos rail, neg rail)``."""
    for pi, pos, neg in pi_rails:
        if vector.get(pi, 0):
            stimulus.setdefault(pos, []).append(excite)
            stimulus.setdefault(neg, []).append(relax)
        else:
            stimulus.setdefault(neg, []).append(excite)
            stimulus.setdefault(pos, []).append(relax)


def _constant_nets(netlist: XsfqNetlist) -> List[str]:
    """Constant-rail nets referenced by the netlist (``const0_p`` / ``const0_n``)."""
    referenced = set()
    for cell in netlist.cells:
        referenced.update(cell.inputs)
    referenced.update(port.net for port in netlist.output_ports)
    return [net for net in ("const0_p", "const0_n") if net in referenced]


def _drive_constants(
    stimulus: Dict[str, List[float]],
    nets: Sequence[str],
    excite_start: float,
    relax_start: float,
    offset: float,
) -> None:
    """Present the constant-0 value: negative rail in excite, positive in relax."""
    if "const0_n" in nets:
        stimulus.setdefault("const0_n", []).append(excite_start + offset)
    if "const0_p" in nets:
        stimulus.setdefault("const0_p", []).append(relax_start + offset)


def _decode_output(
    trace: Mapping[str, Sequence[float]],
    net: str,
    rail: Rail,
    window_start: float,
    window_end: float,
) -> int:
    # Trace lists come out of the event queue in time order, so a binary
    # search bounds the decode window instead of scanning every pulse the
    # net ever carried (which made wide batches quadratic).
    times = trace.get(net)
    pulsed = bool(times) and bisect_left(times, window_end) > bisect_left(times, window_start)
    value = 1 if pulsed else 0
    return value if rail is Rail.POS else 1 - value


class BatchedNetlistSimulator:
    """Elaborate a netlist once and pulse-simulate many stimulus batches.

    Combinational netlists process a whole batch of input patterns in a
    single event-queue run (one logical cycle per pattern — the alternating
    protocol returns every LA/FA cell to its initial state between cycles,
    so consecutive patterns cannot interfere).  Sequential netlists process
    one multi-cycle trajectory per :meth:`run_sequence`, reusing the
    elaborated elements via :meth:`PulseSimulator.reset` between
    trajectories, or several at once with :meth:`run_sequences`.  Either way the
    elaboration cost is paid exactly once, which is what makes catalog-wide
    verification campaigns (:mod:`repro.verify`) affordable.

    Attributes:
        phase_period: Synchronous phase length in ps.  Defaults to
            :func:`suggest_phase_period`, which scales with the netlist's
            critical path so deep designs settle inside one phase.
        elaborations: Number of netlist elaborations performed (always 1).
        batches_run / patterns_run: Cumulative usage statistics.
        full_trace: When False (the default), pulse capture is restricted
            to the primary-output rail nets — the only ones the decode
            windows read — which keeps large batches cheap.  Pass
            ``full_trace=True`` to record every net (needed for
            divergence localisation and waveform inspection).
        fault_model: Optional :class:`repro.faults.FaultModel`
            (replace it with :meth:`set_fault_model`).  Its
            drop/dup/jitter aspects are installed on the pulse
            simulator's cell emissions; its ``skew`` aspect shifts every
            relax-phase stimulus event (input rails, constants and clock
            pulses of relax phases) built here — modelling skew between
            the two xSFQ phases.  A zero-magnitude model leaves traces
            byte-identical to a fault-free run.
        vectorize: Forwarded to :attr:`PulseSimulator.vectorize` —
            ``None`` (default) lets eligible combinational batches and
            :meth:`run_sequences` lanes run on the struct-of-arrays fast
            path, fault-free or under an emission-inert or jitter-only
            fault model; ``False`` forces the scalar event loop (the
            differential tests pin the two bit-identical); ``True``
            insists on trying the fast path even when
            ``REPRO_SCALAR_KERNELS`` is set.
    """

    def __init__(
        self,
        netlist: XsfqNetlist,
        library: Optional[XsfqLibrary] = None,
        phase_period: Optional[float] = None,
        full_trace: bool = False,
        fault_model=None,
        vectorize: Optional[bool] = None,
    ) -> None:
        self.netlist = netlist
        self.library = library or default_library()
        self.full_trace = bool(full_trace)
        self.simulator, self._droc_clocks = build_simulator(netlist, self.library)
        self.simulator.vectorize = vectorize
        self.set_fault_model(fault_model)
        self.is_sequential = bool(self._droc_clocks)
        self.phase_period = (
            float(phase_period)
            if phase_period is not None
            else suggest_phase_period(netlist, self.library)
        )
        self.input_phase_lead = int(getattr(netlist, "input_phase_lead", 0))
        self.elaborations = 1
        self.batches_run = 0
        self.patterns_run = 0
        self._pi_names = sorted(
            {
                port.rsplit("_", 1)[0]
                for port in netlist.input_ports
                if port not in netlist.clock_nets and port not in netlist.trigger_nets
            }
        )
        self._pi_rails = [(pi, *_input_rail_nets(pi)) for pi in self._pi_names]
        self._constant_nets = _constant_nets(netlist)
        self._output_nets = {port.net for port in netlist.output_ports}
        self._driven_nets = {net for cell in netlist.cells for net in cell.outputs}
        if not self.full_trace:
            self.simulator.observe_only(self._output_nets)

    @property
    def pi_names(self) -> List[str]:
        """Original primary-input names (rail suffixes stripped, clocks
        and triggers excluded) — the keys :meth:`run_combinational` /
        :meth:`run_sequence` vectors are read by."""
        return list(self._pi_names)

    def set_fault_model(self, model) -> None:
        """Install (``None``: remove) the fault model for later batches.

        Lets one elaboration serve a whole fault unit: the nominal check
        and every margin probe install their own model, skew included,
        on the same elements and compiled fast-path plan.
        """
        self.fault_model = model
        self._skew = float(model.skew) if model is not None else 0.0
        self.simulator.set_fault_model(model)

    # ------------------------------------------------------------------
    # Decode windows
    # ------------------------------------------------------------------
    def cycle_window(self, cycle: int) -> Tuple[float, float]:
        """The excite-phase time window in which cycle ``cycle`` is decoded."""
        period = self.phase_period
        first = 2 * cycle + 1 if self.is_sequential else 2 * cycle
        return first * period, (first + 1) * period

    def unexpected_dangling_nets(self, nets: Optional[Sequence[str]] = None) -> List[str]:
        """Cell-driven dangling pulsed nets that are *not* primary outputs.

        Filters ``nets`` (default: the pulse simulator's current
        dangling record, i.e. the last run's).

        Primary outputs are observed externally, so pulses on them are
        supposed to reach no element, and stimulus pulses on unused input
        rails never enter the netlist at all; but a *cell output* pulsing
        into the void is surfaced by the verifier as a netlist-hygiene
        warning (DROC complement branches are the known-benign case).
        """
        return [
            net
            for net in (self.simulator.dangling_nets() if nets is None else nets)
            if net not in self._output_nets and net in self._driven_nets
        ]

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def run_combinational(
        self, input_vectors: Sequence[Mapping[str, int]]
    ) -> XsfqSimulationResult:
        """Simulate one batch of combinational patterns, one per logical cycle."""
        if self.is_sequential:
            raise SimulationError("netlist contains storage cells; use run_sequence")
        period = self.phase_period
        self.simulator.reset()
        stimulus: Dict[str, List[float]] = {}
        # Phase skew (fault injection): the relax wave arrives late by
        # ``skew`` ps relative to the excite wave.
        skew = self._skew
        for cycle, vector in enumerate(input_vectors):
            excite_start = (2 * cycle) * period
            relax_start = (2 * cycle + 1) * period + skew
            _drive_cycle(stimulus, self._pi_rails, vector, excite_start + 1.0, relax_start + 1.0)
            _drive_constants(stimulus, self._constant_nets, excite_start, relax_start, offset=1.0)

        total_time = 2 * len(input_vectors) * period + period
        trace = self.simulator.run(stimulus, until=total_time)

        outputs: List[Dict[str, int]] = []
        for cycle in range(len(input_vectors)):
            window_start, window_end = self.cycle_window(cycle)
            outputs.append(
                {
                    port.name: _decode_output(trace, port.net, port.rail, window_start, window_end)
                    for port in self.netlist.output_ports
                }
            )
        self.batches_run += 1
        self.patterns_run += len(input_vectors)
        return XsfqSimulationResult(
            outputs=outputs,
            trace=trace,
            phase_period=period,
            all_cells_reinitialised=self.simulator.elements_in_initial_state(),
            dangling_nets=self.simulator.dangling_nets(),
        )

    def run_sequence(
        self, input_vectors: Sequence[Mapping[str, int]]
    ) -> XsfqSimulationResult:
        """Simulate one multi-cycle trajectory of a sequential netlist.

        The stimulus follows the paper's start-up protocol: one trigger
        phase (clocking only the preloaded DROC rank), then two clocked
        phases per logical cycle.  ``input_vectors[k]`` supplies the PI
        values of logical cycle ``k``.  Repeated calls reuse the elaborated
        elements — state is cleared with :meth:`PulseSimulator.reset`.
        This always runs the scalar event loop; :meth:`run_sequences`
        runs several trajectories as kernel lanes.
        """
        if not self.is_sequential:
            raise SimulationError("netlist has no storage cells; use run_combinational")
        self.simulator.reset()
        stimulus, total_time = self._sequence_stimulus(input_vectors)
        trace = self.simulator.run(stimulus, until=total_time)
        self.batches_run += 1
        self.patterns_run += len(input_vectors)
        return self._sequence_result(
            len(input_vectors),
            trace,
            self.simulator.elements_in_initial_state(),
            self.simulator.dangling_nets(),
        )

    def run_sequences(
        self,
        trajectories: Sequence[Sequence[Mapping[str, int]]],
        accept: Optional[Callable[[List[XsfqSimulationResult]], bool]] = None,
    ) -> Optional[List[XsfqSimulationResult]]:
        """Simulate several trajectories at once, as lanes of the per-net kernel.

        Each result equals what :meth:`run_sequence` returns for that
        trajectory, and the simulator is left as the last trajectory's
        :meth:`run_sequence` leaves it (see
        :meth:`PulseSimulator.run_lanes`).  Returns ``None`` when the
        kernel declines (the reason is counted in the pulse simulator's
        ``kernel_aborts``) or ``accept(results)`` is false; nothing is
        committed then, so the caller runs the trajectories with
        :meth:`run_sequence` as if this call had not happened.
        """
        if not self.is_sequential:
            raise SimulationError("netlist has no storage cells; use run_combinational")
        # Trajectories of different lengths get different clock trains,
        # which the sweep rejects (and counts) before anything moves.
        built = [self._sequence_stimulus(vectors) for vectors in trajectories]
        if not built:
            return None
        results: List[XsfqSimulationResult] = []

        def decode(lanes) -> bool:
            results.extend(
                self._sequence_result(len(vectors), trace, reinitialised, dangling)
                for vectors, (trace, dangling, reinitialised) in zip(trajectories, lanes)
            )
            return accept is None or accept(results)

        lanes = self.simulator.run_lanes(
            [stimulus for stimulus, _ in built], until=max(total for _, total in built), accept=decode
        )
        if lanes is None:
            return None
        self.batches_run += len(results)
        self.patterns_run += sum(len(vectors) for vectors in trajectories)
        return results

    def _sequence_stimulus(
        self, input_vectors: Sequence[Mapping[str, int]]
    ) -> Tuple[Dict[str, List[float]], float]:
        """The start-up, clock and input pulses of one trajectory, and its end time."""
        period = self.phase_period
        netlist = self.netlist
        stimulus: Dict[str, List[float]] = {}
        # Start-up: the trigger pulse clocks only the preloaded rank (through
        # the merged clock+trigger net) during phase 0, emitting the
        # preloaded start state.
        if netlist.trigger_nets:
            stimulus.setdefault(TRIGGER_NET, []).append(1.0)
        # Regular clock pulses at every subsequent phase boundary.  Under
        # injected phase skew the relax phases — the even-numbered ones,
        # since logical cycle c occupies the (2c+1, 2c+2) pair — fire
        # late, modelling skew between the two synchronous xSFQ phases.
        skew = self._skew
        num_phases = 2 * len(input_vectors) + 2
        for phase in range(1, num_phases + 1):
            late = skew if phase % 2 == 0 else 0.0
            stimulus.setdefault(CLOCK_NET, []).append(phase * period + 1.0 + late)

        # Primary inputs.  Logical cycle c occupies the phase pair
        # (2c+1, 2c+2): the excite phase starts one phase after the trigger
        # so the PI rails stay aligned with the state rails emitted by the
        # DROCs.  Retimed netlists drive the inputs ``input_phase_lead``
        # phases early — their waves spend that extra phase crossing the
        # mid-rank registers, re-aligning with the state rails above the cut.
        #
        # The stimulus offset must clear every clock arrival of the same
        # phase: the preloaded rank sees the clock only after the trigger
        # merger (clock inject 1.0 + merger delay), so a PI or constant
        # rail wired *directly* into a preloaded DROC — a latch whose
        # next-state is a bare input/constant, which random FSM fuzzing
        # generates but the fixed catalog never does — would be captured
        # one phase early by a smaller offset.
        offset = 2.0 + (
            self.library.delay(CellKind.MERGER) if netlist.trigger_nets else 0.0
        )
        lead = self.input_phase_lead
        for cycle, vector in enumerate(input_vectors):
            excite_start = (2 * cycle + 1 - lead) * period
            relax_start = (2 * cycle + 2 - lead) * period + skew
            _drive_cycle(stimulus, self._pi_rails, vector, excite_start + offset, relax_start + offset)
            _drive_constants(stimulus, self._constant_nets, excite_start, relax_start, offset=offset)
        return stimulus, (num_phases + 2) * period

    def _sequence_result(self, cycles, trace, reinitialised, dangling) -> XsfqSimulationResult:
        """Decode one trajectory's trace, one output dictionary per logical cycle."""
        outputs: List[Dict[str, int]] = []
        for cycle in range(cycles):
            window_start, window_end = self.cycle_window(cycle)
            outputs.append(
                {
                    port.name: _decode_output(trace, port.net, port.rail, window_start, window_end)
                    for port in self.netlist.output_ports
                }
            )
        return XsfqSimulationResult(
            outputs=outputs,
            trace=trace,
            phase_period=self.phase_period,
            all_cells_reinitialised=reinitialised,
            dangling_nets=dangling,
        )


def simulate_combinational(
    netlist: XsfqNetlist,
    input_vectors: Sequence[Mapping[str, int]],
    phase_period: Optional[float] = None,
    library: Optional[XsfqLibrary] = None,
) -> XsfqSimulationResult:
    """Pulse-simulate a clock-free combinational xSFQ netlist (one batch).

    Each entry of ``input_vectors`` supplies one logical cycle's primary
    input values (by original PI name); the result carries one decoded
    output dictionary per logical cycle.  ``phase_period`` defaults to
    :func:`suggest_phase_period`.  For many batches over the same netlist,
    hold a :class:`BatchedNetlistSimulator` instead of calling this in a
    loop — this helper re-elaborates the netlist on every call.
    """
    sim = BatchedNetlistSimulator(
        netlist, library=library, phase_period=phase_period, full_trace=True
    )
    if sim.is_sequential:
        raise SimulationError("netlist contains storage cells; use simulate_sequential")
    return sim.run_combinational(input_vectors)


def simulate_sequential(
    netlist: XsfqNetlist,
    input_vectors: Sequence[Mapping[str, int]],
    phase_period: Optional[float] = None,
    library: Optional[XsfqLibrary] = None,
) -> XsfqSimulationResult:
    """Pulse-simulate a sequential xSFQ netlist (one multi-cycle trajectory).

    Decoded outputs are reported per logical cycle, starting with cycle 0 =
    the first excite/relax pair after start-up.  See
    :meth:`BatchedNetlistSimulator.run_sequence` for the protocol details
    and batching.
    """
    sim = BatchedNetlistSimulator(
        netlist, library=library, phase_period=phase_period, full_trace=True
    )
    if not sim.is_sequential:
        raise SimulationError("netlist has no storage cells; use simulate_combinational")
    return sim.run_sequence(input_vectors)


def reference_start_state(latch_names: Sequence[str]) -> Dict[str, int]:
    """The classic all-ones architectural start state.

    Historically every boundary DROC captured the positive rail of its
    next-state function, so the preload/trigger start-up established an
    all-ones state.  Mappings that capture a negative rail start the
    corresponding latch at 0; prefer
    ``SequentialMappingInfo.start_state`` (carried on
    ``XsfqSynthesisResult.sequential_info``) which records the exact state
    per latch.  This helper is kept for circuits known to use positive
    captures only (e.g. the Figure 7 counter).
    """
    return {name: 1 for name in latch_names}
