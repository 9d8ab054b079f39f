"""Reduced analog model of Josephson-junction circuits (RCSJ phase dynamics).

The paper characterises its cells with HSPICE and the MIT-LL SFQ5ee JJ
models; this module provides the methodological stand-in: a small
nonlinear-phase-model simulator based on the resistively-and-capacitively
shunted junction (RCSJ) equation

    C (Phi0/2pi) d2(phi)/dt2 + (1/R) (Phi0/2pi) d(phi)/dt + Ic sin(phi) = I(t)

over networks of junctions, inductors and bias current sources.
:meth:`JjCircuit.simulate` compiles the network into flat tables and
generates its right-hand side from them as straight-line Python, then
integrates it with the adaptive Dormand–Prince 5(4) pair of
:mod:`repro.sim.analog.rk45`, a plain-Python port of SciPy's RK45 (same
steps, same samples), so the simulator imports neither numpy nor SciPy.
Error control is unit-consistent:
phases are held to ``PHASE_ATOL`` rad and phase velocities to ``PHASE_ATOL``
rad per picosecond (1e-9 rad/s on the velocities would force femtosecond
steps on junctions at rest and buy no accuracy).  A 2*pi phase slip of a
junction corresponds to one SFQ pulse; the delay-extraction helpers measure
the time between input and output phase slips, which is exactly how the
paper derives the Table-2 delays from "JJ phase rise times".

The goal is demonstrative rather than sign-off accurate: the JTL and
C-element templates in :mod:`repro.sim.analog.cells` propagate pulses and
produce delays of the right order of magnitude, and the shipped library
numbers remain those of the paper's Table 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .rk45 import solve_ivp

#: Magnetic flux quantum (Wb).
PHI0 = 2.067833848e-15
#: Reduced flux quantum Phi0 / 2 pi.
PHI0_BAR = PHI0 / (2.0 * math.pi)
#: Absolute error tolerance on junction phases (rad).
PHASE_ATOL = 1e-9
#: Time scale (s) of the phase-velocity tolerance: velocities are held to
#: ``PHASE_ATOL`` rad per picosecond, so a velocity error carried over one
#: step (at most ``5 * dt`` = 0.5 ps) moves a phase by less than ``PHASE_ATOL``.
VELOCITY_TIME_SCALE = 1e-12


@dataclass
class Junction:
    """One Josephson junction between ``node`` and ground.

    Attributes:
        node: Circuit node index the junction is attached to.
        critical_current: Ic in amperes.
        capacitance: Shunt capacitance in farads.
        resistance: Shunt resistance in ohms.
    """

    node: int
    critical_current: float = 100e-6
    capacitance: float = 0.5e-12
    resistance: float = 2.0


@dataclass
class Inductor:
    """Inductor between two nodes (node index -1 denotes ground)."""

    node_a: int
    node_b: int
    inductance: float = 4e-12


@dataclass
class CurrentSource:
    """Current injected into a node: constant bias or a time function."""

    node: int
    amplitude: float = 0.0
    waveform: Optional[Callable[[float], float]] = None

    def current(self, time: float) -> float:
        if self.waveform is not None:
            return self.waveform(time)
        return self.amplitude


#: ``math.exp`` of any argument below this is exactly 0.0 (the smallest
#: subnormal double is ``exp(-745.13...)``).
_EXP_UNDERFLOW = -745.2


def sfq_pulse_train(times: Sequence[float], amplitude: float = 250e-6, width: float = 4e-12) -> Callable[[float], float]:
    """Gaussian current pulses approximating incoming SFQ pulses.

    A pulse whose exponent underflows adds exactly 0.0, so it is skipped
    without calling ``math.exp``; every sample stays bit-identical.
    """
    spread = 2.0 * (width / 2.355) ** 2
    # A non-finite amplitude times an underflowed 0.0 is NaN: skip nothing.
    cutoff = _EXP_UNDERFLOW if math.isfinite(amplitude) else -math.inf

    def waveform(t: float) -> float:
        total = 0.0
        for center in times:
            arg = -((t - center) ** 2) / spread
            if not arg < cutoff:  # a NaN argument still propagates
                total += amplitude * math.exp(arg)
        return total

    return waveform


class JjCircuit:
    """A small JJ circuit solved in the phase domain.

    The state vector holds the phase of the node each junction sits on plus
    its time derivative; inductors couple node phases, bias sources and
    input pulse sources inject current.  Every node must carry exactly one
    junction (the standard situation inside SFQ cells), which keeps the
    formulation a plain ODE system.
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.junctions: List[Junction] = []
        self.inductors: List[Inductor] = []
        self.sources: List[CurrentSource] = []

    def add_junction(self, junction: Junction) -> Junction:
        self.junctions.append(junction)
        return junction

    def add_inductor(self, inductor: Inductor) -> Inductor:
        self.inductors.append(inductor)
        return inductor

    def add_source(self, source: CurrentSource) -> CurrentSource:
        self.sources.append(source)
        return source

    # ------------------------------------------------------------------
    def _junction_on_node(self) -> Dict[int, Junction]:
        by_node: Dict[int, Junction] = {}
        for junction in self.junctions:
            if junction.node in by_node:
                raise ValueError(f"node {junction.node} carries two junctions")
            by_node[junction.node] = junction
        if len(by_node) != self.num_nodes:
            raise ValueError("every node must carry exactly one junction")
        return by_node

    def simulate(
        self,
        duration: float = 200e-12,
        dt: float = 0.1e-12,
        initial_phases: Optional[Sequence[float]] = None,
    ) -> "JjWaveforms":
        """Integrate the phase dynamics and return node waveforms."""
        by_node = self._junction_on_node()
        order = sorted(by_node)
        index_of = {node: k for k, node in enumerate(order)}
        n = len(order)

        # The network, compiled once: per-node constant bias, driven
        # sources, inductor conductances (index -1 is ground) and per
        # junction (Ic, Phi0_bar/R, 1/(C Phi0_bar)).
        bias = [0.0] * n
        driven: List[Tuple[int, Callable[[float], float]]] = []
        for source in self.sources:
            if source.node in index_of:
                k = index_of[source.node]
                if source.waveform is None:
                    bias[k] += source.amplitude
                else:
                    driven.append((k, source.waveform))
        inductors = [
            (
                index_of[inductor.node_a] if inductor.node_a >= 0 else -1,
                index_of[inductor.node_b] if inductor.node_b >= 0 else -1,
                PHI0_BAR / inductor.inductance,
            )
            for inductor in self.inductors
        ]
        junctions = [
            (j.critical_current, PHI0_BAR / j.resistance, 1.0 / (j.capacitance * PHI0_BAR))
            for j in (by_node[node] for node in order)
        ]

        derivatives = _compile_derivatives(bias, driven, inductors, junctions)

        state0 = [0.0] * (2 * n)
        if initial_phases is not None:
            phases0 = [float(phase) for phase in initial_phases]
            if len(phases0) != n:
                raise ValueError(f"initial_phases needs {n} values, got {len(phases0)}")
            state0[:n] = phases0
        # The same grid as ``np.arange(0.0, duration, dt)``, value for value.
        times = [k * dt for k in range(math.ceil(duration / dt))]
        solution = solve_ivp(
            derivatives,
            (0.0, duration),
            state0,
            t_eval=times,
            max_step=dt * 5,
            rtol=1e-6,
            atol=[PHASE_ATOL] * n + [PHASE_ATOL / VELOCITY_TIME_SCALE] * n,
        )
        phases = {node: solution.y[index_of[node]] for node in order}
        return JjWaveforms(times=solution.t, phases=phases)


def _compile_derivatives(
    bias: Sequence[float],
    driven: Sequence[Tuple[int, Callable[[float], float]]],
    inductors: Sequence[Tuple[int, int, float]],
    junctions: Sequence[Tuple[float, float, float]],
) -> Callable[[float, Sequence[float]], List[float]]:
    """``derivatives(t, state)`` of a compiled network, as straight-line code.

    The state is ``n`` node phases ``p{k}`` followed by their velocities
    ``v{k}``.  Node ``k`` starts from its bias current ``c{k}``, adds its
    driven sources in order, then each inductor in order moves its branch
    current between its two ends; an end at index -1 is ground, whose
    phase is 0.0 and whose current is dropped.  Every constant is a name
    in the code's namespace, never a literal, so any float value (inf and
    nan included) gives the same arithmetic as the tables themselves.
    """
    n = len(junctions)
    namespace: Dict[str, object] = {"sin": math.sin}
    lines = [
        "def derivatives(t, state):",
        f"    [{', '.join([f'p{k}' for k in range(n)] + [f'v{k}' for k in range(n)])}] = state",
    ]
    for k, current in enumerate(bias):
        namespace[f"bias{k}"] = current
        lines.append(f"    c{k} = bias{k}")
    for j, (k, waveform) in enumerate(driven):
        namespace[f"waveform{j}"] = waveform
        lines.append(f"    c{k} += waveform{j}(t)")
    for j, (a, b, conductance) in enumerate(inductors):
        namespace[f"conductance{j}"] = conductance
        phase_a = f"p{a}" if a >= 0 else "0.0"
        phase_b = f"p{b}" if b >= 0 else "0.0"
        lines.append(f"    branch = conductance{j} * ({phase_a} - {phase_b})")
        if a >= 0:
            lines.append(f"    c{a} -= branch")
        if b >= 0:
            lines.append(f"    c{b} += branch")
    accelerations = []
    for k, (critical, damping, inverse_mass) in enumerate(junctions):
        namespace.update({f"critical{k}": critical, f"damping{k}": damping, f"inverse_mass{k}": inverse_mass})
        accelerations.append(f"(c{k} - critical{k} * sin(p{k}) - damping{k} * v{k}) * inverse_mass{k}")
    lines.append(f"    return [{', '.join([f'v{k}' for k in range(n)] + accelerations)}]")
    exec(compile("\n".join(lines) + "\n", "<rcsj derivatives>", "exec"), namespace)
    return namespace["derivatives"]


@dataclass
class JjWaveforms:
    """Phase waveforms of every junction node."""

    times: Sequence[float]
    phases: Dict[int, Sequence[float]]

    def pulse_times(self, node: int, threshold: float = math.pi) -> List[float]:
        """Times at which the node's phase crosses successive 2*pi slips.

        Each 2*pi phase slip corresponds to one SFQ pulse; the reported time
        is the crossing of ``2*pi*k + threshold``.
        """
        phase = self.phases[node]
        crossings: List[float] = []
        level = threshold
        for k in range(1, len(phase)):
            while phase[k] >= level > phase[k - 1] - 1e-12:
                # Linear interpolation of the crossing instant.
                fraction = (level - phase[k - 1]) / max(phase[k] - phase[k - 1], 1e-18)
                crossings.append(float(self.times[k - 1] + fraction * (self.times[k] - self.times[k - 1])))
                level += 2.0 * math.pi
        return crossings

    def num_pulses(self, node: int) -> int:
        """Number of SFQ pulses (2*pi slips) observed on the node."""
        return len(self.pulse_times(node))

    def voltage(self, node: int) -> List[float]:
        """Node voltage waveform V = Phi0_bar * d(phi)/dt.

        The derivative is ``np.gradient(phase, times)``: second-order
        central differences on the (possibly non-uniform) sample times and
        one-sided first-order differences at both ends.
        """
        t, phase = self.times, self.phases[node]
        slopes = [(phase[1] - phase[0]) / (t[1] - t[0])]
        for k in range(1, len(phase) - 1):
            left, right = t[k] - t[k - 1], t[k + 1] - t[k]
            slopes.append(
                -right / (left * (left + right)) * phase[k - 1]
                + (right - left) / (left * right) * phase[k]
                + left / (right * (left + right)) * phase[k + 1]
            )
        slopes.append((phase[-1] - phase[-2]) / (t[-1] - t[-2]))
        return [PHI0_BAR * slope for slope in slopes]


def propagation_delay(
    waveforms: JjWaveforms, input_node: int, output_node: int, pulse_index: int = 0
) -> Optional[float]:
    """Delay between the k-th input pulse and the k-th output pulse (seconds)."""
    inputs = waveforms.pulse_times(input_node)
    outputs = waveforms.pulse_times(output_node)
    if pulse_index >= len(inputs) or pulse_index >= len(outputs):
        return None
    return outputs[pulse_index] - inputs[pulse_index]
