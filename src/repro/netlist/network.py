"""Gate-level logic networks.

This module provides :class:`LogicNetwork`, the technology-independent
gate-level netlist used as the common interchange format of the framework.
It plays the role Yosys' RTLIL / ABC's network layer play in the paper's
flow: RTL generators (:mod:`repro.rtl`), benchmark generators
(:mod:`repro.circuits`) and the file-format front ends
(:mod:`repro.netlist.bench`, :mod:`repro.netlist.blif`,
:mod:`repro.netlist.verilog`) all produce ``LogicNetwork`` objects, which are
then converted into AND-Inverter graphs (:mod:`repro.aig`) for optimisation
and finally mapped to xSFQ (:mod:`repro.core`) or RSFQ
(:mod:`repro.baselines`) cell netlists.

A network is a named directed acyclic graph of logic gates plus a set of
D flip-flops (latches).  Signals are identified by strings.  Primary outputs
reference signals by name; a signal may drive any number of outputs and
gate inputs.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple


class GateType(enum.Enum):
    """Supported gate functions.

    ``AND``/``OR``/``NAND``/``NOR``/``XOR``/``XNOR`` accept two or more
    inputs, ``NOT``/``BUF`` exactly one, ``MUX`` exactly three
    (``sel``, ``d0``, ``d1`` — output is ``d1`` when ``sel`` is 1),
    ``CONST0``/``CONST1`` none, and ``DFF`` exactly one (the next-state
    signal).  ``INPUT`` marks a primary input and has no fanins.
    """

    INPUT = "input"
    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    MUX = "mux"
    DFF = "dff"


#: Gate types that represent combinational logic functions.
COMBINATIONAL_TYPES = frozenset(
    {
        GateType.BUF,
        GateType.NOT,
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
        GateType.XOR,
        GateType.XNOR,
        GateType.MUX,
    }
)

#: Minimum/maximum fanin arity per gate type (None means unbounded).
_ARITY: Dict[GateType, Tuple[int, Optional[int]]] = {
    GateType.INPUT: (0, 0),
    GateType.CONST0: (0, 0),
    GateType.CONST1: (0, 0),
    GateType.BUF: (1, 1),
    GateType.NOT: (1, 1),
    GateType.AND: (1, None),
    GateType.NAND: (1, None),
    GateType.OR: (1, None),
    GateType.NOR: (1, None),
    GateType.XOR: (1, None),
    GateType.XNOR: (1, None),
    GateType.MUX: (3, 3),
    GateType.DFF: (1, 1),
}


class NetworkError(Exception):
    """Raised for malformed networks or invalid operations on them."""


@dataclass
class Gate:
    """A single named node of a :class:`LogicNetwork`.

    Attributes:
        name: Output signal name of the gate (unique within the network).
        gate_type: The logic function computed by the gate.
        fanins: Names of the gate's input signals, in order.
        init: Initial state for ``DFF`` gates (0 or 1); ignored otherwise.
    """

    name: str
    gate_type: GateType
    fanins: List[str] = field(default_factory=list)
    init: int = 0

    def validate(self) -> None:
        """Check the fanin arity against the gate type."""
        lo, hi = _ARITY[self.gate_type]
        n = len(self.fanins)
        if n < lo or (hi is not None and n > hi):
            raise NetworkError(
                f"gate {self.name!r} of type {self.gate_type.value} has {n} fanins, "
                f"expected between {lo} and {hi if hi is not None else 'inf'}"
            )

    def is_combinational(self) -> bool:
        """Return True when the gate computes a combinational function."""
        return self.gate_type in COMBINATIONAL_TYPES

    def is_latch(self) -> bool:
        """Return True when the gate is a D flip-flop."""
        return self.gate_type is GateType.DFF


def _eval_gate(gate_type: GateType, values: Sequence[int]) -> int:
    """Evaluate a combinational gate on 0/1 values."""
    if gate_type is GateType.CONST0:
        return 0
    if gate_type is GateType.CONST1:
        return 1
    if gate_type is GateType.BUF:
        return values[0]
    if gate_type is GateType.NOT:
        return 1 - values[0]
    if gate_type is GateType.AND:
        return int(all(values))
    if gate_type is GateType.NAND:
        return 1 - int(all(values))
    if gate_type is GateType.OR:
        return int(any(values))
    if gate_type is GateType.NOR:
        return 1 - int(any(values))
    if gate_type is GateType.XOR:
        return sum(values) & 1
    if gate_type is GateType.XNOR:
        return 1 - (sum(values) & 1)
    if gate_type is GateType.MUX:
        sel, d0, d1 = values
        return d1 if sel else d0
    raise NetworkError(f"cannot evaluate gate type {gate_type}")


class LogicNetwork:
    """A named gate-level netlist with primary inputs, outputs and latches.

    The network stores one :class:`Gate` per signal.  Primary inputs are
    gates of type ``INPUT``; D flip-flops are gates of type ``DFF`` whose
    name is the latch *output* (present-state) signal and whose single fanin
    is the next-state signal.  Primary outputs are references to signal
    names (the same signal may be listed several times, matching how the
    ISCAS ``.bench`` format treats outputs).
    """

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self.gates: Dict[str, Gate] = {}
        self.inputs: List[str] = []
        self.outputs: List[str] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input signal and return its name."""
        self._add_gate(Gate(name, GateType.INPUT))
        self.inputs.append(name)
        return name

    def add_output(self, signal: str) -> None:
        """Declare ``signal`` as a primary output (it may not exist yet)."""
        self.outputs.append(signal)

    def add_gate(self, name: str, gate_type: GateType, fanins: Sequence[str], init: int = 0) -> str:
        """Add a gate driving signal ``name`` and return the name.

        Fanin signals do not need to exist yet; :meth:`validate` checks that
        every referenced signal is eventually defined.
        """
        gate = Gate(name, gate_type, list(fanins), init=init)
        gate.validate()
        self._add_gate(gate)
        return name

    def add_const(self, name: str, value: int) -> str:
        """Add a constant-0 or constant-1 gate."""
        return self.add_gate(name, GateType.CONST1 if value else GateType.CONST0, [])

    def add_latch(self, name: str, next_state: str, init: int = 0) -> str:
        """Add a D flip-flop with output ``name`` and data input ``next_state``."""
        return self.add_gate(name, GateType.DFF, [next_state], init=init)

    def _add_gate(self, gate: Gate) -> None:
        if gate.name in self.gates:
            raise NetworkError(f"signal {gate.name!r} is defined twice")
        self.gates[gate.name] = gate

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self.gates

    def __len__(self) -> int:
        return len(self.gates)

    def gate(self, name: str) -> Gate:
        """Return the gate driving ``name``."""
        try:
            return self.gates[name]
        except KeyError as exc:
            raise NetworkError(f"unknown signal {name!r}") from exc

    @property
    def latches(self) -> List[Gate]:
        """All DFF gates, in insertion order."""
        return [g for g in self.gates.values() if g.is_latch()]

    def is_combinational(self) -> bool:
        """Return True when the network contains no flip-flops."""
        return not any(g.is_latch() for g in self.gates.values())

    def num_gates(self, gate_type: Optional[GateType] = None) -> int:
        """Count gates, optionally restricted to one type."""
        if gate_type is None:
            return sum(1 for g in self.gates.values() if g.is_combinational())
        return sum(1 for g in self.gates.values() if g.gate_type is gate_type)

    def fanouts(self) -> Dict[str, List[str]]:
        """Map each signal to the list of gate names that consume it."""
        result: Dict[str, List[str]] = {name: [] for name in self.gates}
        for gate in self.gates.values():
            for fanin in gate.fanins:
                result.setdefault(fanin, []).append(gate.name)
        return result

    # ------------------------------------------------------------------
    # Validation / ordering
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural well-formedness.

        Verifies that every referenced signal is defined, every output
        exists, arity constraints hold, and the combinational part is
        acyclic (cycles may only pass through flip-flops).
        """
        for gate in self.gates.values():
            gate.validate()
            for fanin in gate.fanins:
                if fanin not in self.gates:
                    raise NetworkError(
                        f"gate {gate.name!r} references undefined signal {fanin!r}"
                    )
        for out in self.outputs:
            if out not in self.gates:
                raise NetworkError(f"primary output {out!r} is not defined")
        # Acyclicity of the combinational part is checked by attempting a
        # topological ordering.
        self.topological_order()

    def topological_order(self) -> List[str]:
        """Return signal names in combinational topological order.

        Sources are primary inputs, constants and latch outputs; each
        combinational gate appears after all of its fanins.  Latches appear
        at the position of their output signal (as sources).  Raises
        :class:`NetworkError` when the combinational logic contains a cycle.
        """
        indegree: Dict[str, int] = {}
        consumers: Dict[str, List[str]] = {name: [] for name in self.gates}
        for gate in self.gates.values():
            if gate.is_combinational():
                indegree[gate.name] = len(gate.fanins)
                for fanin in gate.fanins:
                    consumers.setdefault(fanin, []).append(gate.name)
            else:
                indegree[gate.name] = 0
        ready = deque(name for name, deg in indegree.items() if deg == 0)
        order: List[str] = []
        while ready:
            name = ready.popleft()
            order.append(name)
            for consumer in consumers.get(name, []):
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self.gates):
            cyclic = sorted(set(self.gates) - set(order))
            raise NetworkError(f"combinational cycle involving signals {cyclic[:8]}")
        return order

    def levels(self) -> Dict[str, int]:
        """Logic level of every signal (sources are level 0)."""
        level: Dict[str, int] = {}
        for name in self.topological_order():
            gate = self.gates[name]
            if gate.is_combinational():
                level[name] = 1 + max(level[f] for f in gate.fanins) if gate.fanins else 0
            else:
                level[name] = 0
        return level

    def depth(self) -> int:
        """Maximum logic level over all signals (0 for an empty network)."""
        lv = self.levels()
        return max(lv.values()) if lv else 0

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        input_values: Mapping[str, int],
        state: Optional[Mapping[str, int]] = None,
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Evaluate the network for one cycle.

        Args:
            input_values: Value (0/1) for every primary input.
            state: Present-state value for every latch output; defaults to
                each latch's ``init`` value.

        Returns:
            A pair ``(outputs, next_state)`` where ``outputs`` maps each
            primary-output signal name to its value and ``next_state`` maps
            each latch output name to the value it will hold after the clock
            edge.
        """
        values: Dict[str, int] = {}
        for name in self.inputs:
            if name not in input_values:
                raise NetworkError(f"missing value for primary input {name!r}")
            values[name] = int(bool(input_values[name]))
        for latch in self.latches:
            if state is not None and latch.name in state:
                values[latch.name] = int(bool(state[latch.name]))
            else:
                values[latch.name] = latch.init
        for name in self.topological_order():
            gate = self.gates[name]
            if gate.is_combinational() or gate.gate_type in (GateType.CONST0, GateType.CONST1):
                values[name] = _eval_gate(gate.gate_type, [values[f] for f in gate.fanins])
        outputs = {out: values[out] for out in self.outputs}
        next_state = {latch.name: values[latch.fanins[0]] for latch in self.latches}
        return outputs, next_state

    def simulate_sequence(
        self, input_sequence: Sequence[Mapping[str, int]]
    ) -> List[Dict[str, int]]:
        """Run a multi-cycle simulation starting from the latch init state.

        Returns one output dictionary per cycle.
        """
        state = {latch.name: latch.init for latch in self.latches}
        trace: List[Dict[str, int]] = []
        for vector in input_sequence:
            outputs, state = self.evaluate(vector, state)
            trace.append(outputs)
        return trace

    def output_vector(self, input_values: Mapping[str, int]) -> Tuple[int, ...]:
        """Convenience: evaluate a combinational network and return outputs as a tuple."""
        outputs, _ = self.evaluate(input_values)
        return tuple(outputs[o] for o in self.outputs)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def cone_of_influence(self, roots: Iterable[str]) -> Set[str]:
        """Return all signals in the transitive fanin of ``roots`` (inclusive)."""
        seen: Set[str] = set()
        stack = [r for r in roots]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.gate(name).fanins)
        return seen

    def remove_dangling(self) -> int:
        """Delete gates not in the transitive fanin of any output or latch.

        Latches themselves are kept only when reachable from outputs (or from
        kept latches).  Returns the number of removed gates.
        """
        # Iterate because removing a latch may render more logic dangling.
        removed_total = 0
        while True:
            keep = set(self.outputs)
            frontier = list(self.outputs)
            seen: Set[str] = set()
            while frontier:
                name = frontier.pop()
                if name in seen:
                    continue
                seen.add(name)
                keep.add(name)
                frontier.extend(self.gate(name).fanins)
            dangling = [
                name
                for name, gate in self.gates.items()
                if name not in keep and gate.gate_type is not GateType.INPUT
            ]
            if not dangling:
                return removed_total
            for name in dangling:
                del self.gates[name]
            removed_total += len(dangling)

    def copy(self) -> "LogicNetwork":
        """Return a deep copy of the network."""
        dup = LogicNetwork(self.name)
        dup.inputs = list(self.inputs)
        dup.outputs = list(self.outputs)
        dup.gates = {
            name: Gate(g.name, g.gate_type, list(g.fanins), g.init)
            for name, g in self.gates.items()
        }
        return dup

    def rename_signals(self, mapping: Mapping[str, str]) -> "LogicNetwork":
        """Return a copy with signals renamed according to ``mapping``.

        Signals absent from ``mapping`` keep their names.
        """
        def rn(name: str) -> str:
            return mapping.get(name, name)

        dup = LogicNetwork(self.name)
        dup.inputs = [rn(n) for n in self.inputs]
        dup.outputs = [rn(n) for n in self.outputs]
        for name, g in self.gates.items():
            dup.gates[rn(name)] = Gate(rn(name), g.gate_type, [rn(f) for f in g.fanins], g.init)
        return dup

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Return a summary dictionary (inputs, outputs, gates, latches, depth)."""
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": self.num_gates(),
            "latches": len(self.latches),
            "depth": self.depth(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"<LogicNetwork {self.name!r}: {s['inputs']} PI, {s['outputs']} PO, "
            f"{s['gates']} gates, {s['latches']} FF, depth {s['depth']}>"
        )


class NetworkBuilder:
    """Helper for building networks with automatically generated signal names.

    The builder offers one method per gate function and returns the name of
    the created signal, which keeps generator code (e.g. the benchmark
    circuit generators in :mod:`repro.circuits`) compact and readable.
    """

    def __init__(self, name: str = "top", prefix: str = "n") -> None:
        self.network = LogicNetwork(name)
        self._prefix = prefix
        self._counter = 0
        self._const0: Optional[str] = None
        self._const1: Optional[str] = None

    def fresh(self, hint: str = "") -> str:
        """Return a fresh unused signal name."""
        while True:
            self._counter += 1
            name = f"{self._prefix}{self._counter}" if not hint else f"{hint}_{self._counter}"
            if name not in self.network:
                return name

    def input(self, name: str) -> str:
        return self.network.add_input(name)

    def inputs(self, names: Iterable[str]) -> List[str]:
        return [self.network.add_input(n) for n in names]

    def output(self, signal: str, name: Optional[str] = None) -> str:
        """Mark ``signal`` as primary output, optionally buffering it under ``name``."""
        if name is not None and name != signal:
            self.network.add_gate(name, GateType.BUF, [signal])
            signal = name
        self.network.add_output(signal)
        return signal

    def const(self, value: int) -> str:
        if value:
            if self._const1 is None:
                self._const1 = self.network.add_const(self.fresh("const1"), 1)
            return self._const1
        if self._const0 is None:
            self._const0 = self.network.add_const(self.fresh("const0"), 0)
        return self._const0

    def _gate(self, gate_type: GateType, fanins: Sequence[str], name: Optional[str]) -> str:
        out = name if name is not None else self.fresh()
        return self.network.add_gate(out, gate_type, fanins)

    def buf(self, a: str, name: Optional[str] = None) -> str:
        return self._gate(GateType.BUF, [a], name)

    def not_(self, a: str, name: Optional[str] = None) -> str:
        return self._gate(GateType.NOT, [a], name)

    def and_(self, *fanins: str, name: Optional[str] = None) -> str:
        return self._gate(GateType.AND, list(fanins), name)

    def nand(self, *fanins: str, name: Optional[str] = None) -> str:
        return self._gate(GateType.NAND, list(fanins), name)

    def or_(self, *fanins: str, name: Optional[str] = None) -> str:
        return self._gate(GateType.OR, list(fanins), name)

    def nor(self, *fanins: str, name: Optional[str] = None) -> str:
        return self._gate(GateType.NOR, list(fanins), name)

    def xor(self, *fanins: str, name: Optional[str] = None) -> str:
        return self._gate(GateType.XOR, list(fanins), name)

    def xnor(self, *fanins: str, name: Optional[str] = None) -> str:
        return self._gate(GateType.XNOR, list(fanins), name)

    def mux(self, sel: str, d0: str, d1: str, name: Optional[str] = None) -> str:
        """2:1 multiplexer: output is ``d1`` when ``sel`` is 1, else ``d0``."""
        return self._gate(GateType.MUX, [sel, d0, d1], name)

    def dff(self, next_state: str, name: Optional[str] = None, init: int = 0) -> str:
        out = name if name is not None else self.fresh("ff")
        return self.network.add_latch(out, next_state, init=init)

    # -- word-level helpers -------------------------------------------------
    def word_inputs(self, base: str, width: int) -> List[str]:
        """Declare ``width`` primary inputs named ``base[i]`` (LSB first)."""
        return [self.network.add_input(f"{base}[{i}]") for i in range(width)]

    def word_outputs(self, signals: Sequence[str], base: str) -> List[str]:
        """Expose ``signals`` as primary outputs named ``base[i]`` (LSB first)."""
        return [self.output(sig, f"{base}[{i}]") for i, sig in enumerate(signals)]

    def half_adder(self, a: str, b: str) -> Tuple[str, str]:
        """Return (sum, carry)."""
        return self.xor(a, b), self.and_(a, b)

    def full_adder(self, a: str, b: str, cin: str) -> Tuple[str, str]:
        """Return (sum, carry-out) of a 1-bit full adder."""
        s1 = self.xor(a, b)
        s = self.xor(s1, cin)
        c1 = self.and_(a, b)
        c2 = self.and_(s1, cin)
        cout = self.or_(c1, c2)
        return s, cout

    def ripple_adder(self, a: Sequence[str], b: Sequence[str], cin: Optional[str] = None) -> Tuple[List[str], str]:
        """Ripple-carry adder over equal-width LSB-first words.

        Returns (sum bits, carry out).
        """
        if len(a) != len(b):
            raise NetworkError("ripple_adder operands must have equal width")
        carry = cin if cin is not None else self.const(0)
        sums: List[str] = []
        for ai, bi in zip(a, b):
            s, carry = self.full_adder(ai, bi, carry)
            sums.append(s)
        return sums, carry

    def finish(self, validate: bool = True) -> LogicNetwork:
        """Return the built network (validated by default)."""
        if validate:
            self.network.validate()
        return self.network
