"""Pulse-level equivalence checking against word-parallel golden simulation.

:func:`verify_result` is the core of the verification subsystem: it takes
a finished :class:`~repro.core.flow.XsfqSynthesisResult`, elaborates the
mapped netlist into a :class:`~repro.sim.pulse.BatchedNetlistSimulator`
**once**, drives a reproducible :class:`~repro.verify.stimulus.StimulusSuite`
through it, and cross-checks every decoded output against the golden
AND-inverter graph simulated word-parallel by
:mod:`repro.aig.simulate` (one pass over the graph evaluates the whole
suite — Python integers are the bit-parallel vectors).

On a mismatch the verdict carries a full :class:`Counterexample` — the
input pattern, the cycle, the offending primary output — plus the *first
divergence net*: the topologically earliest rail net of the mapped
netlist whose pulse activity disagrees with the mapped AIG on the failing
pattern.  That is the net to stare at when debugging a mapping bug; see
``docs/verification.md`` for a worked reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..aig import Aig, network_to_aig
from ..aig.simulate import lit_values, simulate_patterns
from ..core.dual_rail import XsfqNetlist
from ..core.flow import XsfqSynthesisResult
from ..core.polarity import Rail
from ..netlist.network import LogicNetwork
from ..sim.pulse import BatchedNetlistSimulator
from .stimulus import StimulusSuite, stimulus_suite

__all__ = [
    "Counterexample",
    "NetlistVerifier",
    "VerificationError",
    "VerificationVerdict",
    "verify_result",
]


class VerificationError(Exception):
    """Raised for requests the verifier cannot serve (not for mismatches)."""


@dataclass(frozen=True)
class Counterexample:
    """A concrete input pattern on which pulse and golden outputs diverge.

    Attributes:
        inputs: The primary-input assignment of the failing cycle.
        output: Name of the first diverging primary output.
        expected: Golden value of that output.
        observed: Value decoded from the pulse trace.
        pattern: Index of the failing pattern within the stimulus suite.
        cycle: Cycle index within the trajectory (equals ``pattern`` for
            combinational circuits, where each pattern is one cycle).
        sequence: Trajectory index (0 for combinational circuits).
    """

    inputs: Dict[str, int]
    output: str
    expected: int
    observed: int
    pattern: int
    cycle: int
    sequence: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "inputs": dict(self.inputs),
            "output": self.output,
            "expected": self.expected,
            "observed": self.observed,
            "pattern": self.pattern,
            "cycle": self.cycle,
            "sequence": self.sequence,
        }


@dataclass
class VerificationVerdict:
    """Machine-checkable outcome of one verification run.

    Attributes:
        circuit: Name of the verified design.
        status: ``"equivalent"``, ``"counterexample"`` or ``"skipped"``.
        patterns: Number of input patterns actually verified.
        mode: Stimulus mode (``"exhaustive"`` / ``"random+corners"``).
        seed: Stimulus seed.
        counterexample: Present when ``status == "counterexample"``.
        first_divergence_net: Topologically earliest netlist rail whose
            pulse activity disagrees with the mapped AIG on the failing
            pattern (falls back to the failing output port's net).
        dangling_nets: Pulsed nets with no consuming element other than
            the primary outputs.  Expected for DROC complement branches;
            anything unexpected deserves a look (hence the warning).
        elaborations: Netlist elaborations performed (1 — that is the
            point of batching).
        reason: Human explanation for ``"skipped"`` verdicts.
    """

    circuit: str
    status: str
    patterns: int = 0
    mode: str = ""
    seed: int = 0
    counterexample: Optional[Counterexample] = None
    first_divergence_net: Optional[str] = None
    dangling_nets: List[str] = field(default_factory=list)
    elaborations: int = 0
    reason: str = ""

    @property
    def equivalent(self) -> bool:
        return self.status == "equivalent"

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-serialisable record (the cached campaign unit)."""
        return {
            "circuit": self.circuit,
            "status": self.status,
            "patterns": self.patterns,
            "mode": self.mode,
            "seed": self.seed,
            "counterexample": self.counterexample.to_dict() if self.counterexample else None,
            "first_divergence_net": self.first_divergence_net,
            "dangling_nets": list(self.dangling_nets),
            "elaborations": self.elaborations,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "VerificationVerdict":
        cex = record.get("counterexample")
        return cls(
            circuit=str(record.get("circuit", "")),
            status=str(record.get("status", "")),
            patterns=int(record.get("patterns", 0)),
            mode=str(record.get("mode", "")),
            seed=int(record.get("seed", 0)),
            counterexample=Counterexample(**cex) if cex else None,
            first_divergence_net=record.get("first_divergence_net"),
            dangling_nets=list(record.get("dangling_nets") or []),
            elaborations=int(record.get("elaborations", 0)),
            reason=str(record.get("reason", "")),
        )

    def summary(self) -> str:
        """One-line human rendering (CLI detail column)."""
        if self.status == "equivalent":
            extra = f", {len(self.dangling_nets)} dangling" if self.dangling_nets else ""
            return f"{self.patterns} patterns ok ({self.mode}{extra})"
        if self.status == "skipped":
            return self.reason or "skipped"
        cex = self.counterexample
        where = f"pattern {cex.pattern}" if cex else "unknown pattern"
        out = f"{cex.output}: expected {cex.expected}, got {cex.observed}" if cex else ""
        net = f"; first divergence at net {self.first_divergence_net!r}" if self.first_divergence_net else ""
        return f"{where}, {out}{net}"


def _golden_aig(golden: Union[LogicNetwork, Aig]) -> Aig:
    if isinstance(golden, Aig):
        return golden
    return network_to_aig(golden)


def _pi_words(aig: Aig, suite_words: Mapping[str, int]) -> Dict[int, int]:
    """Map the suite's per-name pattern words onto the AIG's PI nodes."""
    return {
        node: suite_words.get(name, 0)
        for node, name in zip(aig.pi_nodes, aig.pi_names)
    }


def _first_divergence_net(
    netlist: XsfqNetlist,
    aig: Aig,
    vector: Mapping[str, int],
    trace: Mapping[str, Sequence[float]],
    window: Tuple[float, float],
) -> Optional[str]:
    """Topologically earliest rail whose pulses disagree with the mapped AIG.

    Simulates the *mapped* AIG (the one the netlist was generated from) on
    the failing pattern and walks its AND nodes in topological order,
    decoding each node's rail nets from the pulse trace: the positive rail
    must pulse in the excite window iff the node's value is 1, the
    negative rail iff it is 0.  The first disagreement localises the bug
    below the failing output.
    """
    name_to_value = {name: int(bool(vector.get(name, 0))) for name in aig.pi_names}
    patterns = {
        node: name_to_value[name]
        for node, name in zip(aig.pi_nodes, aig.pi_names)
    }
    values = simulate_patterns(aig, patterns, 1)
    window_start, window_end = window
    for node in aig.and_nodes():
        value = values.get(node, 0) & 1
        for rail in (Rail.POS, Rail.NEG):
            net = netlist.node_rail_nets.get((node, rail))
            if net is None:
                continue
            expected_pulse = value == 1 if rail is Rail.POS else value == 0
            observed_pulse = any(
                window_start <= t < window_end for t in trace.get(net, ())
            )
            if expected_pulse != observed_pulse:
                return net
    return None


def _verify_combinational(
    verdict: VerificationVerdict,
    result: XsfqSynthesisResult,
    golden: Aig,
    suite: StimulusSuite,
    sim: BatchedNetlistSimulator,
    fault_model=None,
    localise: bool = True,
) -> None:
    num_patterns = len(suite)
    # ``simulate_patterns`` returns a Mapping — a plain dict from the
    # bigint kernel or a lazy PackedValues view from the numpy kernel;
    # only the PO words are materialised here either way.
    golden_values = simulate_patterns(golden, _pi_words(golden, suite.packed_words()), num_patterns)
    golden_outputs = {
        name: lit_values(golden_values, lit, num_patterns)
        for name, lit in zip(golden.po_names, golden.po_lits)
    }

    run = sim.run_combinational(suite.as_dicts())
    verdict.patterns = num_patterns
    verdict.dangling_nets = sim.unexpected_dangling_nets()
    for index in range(num_patterns):
        observed = run.outputs[index]
        for name in observed:
            expected = (golden_outputs.get(name, 0) >> index) & 1
            if observed[name] == expected:
                continue
            vector = suite.vector_dict(index)
            verdict.status = "counterexample"
            verdict.counterexample = Counterexample(
                inputs=vector,
                output=name,
                expected=expected,
                observed=observed[name],
                pattern=index,
                cycle=index,
            )
            port_net = next(
                (p.net for p in result.netlist.output_ports if p.name == name), None
            )
            verdict.first_divergence_net = port_net
            if not localise:
                return
            # The batched run only captured the primary-output rails;
            # localisation needs every internal rail, so re-simulate with
            # full capture.  Fault-free runs replay just the failing
            # pattern (patterns are independent — the alternating
            # protocol returns every cell to its initial state between
            # cycles); fault-injected runs must replay the *whole* batch
            # on a cloned model, because injection streams are positional
            # — the draws hitting pattern ``index`` depend on every
            # emission before it.
            debug_model = fault_model.clone() if fault_model is not None else None
            debug_sim = BatchedNetlistSimulator(
                result.netlist,
                library=sim.library,
                phase_period=sim.phase_period,
                full_trace=True,
                fault_model=debug_model,
            )
            if debug_model is not None:
                debug_run = debug_sim.run_combinational(suite.as_dicts())
                window = debug_sim.cycle_window(index)
            else:
                debug_run = debug_sim.run_combinational([vector])
                window = debug_sim.cycle_window(0)
            verdict.first_divergence_net = (
                _first_divergence_net(
                    result.netlist,
                    result.aig,
                    vector,
                    debug_run.trace,
                    window,
                )
                or port_net
            )
            return
    verdict.status = "equivalent"


def _verify_sequential(
    verdict: VerificationVerdict,
    result: XsfqSynthesisResult,
    golden: Aig,
    suite: StimulusSuite,
    sim: BatchedNetlistSimulator,
    sequence_length: int,
) -> None:
    sequence_length = max(1, min(int(sequence_length), len(suite)))
    sequences = list(suite.sequences(sequence_length))
    if not sequences:
        raise VerificationError("stimulus suite is empty")
    num_sequences = len(sequences)
    mask = (1 << num_sequences) - 1

    info = result.sequential_info
    start_state = dict(info.start_state) if info is not None else {}
    state_words = {
        latch.node: (mask if start_state.get(latch.name, 1) else 0)
        for latch in golden.latches
    }

    # Golden: all trajectories evolve word-parallel, bit j = trajectory j.
    name_index = {name: k for k, name in enumerate(suite.inputs)}
    golden_outputs_per_cycle: List[Dict[str, int]] = []
    for cycle in range(sequence_length):
        pi_words: Dict[int, int] = {}
        for node, name in zip(golden.pi_nodes, golden.pi_names):
            word = 0
            column = name_index.get(name)
            if column is not None:
                for j, sequence in enumerate(sequences):
                    if sequence[cycle][column]:
                        word |= 1 << j
            pi_words[node] = word
        values = simulate_patterns(golden, {**pi_words, **state_words}, num_sequences)
        golden_outputs_per_cycle.append(
            {
                name: lit_values(values, lit, num_sequences)
                for name, lit in zip(golden.po_names, golden.po_lits)
            }
        )
        state_words = {
            latch.node: lit_values(values, latch.next_lit, num_sequences)
            for latch in golden.latches
        }

    def mismatch(run, j: int) -> Optional[Tuple[int, str]]:
        for cycle in range(sequence_length):
            observed = run.outputs[cycle]
            for name in observed:
                expected = (golden_outputs_per_cycle[cycle].get(name, 0) >> j) & 1
                if observed[name] != expected:
                    return cycle, name
        return None

    # Pulse side, all on the same elaborated netlist.  Trajectory 0 runs
    # on the scalar loop, where most counterexamples already show; the
    # rest then run as lanes of the per-net kernel.  Anything but an
    # all-equivalent lane sweep is re-derived on the scalar loop, one
    # trajectory per run, so counterexamples and dangling nets are the
    # scalar loop's.
    trajectories = [
        [dict(zip(suite.inputs, cycle_vector)) for cycle_vector in sequence]
        for sequence in sequences
    ]
    dangling: set = set()
    for j, vectors in enumerate(trajectories):
        if j == 1:
            lanes = sim.run_sequences(
                trajectories[1:],
                accept=lambda runs: not any(
                    mismatch(run, lane) for lane, run in enumerate(runs, start=1)
                ),
            )
            if lanes is not None:
                for run in lanes:
                    dangling.update(sim.unexpected_dangling_nets(run.dangling_nets))
                break
        run = sim.run_sequence(vectors)
        dangling.update(sim.unexpected_dangling_nets())
        found = mismatch(run, j)
        if found is not None:
            cycle, name = found
            observed = run.outputs[cycle][name]
            verdict.status = "counterexample"
            verdict.patterns = j * sequence_length + cycle + 1
            verdict.dangling_nets = sorted(dangling)
            verdict.counterexample = Counterexample(
                inputs=vectors[cycle],
                output=name,
                expected=1 - observed,
                observed=observed,
                pattern=j * sequence_length + cycle,
                cycle=cycle,
                sequence=j,
            )
            verdict.first_divergence_net = next(
                (p.net for p in result.netlist.output_ports if p.name == name), None
            )
            return
    verdict.status = "equivalent"
    verdict.patterns = num_sequences * sequence_length
    verdict.dangling_nets = sorted(dangling)


class NetlistVerifier:
    """One elaboration and one stimulus suite, checked under many fault models.

    The mapped netlist is elaborated once and the stimulus suite built
    once; each :meth:`verify` call installs its own fault model (or
    none) on the same :class:`~repro.sim.pulse.BatchedNetlistSimulator`.
    A fault unit's nominal gate and all of its margin probes share one
    verifier (:mod:`repro.faults.campaign`).  See :func:`verify_result`
    for the arguments.
    """

    def __init__(
        self,
        result: XsfqSynthesisResult,
        golden: Optional[Union[LogicNetwork, Aig]] = None,
        patterns: int = 256,
        seed: int = 0,
        sequence_length: int = 8,
        phase_period: Optional[float] = None,
        library=None,
    ) -> None:
        self.result = result
        self.golden = _golden_aig(golden if golden is not None else result.aig)
        self.seed = seed
        self.sequence_length = sequence_length
        self.sim: Optional[BatchedNetlistSimulator] = None
        self.suite: Optional[StimulusSuite] = None
        if result.pipeline_result is not None:
            return
        self.sim = BatchedNetlistSimulator(
            result.netlist, library=library, phase_period=phase_period
        )
        # Sequential budgets are spent on random trajectories: enumerating
        # the input space once would not exercise the state space.
        self.suite = stimulus_suite(
            self.golden.pi_names,
            num_patterns=patterns,
            seed=seed,
            allow_exhaustive=not self.sim.is_sequential,
        )

    def verify(self, fault_model=None, localise: bool = True) -> VerificationVerdict:
        """Check the netlist with ``fault_model`` installed on the pulse side.

        ``localise=False`` skips the full-trace replay that finds a
        combinational miscompare's first divergence net (it falls back to
        the failing output port's net); callers that read only the
        verdict's status save an elaboration and a batch run per failure.
        """
        verdict = VerificationVerdict(circuit=self.result.name, status="skipped", seed=self.seed)
        sim = self.sim
        if sim is None:
            verdict.reason = (
                "architecturally pipelined netlists have cycle latency; "
                "pulse-vs-golden alignment is not modelled yet"
            )
            return verdict
        sim.set_fault_model(fault_model)
        verdict.mode = self.suite.mode
        if sim.is_sequential:
            _verify_sequential(
                verdict, self.result, self.golden, self.suite, sim, self.sequence_length
            )
        else:
            _verify_combinational(
                verdict,
                self.result,
                self.golden,
                self.suite,
                sim,
                fault_model=fault_model,
                localise=localise,
            )
        verdict.elaborations = sim.elaborations
        return verdict


def verify_result(
    result: XsfqSynthesisResult,
    golden: Optional[Union[LogicNetwork, Aig]] = None,
    patterns: int = 256,
    seed: int = 0,
    sequence_length: int = 8,
    phase_period: Optional[float] = None,
    library=None,
    fault_model=None,
) -> VerificationVerdict:
    """Batched pulse-level equivalence check of a synthesis result.

    Args:
        result: Finished synthesis result (mapped netlist + AIG).
        golden: Reference design — the *source* :class:`LogicNetwork` (or
            pre-optimisation AIG) for an end-to-end check of the whole
            flow.  ``None`` falls back to the mapped AIG inside ``result``,
            which verifies the mapping/netlist layers only.
        patterns: Stimulus budget (see :func:`stimulus_suite`; small input
            spaces are verified exhaustively in fewer patterns).
        seed: Stimulus seed — part of the campaign cache identity.
        sequence_length: Cycles per trajectory for sequential circuits
            (the budget is spent as ``patterns // sequence_length``
            trajectories of this length).
        phase_period: Override the auto-sized synchronous phase length.
        library: Cell library for delays (defaults to Table 2).
        fault_model: Optional :class:`repro.faults.FaultModel` injected
            into the pulse side only — the golden AIG stays fault-free,
            so the verdict measures whether the injected faults corrupt
            any decoded output (the robustness campaigns of
            :mod:`repro.faults` are built on exactly this asymmetry).

    Returns:
        A :class:`VerificationVerdict`; never raises on a mismatch.  To
        check one netlist under several fault models, hold a
        :class:`NetlistVerifier` instead: it elaborates once.
    """
    verifier = NetlistVerifier(
        result,
        golden=golden,
        patterns=patterns,
        seed=seed,
        sequence_length=sequence_length,
        phase_period=phase_period,
        library=library,
    )
    return verifier.verify(fault_model)
