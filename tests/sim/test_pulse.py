"""Tests for the pulse-level simulator: cell models, simulator core, netlist simulation."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FlowOptions, synthesize_xsfq
from repro.eval import counter_network, full_adder_network
from repro.sim.pulse import (
    DroCell,
    DrocCell,
    FaCell,
    LaCell,
    MergerCell,
    PulseSimulator,
    SimulationError,
    SplitterCell,
    reference_start_state,
    simulate_combinational,
    simulate_sequential,
)


class TestCellModels:
    def test_la_fires_on_last_arrival_only(self):
        la = LaCell("la", ["a", "b"], ["q"], delay=1.0)
        assert la.on_pulse(0, 0.0) == []
        assert la.on_pulse(1, 5.0) == [("q", 6.0)]
        assert la.is_initial_state()

    def test_fa_fires_on_first_arrival_and_absorbs_second(self):
        fa = FaCell("fa", ["a", "b"], ["q"], delay=2.0)
        assert fa.on_pulse(1, 3.0) == [("q", 5.0)]
        assert fa.on_pulse(0, 4.0) == []
        assert fa.is_initial_state()

    def test_table1_alternating_sequences(self):
        """Paper Table 1: after excite + relax both cells are back to Init."""
        for a, b in itertools.product((0, 1), repeat=2):
            la = LaCell("la", ["a", "b"], ["q"], 0.0)
            fa = FaCell("fa", ["a", "b"], ["q"], 0.0)
            for cell, expected_excite in ((la, a & b), (fa, a | b)):
                fired = 0
                if a:
                    fired += len(cell.on_pulse(0, 0.0))
                if b:
                    fired += len(cell.on_pulse(1, 1.0))
                assert fired == expected_excite
                # Relax phase: complements arrive.
                if not a:
                    cell.on_pulse(0, 10.0)
                if not b:
                    cell.on_pulse(1, 11.0)
                assert cell.is_initial_state()

    def test_splitter_and_merger(self):
        splitter = SplitterCell("s", ["a"], ["x", "y"], 1.0)
        assert splitter.on_pulse(0, 0.0) == [("x", 1.0), ("y", 1.0)]
        merger = MergerCell("m", ["a", "b"], ["q"], 1.0)
        assert merger.on_pulse(1, 2.0) == [("q", 3.0)]

    def test_dro_cell_captures_and_clears(self):
        dro = DroCell("d", ["d", "clk"], ["q"], 1.0)
        assert dro.on_pulse(1, 1.0) == []            # clock with empty state
        dro.on_pulse(0, 2.0)                          # data arrives
        assert dro.on_pulse(1, 3.0) == [("q", 4.0)]  # clock reads it out
        assert dro.on_pulse(1, 5.0) == []            # destructive readout

    def test_droc_complementary_outputs_and_preload(self):
        droc = DrocCell("d", ["d", "clk"], ["qp", "qn"], 1.0)
        assert droc.on_pulse(1, 1.0) == [("qn", 2.0)]
        droc.on_pulse(0, 3.0)
        assert droc.on_pulse(1, 4.0) == [("qp", 5.0)]
        preloaded = DrocCell("p", ["d", "clk"], ["qp", "qn"], 1.0, preload=True)
        assert preloaded.on_pulse(1, 1.0) == [("qp", 2.0)]


class TestSimulatorCore:
    def test_events_processed_in_time_order(self):
        sim = PulseSimulator()
        la = LaCell("la", ["a", "b"], ["q"], 1.0)
        sim.add_element(la)
        trace = sim.run({"b": [5.0], "a": [2.0]})
        assert trace["q"] == [6.0]

    def test_fanout_to_multiple_elements(self):
        sim = PulseSimulator()
        sim.add_element(SplitterCell("s", ["in"], ["x", "y"], 0.5))
        sim.add_element(MergerCell("m", ["x", "y"], ["out"], 0.5))
        trace = sim.run({"in": [1.0]})
        assert len(trace["out"]) == 2

    def test_until_cutoff(self):
        sim = PulseSimulator()
        sim.add_element(SplitterCell("s", ["in"], ["x", "y"], 10.0))
        trace = sim.run({"in": [1.0]}, until=5.0)
        assert "x" not in trace or not trace["x"]

    def test_reset_clears_state(self):
        sim = PulseSimulator()
        fa = FaCell("fa", ["a", "b"], ["q"], 1.0)
        sim.add_element(fa)
        sim.run({"a": [1.0]})
        sim.reset()
        assert fa.is_initial_state()
        assert sim.trace("q") == []


class TestNetlistSimulation:
    @pytest.fixture(scope="class")
    def fa_result(self):
        return synthesize_xsfq(full_adder_network(), FlowOptions(effort="high"))

    def test_full_adder_exhaustive(self, fa_result):
        vectors = [dict(zip("ab", bits)) | {"cin": bits[2]} for bits in itertools.product((0, 1), repeat=3)]
        sim = simulate_combinational(fa_result.netlist, vectors)
        reference = full_adder_network()
        for vector, outputs in zip(vectors, sim.outputs):
            expected, _ = reference.evaluate(vector)
            assert outputs == {"s": expected["s"], "cout": expected["cout"]}
        assert sim.all_cells_reinitialised

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2**31))
    def test_random_combinational_circuits_match(self, seed):
        """Pulse-level semantics match the gate-level semantics on random logic."""
        rng = random.Random(seed)
        from repro.netlist import NetworkBuilder

        b = NetworkBuilder("rand")
        signals = [b.input(f"i{k}") for k in range(4)]
        for k in range(10):
            op = rng.choice(["and", "or", "xor", "not"])
            if op == "not":
                signals.append(b.not_(rng.choice(signals)))
            else:
                x, y = rng.sample(signals, 2)
                signals.append(getattr(b, {"and": "and_", "or": "or_", "xor": "xor"}[op])(x, y))
        b.output(signals[-1], "f")
        b.output(signals[-2], "g")
        network = b.finish()
        result = synthesize_xsfq(network, FlowOptions(effort="medium"))
        vectors = [{f"i{k}": rng.randint(0, 1) for k in range(4)} for _ in range(4)]
        sim = simulate_combinational(result.netlist, vectors)
        for vector, outputs in zip(vectors, sim.outputs):
            expected, _ = network.evaluate(vector)
            assert outputs["f"] == expected["f"]
            assert outputs["g"] == expected["g"]

    def test_sequential_counter_matches_reference(self):
        network = counter_network(2)
        result = synthesize_xsfq(network, FlowOptions(effort="medium", retime=False))
        vectors = [{"en": 1}] * 6
        sim = simulate_sequential(result.netlist, vectors)
        state = reference_start_state([latch.name for latch in network.latches])
        for vector, outputs in zip(vectors, sim.outputs):
            expected, state = network.evaluate(vector, state)
            assert outputs == {name: expected[name] for name in outputs}

    def test_sequential_counter_with_enable_gaps(self):
        network = counter_network(2)
        result = synthesize_xsfq(network, FlowOptions(effort="medium", retime=False))
        vectors = [{"en": v} for v in (1, 0, 1, 1, 0, 1)]
        sim = simulate_sequential(result.netlist, vectors)
        state = reference_start_state([latch.name for latch in network.latches])
        for vector, outputs in zip(vectors, sim.outputs):
            expected, state = network.evaluate(vector, state)
            assert outputs == {name: expected[name] for name in outputs}

    def test_wrong_simulator_entry_point_raises(self, fa_result):
        with pytest.raises(SimulationError):
            simulate_sequential(fa_result.netlist, [{"a": 1, "b": 0, "cin": 0}])
        seq = synthesize_xsfq(counter_network(2), FlowOptions(effort="low", retime=False))
        with pytest.raises(SimulationError):
            simulate_combinational(seq.netlist, [{"en": 1}])


#: ``figure2_3`` scenarios: (output pulses, delay in ps), as first pinned.
ANALOG_EXPECTED = {
    "jtl": (1, 5.842180006432435),
    "la_single": (0, None),
    "la_both": (1, 3.9533140620690452),
    "fa_single": (1, 2.990252823965256),
    "fa_both": (2, 2.990252823965256),
    "droc_empty": (1, 6.526746995601278),
    "droc_loaded": (2, -2.8236035548648597),
}


def _analog_scenarios():
    from repro.sim.analog import (
        characterize_droc,
        characterize_fa,
        characterize_jtl,
        characterize_la,
    )

    results = [characterize_jtl(), *characterize_la(), *characterize_fa(), *characterize_droc()]
    return {
        name: (result.output_pulses, result.delay_ps)
        for name, result in zip(ANALOG_EXPECTED, results)
    }


@pytest.fixture(scope="module")
def analog_scenarios():
    return _analog_scenarios()


def _assert_steps_of_scipy_rk45(ours, reference, components, name):
    """``ours`` took scipy's steps: equal ``nfev`` and sample times, and
    the first ``components`` rows within 1e-10 of scipy's."""
    import numpy as np

    assert reference.status == 0, name
    assert ours.nfev == reference.nfev, name
    assert list(ours.t) == reference.t.tolist(), name
    error = np.abs(np.array(ours.y[:components]) - reference.y[:components]).max()
    assert error <= 1e-10, (name, error)


def _scipy_rk45_twins(monkeypatch):
    """Make every RCSJ integration also run scipy's RK45 on the same problem;
    the returned list collects ``(ours, scipy's, junction count)``."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    from repro.sim.analog import rcsj

    solve_ivp = rcsj.solve_ivp
    runs = []

    def both(fun, t_span, y0, **kwargs):
        ours = solve_ivp(fun, t_span, y0, **kwargs)
        reference = scipy_solve_ivp(fun, t_span, y0, method="RK45", **kwargs)
        runs.append((ours, reference, len(y0) // 2))
        return ours

    monkeypatch.setattr(rcsj, "solve_ivp", both)
    return runs


def _characterize_jtl(num_stages):
    from repro.sim.analog import characterize_jtl

    return characterize_jtl(num_stages)


def _inductor_to_ground(critical=100e-6, inductance=4e-12, bias=50e-6):
    """One biased junction shunted to ground (node -1) by an inductor."""
    from repro.sim.analog.rcsj import CurrentSource, Inductor, JjCircuit, Junction

    circuit = JjCircuit(1)
    circuit.add_junction(Junction(0, critical_current=critical))
    circuit.add_inductor(Inductor(-1, 0, inductance))
    circuit.add_source(CurrentSource(0, amplitude=bias))
    return circuit


def _driven_inductor_to_ground():
    """:func:`_inductor_to_ground` with an inductor from its node to ground
    on either side and an SFQ pulse driven in: exercises both ground ends."""
    from repro.sim.analog.rcsj import CurrentSource, Inductor, sfq_pulse_train

    circuit = _inductor_to_ground()
    circuit.add_inductor(Inductor(0, -1, 20e-12))
    circuit.add_source(CurrentSource(0, waveform=sfq_pulse_train([30e-12])))
    return circuit.simulate(duration=100e-12)


class TestAnalogModel:
    def test_figure2_3_outputs_are_pinned(self, analog_scenarios):
        for name, (pulses, delay) in ANALOG_EXPECTED.items():
            got_pulses, got_delay = analog_scenarios[name]
            assert got_pulses == pulses, name
            if delay is None:
                assert got_delay is None, name
            else:
                assert got_delay == pytest.approx(delay, abs=1e-4), name

    def test_delays_match_a_tight_dop853_reference(self, analog_scenarios, monkeypatch):
        from scipy.integrate import solve_ivp

        from repro.sim.analog import rcsj

        def reference(*args, **kwargs):
            return solve_ivp(*args, **{**kwargs, "method": "DOP853", "rtol": 1e-10})

        monkeypatch.setattr(rcsj, "solve_ivp", reference)
        for name, (pulses, delay) in _analog_scenarios().items():
            assert analog_scenarios[name][0] == pulses, name
            if delay is not None:
                assert analog_scenarios[name][1] == pytest.approx(delay, abs=1e-5), name

    def test_list_rk45_takes_the_steps_of_scipy_rk45(self, monkeypatch):
        """The list port is scipy's RK45 step for step: equal ``nfev`` and
        the same samples on every ``figure2_3`` scenario."""
        runs = _scipy_rk45_twins(monkeypatch)
        _analog_scenarios()
        assert len(runs) == len(ANALOG_EXPECTED)
        for name, (ours, reference, n) in zip(ANALOG_EXPECTED, runs):
            _assert_steps_of_scipy_rk45(ours, reference, n, name)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: _characterize_jtl(1),
            lambda: _characterize_jtl(5),
            _driven_inductor_to_ground,
        ],
        ids=["jtl1-n2", "jtl5-n10", "inductor-to-ground-n2"],
    )
    def test_rk45_takes_the_steps_of_scipy_rk45_at_other_state_lengths(self, monkeypatch, run):
        """The step loop is generated per state length: hold the lengths
        ``figure2_3`` does not reach, and ground-ended inductors, to scipy."""
        runs = _scipy_rk45_twins(monkeypatch)
        run()
        assert len(runs) == 1
        ours, reference, n = runs[0]
        _assert_steps_of_scipy_rk45(ours, reference, n, "phases")

    def test_rk45_takes_the_steps_of_scipy_rk45_on_a_plain_ode(self):
        """A forced, damped oscillator with a third, decaying component:
        an odd state length and a right-hand side that is no RCSJ network."""
        import math

        from scipy.integrate import solve_ivp as scipy_solve_ivp

        from repro.sim.analog.rk45 import solve_ivp

        def fun(t, y):
            return [y[1], -y[0] - 0.3 * y[1] + math.cos(2.0 * t), -0.5 * y[2] + 0.1 * y[0]]

        kwargs = dict(t_eval=[0.05 * k for k in range(401)], max_step=0.4, rtol=1e-8, atol=[1e-10, 1e-10, 1e-12])
        ours = solve_ivp(fun, (0.0, 20.0), [1.0, 0.0, 2.0], **kwargs)
        reference = scipy_solve_ivp(fun, (0.0, 20.0), [1.0, 0.0, 2.0], method="RK45", **kwargs)
        _assert_steps_of_scipy_rk45(ours, reference, 3, "plain ode")

    def test_generated_rhs_is_the_rcsj_equation(self, monkeypatch):
        """The generated right-hand side equals the RCSJ equation written
        out from the circuit's parts, with driven sources, node-to-node
        inductors and inductors to ground at either end."""
        import math
        import random

        from repro.sim.analog import drive, droc_cell, rcsj
        from repro.sim.analog.rcsj import PHI0_BAR, Inductor

        cell = droc_cell()
        drive(cell, {"data": [20e-12], "clk": [25e-12, 40e-12]})
        circuit = cell.circuit
        circuit.add_inductor(Inductor(-1, 0, 6e-12))
        circuit.add_inductor(Inductor(2, -1, 9e-12))
        functions = []

        def capture(fun, *args, **kwargs):
            functions.append(fun)
            return solve_ivp(fun, *args, **kwargs)

        solve_ivp = rcsj.solve_ivp
        monkeypatch.setattr(rcsj, "solve_ivp", capture)
        circuit.simulate(duration=1e-12)
        (derivatives,) = functions

        n = circuit.num_nodes
        junctions = sorted(circuit.junctions, key=lambda junction: junction.node)
        rng = random.Random(3)
        for _ in range(20):
            t = rng.uniform(0.0, 60e-12)
            state = [rng.uniform(-7.0, 7.0) for _ in range(n)] + [rng.uniform(-1e12, 1e12) for _ in range(n)]
            phase = [*state[:n], 0.0]
            current = [sum(source.current(t) for source in circuit.sources if source.node == k) for k in range(n)]
            current.append(0.0)
            for inductor in circuit.inductors:
                branch = PHI0_BAR / inductor.inductance * (phase[inductor.node_a] - phase[inductor.node_b])
                current[inductor.node_a] -= branch
                current[inductor.node_b] += branch
            expected = state[n:] + [
                (current[k] - j.critical_current * math.sin(phase[k]) - PHI0_BAR / j.resistance * state[n + k])
                / (j.capacitance * PHI0_BAR)
                for k, j in enumerate(junctions)
            ]
            assert derivatives(t, state) == pytest.approx(expected, rel=1e-12, abs=1e-3)

    def test_initial_phases_must_have_one_value_per_node(self):
        from repro.sim.analog import jtl_chain

        circuit = jtl_chain(3).circuit
        for phases in ([0.0] * 2, [0.0] * 4):
            with pytest.raises(ValueError, match="initial_phases needs 3 values, got"):
                circuit.simulate(duration=10e-12, initial_phases=phases)

    @pytest.mark.parametrize("duration", [100e-12, 150e-12, 200e-12, 300e-12])
    def test_sample_times_equal_numpy_arange(self, duration):
        import numpy as np

        from repro.sim.analog import jtl_chain

        waveforms = jtl_chain(1).circuit.simulate(duration=duration)
        assert waveforms.times == np.arange(0.0, duration, 0.1e-12).tolist()

    def test_a_step_below_the_float_spacing_raises(self):
        """A drive that turns NaN at 50 ps fails every error test from there
        on; the run must raise, not return the samples before 50 ps."""
        import math

        from repro.sim.analog import CurrentSource, jtl_chain
        from repro.sim.analog.rk45 import StepSizeError

        cell = jtl_chain(1)
        cell.circuit.add_source(CurrentSource(0, waveform=lambda t: math.nan if t >= 50e-12 else 0.0))
        with pytest.raises(StepSizeError, match="below the float spacing"):
            cell.circuit.simulate(duration=100e-12)

    def test_voltage_is_the_numpy_gradient(self):
        """``voltage`` is ``Phi0_bar * np.gradient(phase, times)``, on the
        simulator's grid and on a non-uniform one."""
        import random

        import numpy as np

        from repro.sim.analog import PHI0_BAR, JjWaveforms, characterize_jtl

        rng = random.Random(7)
        times = sorted(rng.uniform(0.0, 1e-10) for _ in range(50))
        uneven = JjWaveforms(times=times, phases={0: [rng.uniform(-7.0, 7.0) for _ in times]})
        for waveforms in (characterize_jtl().waveforms, uneven):
            for node, phase in waveforms.phases.items():
                expected = PHI0_BAR * np.gradient(np.asarray(phase), np.asarray(waveforms.times))
                got = np.asarray(waveforms.voltage(node))
                assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected)), node

    def test_inductor_to_ground_settles_at_the_static_phase(self):
        """Node -1 is ground: a biased junction shunted to ground by L
        settles where Ic sin(phi) + Phi0_bar phi / L equals the bias."""
        import math

        from repro.sim.analog.rcsj import PHI0_BAR

        critical, inductance, bias = 100e-6, 4e-12, 50e-6
        circuit = _inductor_to_ground(critical, inductance, bias)
        low, high = 0.0, math.pi / 2
        for _ in range(60):
            mid = (low + high) / 2
            if critical * math.sin(mid) + PHI0_BAR * mid / inductance < bias:
                low = mid
            else:
                high = mid
        waveforms = circuit.simulate(duration=100e-12)
        assert waveforms.phases[0][-1] == pytest.approx(low, abs=1e-4)

    def test_jtl_rhs_evaluation_budget(self, monkeypatch):
        """Per-component tolerances keep a JTL run to a few thousand RHS
        evaluations; one rad/s-scale tolerance took ~317k."""
        from repro.sim.analog import characterize_jtl, rcsj

        solve_ivp = rcsj.solve_ivp
        evaluations = []

        def counted(*args, **kwargs):
            solution = solve_ivp(*args, **kwargs)
            evaluations.append(solution.nfev)
            return solution

        monkeypatch.setattr(rcsj, "solve_ivp", counted)
        characterize_jtl()
        assert len(evaluations) == 1
        assert evaluations[0] <= 10_000

    def test_jtl_propagates_single_pulse_with_delay(self):
        from repro.sim.analog import characterize_jtl

        result = characterize_jtl()
        assert result.output_pulses == 1
        assert result.delay_ps is not None and result.delay_ps > 0

    def test_la_behaves_as_c_element(self):
        from repro.sim.analog import characterize_la

        only_a, both = characterize_la()
        assert only_a.output_pulses == 0
        assert both.output_pulses >= 1

    def test_fa_fires_on_first_arrival(self):
        from repro.sim.analog import characterize_fa

        only_a, _ = characterize_fa()
        assert only_a.output_pulses >= 1
        assert only_a.delay_ps is not None and only_a.delay_ps > 0

    def test_droc_discriminates_stored_flux(self):
        from repro.sim.analog import characterize_droc

        empty, loaded = characterize_droc()
        assert loaded.output_pulses > empty.output_pulses

    def test_pulse_train_skips_only_exact_zero_terms(self, monkeypatch):
        """A pulse whose exponent underflows adds exactly 0.0: the train skips
        its ``math.exp`` and every sample stays the bits of the full sum."""
        import math

        from repro.sim.analog.rcsj import sfq_pulse_train

        times = [10e-12, 30e-12, 500e-12]
        spread = 2.0 * (4e-12 / 2.355) ** 2

        def full_sum(t, amplitude):
            total = 0.0
            for center in times:
                total += amplitude * math.exp(-((t - center) ** 2) / spread)
            return total

        samples = [k * 1e-13 for k in range(-200, 6000, 7)]
        samples += [-math.inf, math.inf, math.nan]
        for amplitude in (250e-6, -250e-6, 0.0, math.inf, math.nan):
            train = sfq_pulse_train(times, amplitude=amplitude)
            for t in samples:
                assert repr(train(t)) == repr(full_sum(t, amplitude)), (amplitude, t)

        calls = []
        exp = math.exp
        monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or exp(x))
        sfq_pulse_train(times)(20e-12)
        assert len(calls) == 2  # the pulse at 500 ps is 480 ps away

    def test_quiescent_circuit_emits_no_pulses(self):
        from repro.sim.analog import jtl_chain

        cell = jtl_chain()
        waveforms = cell.circuit.simulate(duration=150e-12)
        assert waveforms.num_pulses(cell.output_node) == 0

    def test_pulse_time_extraction_monotone(self):
        from repro.sim.analog import characterize_jtl

        result = characterize_jtl(num_stages=4)
        times = result.waveforms.pulse_times(3)
        assert times == sorted(times)
