"""Exact work counters of the resynthesis passes, held at their ceilings.

On ``c880`` and ``c1908`` at ``quick`` scale, each ``rewrite``/``refactor``
pass of the medium-effort script (:data:`~repro.aig.scripts.DEFAULT_SCRIPT`)
is run with a cold factoring cache, counting the calls to ``mffc_size`` and
the misses of ``factored_form_cost``.  Work counts are exact, so an
algorithmic regression fails here on every run where a wall-time gate
would drown in noise: computing the MFFC before the ``len(cone)`` bound,
factoring a cut the literal floor already rules out, or factoring a
``refactor`` cone whose ISOP covers of ``f`` and ``!f`` both hold more
cubes than the gain test allows (c1908's parity-like cones), raises a
count.
"""

from repro.aig import Aig, network_to_aig, optimize, rework
from repro.aig.scripts import DEFAULT_SCRIPT, PASSES
from repro.aig.sop import factored_form_cost
from repro.circuits.registry import build

#: ``(pass, mffc_size calls, factored_form_cost misses)`` per resynthesis
#: pass, in script order; a circuit lists the passes it gates.
CEILINGS = {
    "c880": [
        ("rewrite", 71, 5),
        ("refactor", 63, 4),
        ("rewrite", 61, 8),
        ("rewrite -z", 179, 13),
        ("refactor -z", 107, 7),
        ("rewrite -z", 190, 7),
    ],
    "c1908": [
        ("refactor", 65, 1),
        ("refactor -z", 94, 2),
    ],
}


def pass_counters(monkeypatch, circuit):
    calls = []
    real = rework.mffc_size

    def counting_mffc_size(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(rework, "mffc_size", counting_mffc_size)
    aig = network_to_aig(build(circuit, "quick")).cleanup()
    gated = {name for name, _, _ in CEILINGS[circuit]}
    counters = []
    for name in DEFAULT_SCRIPT:
        calls.clear()
        factored_form_cost.cache_clear()
        aig = PASSES[name](aig)
        if name in gated:
            counters.append((name, len(calls), factored_form_cost.cache_info().misses))
    return counters


def test_resynthesis_work_stays_at_or_below_ceilings(monkeypatch):
    for circuit, ceilings in CEILINGS.items():
        counters = pass_counters(monkeypatch, circuit)
        assert [name for name, _, _ in counters] == [name for name, _, _ in ceilings]
        for (name, mffc, misses), (_, mffc_max, misses_max) in zip(counters, ceilings):
            assert mffc <= mffc_max, f"{circuit} {name}: {mffc} mffc_size calls (ceiling {mffc_max})"
            assert misses <= misses_max, f"{circuit} {name}: {misses} factorings (ceiling {misses_max})"


def test_high_effort_cleans_its_input_once(monkeypatch):
    """``optimize(effort="high")`` copies the DAG once, not once per round.

    The other calls come from the resynthesis passes themselves.  On
    c880 that makes 10; re-cleaning each round's input made 12.
    """
    calls = []
    real = Aig.cleanup

    def counting_cleanup(self):
        calls.append(self.num_ands)
        return real(self)

    aig = network_to_aig(build("c880", "quick"))
    monkeypatch.setattr(Aig, "cleanup", counting_cleanup)
    optimize(aig, effort="high")
    assert len(calls) <= 10, f"{len(calls)} cleanup calls (ceiling 10)"
