"""Benchmark for Figures 2-3: analog (RCSJ) cell characterisation waveforms.

The paper characterises its cells in HSPICE; this harness runs the reduced
RCSJ phase-model templates and checks the qualitative behaviour: the JTL
propagates single pulses, the LA cell behaves as a C element (fires only
after both inputs), the FA cell fires on the first arrival, and the DROC
read-out discriminates stored flux.
"""

from conftest import run_once

from repro.sim.analog import (
    characterization_report,
    characterize_droc,
    characterize_fa,
    characterize_jtl,
    characterize_la,
)


def _characterise_all():
    return {
        "jtl": characterize_jtl(),
        "la": characterize_la(),
        "fa": characterize_fa(),
        "droc": characterize_droc(),
    }


def test_figure2_3_analog_characterisation(benchmark):
    results = run_once(benchmark, _characterise_all)
    print("\n[Figures 2-3] " + characterization_report())

    jtl = results["jtl"]
    assert jtl.output_pulses == 1 and jtl.delay_ps and jtl.delay_ps > 0

    la_single, la_both = results["la"]
    assert la_single.output_pulses == 0, "LA must not fire on a single input"
    assert la_both.output_pulses >= 1, "LA must fire once both inputs arrived"

    fa_single, _ = results["fa"]
    assert fa_single.output_pulses >= 1, "FA must fire on the first arrival"

    droc_empty, droc_loaded = results["droc"]
    assert droc_loaded.output_pulses > droc_empty.output_pulses
