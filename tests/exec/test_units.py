"""WorkUnit adapters: delegation, keys, pickling."""

import pickle

from repro.eval.engine import SynthesisJob, synthesis_record
from repro.exec import ProbeUnit, SpecUnit, WorkUnit, spec_units
from repro.faults.campaign import FaultSpec, fault_record
from repro.verify.campaign import VerificationSpec, verification_record


def test_spec_unit_delegates_to_the_spec():
    spec = VerificationSpec(circuit="ctrl", patterns=16)
    unit = SpecUnit(spec=spec, compute=verification_record, description="ctrl!")
    assert unit.key() == spec.key()
    assert unit.schema_kind == "verify"
    assert unit.describe() == "ctrl!"


def test_spec_unit_kinds_cover_every_spec_family():
    assert SpecUnit(
        spec=SynthesisJob.create("ctrl"), compute=synthesis_record
    ).schema_kind == "record"
    assert SpecUnit(
        spec=VerificationSpec(circuit="ctrl"), compute=verification_record
    ).schema_kind == "verify"
    assert SpecUnit(
        spec=FaultSpec(circuit="ctrl", scenario="fault:jitter:rate=5:s0"),
        compute=fault_record,
    ).schema_kind == "fault"


def test_spec_unit_pickle_round_trip():
    # Module-level compute functions pickle by qualified name — this is
    # what lets the worker backend ship units to worker processes.
    unit = SpecUnit(
        spec=VerificationSpec(circuit="s27", patterns=8),
        compute=verification_record,
        description="s27",
    )
    clone = pickle.loads(pickle.dumps(unit))
    assert clone.key() == unit.key()
    assert clone.compute is verification_record


def test_spec_units_builder_describes_each_spec():
    specs = [VerificationSpec(circuit=c) for c in ("ctrl", "s27")]
    units = spec_units(specs, verification_record, lambda s: s.circuit.upper())
    assert [u.describe() for u in units] == ["CTRL", "S27"]
    assert all(isinstance(u, WorkUnit) for u in units)


def test_probe_unit_is_picklable_and_deterministic():
    unit = ProbeUnit(index=3, spin=50)
    clone = pickle.loads(pickle.dumps(unit))
    assert clone.key() == unit.key()
    assert clone.run() == unit.run()
    assert unit.run()["status"] == "ok"


def test_probe_units_key_on_their_payload():
    assert ProbeUnit(index=1).key() != ProbeUnit(index=2).key()
    assert ProbeUnit(index=1, spin=5).key() != ProbeUnit(index=1, spin=6).key()
