"""A campaign whose units fail is a failed campaign, on every command.

Each case makes the campaign's compute function raise on the serial
path, so every unit resolves to a ``status: "error"`` record; the
command must exit 1, count the units under ``summary.errors``, keep
them out of the pattern and margin totals, and show ``type: message``
in the table instead of a verdict detail.  A spec listed twice fails
once, and a soak batch with an error fails the run without being
checkpointed.
"""

import json

import pytest

from repro.eval import cli

MESSAGE = "injected compute failure"


def _raise(spec):
    raise RuntimeError(MESSAGE)


#: command -> (compute function to break, argv, report path under tmp).
CASES = {
    "verify": (
        "repro.verify.campaign.verification_record",
        ["verify", "--circuit", "ctrl", "--circuit", "s27", "--patterns", "8",
         "--save", "{tmp}"],
        "verify-quick.json",
    ),
    "fuzz": (
        "repro.gen.fuzz.verification_record",
        ["fuzz", "--budget", "2", "--flows", "default", "--patterns", "8",
         "--save", "{tmp}"],
        "fuzz-0.json",
    ),
    "faults": (
        "repro.faults.campaign.fault_record",
        ["faults", "--circuit", "ctrl", "--circuit", "s27", "--kinds", "jitter",
         "--margin-search", "--patterns", "8", "--report", "{tmp}/faults.json"],
        "faults.json",
    ),
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_all_units_failing_fails_the_campaign(command, tmp_path, monkeypatch, capsys):
    target, argv, report_name = CASES[command]
    monkeypatch.setattr(target, _raise)
    argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--no-cache", "-j", "1"]

    assert cli.main(argv) == 1

    out = capsys.readouterr().out
    assert f"RuntimeError: {MESSAGE}" in out
    assert "unknown pattern" not in out
    assert "(0 cached, 0 " in out and ", 2 errors" in out  # the done-line
    summary = json.loads((tmp_path / report_name).read_text())["summary"]
    assert summary["errors"] == 2
    if command == "faults":
        assert summary["all_nominal_equivalent"] is False
        assert summary["margins_found"] == 0
    else:
        assert summary["all_equivalent"] is False
        assert summary["total_patterns"] == 0


def test_duplicated_spec_counts_its_error_once(monkeypatch, capsys):
    monkeypatch.setattr(CASES["verify"][0], _raise)
    argv = ["verify", "--circuit", "ctrl", "--circuit", "ctrl", "--patterns", "8",
            "--no-cache", "-j", "1"]

    assert cli.main(argv) == 1

    out = capsys.readouterr().out
    assert "(0 cached, 0 verified, 1 errors)" in out  # the done-line
    assert "0 verified, 1 workers" in out  # the timing line
    assert out.count("ERROR ctrl:") == 1
    assert "FAILED: 1 unit(s) did not complete" in out


def test_failing_soak_batch_fails_the_run_and_is_rerun_on_resume(
    tmp_path, monkeypatch, capsys
):
    # Batches of one unit; the second unit raises.  The run must exit 1
    # with the first batch checkpointed and the failed one not, and a
    # resume must finish byte-identical to a run that never failed.
    from repro.gen import fuzz

    original = fuzz.verification_record
    calls = []

    def second_unit_raises(spec):
        calls.append(spec)
        if len(calls) == 2:
            raise RuntimeError(MESSAGE)
        return original(spec)

    def argv(directory):
        return ["fuzz", "--soak", "--checkpoint", str(directory), "--budget", "2",
                "--flows", "default", "--patterns", "8", "--batch-size", "1",
                "--no-cache", "-j", "1"]

    monkeypatch.setattr(fuzz, "verification_record", second_unit_raises)
    assert cli.main(argv(tmp_path / "resumed")) == 1
    out = capsys.readouterr().out
    assert "soak: 1/2 units done" in out and "0 failures, 1 errors" in out
    assert f"RuntimeError: {MESSAGE}" in out
    checkpoint = tmp_path / "resumed" / "soak-shard0of1.json"
    assert json.loads(checkpoint.read_text())["units_done"] == 1

    monkeypatch.setattr(fuzz, "verification_record", original)
    assert cli.main(argv(tmp_path / "resumed")) == 0
    assert "0 failures, 0 errors" in capsys.readouterr().out
    assert cli.main(argv(tmp_path / "clean")) == 0
    clean = tmp_path / "clean" / "soak-shard0of1.json"
    assert checkpoint.read_bytes() == clean.read_bytes()
