"""CLI surface of the execution layer: --jobs, --unit-timeout, backend choice."""

import pytest

from repro.eval.cli import parse_args
from repro.exec import PersistentWorkerExecutor, SerialExecutor, resolve_executor

CAMPAIGN_COMMANDS = ("run", "verify", "fuzz", "faults")

#: Flags selecting each backend, and the backend they select.
BACKEND_FLAGS = {
    "serial": (["-j", "1"], SerialExecutor),
    "workers": (["-j", "2"], PersistentWorkerExecutor),
}


def _argv(command, *extra):
    # `repro run` requires at least one experiment name positionally.
    head = [command, "all"] if command == "run" else [command]
    return head + list(extra)


def _backend(args, pending=10):
    return resolve_executor(args.jobs, pending, args.unit_timeout)


@pytest.mark.parametrize("command", CAMPAIGN_COMMANDS)
def test_campaign_flag_defaults(command):
    args = parse_args(_argv(command))
    assert args.jobs == 1
    assert args.unit_timeout is None
    assert args.cache_dir is None and args.no_cache is False and args.quiet is False
    assert isinstance(_backend(args), SerialExecutor)


@pytest.mark.parametrize("command", CAMPAIGN_COMMANDS)
@pytest.mark.parametrize("backend", sorted(BACKEND_FLAGS))
def test_every_backend_is_selectable_on_every_campaign(command, backend):
    flags, expected = BACKEND_FLAGS[backend]
    assert isinstance(_backend(parse_args(_argv(command, *flags))), expected)


def test_backend_follows_jobs_pending_units_and_timeout():
    assert isinstance(_backend(parse_args(["verify", "-j", "1"])), SerialExecutor)
    assert isinstance(_backend(parse_args(["verify", "-j", "2"])), PersistentWorkerExecutor)
    # One pending unit stays in-process even at -j 2 ...
    assert isinstance(_backend(parse_args(["verify", "-j", "2"]), pending=1), SerialExecutor)
    # ... but a unit timeout always needs a supervised worker.
    timed = _backend(parse_args(["verify", "-j", "1", "--unit-timeout", "5"]))
    assert isinstance(timed, PersistentWorkerExecutor)
    assert timed.jobs == 1 and timed.timeout == 5.0


def test_unit_timeout_parses_as_seconds():
    args = parse_args(["faults", "--unit-timeout", "2.5"])
    assert args.unit_timeout == 2.5


@pytest.mark.parametrize("command", CAMPAIGN_COMMANDS)
@pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf", "-inf", "soon"])
def test_bad_unit_timeout_is_rejected(command, bad, capsys):
    with pytest.raises(SystemExit):
        parse_args(_argv(command, f"--unit-timeout={bad}"))
    assert "unit timeout must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", CAMPAIGN_COMMANDS)
@pytest.mark.parametrize("bad", ["0", "-3"])
def test_zero_and_negative_jobs_are_rejected(command, bad, capsys):
    with pytest.raises(SystemExit):
        parse_args(_argv(command, "--jobs", bad))
    assert f"jobs must be >= 1, got {int(bad)}" in capsys.readouterr().err


def test_non_integer_jobs_is_rejected(capsys):
    with pytest.raises(SystemExit):
        parse_args(["run", "all", "-j", "many"])
    assert "jobs must be an integer" in capsys.readouterr().err


def test_positive_jobs_still_parse():
    assert parse_args(["verify", "-j", "4"]).jobs == 4


#: Count flags (>= 1) and the campaign commands that take them.
COUNT_FLAGS = {
    "--patterns": ("verify", "fuzz", "faults"),
    "--budget": ("fuzz",),
    "--sequence-length": ("verify", "fuzz", "faults"),
}


@pytest.mark.parametrize(
    "command,flag",
    [(command, flag) for flag, commands in COUNT_FLAGS.items() for command in commands],
)
@pytest.mark.parametrize("bad", ["0", "-3"])
def test_zero_and_negative_counts_are_rejected(command, flag, bad, capsys):
    with pytest.raises(SystemExit):
        parse_args([command, flag, bad])
    assert f"must be >= 1, got {int(bad)}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", sorted(COUNT_FLAGS))
def test_non_integer_counts_are_rejected(flag, capsys):
    with pytest.raises(SystemExit):
        parse_args(["fuzz", flag, "many"])
    assert "must be an integer" in capsys.readouterr().err


def test_positive_counts_still_parse():
    args = parse_args(["fuzz", "--patterns", "3", "--budget", "2", "--sequence-length", "1"])
    assert (args.patterns, args.budget, args.sequence_length) == (3, 2, 1)
