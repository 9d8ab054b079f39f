"""CLI tests: argument parsing and end-to-end subcommand behaviour."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.eval import cli

REPO_ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def test_parse_run_defaults():
    args = cli.parse_args(["run", "table4"])
    assert args.command == "run"
    assert args.experiments == ["table4"]
    assert args.scale == "quick" and args.effort is None
    assert args.jobs == 1 and args.circuits is None
    assert not args.no_cache and args.save is None and not args.quiet
    assert not args.stage_timing


def test_parse_run_all_flags():
    args = cli.parse_args(
        [
            "run", "table4", "table6",
            "--scale", "paper", "--effort", "high", "-j", "8",
            "--circuits", "c880", "dec",
            "--cache-dir", "/tmp/c", "--no-cache", "--save", "out", "-q",
        ]
    )
    assert args.experiments == ["table4", "table6"]
    assert args.scale == "paper" and args.effort == "high" and args.jobs == 8
    assert args.circuits == ["c880", "dec"]
    assert args.cache_dir == "/tmp/c" and args.no_cache
    assert args.save == "out" and args.quiet


def test_parse_run_circuits_repeats_accumulate():
    args = cli.parse_args(["run", "table4", "--circuits", "ctrl", "--circuits", "dec", "c880"])
    assert args.circuits == ["ctrl", "dec", "c880"]


def test_parse_rejects_bad_choices():
    with pytest.raises(SystemExit):
        cli.parse_args(["run", "table4", "--scale", "huge"])
    with pytest.raises(SystemExit):
        cli.parse_args(["run", "table4", "--effort", "extreme"])
    with pytest.raises(SystemExit):
        cli.parse_args([])  # a subcommand is required


def test_parse_verify_defaults():
    args = cli.parse_args(["verify"])
    assert args.command == "verify"
    assert not args.catalog and args.circuit is None  # no subset = whole catalog
    assert args.patterns == 256 and args.seed == 0 and args.sequence_length == 8
    assert args.scale == "quick" and args.effort == "medium" and args.jobs == 1


def test_parse_verify_flags():
    args = cli.parse_args(
        [
            "verify", "--circuit", "c880", "--circuit", "s27",
            "--patterns", "64", "--seed", "9", "--sequence-length", "4",
            "--effort", "low", "-j", "3", "--no-cache", "-q",
        ]
    )
    assert args.circuit == ["c880", "s27"]
    assert args.patterns == 64 and args.seed == 9 and args.sequence_length == 4
    assert args.effort == "low" and args.jobs == 3 and args.no_cache and args.quiet


def test_parse_verify_catalog_and_circuit_conflict():
    with pytest.raises(SystemExit):
        cli.parse_args(["verify", "--catalog", "--circuit", "c880"])


@pytest.mark.parametrize(
    "command", ["list", "run", "verify", "fuzz", "faults", "bench", "report"]
)
def test_help_renders_for_every_subcommand(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.parse_args([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: repro {command}")
    assert "--help" in out


def test_parse_list_and_report():
    assert cli.parse_args(["list"]).command == "list"
    assert cli.parse_args(["list", "--circuits"]).circuits is True
    report = cli.parse_args(["report"])
    assert report.command == "report" and report.directory == "results"
    assert cli.parse_args(["report", "out"]).directory == "out"


def test_unknown_experiment_exits():
    with pytest.raises(SystemExit, match="unknown experiment"):
        cli.main(["run", "table99", "--no-cache"])


def test_run_rejects_circuits_no_experiment_takes(capsys):
    with pytest.raises(SystemExit, match="--circuits applies only to: table4, table6"):
        cli.main(["run", "figure1", "table1", "--circuits", "ctrl", "--no-cache"])
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# End-to-end subcommands
# ---------------------------------------------------------------------------


def test_list_shows_every_experiment(capsys):
    assert cli.main(["list", "--circuits"]) == 0
    out = capsys.readouterr().out
    for name in ("table3", "table4", "table5", "table6", "figure7", "headline"):
        assert name in out
    assert "c880" in out and "iscas85" in out  # circuit catalogue listed


def test_list_shows_shared_aig_opt_prefixes(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "Shared aig-opt prefixes" in out
    # table3 and table4 both synthesise EPFL control circuits at the same
    # default effort, so they must show up as sharing cached prefixes.
    assert any("table3" in line and "table4" in line for line in out.splitlines())


def test_run_stage_timing_table(capsys, tmp_path):
    rc = cli.main(
        [
            "run", "table4", "--circuits", "ctrl", "--effort", "none",
            "--cache-dir", str(tmp_path / "cache"), "--stage-timing", "-q",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "stage timing:" in out
    for stage in ("frontend", "aig-opt", "polarity", "map"):
        assert stage in out


def test_run_stage_timing_without_synthesis(capsys):
    rc = cli.main(["run", "figure1", "--no-cache", "--stage-timing", "-q"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no synthesis stages ran" in out


def test_run_figure1_no_synthesis(capsys, tmp_path):
    rc = cli.main(["run", "figure1", "--no-cache", "-q"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "roundtrip_ok: True" in out


def test_run_errored_synthesis_unit_fails_the_run(capsys):
    rc = cli.main(
        [
            "run", "table4", "--circuits", "dec", "--effort", "none", "--no-cache",
            "--unit-timeout", "0.001", "-j", "2",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "ERROR dec: Timeout" in out
    assert "FAILED: 1 unit(s) did not complete" in out
    # The timed-out job is not recomputed in-process to assemble the table.
    assert "(0 cached, 0 synthesised, 1 errors)" in out
    assert "(not assembled)" in out and "JJ Savings" not in out


def test_run_save_and_report_roundtrip(capsys, tmp_path):
    cache = tmp_path / "cache"
    results = tmp_path / "results"
    rc = cli.main(
        [
            "run", "table4", "--circuits", "dec", "--effort", "low",
            "--jobs", "2", "--cache-dir", str(cache), "--save", str(results), "-q",
        ]
    )
    run_out = capsys.readouterr().out
    assert rc == 0
    assert (results / "table4-quick.json").exists()
    assert (results / "table4-quick.csv").exists()
    assert "1 records" in run_out  # cache populated

    # Second run is served entirely from the cache.
    rc = cli.main(
        [
            "run", "table4", "--circuits", "dec", "--effort", "low",
            "--cache-dir", str(cache), "-q",
        ]
    )
    replay_out = capsys.readouterr().out
    assert rc == 0
    assert "(1/1 jobs cached, 0 synthesised" in replay_out

    rc = cli.main(["report", str(results)])
    report_out = capsys.readouterr().out
    assert rc == 0
    assert "table4-quick.json" in report_out
    assert "[table4]" in report_out and "Circuit" in report_out


def test_report_renders_saved_campaign_documents(capsys, tmp_path):
    results = tmp_path / "results"
    common = ["--circuit", "ctrl", "--patterns", "8", "--no-cache", "-q"]
    assert cli.main(["verify", *common, "--save", str(results)]) == 0
    assert cli.main(
        ["faults", *common, "--kinds", "skew", "--report", str(results / "faults.json")]
    ) == 0
    capsys.readouterr()

    assert cli.main(["report", str(results)]) == 0
    headers = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert headers[0] == "[faults] scale=quick"
    assert headers[1].startswith("[verify] scale=quick elapsed=")
    assert headers[1].endswith("s (0 cached, 1 computed)")


def test_report_empty_directory(capsys, tmp_path):
    assert cli.main(["report", str(tmp_path)]) == 1
    assert "no saved reports" in capsys.readouterr().out


def test_verify_single_circuit_and_cache_replay(capsys, tmp_path):
    cache = tmp_path / "cache"
    results = tmp_path / "results"
    argv = [
        "verify", "--circuit", "ctrl", "--patterns", "32", "--effort", "low",
        "--cache-dir", str(cache), "--save", str(results), "-q",
    ]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "EQUIVALENT" in out and "all_equivalent: True" in out
    assert "0/1 verdicts cached, 1 verified" in out
    assert (results / "verify-quick.json").exists()

    assert cli.main(argv[:-3] + ["-q"]) == 0  # warm cache, no --save
    replay = capsys.readouterr().out
    assert "1/1 verdicts cached, 0 verified" in replay


def test_verify_rejects_unknown_circuit(capsys):
    with pytest.raises(SystemExit, match="unknown circuit"):
        cli.main(["verify", "--circuit", "nope", "--no-cache", "-q"])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--circuit", "ctrl", "--no-cache"],
        ["faults", "--circuit", "ctrl", "--kinds", "jitter", "--no-cache"],
        ["run", "table4", "--circuits", "dec", "--effort", "low", "--no-cache"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_pipe_exits_without_traceback(argv):
    """``repro ... | head -1``: the reader leaves after the first line."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.eval.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=str(REPO_ROOT),
        env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in stderr, stderr


@pytest.mark.parametrize(
    "argv, shown, reason",
    [
        (["run", "figure1", "--save", "FILE"], "FILE", "FILE is not a directory"),
        (["verify", "--circuit", "ctrl", "--save", "FILE"], "FILE", "FILE is not a directory"),
        (["fuzz", "--budget", "1", "--save", "FILE/out"], "FILE/out", "Not a directory"),
        (["faults", "--circuit", "ctrl", "--kinds", "jitter", "--report", "FILE/r.json"],
         "FILE/r.json", "FILE is not a directory"),
    ],
    ids=["run", "verify", "fuzz", "faults"],
)
def test_unusable_save_path_fails_before_any_unit_runs(argv, shown, reason, tmp_path):
    """A file where the report's directory should be: one line, status 1, no unit run."""
    blocker = tmp_path / "FILE"
    blocker.write_text("")
    argv = [arg.replace("FILE", str(blocker)) for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.eval.cli", *argv, "--no-cache"],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    expected = f"repro: cannot save to {shown}: {reason}\n".replace("FILE", str(blocker))
    assert proc.stderr == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", "--soak", "--budget", "2", "--checkpoint", "FILE", "--no-cache"],
        ["bench", "--suite", "exec", "--out", "FILE"],
    ],
    ids=["fuzz-soak", "bench"],
)
def test_unusable_checkpoint_or_bench_directory_fails_before_any_unit_runs(argv, tmp_path):
    """``--checkpoint``/``--out`` naming a file: one line, status 1, no unit run."""
    blocker = tmp_path / "FILE"
    blocker.write_text("")
    argv = [arg.replace("FILE", str(blocker)) for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.eval.cli", *argv],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"repro: cannot save to {blocker}: {blocker} is not a directory\n"


def test_report_path_that_is_a_directory_is_refused(capsys, tmp_path):
    with pytest.raises(SystemExit, match="cannot save to .*: is a directory"):
        cli.main(["faults", "--circuit", "ctrl", "--kinds", "jitter", "--no-cache",
                  "--report", str(tmp_path)])
    assert capsys.readouterr().out == ""
