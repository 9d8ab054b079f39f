"""``repro`` — the operator CLI for reproducing the paper's evaluation.

Seven subcommands::

    repro list                 # what can be reproduced, and with what
    repro run table4 --jobs 4  # reproduce artefacts on 4 worker processes
    repro verify --catalog     # pulse-level equivalence campaign
    repro fuzz --budget 200    # differential fuzzing on generated circuits
    repro faults --catalog     # fault injection + robustness margins
    repro bench --suite smoke  # performance benchmarks + regression gate
    repro report results/      # re-render previously saved run reports

``repro run``, ``verify``, ``fuzz`` and ``faults`` share the campaign
flags ``-j/--jobs``, ``--unit-timeout``, ``--cache-dir``, ``--no-cache``
and ``-q``: one job without a unit timeout runs in-process, anything
else on supervised worker processes (see ``docs/cli.md``).

``repro run`` accepts one or more experiment names (or ``all``), executes
their synthesis jobs through the parallel runner with the shared
content-addressed result cache (``--cache-dir`` / ``REPRO_CACHE_DIR``,
``--no-cache`` to disable), prints the paper-style tables, with
``--stage-timing`` also the per-stage (frontend / aig-opt / polarity /
map / ...) observer timing table, and with ``--save DIR`` emits
machine-readable JSON + CSV per experiment.  ``repro list`` additionally
shows which experiments share a cached ``aig-opt`` stage prefix (the
stage cache reuses the optimised AIG across them).

``repro verify`` synthesises catalogued circuits and batch-simulates
hundreds of stimulus patterns per circuit at the pulse level against
word-parallel golden AIG simulation, caching verdicts in the same
content-addressed store; see ``docs/verification.md`` and ``docs/cli.md``.

``repro fuzz`` manufactures seeded random circuits (``repro.gen``) and
differentially verifies each one under several flow variants, shrinking
any failure to a minimal reproducer.  ``--steer`` biases generation
toward uncovered structural-feature buckets (``repro.cov``),
``--coverage-report`` prints the hit/miss matrix, and ``--soak
--checkpoint DIR [--shards N]`` runs a resumable, shardable campaign
whose corpus + coverage + cursor checkpoint after every batch
(``--merge`` combines shard checkpoints); see ``docs/fuzzing.md``.

``repro faults`` injects seeded pulse-level faults (``repro.faults``) —
pulse drop, pulse duplication, delay jitter, phase skew — into the
simulated netlists of catalogued circuits and verifies each against
fault-free golden AIG simulation; ``--margin-search`` bisects the
largest tolerated magnitude per circuit x fault kind, and ``--report``
saves a schema-versioned, byte-reproducible ``repro-faults/1`` JSON
document; see ``docs/faults.md``.

``repro bench`` runs the declarative benchmark suites of ``repro.perf``
(campaign and kernel workloads with warmup/repeat control), emits
schema-versioned ``BENCH_<suite>.json``, and with ``--compare`` diffs
against a stored baseline, failing the run when ``--fail-on-regress``
is exceeded; see ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from ..exec.report import error_detail
from .engine import ResultCache
from .runner import (
    EXPERIMENTS,
    ExperimentCampaign,
    Runner,
    load_report,
    render_report,
    render_stage_timings,
)

SCALES = ("quick", "paper")
EFFORTS = ("none", "low", "medium", "high")
#: Default of ``repro fuzz --batch-size``.
SOAK_BATCH_SIZE = 30


def _positive_int(name: str) -> Callable[[str], int]:
    """argparse type for a count flag: reject 0/negative with a clear message."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {value!r}")
        if number < 1:
            raise argparse.ArgumentTypeError(f"{name} must be >= 1, got {number}")
        return number

    return parse


def _positive_seconds(value: str) -> float:
    """argparse type for ``--unit-timeout``: a positive, finite float."""
    try:
        seconds = float(value)
    except ValueError:
        seconds = math.nan
    if not math.isfinite(seconds) or seconds <= 0:
        raise argparse.ArgumentTypeError(
            f"unit timeout must be a positive finite number of seconds, got {value!r}"
        )
    return seconds


def _campaign_flags() -> argparse.ArgumentParser:
    """Parent parser of the flags ``run``/``verify``/``fuzz``/``faults`` share."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("-j", "--jobs", type=_positive_int("jobs"), default=1, metavar="N",
                       help="worker processes (default: 1, in-process); more "
                            "than one runs units on supervised workers")
    flags.add_argument("--unit-timeout", type=_positive_seconds, default=None,
                       metavar="SECONDS",
                       help="per-unit wall-clock budget; runs units on "
                            "supervised workers (even with -j 1), and an "
                            "overrunning unit is killed and recorded with "
                            "status=error")
    flags.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache directory (default: REPRO_CACHE_DIR "
                            "or ~/.cache/repro-xsfq)")
    flags.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result cache")
    flags.add_argument("-q", "--quiet", action="store_true",
                       help="suppress per-unit progress lines")
    return flags


#: Flags with the same name, default and meaning in every subcommand
#: that takes them (``--scale``: run/verify/faults, ``--sequence-length``:
#: verify/fuzz/faults, ``--stimulus-seed``: fuzz/faults).
SHARED_FLAGS = {
    "--scale": dict(choices=SCALES, default="quick",
                    help="benchmark circuit scale (default: quick)"),
    "--sequence-length": dict(type=_positive_int("sequence length"), default=8,
                              metavar="L",
                              help="cycles per trajectory for sequential "
                                   "circuits (default: 8)"),
    "--stimulus-seed": dict(type=int, default=0, metavar="S",
                            help="stimulus suite seed (default: 0)"),
}


def _add_shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **SHARED_FLAGS[flag])


def _list_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--circuits", action="store_true",
        help="also list the catalogued benchmark circuits",
    )


def _run_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "experiments", nargs="+", metavar="EXPERIMENT",
        help=f"experiment name(s) or 'all'; one of: {', '.join(sorted(EXPERIMENTS))}",
    )
    _add_shared(cmd, "--scale")
    cmd.add_argument("--effort", choices=EFFORTS, default=None,
                     help="AIG optimisation effort (default: per experiment)")
    cmd.add_argument("--circuits", nargs="+", action="extend", metavar="NAME",
                     default=None,
                     help="restrict table4/table6 to these circuits (repeatable)")
    cmd.add_argument("--save", default=None, metavar="DIR",
                     help="also write <experiment>-<scale>.json/.csv into DIR")
    cmd.add_argument("--stage-timing", action="store_true",
                     help="print the per-stage observer timing table "
                          "(frontend, aig-opt, polarity, map, ...)")


def _verify_flags(cmd: argparse.ArgumentParser) -> None:
    scope = cmd.add_mutually_exclusive_group()
    scope.add_argument("--catalog", action="store_true",
                       help="verify every circuit in the registry (default)")
    scope.add_argument("--circuit", action="append", metavar="NAME", default=None,
                       help="verify one circuit (repeatable)")
    cmd.add_argument("--patterns", type=_positive_int("patterns"), default=256,
                     metavar="N",
                     help="stimulus patterns per circuit (default: 256; "
                          "small input spaces are checked exhaustively)")
    cmd.add_argument("--seed", type=int, default=0, metavar="S",
                     help="stimulus seed (part of the cache identity)")
    _add_shared(cmd, "--sequence-length", "--scale")
    cmd.add_argument("--effort", choices=EFFORTS, default="medium",
                     help="AIG optimisation effort of the verified flow")
    cmd.add_argument("--save", default=None, metavar="DIR",
                     help="also write verify-<scale>.json into DIR")


def _fuzz_flags(cmd: argparse.ArgumentParser) -> None:
    from ..core import flow_variant_names
    from ..gen import DEFAULT_FLOWS, FAMILIES

    cmd.add_argument("--budget", type=_positive_int("budget"), default=100,
                     metavar="N",
                     help="random circuits to generate (default: 100)")
    cmd.add_argument("--seed", type=int, default=0, metavar="S",
                     help="master seed deriving every circuit's "
                          "(family, params, seed) (default: 0)")
    cmd.add_argument("--family", action="append", metavar="F", default=None,
                     choices=sorted(FAMILIES),
                     help=f"restrict to a circuit family (repeatable); "
                          f"one of: {', '.join(sorted(FAMILIES))}")
    cmd.add_argument("--flows", nargs="+", metavar="NAME",
                     default=list(DEFAULT_FLOWS),
                     choices=flow_variant_names(),
                     help=f"flow variants to cross every circuit with "
                          f"(default: {' '.join(DEFAULT_FLOWS)}; known: "
                          f"{', '.join(flow_variant_names())})")
    cmd.add_argument("--replay", metavar="NAME", default=None,
                     help="re-verify one generated circuit from its "
                          "printed gen:<family>:<params>:s<seed> name "
                          "instead of generating a batch")
    cmd.add_argument("--patterns", type=_positive_int("patterns"), default=64,
                     metavar="N",
                     help="stimulus patterns per verification (default: 64)")
    _add_shared(cmd, "--stimulus-seed", "--sequence-length")
    cmd.add_argument("--no-shrink", action="store_true",
                     help="skip counterexample shrinking on failures")
    cov_group = cmd.add_argument_group("coverage & soak (see docs/fuzzing.md)")
    cov_group.add_argument("--steer", action="store_true",
                           help="coverage-steered generation: bias parameter "
                                "sampling toward uncovered feature buckets "
                                "(deterministic per --budget/--seed)")
    cov_group.add_argument("--coverage-report", action="store_true",
                           help="print the structural-coverage hit/miss "
                                "matrix and (for soak runs) the per-batch "
                                "new-feature rate")
    cov_group.add_argument("--soak", action="store_true",
                           help="resumable soak run: checkpoint corpus + "
                                "coverage + cursor after every batch "
                                "(requires --checkpoint)")
    cov_group.add_argument("--checkpoint", metavar="DIR", default=None,
                           help="checkpoint directory for --soak / --merge")
    cov_group.add_argument("--batch-size", type=int, default=SOAK_BATCH_SIZE,
                           metavar="N",
                           help="soak units verified between checkpoints "
                                f"(default: {SOAK_BATCH_SIZE})")
    cov_group.add_argument("--shards", type=int, default=1, metavar="N",
                           help="partition the soak unit stream into N "
                                "independent shards (default: 1)")
    cov_group.add_argument("--shard-index", type=int, default=None, metavar="I",
                           help="run only shard I (0-based); default runs "
                                "every shard sequentially")
    cov_group.add_argument("--max-batches", type=int, default=None, metavar="N",
                           help="stop (resumably) after N batches per shard "
                                "this invocation")
    cov_group.add_argument("--merge", action="store_true",
                           help="merge the shard checkpoints in --checkpoint "
                                "into soak-merged.json instead of running")
    cmd.add_argument("--save", default=None, metavar="DIR",
                     help="also write fuzz-<seed>.json (records, shrunk "
                          "reproducers) into DIR")


def _faults_flags(cmd: argparse.ArgumentParser) -> None:
    from ..core import flow_variant_names
    from ..faults import DEFAULT_FAULT_KINDS, fault_kind_names

    fscope = cmd.add_mutually_exclusive_group()
    fscope.add_argument("--catalog", action="store_true",
                        help="probe every circuit in the registry (default)")
    fscope.add_argument("--circuit", action="append", metavar="NAME", default=None,
                        help="probe one circuit (repeatable)")
    cmd.add_argument("--kinds", metavar="K1,K2", default=",".join(DEFAULT_FAULT_KINDS),
                     help="comma-separated fault kinds to inject "
                          f"(default: {','.join(DEFAULT_FAULT_KINDS)}; known: "
                          f"{', '.join(fault_kind_names())})")
    cmd.add_argument("--flows", nargs="+", metavar="NAME",
                     default=["default"],
                     choices=flow_variant_names(),
                     help="flow variants to cross every circuit with "
                          "(default: default; known: "
                          f"{', '.join(flow_variant_names())})")
    cmd.add_argument("--seed", type=int, default=0, metavar="S",
                     help="fault-injection seed deriving every per-net "
                          "stream (default: 0)")
    cmd.add_argument("--magnitude", action="append", metavar="KIND=VALUE",
                     default=None,
                     help="override a kind's injected rate/magnitude, "
                          "e.g. jitter=10 or drop=0.05 (repeatable)")
    cmd.add_argument("--margin-search", action="store_true",
                     help="bisect the largest tolerated magnitude per "
                          "circuit x kind instead of injecting the "
                          "fixed default magnitude")
    cmd.add_argument("--patterns", type=_positive_int("patterns"), default=64,
                     metavar="N",
                     help="stimulus patterns per verification "
                          "(default: 64)")
    _add_shared(cmd, "--stimulus-seed", "--sequence-length", "--scale")
    cmd.add_argument("--report", nargs="?", metavar="PATH",
                     const="repro-faults.json", default=None,
                     help="write the repro-faults/1 JSON report "
                          "(default path: repro-faults.json)")


def _bench_flags(cmd: argparse.ArgumentParser) -> None:
    from ..perf import suite_names

    cmd.add_argument("--suite", default="smoke", choices=suite_names(),
                     help="benchmark suite to run (default: smoke; "
                          f"known: {', '.join(suite_names())})")
    cmd.add_argument("--out", default=".", metavar="DIR",
                     help="directory receiving BENCH_<suite>.json "
                          "(default: current directory)")
    cmd.add_argument("--repeat", type=int, default=None, metavar="N",
                     help="override measured repetitions per benchmark")
    cmd.add_argument("--warmup", type=int, default=None, metavar="N",
                     help="override unmeasured warmup runs per benchmark")
    cmd.add_argument("--compare", default=None, metavar="BASELINE.json",
                     help="diff best wall times against a stored "
                          "BENCH_*.json baseline")
    cmd.add_argument("--fail-on-regress", type=float, default=None,
                     metavar="PCT",
                     help="with --compare: exit non-zero when any "
                          "benchmark slowed down by more than PCT%%")
    cmd.add_argument("-q", "--quiet", action="store_true",
                     help="suppress per-repeat progress lines")


def _report_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "directory", nargs="?", default="results", metavar="DIR",
        help="directory holding repro-run JSON files (default: results)",
    )


#: Subcommand -> (help line, whether it takes the campaign flags, its flags).
SUBCOMMANDS = {
    "list": ("list reproducible experiments", False, _list_flags),
    "run": ("reproduce one or more experiments", True, _run_flags),
    "verify": ("pulse-level equivalence campaign over the circuit catalog", True, _verify_flags),
    "fuzz": ("differential fuzzing: generated circuits x flow variants", True, _fuzz_flags),
    "faults": ("fault injection + robustness margins over the circuit catalog", True, _faults_flags),
    "bench": ("performance benchmark suites with a regression gate", False, _bench_flags),
    "report": ("re-render saved JSON run reports", False, _report_flags),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser; with ``command``, only that subcommand gets its flags.

    The fuzz, faults and bench flags list the registered flow variants,
    circuit families, fault kinds and suites, which import those layers;
    ``parse_args`` builds only the flags of the subcommand it parses.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the xSFQ paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    campaign_flags = [_campaign_flags()]
    for name, (help_text, campaign, add_flags) in SUBCOMMANDS.items():
        cmd = sub.add_parser(name, parents=campaign_flags if campaign else [], help=help_text)
        if command is None or command == name:
            add_flags(cmd)
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top level takes no option but --help, so the first other word is the subcommand.
    command = next((arg for arg in argv if not arg.startswith("-")), "")
    return build_parser(command).parse_args(argv)


def _shared_prefix_groups() -> List[tuple]:
    """Group experiments by shared cached ``aig-opt`` prefixes.

    Two experiments share a prefix when they enumerate jobs with the same
    circuit, scale and ``frontend``/``aig-opt`` options: the second one
    resumes from the first one's stage-cached optimised AIG instead of
    re-optimising.  Returns ``[(experiment-name tuple, shared count)]``.
    """
    prefix_owners: dict = {}
    for name in sorted(EXPERIMENTS):
        for job in EXPERIMENTS[name].enumerate_jobs():
            try:
                prefix = job.signature_prefix("aig-opt")
            except ValueError:
                continue
            prefix_owners.setdefault(prefix, set()).add(name)
    groups: dict = {}
    for owners in prefix_owners.values():
        if len(owners) > 1:
            key = tuple(sorted(owners))
            groups[key] = groups.get(key, 0) + 1
    return sorted(groups.items())


def _cmd_list(args: argparse.Namespace, out) -> int:
    out.write("Experiments (repro run <name>):\n")
    for name in sorted(EXPERIMENTS):
        spec = EXPERIMENTS[name]
        num_jobs = len(spec.enumerate_jobs())
        jobs_note = f"{num_jobs} synthesis jobs" if num_jobs else "no synthesis"
        out.write(f"  {name:<10} {spec.title}  [{jobs_note}]\n")
    out.write("  all        every experiment above, in order\n")
    groups = _shared_prefix_groups()
    if groups:
        out.write(
            "\nShared aig-opt prefixes (stage cache reuses the optimised AIG"
            " across these):\n"
        )
        for names, count in groups:
            plural = "es" if count > 1 else ""
            out.write(f"  {' + '.join(names)}: {count} shared prefix{plural}\n")
    if args.circuits:
        from ..circuits import CATALOG

        out.write("\nBenchmark circuits (paper name -> stand-in generator):\n")
        for name, info in CATALOG.items():
            out.write(f"  {name:<8} {info.suite:<8} {info.kind:<13} {info.description}\n")
    return 0


def _resolve_experiments(requested: Sequence[str]) -> List[str]:
    if any(name == "all" for name in requested):
        return sorted(EXPERIMENTS)
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        known = ", ".join(sorted(EXPERIMENTS))
        raise SystemExit(
            f"repro: unknown experiment(s): {', '.join(unknown)} (known: {known})"
        )
    return list(requested)


def _validate_circuits(circuits: Optional[Sequence[str]]) -> None:
    if not circuits:
        return
    from ..circuits import CATALOG

    unknown = [name for name in circuits if name not in CATALOG]
    if unknown:
        raise SystemExit(
            f"repro: unknown circuit(s): {', '.join(unknown)} "
            "(see: repro list --circuits)"
        )


def _check_save_path(path: Optional[str], is_file: bool = False) -> None:
    """Exit with one line, before any unit runs, when nothing can be saved at ``path``.

    ``path`` is a ``--save`` directory, or with ``is_file`` the
    ``--report`` file; its directory is created now, as the save would.
    """
    if path is None:
        return
    target = Path(path)
    directory = target.parent if is_file else target
    if is_file and target.is_dir():
        reason = "is a directory"
    else:
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            reason = f"{directory} is not a directory"
        except OSError as exc:
            reason = exc.strerror or str(exc)
        else:
            if os.access(directory, os.W_OK | os.X_OK):
                return
            reason = f"{directory} is not writable"
    raise SystemExit(f"repro: cannot save to {path}: {reason}")


def _progress(args: argparse.Namespace, out) -> Callable[[str], None]:
    """Progress callback writing to ``out`` unless ``-q`` was given."""

    def progress(line: str) -> None:
        if not args.quiet:
            out.write(line + "\n")

    return progress


def _runner(args: argparse.Namespace, out) -> Runner:
    """The runner a campaign subcommand builds from the shared flags."""
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return Runner(jobs=args.jobs, cache=cache, progress=_progress(args, out),
                  unit_timeout=args.unit_timeout)


def _report_errors(errors, out) -> bool:
    """Print the units that raised, crashed or timed out; True if any did."""
    for record in errors:
        flow = f" flow={record['flow_variant']}" if record.get("flow_variant") else ""
        out.write(f"ERROR {record.get('circuit')}{flow}: {error_detail(record)}\n")
    if errors:
        out.write(f"FAILED: {len(errors)} unit(s) did not complete\n")
    return bool(errors)


def _cmd_run(args: argparse.Namespace, out) -> int:
    names = _resolve_experiments(args.experiments)
    _validate_circuits(args.circuits)
    if args.circuits and not any(EXPERIMENTS[name].supports_circuits for name in names):
        subsets = ", ".join(name for name, spec in EXPERIMENTS.items() if spec.supports_circuits)
        raise SystemExit(f"repro: --circuits applies only to: {subsets}")
    _check_save_path(args.save)
    runner = _runner(args, out)
    cache = runner.cache

    code = 0
    failures: List[str] = []
    for name in names:
        spec = EXPERIMENTS[name]
        out.write(f"\n=== {name}: {spec.title} ===\n")
        report = runner.campaign(
            ExperimentCampaign(spec, args.scale, args.effort, args.circuits)
        )
        extra = ""
        if args.stage_timing:
            if report.stage_timings:
                extra = "stage timing:\n" + render_stage_timings(report.stage_timings) + "\n"
            else:
                extra = "stage timing: (no synthesis stages ran)\n"
        save = Path(args.save) / f"{name}-{args.scale}.json" if args.save else None
        code = max(code, _finish_campaign(report, out, save, extra=extra))
        if report.failures:
            failures.append(name)
    if cache is not None:
        stats = cache.stats()
        out.write(
            f"\ncache: {stats['hits']} hits, {stats['misses']} misses, "
            f"{len(cache)} records in {cache.directory}\n"
        )
    if failures:
        out.write(f"FAILED shape checks: {', '.join(failures)}\n")
    return code


def _finish_campaign(report, out, save: Optional[Path] = None,
                     extra: str = "", failed: str = "") -> int:
    """The shared tail of ``run``/``verify``/``fuzz``/``faults``; returns the exit code.

    Prints the table, the summary, ``extra`` and the timing line, saves
    the report to ``save``, reports errored units and, when the campaign
    has failures, prints the command's ``failed`` text.
    """
    out.write(report.table() + "\n")
    summary = report.summary()
    if summary:
        out.write("summary:\n")
    for key in sorted(summary):
        value = summary[key]
        rendered = f"{value:.3f}" if isinstance(value, float) else str(value)
        out.write(f"  {key}: {rendered}\n")
    noun, verb = report.timing_words
    out.write(
        f"{extra}timing: {report.elapsed_s:.2f}s wall "
        f"({report.cached}/{len(report.records)} {noun} cached, "
        f"{report.completed} {verb}, {report.jobs} workers)\n"
    )
    if save is not None:
        out.write(f"saved {' and '.join(map(str, report.save(save)))}\n")
    errored = _report_errors(report.errored_units, out)
    if report.failures:
        out.write(failed)
    return 1 if errored or report.failures else 0


def _cmd_verify(args: argparse.Namespace, out) -> int:
    from ..core import Flow, FlowOptions
    from ..verify import VerificationCampaign, catalog_specs

    _validate_circuits(args.circuit)
    _check_save_path(args.save)
    flow = Flow.from_options(FlowOptions(effort=args.effort))
    specs = catalog_specs(
        circuits=args.circuit,
        scale=args.scale,
        flow=flow,
        patterns=args.patterns,
        seed=args.seed,
        sequence_length=args.sequence_length,
    )
    scope = "catalog" if not args.circuit else ", ".join(args.circuit)
    out.write(
        f"=== verify: {scope} ({len(specs)} circuits, "
        f"{args.patterns} patterns, seed {args.seed}) ===\n"
    )
    report = _runner(args, out).campaign(VerificationCampaign(specs))
    names = ", ".join(str(r.get("circuit")) for r in report.failures)
    save = Path(args.save) / f"verify-{args.scale}.json" if args.save else None
    return _finish_campaign(
        report, out, save, failed=f"FAILED equivalence: {names}\n"
    )


def _replay_failures(failures, shrunk) -> str:
    """``FAILED equivalence on:`` with a replay line (and any minimal
    reproducer from ``shrunk``) per failing fuzz record."""
    from ..gen import replay_line

    lines = ["FAILED equivalence on:"]
    for record in failures:
        lines.append(f"  {replay_line(record)}")
        reproducer = shrunk.get(f"{record.get('circuit')}|{record.get('flow_variant')}")
        if reproducer:
            lines.append(
                f"    shrunk {reproducer['initial_gates']} -> "
                f"{reproducer['final_gates']} gates; minimal reproducer:"
            )
            lines += [f"      {line}" for line in str(reproducer["bench"]).rstrip().splitlines()]
    return "\n".join(lines) + "\n"


def _cmd_fuzz_soak(args: argparse.Namespace, out) -> int:
    """``repro fuzz --soak`` / ``--merge``: checkpointed, shardable runs."""
    from ..cov import render_coverage_report
    from ..cov.soak import (
        SoakCampaign,
        load_state,
        merge_states,
        merged_path,
        run_soak,
        shard_paths,
        write_state,
    )

    directory = Path(args.checkpoint)
    campaign = _fuzz_campaign(args)
    states = []
    if args.merge:
        paths = shard_paths(directory)
        if not paths:
            raise SystemExit(
                f"repro: no shard checkpoints (soak-shard*of*.json) in {directory}"
            )
        out.write(f"=== soak merge: {len(paths)} checkpoint(s) in {directory} ===\n")
        try:
            states = [load_state(path) for path in paths]
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise SystemExit(f"repro: cannot load shard checkpoint: {exc}")
    else:
        runner = _runner(args, out)
        indices = (
            [args.shard_index]
            if args.shard_index is not None
            else list(range(args.shards))
        )
        for index in indices:
            try:
                soak = SoakCampaign(
                    fuzz=campaign,
                    batch_size=args.batch_size,
                    shards=args.shards,
                    shard_index=index,
                )
            except ValueError as exc:
                raise SystemExit(f"repro: {exc}")
            out.write(
                f"=== soak: shard {index + 1}/{args.shards}, "
                f"budget {campaign.budget}, seed {campaign.seed}, "
                f"batch {args.batch_size}, checkpoints in {directory} ===\n"
            )
            try:
                states.append(
                    run_soak(soak, runner, directory, max_batches=args.max_batches)
                )
            except ValueError as exc:
                raise SystemExit(f"repro: {exc}")

    complete = all(state.complete for state in states)
    try:
        view = states[0] if len(states) == 1 else merge_states(states)
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")
    if len(states) > 1 and complete:
        path = write_state(view, merged_path(directory))
        out.write(f"merged {len(states)} shard(s) -> {path}\n")

    fresh = sum(state.new_features_total() for state in states)
    errors = [record for state in states for record in state.errors]
    out.write(
        f"soak: {view.units_done}/{view.units_total} units done, "
        f"{len(view.coverage)} feature buckets "
        f"({fresh} new this campaign), {len(view.failures)} failures, "
        f"{len(errors)} errors\n"
    )
    if not complete:
        out.write("note: shard(s) incomplete; resume with the same flags\n")

    if args.coverage_report:
        camp_dict = view.campaign.get("campaign") or {}
        flows = list(camp_dict.get("flows") or campaign.flows)
        families = list(camp_dict.get("families") or []) or None
        batches = states[0].batches if len(states) == 1 else None
        text = render_coverage_report(
            view.coverage, flows, families=families, batches=batches
        )
        out.write(text + "\n")
        report_path = directory / "coverage-report.txt"
        report_path.write_text(text + "\n", encoding="utf-8")
        out.write(f"saved {report_path}\n")

    failed = _report_errors(errors, out)
    if view.failures:
        out.write(_replay_failures(view.failures, {}))
    return 1 if failed or view.failures else 0


def _fuzz_campaign(args: argparse.Namespace):
    from ..gen import FuzzCampaign

    return FuzzCampaign(
        budget=args.budget,
        seed=args.seed,
        families=tuple(args.family or ()),
        flows=tuple(args.flows),
        patterns=args.patterns,
        sequence_length=args.sequence_length,
        stimulus_seed=args.stimulus_seed,
        steer=args.steer,
    )


def _cmd_fuzz(args: argparse.Namespace, out) -> int:
    from ..gen import parse_name
    from ..gen.fuzz import shrink_failures

    if args.soak or args.merge:
        for flag, given in (("--replay", args.replay), ("--save", args.save)):
            if given is not None:
                raise SystemExit(f"repro: {flag} cannot combine with --soak/--merge")
        if args.checkpoint is None:
            raise SystemExit("repro: --soak/--merge require --checkpoint DIR")
        if args.soak:
            _check_save_path(args.checkpoint)
        return _cmd_fuzz_soak(args, out)
    soak_only = [
        flag
        for flag, given in (
            ("--checkpoint", args.checkpoint is not None),
            ("--batch-size", args.batch_size != SOAK_BATCH_SIZE),
            ("--shards", args.shards != 1),
            ("--shard-index", args.shard_index is not None),
            ("--max-batches", args.max_batches is not None),
        )
        if given
    ]
    if soak_only:
        raise SystemExit(f"repro: {'/'.join(soak_only)} require --soak")

    _check_save_path(args.save)
    campaign = _fuzz_campaign(args)
    units = None
    if args.replay is not None:
        try:
            units = campaign.units([parse_name(args.replay).name()])
        except (ValueError, KeyError) as exc:
            raise SystemExit(f"repro: bad --replay name: {exc}")
        out.write(
            f"=== fuzz replay: {args.replay} ({len(units)} flow variants) ===\n"
        )
    else:
        steered = " (steered)" if campaign.steer else ""
        out.write(
            f"=== fuzz{steered}: budget {campaign.budget}, seed {campaign.seed}, "
            f"flows {', '.join(campaign.flows)} ===\n"
        )

    runner = _runner(args, out)
    batch = campaign.batch(units)
    report = runner.campaign(batch)
    if not args.no_shrink:
        shrink_failures(report, runner.progress)
    coverage = ""
    if args.coverage_report:
        from ..cov import CoverageMap, fold_fuzz_units, render_coverage_report

        folded = CoverageMap()
        fold_fuzz_units(folded, batch.units(), report.records)
        families = list(campaign.families) or None
        coverage = render_coverage_report(folded, list(campaign.flows), families=families) + "\n"
    save = Path(args.save) / f"fuzz-{args.seed}.json" if args.save else None
    return _finish_campaign(
        report, out, save, extra=coverage,
        failed=_replay_failures(report.failures, report.shrunk),
    )


def _parse_fault_kinds(raw: str):
    from ..faults import fault_kind_names

    kinds = tuple(token.strip() for token in raw.split(",") if token.strip())
    if not kinds:
        raise SystemExit("repro: --kinds needs at least one fault kind")
    unknown = [kind for kind in kinds if kind not in fault_kind_names()]
    if unknown:
        raise SystemExit(
            f"repro: unknown fault kind(s): {', '.join(unknown)} "
            f"(known: {', '.join(fault_kind_names())})"
        )
    return kinds


def _parse_fault_magnitudes(pairs):
    from ..faults import fault_kind_names

    overrides = []
    for pair in pairs or ():
        kind, sep, value = pair.partition("=")
        kind = kind.strip()
        if not sep or kind not in fault_kind_names():
            raise SystemExit(
                f"repro: bad --magnitude {pair!r}; expected KIND=VALUE with "
                f"KIND one of: {', '.join(fault_kind_names())}"
            )
        try:
            overrides.append((kind, float(value)))
        except ValueError:
            raise SystemExit(f"repro: bad --magnitude value in {pair!r}")
    return tuple(overrides)


def _cmd_faults(args: argparse.Namespace, out) -> int:
    from ..faults import FaultCampaign

    _validate_circuits(args.circuit)
    kinds = _parse_fault_kinds(args.kinds)
    magnitudes = _parse_fault_magnitudes(args.magnitude)
    campaign = FaultCampaign(
        circuits=tuple(args.circuit or ()),
        kinds=kinds,
        flows=tuple(args.flows),
        seed=args.seed,
        scale=args.scale,
        patterns=args.patterns,
        stimulus_seed=args.stimulus_seed,
        sequence_length=args.sequence_length,
        margin=args.margin_search,
        magnitudes=magnitudes,
    )
    try:
        units = campaign.units()
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")
    _check_save_path(args.report, is_file=True)
    scope = "catalog" if not args.circuit else ", ".join(args.circuit)
    mode = "margin search" if args.margin_search else "fixed magnitude"
    out.write(
        f"=== faults: {scope} ({len(units)} units, kinds {', '.join(kinds)}, "
        f"{mode}, seed {args.seed}) ===\n"
    )
    report = _runner(args, out).campaign(campaign.batch(units))
    names = ", ".join(
        f"{r.get('circuit')} flow={r.get('flow_variant')}" for r in report.failures
    )
    save = Path(args.report) if args.report else None
    return _finish_campaign(
        report, out, save, failed=f"FAILED nominal equivalence: {names}\n"
    )


def _cmd_bench(args: argparse.Namespace, out) -> int:
    from ..perf import (
        compare_reports,
        load_bench,
        render_comparison,
        render_results_table,
        run_suite,
        suite_specs,
    )

    if args.fail_on_regress is not None and args.compare is None:
        raise SystemExit("repro: --fail-on-regress requires --compare")

    # Load the baseline before running (and before writing the fresh
    # report): --compare may point at the very file --out will overwrite.
    baseline = None
    if args.compare is not None:
        try:
            baseline = load_bench(Path(args.compare))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise SystemExit(f"repro: cannot load baseline {args.compare}: {exc}")
    _check_save_path(args.out)

    specs = suite_specs(args.suite)
    out.write(f"=== bench: suite {args.suite} ({len(specs)} benchmarks) ===\n")
    report = run_suite(
        args.suite, specs, repeat=args.repeat, warmup=args.warmup,
        progress=_progress(args, out),
    )
    out.write(render_results_table(report) + "\n")
    path = report.write(Path(args.out))
    out.write(f"saved {path}\n")
    out.write(f"timing: {report.elapsed_s:.2f}s wall\n")

    if baseline is None:
        return 0
    comparison = compare_reports(
        report, baseline, fail_on_regress=args.fail_on_regress
    )
    out.write(f"\nbaseline: {args.compare} (suite {baseline.suite})\n")
    out.write(render_comparison(comparison) + "\n")
    if comparison.missing:
        out.write(
            "note: baseline entries not exercised this run: "
            + ", ".join(comparison.missing)
            + "\n"
        )
    failed = False
    if comparison.regressions:
        names = ", ".join(delta.name for delta in comparison.regressions)
        out.write(
            f"FAILED regression gate (> {args.fail_on_regress:.0f}%): {names}\n"
        )
        failed = True
    if comparison.missing and args.fail_on_regress is not None:
        # A gate that skips a baselined workload must not read as green:
        # a deleted or renamed benchmark needs a deliberate baseline
        # refresh, not a silent pass.
        out.write(
            "FAILED regression gate: baseline entries missing from this run\n"
        )
        failed = True
    return 1 if failed else 0


def _cmd_report(args: argparse.Namespace, out) -> int:
    directory = Path(args.directory)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        out.write(
            f"repro: no saved reports in {directory}/ "
            "(generate some with: repro run <experiment> --save "
            f"{directory})\n"
        )
        return 1
    for path in paths:
        try:
            text = render_report(load_report(path))
        except ValueError:
            out.write(f"repro: skipping unreadable report {path}\n")
            continue
        out.write(f"\n--- {path.name} ---\n")
        out.write(text + "\n")
    return 0


COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "verify": _cmd_verify,
    "fuzz": _cmd_fuzz,
    "faults": _cmd_faults,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        status = COMMANDS[args.command](args, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro verify ... | head -1``): stop
        # quietly with status 1.  Python flushes stdout again at exit,
        # so point it at devnull first (the Python docs' SIGPIPE note).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
