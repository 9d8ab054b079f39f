"""The four benchmark workloads: command lines, output checks and ``jj_total``.

Each workload is one real ``repro`` command.  The benchmark seed reaches
the command only as its own ``--seed`` or ``--stimulus-seed`` flag;
``analog-characterize`` has no seed.  The reasons for each choice are recorded in README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional

#: Circuits of ``verify-catalog``: a fixed slice of the catalog whose
#: ``aig-opt`` work dominates, a few seconds per command so that one run
#: holds several commands.  The whole catalog takes 20-26 s.
VERIFY_CIRCUITS = ("c880", "c1908", "c2670", "c3540", "c5315", "c7552", "priority", "s344", "s641")
#: Circuits of ``faults-margin``: mixed combinational and sequential, all
#: cheap to synthesise, so fault-injected pulse simulation dominates.
FAULT_CIRCUITS = ("ctrl", "s27", "s298", "c432", "s344", "int2float")
#: Generated circuits per ``fuzz-parallel`` command (three flows each).
FUZZ_BUDGET = 50

#: ``repro run figure2_3`` output at the commit that defined this
#: benchmark: scenario -> (output pulses, delay in ps or None).  Pulse
#: counts must match exactly and delays within ``DELAY_TOLERANCE_PS``.
ANALOG_EXPECTED: Dict[str, tuple] = {
    "jtl": (1, 5.842180006432435),
    "la_single": (0, None),
    "la_both": (1, 3.9533140620690452),
    "fa_single": (1, 2.990252823965256),
    "fa_both": (2, 2.990252823965256),
    "droc_empty": (1, 6.526746995601278),
    "droc_loaded": (2, -2.8236035548648597),
}
DELAY_TOLERANCE_PS = 0.1


@dataclass(frozen=True)
class Workload:
    """One benchmarked command.

    Attributes:
        name: Workload name (``--workload``).
        units: Units the command attempts; counts as attempted when the
            command dies before announcing its own batch size.
        args: ``(seed, out_dir) -> repro CLI arguments``; the command
            writes its report under ``out_dir``.
        report: ``(seed, out_dir) -> path`` of that report.
        check: ``report -> problems`` (empty when the output is correct).
        jj_total: ``report -> Σ JJ`` of the circuits the command built.
        serial_args: For a parallel workload, the same units at ``-j 1``:
            the traced run takes its in-unit layer split from them.
    """

    name: str
    units: int
    args: Callable[[int, Path], List[str]]
    report: Callable[[int, Path], Path]
    check: Callable[[Mapping], List[str]]
    jj_total: Callable[[Mapping], int]
    serial_args: Optional[Callable[[int, Path], List[str]]] = None


def netlist_jj_total(report: Mapping) -> int:
    """Σ ``default_library().total_jj(cell_counts)`` over distinct mapped netlists.

    Rows that share a circuit and flow (the fault kinds of one circuit)
    share a netlist and are counted once.
    """
    from repro.core.cells import CellKind, default_library

    library = default_library()
    seen = {}
    for row in report.get("rows", ()):
        flow = row.get("flow_variant") or json.dumps(row.get("flow"), sort_keys=True)
        seen[(row.get("circuit"), flow)] = row.get("cell_counts") or {}
    return sum(
        library.total_jj({CellKind(kind): count for kind, count in counts.items()})
        for counts in seen.values()
    )


def analog_jj_total(report: Mapping) -> int:
    """Σ junctions of the RCSJ circuit behind each characterised scenario."""
    from repro.sim.analog.cells import droc_cell, fa_cell, jtl_chain, la_cell

    builders = {"jtl": jtl_chain, "la": la_cell, "fa": fa_cell, "droc": droc_cell}
    return sum(
        len(builders[str(row.get("scenario", "")).split("_")[0]]().circuit.junctions)
        for row in report.get("rows", ())
    )


def check_verdicts(report: Mapping) -> List[str]:
    """Every verdict ``equivalent`` and nothing ``skipped``."""
    problems = [
        f"{row.get('circuit')} flow={row.get('flow_variant', 'default')}: {row.get('status')}"
        for row in report.get("rows", ())
        if row.get("status") != "equivalent"
    ]
    skipped = report.get("summary", {}).get("skipped")
    if skipped != 0:
        problems.append(f"summary.skipped = {skipped!r}")
    if not report.get("rows"):
        problems.append("report has no rows")
    return problems


def check_faults(report: Mapping) -> List[str]:
    """Every nominal run equivalent and no miscompare."""
    summary = report.get("summary", {})
    problems = []
    if summary.get("all_nominal_equivalent") is not True:
        problems.append(f"all_nominal_equivalent = {summary.get('all_nominal_equivalent')!r}")
    if summary.get("miscompares") != 0:
        problems.append(f"miscompares = {summary.get('miscompares')!r}")
    if not report.get("rows"):
        problems.append("report has no rows")
    return problems


def check_analog(report: Mapping) -> List[str]:
    """The seven pulse counts and delays of ``ANALOG_EXPECTED``."""
    rows = {row.get("scenario"): row for row in report.get("rows", ())}
    problems = []
    if set(rows) != set(ANALOG_EXPECTED):
        problems.append(f"scenarios {sorted(rows)} != {sorted(ANALOG_EXPECTED)}")
    for scenario, (pulses, delay) in ANALOG_EXPECTED.items():
        row = rows.get(scenario)
        if row is None:
            continue
        if row.get("output_pulses") != pulses:
            problems.append(f"{scenario}: {row.get('output_pulses')} pulses, expected {pulses}")
        got = row.get("delay_ps")
        if (got is None) != (delay is None) or (
            delay is not None and abs(float(got) - delay) > DELAY_TOLERANCE_PS
        ):
            problems.append(f"{scenario}: delay {got!r} ps, expected {delay!r}")
    return problems


def _circuit_args(circuits) -> List[str]:
    return [arg for name in circuits for arg in ("--circuit", name)]


def _verify_args(seed: int, out: Path) -> List[str]:
    return ["verify", *_circuit_args(VERIFY_CIRCUITS), "-j", "1", "--seed", str(seed),
            "--save", str(out)]


def _fuzz_args(jobs: int) -> Callable[[int, Path], List[str]]:
    # The generated batch stays the one of generator seed 0: a new batch
    # per seed moved CPU time by up to 24 % and jj_total by up to 11 %
    # between seeds.  The seed varies the stimulus instead.
    def args(seed: int, out: Path) -> List[str]:
        return [
            "fuzz", "--budget", str(FUZZ_BUDGET), "--no-shrink", "-j", str(jobs),
            "--stimulus-seed", str(seed), "--save", str(out),
        ]

    return args


def _faults_args(seed: int, out: Path) -> List[str]:
    return ["faults", "--margin-search", *_circuit_args(FAULT_CIRCUITS), "--seed", str(seed),
            "--report", str(out / "faults.json")]


def _analog_args(seed: int, out: Path) -> List[str]:
    return ["run", "figure2_3", "--no-cache", "--save", str(out)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="verify-catalog",
            units=len(VERIFY_CIRCUITS),
            args=_verify_args,
            report=lambda seed, out: out / "verify-quick.json",
            check=check_verdicts,
            jj_total=netlist_jj_total,
        ),
        Workload(
            name="fuzz-parallel",
            units=3 * FUZZ_BUDGET,
            args=_fuzz_args(2),
            report=lambda seed, out: out / "fuzz-0.json",
            check=check_verdicts,
            jj_total=netlist_jj_total,
            serial_args=_fuzz_args(1),
        ),
        Workload(
            name="faults-margin",
            units=2 * len(FAULT_CIRCUITS),
            args=_faults_args,
            report=lambda seed, out: out / "faults.json",
            check=check_faults,
            jj_total=netlist_jj_total,
        ),
        Workload(
            name="analog-characterize",
            units=len(ANALOG_EXPECTED),
            args=_analog_args,
            report=lambda seed, out: out / "figure2_3-quick.json",
            check=check_analog,
            jj_total=analog_jj_total,
        ),
    )
}


def load_report(path: Path) -> Optional[dict]:
    """The saved report, or ``None`` when missing or unreadable."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
