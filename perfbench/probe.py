"""Run one ``repro`` command as a child process and measure it from outside.

Everything here observes the child through the operating system only:
timestamps on its unbuffered stdout lines give set-up (spawn to first
line) and teardown (last line to exit), and ``os.wait4`` gives the CPU
time and peak resident set of the child together with every worker it
reaped.  Each child leads its own process group, so a timeout or an
early stop kills the whole tree, and the group is waited on until it is
empty.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

#: ``[i/n] <verb> ...`` progress lines of ``repro verify``/``fuzz``/``faults``.
PROGRESS_LINE = re.compile(r"^\s*\[(\d+)/(\d+)\]\s+(\S+)\s+(.*)$")
#: Trailing ``[status] (1.23s)`` of a ``computed`` progress line.
STATUS_SUFFIX = re.compile(r"\[([\w-]+)\]\s+\([\d.]+s\)\s*$")
#: Unit statuses that count as a success.
OK_STATUSES = frozenset({"equivalent", "tolerated"})


@dataclass
class ChildRun:
    """Outcome of one child process, measured from outside.

    Attributes:
        exit_code: Exit status (negative signal number when killed).
        wall_s: Spawn to exit.
        setup_s: Spawn to the first stdout line (``wall_s`` when silent).
        teardown_s: Last stdout line to exit (0 when silent).
        cpu_s: User + system CPU of the child and its reaped workers.
        peak_rss_mb: Largest resident set of any process in the tree.
        lines: Every stdout line, newline stripped.
        stderr: The child's standard error.
        timed_out: Whether the deadline killed the process group.
    """

    exit_code: int
    wall_s: float
    setup_s: float
    teardown_s: float
    cpu_s: float
    peak_rss_mb: float
    lines: List[str] = field(default_factory=list)
    stderr: str = ""
    timed_out: bool = False


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_empty(pgid: int, timeout: float = 5.0) -> None:
    """Kill group ``pgid`` until none of it is left.

    Stops waiting after ``timeout``: by then every member has had SIGKILL,
    and what remains are zombies of orphans that the init process has
    not reaped yet.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(
    argv: Sequence[str],
    cwd: Path,
    env: Mapping[str, str],
    timeout: float,
    stop_after_first_line: bool = False,
) -> ChildRun:
    """Spawn ``argv``, timestamp its stdout lines and reap it with ``wait4``.

    With ``stop_after_first_line`` the process group is killed as soon as
    the first line arrives: that measures set-up alone.
    """
    stderr_path = Path(cwd) / "stderr.txt"
    stamps: List[Tuple[float, str]] = []
    fired = threading.Event()
    with open(stderr_path, "wb") as stderr_file:
        started = time.perf_counter()
        proc = subprocess.Popen(
            list(argv),
            cwd=str(cwd),
            env=dict(env),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=stderr_file,
            start_new_session=True,
        )

        def on_timeout() -> None:
            fired.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout, on_timeout)
        timer.start()
        reaped = False
        try:
            for raw in proc.stdout:
                stamps.append((time.perf_counter(), raw.decode("utf-8", "replace").rstrip("\n")))
                if stop_after_first_line:
                    _kill_group(proc.pid)
                    break
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.perf_counter()
            reaped = True
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if not reaped:
                _kill_group(proc.pid)
                proc.wait()
            _wait_group_empty(proc.pid)
    wall = ended - started
    return ChildRun(
        exit_code=proc.returncode,
        wall_s=wall,
        setup_s=stamps[0][0] - started if stamps else wall,
        teardown_s=ended - stamps[-1][0] if stamps else 0.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        lines=[line for _, line in stamps],
        stderr=stderr_path.read_text(encoding="utf-8", errors="replace"),
        timed_out=fired.is_set(),
    )


def count_units(lines: Sequence[str]) -> Tuple[int, int]:
    """``(attempted, failed)`` from a command's ``[i/n]`` progress lines.

    ``attempted`` is the largest announced batch size ``n`` (0 when no
    progress line was printed).  A unit fails on an ``ERROR`` or
    ``TIMEOUT`` line, or on a computed line whose ``[status]`` is not a
    success (``equivalent``, or ``tolerated`` for fault probes).
    """
    attempted = 0
    failed = set()
    for line in lines:
        match = PROGRESS_LINE.match(line)
        if match is None:
            continue
        index, total, verb, rest = match.groups()
        attempted = max(attempted, int(total))
        if verb in ("ERROR", "TIMEOUT"):
            failed.add(int(index))
            continue
        status = STATUS_SUFFIX.search(rest)
        if status is not None and status.group(1) not in OK_STATUSES:
            failed.add(int(index))
    return attempted, len(failed)


def child_env(run_dir: Path, root: Path, extra_paths: Sequence[Path] = ()) -> Dict[str, str]:
    """Environment for a child: the checkout's ``src`` first on the path,
    unbuffered output, bytecode caching on (as for a user, whatever the
    caller's setting), and the result cache and temp files inside
    ``run_dir``."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    paths = [str(root / "src"), *map(str, extra_paths)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    env["TMPDIR"] = str(run_dir)
    return env
