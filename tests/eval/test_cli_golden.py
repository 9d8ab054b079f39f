"""Golden wall for the campaign CLIs: full stdout and saved documents.

Small ``repro verify`` (with a duplicated ``--circuit``), ``repro fuzz
--coverage-report`` and ``repro faults --margin-search`` runs are pinned
line for line against the files in ``tests/eval/golden``.  Wall-clock
numbers (every ``N.NN``) and the scratch directory are masked in stdout;
the saved verify/fuzz documents drop their ``elapsed_s``/``seconds``/
``synth_seconds`` fields, and the faults report is compared byte for byte.

After a deliberate output change, rewrite the goldens with::

    PYTHONPATH=src python tests/eval/test_cli_golden.py
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from repro.eval import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Wall-clock numbers: progress ``(0.21s)``, done/timing lines, ``Sim (s)``.
TIMES = re.compile(r"(?<![\d.=])\d+\.\d\d(?!\d)")
VOLATILE_FIELDS = ("elapsed_s", "seconds", "synth_seconds")

#: name -> (argv with ``{out}`` for the output directory, saved document).
CASES = {
    "verify": (
        ["verify", "--circuit", "ctrl", "--circuit", "ctrl", "--patterns", "32",
         "--no-cache", "--save", "{out}"],
        "verify-quick.json",
    ),
    "fuzz": (
        ["fuzz", "--budget", "2", "--coverage-report", "--no-cache", "--save", "{out}"],
        "fuzz-0.json",
    ),
    "faults": (
        ["faults", "--circuit", "ctrl", "--kinds", "jitter,drop", "--margin-search",
         "--patterns", "16", "--no-cache", "--report", "{out}/faults.json"],
        "faults.json",
    ),
}


def _mask(text, out_dir):
    return TIMES.sub("#.##", text.replace(str(out_dir), "<out>"))


def _scrub(value, out_dir):
    """Drop wall-clock fields and mask times in rendered text, recursively."""
    if isinstance(value, dict):
        return {
            key: _scrub(item, out_dir)
            for key, item in value.items()
            if key not in VOLATILE_FIELDS
        }
    if isinstance(value, list):
        return [_scrub(item, out_dir) for item in value]
    if isinstance(value, str):
        return _mask(value, out_dir)
    return value


def run_case(name, out_dir):
    """``(exit code, masked stdout, saved document)`` of one pinned run."""
    argv, document = CASES[name]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([arg.format(out=out_dir) for arg in argv])
    saved = (Path(out_dir) / document).read_text(encoding="utf-8")
    if name != "faults":
        saved = json.dumps(_scrub(json.loads(saved), out_dir), indent=2, sort_keys=True) + "\n"
    return code, _mask(stdout.getvalue(), out_dir), saved


@pytest.mark.parametrize("name", sorted(CASES))
def test_campaign_cli_matches_golden(name, tmp_path):
    code, stdout, saved = run_case(name, tmp_path)
    assert code == 0
    assert stdout == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert saved == (GOLDEN / CASES[name][1]).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            _, text, document = run_case(case, scratch)
        (GOLDEN / f"{case}.txt").write_text(text, encoding="utf-8")
        (GOLDEN / CASES[case][1]).write_text(document, encoding="utf-8")
        sys.stderr.write(f"wrote {case}\n")
