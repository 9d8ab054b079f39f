"""Golden wall for the campaign CLIs: full stdout and saved documents.

Small ``repro verify`` (with a duplicated ``--circuit``), ``repro fuzz
--coverage-report`` and ``repro faults --margin-search`` runs, ``repro
run all`` and a saved ``repro run table4`` are pinned line for line
against the files in ``tests/eval/golden``.  Wall-clock numbers (every
``N.NN``) and the scratch directory are masked in stdout; the saved JSON
documents drop their wall-clock fields, and the faults report and the
run CSV are compared byte for byte.  Each case starts from an empty
in-process stage cache, so the saved stage-timing counts do not depend
on what ran before it.

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

from repro.core import StageCache, set_stage_cache
from repro.eval import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Wall-clock numbers: progress ``(0.21s)`` and the done/timing lines.
TIMES = re.compile(r"(?<![\d.=])\d+\.\d\d(?!\d)")
#: Wall-clock fields of saved JSON documents (``total_s``/``mean_s``:
#: the per-stage seconds of a run's ``stage_timings``).
VOLATILE_FIELDS = ("elapsed_s", "total_s", "mean_s")
#: Saved documents with no wall clock in them, compared byte for byte.
VERBATIM = ("faults.json", "table4-quick.csv")

#: name -> (argv with ``{out}`` for the output directory, saved documents).
CASES = {
    "verify": (
        ["verify", "--circuit", "ctrl", "--circuit", "ctrl", "--patterns", "32",
         "--no-cache", "--save", "{out}"],
        ("verify-quick.json",),
    ),
    "fuzz": (
        ["fuzz", "--budget", "2", "--coverage-report", "--no-cache", "--save", "{out}"],
        ("fuzz-0.json",),
    ),
    "faults": (
        ["faults", "--circuit", "ctrl", "--kinds", "jitter,drop", "--margin-search",
         "--patterns", "16", "--no-cache", "--report", "{out}/faults.json"],
        ("faults.json",),
    ),
    "run-all": (["run", "all", "--effort", "none", "--no-cache"], ()),
    "run-table4": (
        ["run", "table4", "--circuits", "ctrl", "dec", "--effort", "none",
         "--no-cache", "--save", "{out}"],
        ("table4-quick.json", "table4-quick.csv"),
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
    """``(exit code, masked stdout, {document: text})`` of one pinned run."""
    argv, documents = CASES[name]
    stdout = io.StringIO()
    previous = set_stage_cache(StageCache())
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main([arg.format(out=out_dir) for arg in argv])
    finally:
        set_stage_cache(previous)
    saved = {}
    for document in documents:
        text = (Path(out_dir) / document).read_text(encoding="utf-8")
        if document not in VERBATIM:
            text = json.dumps(_scrub(json.loads(text), out_dir), indent=2, sort_keys=True) + "\n"
        saved[document] = text
    return code, _mask(stdout.getvalue(), out_dir), saved


@pytest.mark.parametrize("name", sorted(CASES))
def test_campaign_cli_matches_golden(name, tmp_path):
    code, stdout, saved = run_case(name, tmp_path)
    assert code == 0
    assert stdout == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    for document, text in saved.items():
        assert text == (GOLDEN / document).read_text(encoding="utf-8"), document


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            _, text, documents = run_case(case, scratch)
        (GOLDEN / f"{case}.txt").write_text(text, encoding="utf-8")
        for document, content in documents.items():
            (GOLDEN / document).write_text(content, encoding="utf-8")
        sys.stderr.write(f"wrote {case}\n")
