"""Durable IO: atomic writes and corrupt-file quarantine."""

import json
import os
import tracemalloc

import pytest

from repro.schema import WireFormatError, atomic_write_json, quarantine


def _report(rows):
    """A campaign report the size of a 50-circuit fuzz run: ``rows`` verdict records."""
    return {
        "experiment": "fuzz",
        "rows": [
            {
                "circuit": f"gen:random_dag:inputs=6,gates=40:s{index}",
                "flow_variant": ("default", "direct", "positive")[index % 3],
                "status": "equivalent",
                "patterns": 64,
                "elaborations": 1,
                "cell_counts": {"FA": 20 + index % 7, "LA": 31 + index % 5, "SPLIT": 12},
                "flow": [["frontend", {}], ["aig-opt", {"effort": "medium", "script": None}]],
                "first_divergence": None,
                "detail": "equivalent on 64 patterns " + "x" * 900,
            }
            for index in range(rows)
        ],
        "summary": {"units": rows, "equivalent": rows, "all_equivalent": True},
    }


class TestAtomicWriteJson:
    def test_writes_pretty_sorted_with_trailing_newline(self, tmp_path):
        path = atomic_write_json(tmp_path / "doc.json", {"b": 1, "a": 2})
        text = path.read_text()
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_compact_form_matches_canonical_serialisation(self, tmp_path):
        path = atomic_write_json(
            tmp_path / "doc.json", {"b": 1, "a": [1, 2]}, compact=True
        )
        assert path.read_text() == '{"a":[1,2],"b":1}\n'

    def test_bytes_equal_json_dumps_in_both_forms(self, tmp_path):
        report = _report(150)
        pretty = atomic_write_json(tmp_path / "report.json", report).read_text()
        assert pretty == json.dumps(report, indent=2, sort_keys=True) + "\n"
        record = report["rows"][0]
        compact = atomic_write_json(tmp_path / "record.json", record, compact=True).read_text()
        assert compact == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"

    def test_pretty_form_streams_instead_of_building_the_text(self, tmp_path):
        """The indented report is written chunk by chunk: building it as
        one string first held the whole text, and its parts, in memory."""
        report = _report(150)
        size = len(json.dumps(report, indent=2, sort_keys=True))
        tracemalloc.start()
        try:
            atomic_write_json(tmp_path / "report.json", report)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size / 2, (peak, size)

    def test_creates_parent_directories(self, tmp_path):
        path = atomic_write_json(tmp_path / "deep" / "nest" / "doc.json", {"a": 1})
        assert path.exists()

    def test_replaces_existing_document(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_json(target, {"version": 1})
        atomic_write_json(target, {"version": 2})
        assert json.loads(target.read_text()) == {"version": 2}

    def test_rejecting_a_bad_document_leaves_the_old_bytes_intact(self, tmp_path):
        """A failed write must not touch the previous document or leave
        temp litter — this is the crash-safety contract every baseline
        and checkpoint depends on."""
        target = tmp_path / "doc.json"
        atomic_write_json(target, {"good": True})
        before = target.read_bytes()
        with pytest.raises(WireFormatError):
            atomic_write_json(target, {"bad": object()})
        with pytest.raises(WireFormatError):
            atomic_write_json(target, {"bad": float("nan")})
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_interrupted_replace_leaves_no_partial_target(self, tmp_path, monkeypatch):
        target = tmp_path / "doc.json"
        atomic_write_json(target, {"version": 1})
        before = target.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write_json(target, {"version": 2})
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


class TestQuarantine:
    def test_moves_the_file_aside(self, tmp_path):
        bad = tmp_path / "record.json"
        bad.write_text("{trunca")
        moved = quarantine(bad)
        assert moved == tmp_path / "record.json.corrupt"
        assert not bad.exists() and moved.read_text() == "{trunca"

    def test_missing_file_returns_none(self, tmp_path):
        assert quarantine(tmp_path / "never-existed.json") is None
