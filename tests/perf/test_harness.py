"""The benchmark harness itself: measurement, emission, comparison, CLI."""

import json

import pytest

from repro.perf import (
    BENCH_SCHEMA,
    BenchReport,
    BenchResult,
    BenchSpec,
    SUITES,
    compare_reports,
    load_bench,
    render_comparison,
    render_results_table,
    run_spec,
    run_suite,
    suite_specs,
)


def _result(name, wall_min):
    return BenchResult(
        name=name,
        title=name,
        warmup=0,
        repeat=1,
        wall_s={"min": wall_min, "mean": wall_min, "max": wall_min},
        cpu_s={"min": wall_min, "mean": wall_min, "max": wall_min},
    )


def _rated(name, wall_min, rates):
    result = _result(name, wall_min)
    result.rates.update(rates)
    return result


class TestRunSpec:
    def test_warmup_and_repeat_counts(self):
        calls = []
        spec = BenchSpec("x", "count invocations", lambda: calls.append(1), warmup=2, repeat=3)
        result = run_spec(spec)
        assert len(calls) == 5
        assert result.warmup == 2 and result.repeat == 3
        assert result.wall_s["min"] <= result.wall_s["mean"] <= result.wall_s["max"]
        assert result.peak_rss_kb > 0

    def test_failing_workload_raises(self):
        calls = []

        def workload():
            calls.append(1)
            raise ValueError("workload boom")

        spec = BenchSpec("broken", "always raises", workload, warmup=0, repeat=3)
        with pytest.raises(ValueError, match="workload boom"):
            run_spec(spec)
        assert calls == [1]  # no further repeats after the failure

    def test_workload_counters_and_rates(self):
        spec = BenchSpec("y", "counter", lambda: {"patterns": 100}, warmup=0, repeat=1)
        result = run_spec(spec)
        assert result.counters["patterns"] == 100
        assert result.rates["patterns_per_s"] > 0
        # Harness-captured domain counters are always present.
        assert "events" in result.counters
        assert "elaborations" in result.counters

    def test_repeat_override(self):
        calls = []
        spec = BenchSpec("z", "override", lambda: calls.append(1), warmup=1, repeat=5)
        run_spec(spec, repeat=1, warmup=0)
        assert len(calls) == 1


class TestEmission:
    def test_write_load_round_trip(self, tmp_path):
        report = BenchReport(suite="smoke", results=[_result("a", 1.0)])
        path = report.write(tmp_path)
        assert path.name == "BENCH_smoke.json"
        data = json.loads(path.read_text())
        assert data["schema"] == BENCH_SCHEMA
        loaded = load_bench(path)
        assert loaded.suite == "smoke"
        assert loaded.results[0].name == "a"
        assert loaded.results[0].wall_s["min"] == 1.0

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": "repro-bench/999", "results": []}))
        with pytest.raises(ValueError, match="schema"):
            load_bench(path)

    def test_render_results_table_mentions_every_bench(self):
        report = BenchReport(suite="s", results=[_result("a", 1.0), _result("b", 2.0)])
        table = render_results_table(report)
        assert "a" in table and "b" in table


class TestComparison:
    def test_regression_detection(self):
        baseline = BenchReport(suite="s", results=[_result("a", 1.0)])
        current = BenchReport(suite="s", results=[_result("a", 1.5)])
        comparison = compare_reports(current, baseline, fail_on_regress=25.0)
        assert not comparison.ok
        assert comparison.regressions[0].name == "a"
        assert comparison.deltas[0].delta_pct == pytest.approx(50.0)
        assert "REGRESS" in render_comparison(comparison)

    def test_within_threshold_is_ok(self):
        baseline = BenchReport(suite="s", results=[_result("a", 1.0)])
        current = BenchReport(suite="s", results=[_result("a", 1.2)])
        assert compare_reports(current, baseline, fail_on_regress=25.0).ok

    def test_faster_and_new_are_never_failures(self):
        baseline = BenchReport(suite="s", results=[_result("a", 1.0)])
        current = BenchReport(
            suite="s", results=[_result("a", 0.5), _result("b", 9.0)]
        )
        comparison = compare_reports(current, baseline, fail_on_regress=10.0)
        assert comparison.ok
        statuses = {d.name: d.status(10.0) for d in comparison.deltas}
        assert statuses == {"a": "faster", "b": "new"}

    def test_missing_benchmarks_are_reported(self):
        baseline = BenchReport(
            suite="s", results=[_result("a", 1.0), _result("gone", 1.0)]
        )
        current = BenchReport(suite="s", results=[_result("a", 1.0)])
        comparison = compare_reports(current, baseline)
        assert comparison.missing == ["gone"]
        assert "MISSING" in render_comparison(comparison)

    def test_new_rate_counter_is_reported_not_fatal(self):
        """A counter added after the baseline was committed shows as `new`
        instead of crashing or silently vanishing from the comparison."""
        baseline = BenchReport(suite="s", results=[_rated("a", 1.0, {"events_per_s": 100.0})])
        current = BenchReport(
            suite="s",
            results=[_rated("a", 1.0, {"events_per_s": 150.0, "patterns_per_s": 9.0})],
        )
        comparison = compare_reports(current, baseline, fail_on_regress=25.0)
        assert comparison.ok  # rates never gate
        deltas = {d.rate: d for d in comparison.rate_deltas}
        assert deltas["patterns_per_s"].status == "new"
        assert deltas["patterns_per_s"].baseline is None
        assert deltas["events_per_s"].status == "faster"
        assert deltas["events_per_s"].delta_pct == pytest.approx(50.0)
        rendered = render_comparison(comparison)
        assert "patterns_per_s" in rendered and "new" in rendered

    def test_retired_rate_counter_is_reported_gone(self):
        baseline = BenchReport(suite="s", results=[_rated("a", 1.0, {"old_per_s": 5.0})])
        current = BenchReport(suite="s", results=[_rated("a", 1.0, {})])
        comparison = compare_reports(current, baseline, fail_on_regress=25.0)
        assert comparison.ok
        deltas = {d.rate: d for d in comparison.rate_deltas}
        assert deltas["old_per_s"].status == "gone"
        assert deltas["old_per_s"].current is None

    def test_rateless_reports_render_without_rate_table(self):
        baseline = BenchReport(suite="s", results=[_result("a", 1.0)])
        current = BenchReport(suite="s", results=[_result("a", 1.0)])
        comparison = compare_reports(current, baseline)
        assert comparison.rate_deltas == []
        assert "Throughput rates" not in render_comparison(comparison)


class TestSuites:
    def test_known_suites_resolve(self):
        for name in SUITES:
            specs = suite_specs(name)
            assert specs and all(spec.name for spec in specs)

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError, match="unknown bench suite"):
            suite_specs("nope")

    def test_run_suite_aggregates(self):
        specs = [
            BenchSpec("one", "t", lambda: None, warmup=0, repeat=1),
            BenchSpec("two", "t", lambda: None, warmup=0, repeat=1),
        ]
        report = run_suite("tiny", specs)
        assert [r.name for r in report.results] == ["one", "two"]
        assert report.elapsed_s > 0


class TestBenchCli:
    def test_parse_and_run_smoke_suite(self, tmp_path, capsys):
        """`repro bench --suite smoke` end to end (single fast repeat)."""
        from repro.eval.cli import main

        code = main([
            "bench", "--suite", "smoke", "--repeat", "1", "--warmup", "0",
            "--out", str(tmp_path), "-q",
        ])
        assert code == 0
        emitted = tmp_path / "BENCH_smoke.json"
        assert emitted.exists()
        data = json.loads(emitted.read_text())
        assert data["schema"] == BENCH_SCHEMA
        assert {r["name"] for r in data["results"]} == set(SUITES["smoke"])
        out = capsys.readouterr().out
        assert "BENCH_smoke.json" in out

    def test_compare_gate_fails_on_regression(self, tmp_path, capsys):
        from repro.eval.cli import main

        # Fabricate an absurdly fast baseline: the real run must regress.
        baseline = BenchReport(
            suite="smoke",
            results=[_result(name, 1e-9) for name in SUITES["smoke"]],
        )
        baseline_path = baseline.write(tmp_path / "base")
        code = main([
            "bench", "--suite", "smoke", "--repeat", "1", "--warmup", "0",
            "--out", str(tmp_path), "-q",
            "--compare", str(baseline_path), "--fail-on-regress", "25",
        ])
        assert code == 1
        assert "FAILED regression gate" in capsys.readouterr().out

    def test_compare_gate_fails_on_missing_baseline_entries(self, tmp_path, capsys):
        """A baselined benchmark the run never exercised must not pass green."""
        from repro.eval.cli import main

        baseline = BenchReport(
            suite="smoke",
            results=[_result(name, 1e9) for name in SUITES["smoke"]]
            + [_result("retired-benchmark", 1.0)],
        )
        baseline_path = baseline.write(tmp_path / "base")
        code = main([
            "bench", "--suite", "smoke", "--repeat", "1", "--warmup", "0",
            "--out", str(tmp_path), "-q",
            "--compare", str(baseline_path), "--fail-on-regress", "25",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "retired-benchmark" in out
        assert "baseline entries missing" in out

    def test_fail_on_regress_requires_compare(self):
        from repro.eval.cli import main

        with pytest.raises(SystemExit):
            main(["bench", "--suite", "smoke", "--fail-on-regress", "25"])
