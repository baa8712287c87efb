"""The repro.bench harness: determinism, schema round-trip, suite smoke run,
and the hot-path memoization contract it measures."""

from __future__ import annotations

import json

import pytest

from repro import hotpath
from repro.api import Session
from repro.bench import (
    BenchDeterminismError,
    BenchReport,
    BenchResult,
    BenchScenario,
    BenchSuite,
    CATALOGUE,
    SCHEMA,
    ScenarioOutcome,
    compare_reports,
    default_suite,
    next_output_path,
    run_scenario,
    suite_backends,
)
from repro.bench.harness import ScenarioRegression, find_regressions
from repro.bench.cli import main as bench_main
from repro.runtime.cache import ResultCache
from repro.runtime.workloads import workload


# ---------------------------------------------------------------------- suite
class TestSuiteShape:
    def test_scenario_ids_are_stable_and_unique(self):
        suite = default_suite()
        ids = suite.scenario_ids()
        assert len(ids) == len(set(ids))
        # Scenario ids are part of the BENCH_<n>.json contract: changing one
        # breaks perf-trajectory comparisons across commits, so they are
        # pinned here.  Extend the list when adding scenarios.
        assert ids == (
            "profile_cold@ecnn",
            "profile_memoized@ecnn",
            "profile_warm_cache@ecnn",
            "sweep_backends@diffy+ecnn+eyeriss+frame_based+ideal+scale_sim",
            "serving_demo_i1_b8@ecnn",
            "serving_demo_i2_b8@ecnn",
            "serving_demo_i4_b16@ecnn",
            "serving_steady_i2_b8@ecnn",
            "serving_burst_i2_b8@eyeriss",
            "cluster_scale@ecnn",
            "cluster_frames@ecnn",
            "soak_chaos@ecnn",
            "gateway_slo@ecnn",
            "execute_frame_denoise_96px@ecnn",
            "execute_frame_denoise_96px@frame_based",
            "execute_frame_parallel@ecnn",
            "video_stream@ecnn",
            "hotpath_memoization@ecnn",
        )

    def test_issue_coverage_floor(self):
        # The harness must cover >= 5 scenarios across >= 3 backends.
        suite = default_suite()
        assert len(suite.scenarios) >= 5
        assert len(suite_backends(suite)) >= 3

    def test_select_filters_by_substring(self):
        suite = default_suite().select(["serving_demo"])
        assert all("serving_demo" in sid for sid in suite.scenario_ids())
        with pytest.raises(KeyError):
            default_suite().select(["no-such-scenario"])

    def test_duplicate_ids_rejected(self):
        scenario = default_suite().scenarios[0]
        with pytest.raises(ValueError):
            BenchSuite("dup", [scenario, scenario])


# ---------------------------------------------------------------- smoke + run
class TestSuiteRun:
    def test_smoke_run_every_scenario_tiny_budget(self):
        report = default_suite().run(repeats=1)
        assert report.schema == SCHEMA
        assert len(report.results) == len(default_suite().scenarios)
        for result in report.results:
            assert result.repeats == 1
            assert len(result.wall_s) == 1
            assert result.wall_s[0] > 0
            assert result.units_per_run > 0
            assert result.throughput > 0
        by_id = {result.scenario: result for result in report.results}
        # The A/B scenario must record a real, positive measured speedup.
        extra = dict(by_id["hotpath_memoization@ecnn"].extra)
        assert extra["speedup"] == extra["baseline_s"] / extra["optimized_s"]
        assert extra["speedup"] > 1.0
        # Pixel outputs are bit-comparable across backends, so the two
        # execute_frame scenarios must agree on the output checksum.
        ecnn = dict(by_id["execute_frame_denoise_96px@ecnn"].figures)
        frame = dict(by_id["execute_frame_denoise_96px@frame_based"].figures)
        assert ecnn == frame
        # The pixel A/B records the fresh block-flow time and the cached
        # serving steady state (its run already verified bit-identity).
        pixel = dict(by_id["execute_frame_parallel@ecnn"].extra)
        assert pixel["speedup"] == pixel["baseline_s"] / pixel["optimized_s"]
        # The A/B scenario and the plain execute_frame scenario serve the
        # same seeded frame, so their figures must agree too.
        assert dict(by_id["execute_frame_parallel@ecnn"].figures) == ecnn
        # The cluster scaling scenario records a monotonically-increasing
        # simulated throughput curve (it raises inside the run otherwise)
        # and verified pixel identity against the single-process engine.
        scale = dict(by_id["cluster_scale@ecnn"].figures)
        curve = [scale[f"throughput_fps:w{workers}"] for workers in (1, 2, 4)]
        assert curve[0] < curve[1] < curve[2]
        assert dict(by_id["cluster_scale@ecnn"].extra)["scaling"] == curve[2] / curve[0]
        scatter = dict(by_id["cluster_frames@ecnn"].extra)
        assert scatter["speedup"] == scatter["baseline_s"] / scatter["optimized_s"]

    def test_figures_are_deterministic_across_runs(self):
        suite = default_suite().select(["profile_cold"])
        first = suite.run(repeats=2).results[0]
        second = suite.run(repeats=1).results[0]
        assert first.figures == second.figures
        # And they match the session layer's own answers.
        session = Session(backend="ecnn", cache=ResultCache())
        expected = tuple(
            (f"fps:{name}", 1.0 / session.profile(name).frame_latency_s)
            for name in CATALOGUE
        )
        assert first.figures == expected

    def test_nondeterministic_scenario_is_rejected(self):
        ticks = iter(range(100))

        def run(recorder):
            return ScenarioOutcome(units=1.0, figures=(("tick", float(next(ticks))),))

        scenario = BenchScenario(
            name="broken", description="", backends=("ecnn",), unit="runs", run=run
        )
        with pytest.raises(BenchDeterminismError):
            run_scenario(scenario, repeats=2)

    def test_phase_breakdown_is_recorded(self):
        suite = default_suite().select(["profile_memoized"])
        result = suite.run(repeats=1).results[0]
        phases = dict(result.phases)
        assert set(phases) == {"compile", "profile"}
        assert all(seconds >= 0 for seconds in phases.values())


# ----------------------------------------------------------------- round trip
class TestJsonSchema:
    def test_report_round_trips_through_json(self):
        report = default_suite().select(["profile_warm_cache"]).run(repeats=1)
        text = json.dumps(report.to_json_dict())
        restored = BenchReport.from_json_dict(json.loads(text))
        assert restored == report

    def test_save_and_load(self, tmp_path):
        report = default_suite().select(["serving_demo_i1"]).run(repeats=1)
        path = tmp_path / "BENCH_x.json"
        report.save(path)
        assert BenchReport.load(path) == report

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            BenchReport.from_json_dict({"schema": "repro-bench/999", "results": []})

    def test_next_output_path_picks_first_free_index(self, tmp_path):
        assert next_output_path(tmp_path).name == "BENCH_0.json"
        (tmp_path / "BENCH_0.json").write_text("{}")
        (tmp_path / "BENCH_1.json").write_text("{}")
        assert next_output_path(tmp_path).name == "BENCH_2.json"

    def test_compare_reports_renders_speedup_column(self):
        result = BenchResult(
            scenario="s@ecnn",
            description="",
            backends=("ecnn",),
            unit="runs",
            repeats=1,
            wall_s=(0.2,),
            units_per_run=1.0,
        )
        before = BenchReport(suite="default", results=(result,), repeats=1)
        faster = BenchResult(
            scenario="s@ecnn",
            description="",
            backends=("ecnn",),
            unit="runs",
            repeats=1,
            wall_s=(0.1,),
            units_per_run=1.0,
        )
        after = BenchReport(suite="default", results=(faster,), repeats=1)
        assert "2.00x" in compare_reports(before, after)


# ------------------------------------------------------- regression edge cases
def _result(scenario: str, best_s: float) -> BenchResult:
    return BenchResult(
        scenario=scenario,
        description="",
        backends=("ecnn",),
        unit="runs",
        repeats=1,
        wall_s=(best_s,),
        units_per_run=1.0,
    )


def _report(*results: BenchResult) -> BenchReport:
    return BenchReport(suite="default", results=tuple(results), repeats=1)


class TestRegressionEdgeCases:
    def test_empty_reports_have_no_regressions(self):
        empty = _report()
        assert find_regressions(empty, empty, 0.0) == []
        # The comparison renders its header but no scenario rows.
        rendered = compare_reports(empty, empty)
        assert "Bench comparison" in rendered
        assert "@" not in rendered

    def test_disjoint_scenario_ids_never_regress(self):
        before = _report(_result("old_only@ecnn", 0.1))
        after = _report(_result("new_only@ecnn", 99.0))
        assert find_regressions(before, after, 0.0) == []
        assert "new_only" not in compare_reports(before, after)

    def test_half_empty_reports(self):
        populated = _report(_result("s@ecnn", 0.1))
        assert find_regressions(_report(), populated, 0.0) == []
        assert find_regressions(populated, _report(), 0.0) == []

    def test_zero_time_baseline_with_measurable_after_is_infinite(self):
        before = _report(_result("s@ecnn", 0.0))
        after = _report(_result("s@ecnn", 0.001))
        regressions = find_regressions(before, after, 1e9)  # any finite bar
        assert len(regressions) == 1
        assert regressions[0].regression_pct == float("inf")
        assert "+inf%" in regressions[0].describe()

    def test_zero_time_baseline_and_after_is_not_a_regression(self):
        # Both unmeasurably fast: nothing got slower.
        zero = _report(_result("s@ecnn", 0.0))
        assert find_regressions(zero, zero, 0.0) == []
        assert ScenarioRegression("s@ecnn", 0.0, 0.0).regression_pct == 0.0

    def test_threshold_validation_and_boundary(self):
        with pytest.raises(ValueError):
            find_regressions(_report(), _report(), -1.0)
        before = _report(_result("s@ecnn", 0.1))
        after = _report(_result("s@ecnn", 0.15))  # exactly +50%
        assert find_regressions(before, after, 50.0) == []  # > is strict
        assert len(find_regressions(before, after, 49.0)) == 1

    def test_cli_compare_handles_empty_and_disjoint_reports(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        _report().save(empty)
        assert bench_main(["--compare", str(empty), str(empty), "--fail-over", "0"]) == 0
        assert "no scenario regressed" in capsys.readouterr().out
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        _report(_result("a@ecnn", 0.1)).save(old)
        _report(_result("b@ecnn", 9.9)).save(new)
        assert bench_main(["--compare", str(old), str(new), "--fail-over", "0"]) == 0


# ------------------------------------------------------------------- hot path
class TestHotPathMemos:
    def test_memos_are_registered(self):
        names = {memo.name for memo in hotpath.all_memos()}
        assert {"catalogue-networks", "fbisa-compilations", "block-reports"} <= names

    def test_shared_network_is_memoized_and_marked(self):
        hotpath.clear_all()
        entry = workload("denoise")
        first = entry.shared_network()
        second = entry.shared_network()
        assert first is second
        assert first.metadata.get("shared") is True
        stats = hotpath.memo("catalogue-networks").stats
        assert stats.hits >= 1 and stats.misses >= 1

    def test_build_network_stays_fresh_and_unmarked(self):
        entry = workload("denoise")
        built = entry.build_network()
        assert built is not entry.shared_network()
        assert "shared" not in built.metadata

    def test_disabled_baseline_matches_optimized_bit_for_bit(self):
        def figures():
            session = Session(backend="ecnn", cache=ResultCache())
            return tuple(session.profile(name) for name in CATALOGUE)

        hotpath.clear_all()
        optimized = figures()
        with hotpath.disabled():
            baseline = figures()
        assert baseline == optimized

    def test_disabled_restores_state_on_exit(self):
        memo = hotpath.memo("catalogue-networks")
        assert memo.enabled
        with hotpath.disabled("catalogue-networks"):
            assert not memo.enabled
        assert memo.enabled


# ------------------------------------------------------------------------ CLI
class TestCli:
    def test_list(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "hotpath_memoization@ecnn" in out

    def test_run_writes_report(self, tmp_path, capsys):
        output = tmp_path / "BENCH_cli.json"
        assert (
            bench_main(
                ["--repeats", "1", "--scenario", "profile_warm_cache", "--output", str(output)]
            )
            == 0
        )
        report = BenchReport.load(output)
        assert report.results[0].scenario == "profile_warm_cache@ecnn"
        assert "profile_warm_cache@ecnn" in capsys.readouterr().out

    def test_compare_against_previous(self, tmp_path, capsys):
        output = tmp_path / "BENCH_a.json"
        bench_main(["--repeats", "1", "--scenario", "profile_warm_cache", "--output", str(output)])
        capsys.readouterr()
        assert (
            bench_main(
                [
                    "--repeats", "1",
                    "--scenario", "profile_warm_cache",
                    "--output", "-",
                    "--compare", str(output),
                ]
            )
            == 0
        )
        assert "Bench comparison" in capsys.readouterr().out

    def test_bad_filter_errors(self):
        with pytest.raises(SystemExit):
            bench_main(["--scenario", "nope-never"])

    @staticmethod
    def _report_with_time(best_s: float) -> BenchReport:
        result = BenchResult(
            scenario="s@ecnn",
            description="",
            backends=("ecnn",),
            unit="runs",
            repeats=1,
            wall_s=(best_s,),
            units_per_run=1.0,
        )
        return BenchReport(suite="default", results=(result,), repeats=1)

    def test_compare_two_files_without_running(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        self._report_with_time(0.2).save(old)
        self._report_with_time(0.1).save(new)
        assert bench_main(["--compare", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "Bench comparison" in out
        assert "2.00x" in out

    def test_fail_over_flags_regressions(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        self._report_with_time(0.1).save(old)
        self._report_with_time(0.2).save(new)  # 100% slower
        assert bench_main(["--compare", str(old), str(new), "--fail-over", "50"]) == 1
        assert "regressions over the 50% threshold" in capsys.readouterr().out
        # A generous threshold passes.
        assert bench_main(["--compare", str(old), str(new), "--fail-over", "150"]) == 0
        assert "no scenario regressed" in capsys.readouterr().out

    def test_fail_over_needs_compare(self):
        with pytest.raises(SystemExit):
            bench_main(["--fail-over", "10"])
        with pytest.raises(SystemExit):
            bench_main(["--compare", "a.json", "b.json", "c.json"])

    def test_two_file_compare_rejects_run_only_flags(self, tmp_path):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        self._report_with_time(0.2).save(old)
        self._report_with_time(0.1).save(new)
        for extra in (["--scenario", "serving"], ["--repeats", "2"],
                      ["--output", "x.json"], ["--list"]):
            with pytest.raises(SystemExit):
                bench_main(["--compare", str(old), str(new), *extra])
