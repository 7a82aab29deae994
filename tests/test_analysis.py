"""Tests for the analysis layer: CDFs, comparison tables, statistics, theory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.cdf import (
    BIG_JOB_GRID,
    SMALL_JOB_GRID,
    cdf_comparison,
    cdf_curve,
    render_cdf_table,
)
from repro.analysis.comparison import ComparisonTable, percentage_improvement
from repro.analysis.stats import confidence_interval, describe, relative_difference
from repro.simulation.metrics import JobRecord, SimulationResult


def make_result(name: str, flowtimes) -> SimulationResult:
    result = SimulationResult(scheduler_name=name, num_machines=10,
                              total_tasks=len(flowtimes))
    for index, flowtime in enumerate(flowtimes):
        result.add_record(
            JobRecord(job_id=index, arrival_time=0.0, completion_time=flowtime,
                      weight=1.0 + index % 2, num_map_tasks=1, num_reduce_tasks=0,
                      copies_launched=1)
        )
    return result


class TestCdf:
    def test_grids_match_paper_axes(self):
        assert SMALL_JOB_GRID[0] == 0.0
        assert SMALL_JOB_GRID[-1] == 300.0
        assert SMALL_JOB_GRID[1] - SMALL_JOB_GRID[0] == 25.0
        assert BIG_JOB_GRID[-1] == 4000.0
        assert BIG_JOB_GRID[1] - BIG_JOB_GRID[0] == 500.0

    def test_curve_is_monotone_and_bounded(self):
        result = make_result("a", [10.0, 60.0, 120.0, 500.0])
        curve = cdf_curve([result], SMALL_JOB_GRID)
        assert np.all(np.diff(curve) >= 0)
        assert curve[0] == 0.0
        assert curve[-1] == pytest.approx(0.75)

    def test_curve_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            cdf_curve([make_result("a", [1.0])], [])

    def test_comparison_keys(self):
        results = {"a": [make_result("a", [10.0])], "b": [make_result("b", [20.0])]}
        curves = cdf_comparison(results, [15.0])
        assert curves["a"][0] == 1.0
        assert curves["b"][0] == 0.0

    def test_curve_averages_the_runs_of_a_cell(self):
        runs = [make_result("a", [10.0, 60.0]), make_result("a", [30.0, 500.0])]
        points = [20.0, 100.0, 1000.0]
        curve = cdf_curve(runs, points)
        assert list(curve) == [0.25, 0.75, 1.0]
        assert np.all(np.diff(curve) >= 0)

    def test_render_contains_all_columns(self):
        curves = {"a": [0.1, 0.2], "b": [0.3, 0.4]}
        text = render_cdf_table(curves, [10.0, 20.0], title="T")
        assert "T" in text
        assert "a" in text and "b" in text
        assert "0.400" in text


class TestComparisonTable:
    def test_from_results_and_improvement(self):
        table = ComparisonTable.from_results(
            {
                "SRPTMS+C": [make_result("SRPTMS+C", [75.0, 75.0])],
                "Mantri": [make_result("Mantri", [100.0, 100.0])],
            }
        )
        assert table.improvement_over("SRPTMS+C", "Mantri") == pytest.approx(25.0)
        assert table.improvement_over("SRPTMS+C", "Mantri", weighted=True) == (
            pytest.approx(25.0)
        )

    def test_rows_average_the_runs_of_a_cell(self):
        runs = [make_result("a", [10.0, 30.0]), make_result("a", [50.0, 70.0, 90.0])]
        row = ComparisonTable.from_results({"a": runs}).row("a")
        per_run = [run.mean_flowtime for run in runs]
        assert row.mean_flowtime == np.mean(per_run) == 45.0
        weighted = [run.weighted_mean_flowtime for run in runs]
        assert row.weighted_mean_flowtime == pytest.approx(np.mean(weighted))

    def test_unknown_row_raises(self):
        table = ComparisonTable.from_results({"a": [make_result("a", [1.0])]})
        with pytest.raises(KeyError):
            table.row("missing")

    def test_render_mentions_schedulers(self):
        table = ComparisonTable.from_results(
            {"a": [make_result("a", [1.0])], "b": [make_result("b", [2.0])]}
        )
        text = table.render(baseline="b")
        assert "a" in text and "b" in text
        assert "%" in text

    def test_percentage_improvement_validation(self):
        with pytest.raises(ValueError):
            percentage_improvement(1.0, 0.0)


class TestStats:
    def test_describe(self):
        stats = describe([1.0, 2.0, 3.0, 4.0])
        assert stats["mean"] == 2.5
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
        assert stats["count"] == 4
        with pytest.raises(ValueError):
            describe([])

    def test_confidence_interval_contains_mean(self):
        low, high = confidence_interval([10.0, 12.0, 11.0, 13.0])
        assert low < 11.5 < high

    def test_confidence_interval_single_sample(self):
        assert confidence_interval([5.0]) == (5.0, 5.0)
        with pytest.raises(ValueError):
            confidence_interval([])

    def test_relative_difference(self):
        assert relative_difference(75.0, 100.0) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            relative_difference(1.0, 0.0)
