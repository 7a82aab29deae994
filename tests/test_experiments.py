"""Smoke-scale runs of every paper artefact through its study preset."""

from __future__ import annotations

import pytest

from repro.analysis.cdf import BIG_JOB_GRID, SMALL_JOB_GRID
from repro.experiments import ExperimentConfig
from repro.experiments.report import render_key_values, render_sweep_table
from repro.study.presets import (
    STUDY_PRESETS,
    offline_bound_reports,
    table2_statistics,
)


@pytest.fixture(scope="module")
def smoke_config() -> ExperimentConfig:
    return ExperimentConfig.smoke()


def run_preset(name, config, **overrides):
    """Build and run one preset: ``(study, results, report)``."""
    preset = STUDY_PRESETS[name]
    study = preset.build(config, **overrides)
    results = preset.run(study, config)
    return study, results, preset.render(results, study)


def report_rows(report: str, points) -> list:
    """The numeric cells of a CDF report's table, one list per grid point."""
    lines = report.splitlines()[2 : 2 + len(points)]
    return [[float(cell) for cell in line.split()[1:]] for line in lines]


@pytest.fixture(scope="module")
def comparison(smoke_config):
    """One shared scheduler-comparison run reused by the figure 4/5/6 tests."""
    preset = STUDY_PRESETS["figure4"]
    study = preset.build(smoke_config)
    return study, preset.run(study, smoke_config)


class TestConfig:
    def test_presets(self):
        assert ExperimentConfig.smoke().scale < ExperimentConfig.default_bench().scale
        full = ExperimentConfig.paper_full_scale()
        assert full.scale == 1.0
        assert len(full.seeds) == 10
        assert full.machines == 12000

    def test_machines_derived_from_scale(self):
        assert ExperimentConfig(scale=0.5).machines == 6000
        assert ExperimentConfig(scale=0.5, num_machines=123).machines == 123

    def test_with_overrides(self):
        config = ExperimentConfig.smoke().with_overrides(epsilon=0.3)
        assert config.epsilon == 0.3
        assert config.scale == ExperimentConfig.smoke().scale

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scale=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(seeds=())
        with pytest.raises(ValueError):
            ExperimentConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(r=-1.0)

    def test_make_trace_is_reproducible(self, smoke_config):
        a = smoke_config.make_trace()
        b = smoke_config.make_trace()
        assert [s.total_tasks for s in a] == [s.total_tasks for s in b]


class TestReportHelpers:
    def test_render_sweep_table(self):
        text = render_sweep_table("x", [1, 2], {"y": [10.0, 20.0]}, title="T")
        assert "T" in text and "10.0" in text and "20.0" in text

    def test_render_sweep_table_length_mismatch(self):
        with pytest.raises(ValueError):
            render_sweep_table("x", [1, 2], {"y": [1.0]})

    def test_render_key_values(self):
        text = render_key_values({"a": 1, "bb": 2}, title="T")
        assert text.splitlines()[0] == "T"
        assert "bb" in text


class TestTable2:
    def test_statistics_and_render(self, smoke_config):
        study, _, report = run_preset("table2", smoke_config)
        statistics = table2_statistics(study)
        assert statistics.total_jobs == smoke_config.trace_config().effective_num_jobs
        assert "Table II" in report
        assert "Average task duration" in report


class TestSweeps:
    def test_figure1_structure(self, smoke_config):
        _, results, report = run_preset(
            "figure1", smoke_config, epsilons=(0.3, 0.6, 1.0)
        )
        assert results.coordinates("epsilon") == [0.3, 0.6, 1.0]
        best = report.splitlines()[-2].split(":")[1]
        assert float(best) in (0.3, 0.6, 1.0)
        assert "Figure 1" in report

    def test_figure1_rejects_empty_sweep(self, smoke_config):
        with pytest.raises(ValueError):
            STUDY_PRESETS["figure1"].build(smoke_config, epsilons=())

    def test_figure2_structure(self, smoke_config):
        _, results, report = run_preset("figure2", smoke_config, r_values=(0.0, 3.0))
        assert results.coordinates("r") == [0.0, 3.0]
        assert "relative spread of the unweighted curve" in report
        assert "Figure 2" in report

    def test_figure3_structure(self, smoke_config):
        _, results, report = run_preset(
            "figure3", smoke_config, machine_fractions=(0.5, 1.0)
        )
        counts = [
            results.filter(machine_fraction=f).results[0].num_machines
            for f in (0.5, 1.0)
        ]
        assert counts[0] < counts[1]
        knee = int(report.splitlines()[-1].split()[1])
        assert knee in counts
        assert "Figure 3" in report

    def test_figure3_more_machines_never_hurt_much(self, smoke_config):
        _, results, _ = run_preset("figure3", smoke_config, machine_fractions=(0.5, 1.0))
        small, large = (
            results.filter(machine_fraction=f).mean("mean_flowtime") for f in (0.5, 1.0)
        )
        # Doubling the cluster should not increase mean flowtime by >20%.
        assert large <= 1.2 * small

    def test_figure3_validation(self, smoke_config):
        with pytest.raises(ValueError):
            STUDY_PRESETS["figure3"].build(smoke_config, machine_fractions=())
        with pytest.raises(ValueError):
            STUDY_PRESETS["figure3"].build(smoke_config, machine_fractions=(0.0,))


class TestComparisonFigures:
    def test_comparison_contains_three_policies(self, comparison):
        _, results = comparison
        assert results.coordinates("scheduler") == ["SRPTMS+C", "SCA", "Mantri"]

    def test_scheduler_subset_and_unknown(self, smoke_config):
        preset = STUDY_PRESETS["figure6"]
        subset = preset.build(smoke_config, schedulers=("SRPTMS+C",))
        assert [ref.label for ref in subset.schedulers] == ["SRPTMS+C"]
        with pytest.raises(ValueError):
            preset.build(smoke_config, schedulers=("nope",))

    def test_figure4_curves(self, comparison):
        study, results = comparison
        report = STUDY_PRESETS["figure4"].render(results, study)
        rows = report_rows(report, SMALL_JOB_GRID)
        assert len(rows) == len(SMALL_JOB_GRID)
        for row in rows:
            assert len(row) == 3
            assert all(0.0 <= value <= 1.0 for value in row)
        assert "Figure 4" in report

    def test_figure5_curves(self, comparison):
        study, results = comparison
        report = STUDY_PRESETS["figure5"].render(results, study)
        rows = report_rows(report, BIG_JOB_GRID)
        assert report.splitlines()[1 + len(BIG_JOB_GRID)].split()[0] == "4000"
        assert "Figure 5" in report
        at_500, at_4000 = rows[BIG_JOB_GRID.index(500.0)], rows[-1]
        assert all(high >= low for low, high in zip(at_500, at_4000))

    def test_figure6_table(self, comparison):
        study, results = comparison
        report = STUDY_PRESETS["figure6"].render(results, study)
        assert "SRPTMS+C" in report and "Mantri" in report
        # The improvement is a finite percentage (sign depends on noise at
        # smoke scale; the benchmark suite checks the sign at larger scale).
        assert "SRPTMS+C vs Mantri:" in report.splitlines()[-1]


class TestOfflineBound:
    def test_reports(self, smoke_config):
        study, results, report = run_preset("offline-bound", smoke_config)
        reports = offline_bound_reports(results, study)
        assert len(results) == 2  # only the diagonal of workloads x r runs
        assert reports["deterministic"].fraction_satisfying_bound == 1.0
        assert reports["deterministic"].empirical_competitive_ratio <= 2.0
        assert reports["noisy"].num_jobs == reports["deterministic"].num_jobs
        assert "Remark 2" in report
