"""Tests for the synthetic Google-trace generator (Table II calibration)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workload.google_trace import (
    GoogleTraceConfig,
    GoogleTraceGenerator,
    TABLE_II_TARGETS,
    _calibrate_bounded_pareto_alpha,
)


class TestConfig:
    def test_defaults_match_table2(self):
        cfg = GoogleTraceConfig()
        assert cfg.num_jobs == TABLE_II_TARGETS["total_jobs"]
        assert cfg.trace_duration == TABLE_II_TARGETS["trace_duration"]
        assert cfg.effective_num_jobs == TABLE_II_TARGETS["total_jobs"]
        assert cfg.effective_num_machines == TABLE_II_TARGETS["num_machines"]

    def test_scaling_splits_between_jobs_and_sizes(self):
        cfg = GoogleTraceConfig(scale=0.25)
        # Default split: both factors are sqrt(scale) = 0.5.
        assert cfg.effective_job_scale == pytest.approx(0.5)
        assert cfg.effective_size_scale == pytest.approx(0.5)
        assert cfg.effective_num_jobs == round(0.5 * TABLE_II_TARGETS["total_jobs"])
        assert cfg.effective_mean_tasks_per_job == pytest.approx(
            0.5 * TABLE_II_TARGETS["average_tasks_per_job"]
        )
        # The cluster shrinks by the full scale so the offered load is kept.
        assert cfg.effective_num_machines == round(
            0.25 * TABLE_II_TARGETS["num_machines"]
        )

    def test_explicit_scale_overrides(self):
        cfg = GoogleTraceConfig(scale=0.25, job_scale=0.1, size_scale=1.0)
        assert cfg.effective_num_jobs == round(0.1 * TABLE_II_TARGETS["total_jobs"])
        assert cfg.effective_mean_tasks_per_job == pytest.approx(
            TABLE_II_TARGETS["average_tasks_per_job"]
        )
        with pytest.raises(ValueError):
            GoogleTraceConfig(job_scale=0.0)
        with pytest.raises(ValueError):
            GoogleTraceConfig(size_scale=-1.0)

    def test_scaled_constructor(self):
        cfg = GoogleTraceConfig.scaled(0.05, within_job_cv=0.2)
        assert cfg.scale == 0.05
        assert cfg.within_job_cv == 0.2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"scale": 0.0},
            {"num_jobs": 0},
            {"reduce_fraction": 1.0},
            {"within_job_cv": -0.1},
            {"within_job_cv": float("inf")},
            {"within_job_cv": float("nan")},
            {"min_task_duration": 0.0},
            {"max_task_duration": 10.0},
            {"mean_task_duration": 5.0},
            {"num_priorities": 0},
            {"size_duration_correlation": 1.5},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            GoogleTraceConfig(**overrides)


class TestCalibration:
    def test_alpha_calibration_hits_target_mean(self):
        alpha = _calibrate_bounded_pareto_alpha(1.0, 600.0, 26.31)
        from repro.workload.distributions import BoundedPareto

        assert BoundedPareto(1.0, 600.0, alpha).mean == pytest.approx(26.31, rel=1e-3)

    def test_alpha_calibration_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            _calibrate_bounded_pareto_alpha(10.0, 20.0, 30.0)


class TestGeneratedTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return GoogleTraceGenerator(GoogleTraceConfig(scale=0.05)).generate(seed=0)

    def test_job_count_matches_scale(self, trace):
        expected = GoogleTraceConfig(scale=0.05).effective_num_jobs
        assert trace.num_jobs == expected

    def test_arrivals_within_window(self, trace):
        cfg = GoogleTraceConfig(scale=0.05)
        assert trace.first_arrival >= 0.0
        assert trace.last_arrival <= cfg.trace_duration

    def test_weights_are_priorities_plus_one(self, trace):
        weights = {spec.weight for spec in trace}
        assert all(w == int(w) and 1.0 <= w <= 12.0 for w in weights)

    def test_tasks_per_job_mean_near_target(self, trace):
        cfg = GoogleTraceConfig(scale=0.05)
        mean_tasks = trace.total_tasks / trace.num_jobs
        assert mean_tasks == pytest.approx(cfg.effective_mean_tasks_per_job, rel=0.6)

    def test_full_scale_config_targets_table2_tasks_per_job(self):
        cfg = GoogleTraceConfig(scale=1.0)
        assert cfg.effective_mean_tasks_per_job == pytest.approx(
            TABLE_II_TARGETS["average_tasks_per_job"]
        )
        assert cfg.effective_job_scale == 1.0
        assert cfg.effective_size_scale == 1.0

    def test_task_duration_mean_near_target(self, trace):
        stats = trace.statistics()
        # The task-weighted mean duration is calibrated to the published value.
        assert stats.average_task_duration == pytest.approx(
            TABLE_II_TARGETS["average_task_duration"], rel=0.25
        )

    def test_min_task_duration_respects_floor(self, trace):
        cfg = GoogleTraceConfig(scale=0.05)
        for spec in trace:
            assert spec.map_duration.mean >= cfg.min_task_duration - 1e-9

    def test_expected_load_matches_paper_regime(self, trace):
        cfg = GoogleTraceConfig(scale=0.05)
        load = trace.expected_load(cfg.effective_num_machines)
        # Paper regime: ~0.45; allow generous slack for heavy-tail sampling noise.
        assert 0.2 < load < 0.8

    def test_reduce_tasks_fractional_split(self, trace):
        for spec in trace:
            assert spec.num_map_tasks >= 1
            if spec.total_tasks > 1:
                assert spec.num_reduce_tasks <= spec.total_tasks // 2 + 1

    def test_reproducible_with_same_seed(self):
        generator = GoogleTraceGenerator(GoogleTraceConfig(scale=0.01))
        a = generator.generate(seed=42)
        b = generator.generate(seed=42)
        assert [s.total_tasks for s in a] == [s.total_tasks for s in b]
        assert [s.arrival_time for s in a] == [s.arrival_time for s in b]

    def test_different_seeds_differ(self):
        generator = GoogleTraceGenerator(GoogleTraceConfig(scale=0.01))
        a = generator.generate(seed=1)
        b = generator.generate(seed=2)
        assert [s.total_tasks for s in a] != [s.total_tasks for s in b]

    def test_generate_many(self):
        generator = GoogleTraceGenerator(GoogleTraceConfig(scale=0.005))
        traces = generator.generate_many([0, 1, 2])
        assert len(traces) == 3

    def test_size_duration_correlation_is_positive(self):
        trace = GoogleTraceGenerator(GoogleTraceConfig(scale=0.2)).generate(seed=3)
        sizes = np.array([spec.total_tasks for spec in trace], dtype=float)
        durations = np.array([spec.map_duration.mean for spec in trace])
        correlation = np.corrcoef(np.log(sizes + 1), np.log(durations))[0, 1]
        assert correlation > 0.2

    def test_zero_correlation_config(self):
        cfg = GoogleTraceConfig(scale=0.1, size_duration_correlation=0.0)
        trace = GoogleTraceGenerator(cfg).generate(seed=3)
        assert trace.num_jobs == cfg.effective_num_jobs
