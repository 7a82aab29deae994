"""Benchmark: Theorem 1 / Remark 2 validation for the offline Algorithm 1."""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentConfig
from repro.study.presets import STUDY_PRESETS, offline_bound_reports

from .conftest import save_report


@pytest.mark.benchmark(group="offline-bound")
def test_offline_bound_validation(benchmark):
    config = ExperimentConfig(scale=0.02, seeds=(0,))
    preset = STUDY_PRESETS["offline-bound"]
    study = preset.build(
        config,
        job_sizes=(2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 30, 40, 60, 80, 120),
        num_machines=40,
    )
    results = benchmark.pedantic(
        preset.run, args=(study, config), rounds=1, iterations=1
    )
    save_report("offline_bound", preset.render(results, study))
    reports = offline_bound_reports(results, study)

    # Remark 2: deterministic durations -> every job satisfies the bound and
    # the schedule is within a factor of 2 of the lower bound.
    assert reports["deterministic"].fraction_satisfying_bound == 1.0
    assert reports["deterministic"].empirical_competitive_ratio <= 2.0
    # Theorem 1: with noisy durations the bound holds at least as often as
    # the analytical probability.
    assert (
        reports["noisy"].fraction_satisfying_bound
        >= reports["noisy"].theoretical_probability - 0.05
    )
