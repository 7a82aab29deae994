"""Benchmark: Table II -- synthetic Google-trace statistics vs the paper."""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentConfig
from repro.study.presets import STUDY_PRESETS, table2_statistics
from repro.workload.google_trace import TABLE_II_TARGETS

from .conftest import save_report


def test_table2_trace_statistics():
    # Full-scale trace generation (no simulation), so the per-task statistics
    # are compared against the paper's at the published trace size.
    config = ExperimentConfig(scale=1.0, seeds=(0,))
    preset = STUDY_PRESETS["table2"]
    report = preset.report(config)
    save_report("table2", report)

    stats = table2_statistics(preset.build(config))
    assert stats.total_jobs == TABLE_II_TARGETS["total_jobs"]
    assert stats.average_tasks_per_job == pytest.approx(
        TABLE_II_TARGETS["average_tasks_per_job"], rel=0.25
    )
    assert stats.average_task_duration == pytest.approx(
        TABLE_II_TARGETS["average_task_duration"], rel=0.25
    )
    assert stats.min_task_duration >= 0.8 * TABLE_II_TARGETS["min_task_duration"]
