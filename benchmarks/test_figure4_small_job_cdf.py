"""Benchmark: Figure 4 -- small-job flowtime CDF for SRPTMS+C / SCA / Mantri."""

from __future__ import annotations

import pytest

from repro.study.presets import STUDY_PRESETS

from .conftest import save_report


@pytest.mark.benchmark(group="figure4")
def test_figure4_small_job_cdf(benchmark, comparison_results):
    study, results = comparison_results
    report = benchmark.pedantic(
        STUDY_PRESETS["figure4"].render,
        args=(results, study),
        rounds=1,
        iterations=1,
    )
    save_report("figure4", report)

    # Shape check (paper: SRPTMS+C completes the largest fraction of jobs
    # within 100 s, ahead of Mantri).
    srptms, mantri = (
        results.filter(scheduler=name).mean(
            lambda result: result.fraction_completed_within(100.0)
        )
        for name in ("SRPTMS+C", "Mantri")
    )
    assert srptms >= mantri - 0.02
    assert srptms > 0.2
