"""Benchmark: Figure 5 -- big-job flowtime CDF for SRPTMS+C / SCA / Mantri."""

from __future__ import annotations

import pytest

from repro.study.presets import STUDY_PRESETS

from .conftest import save_report


@pytest.mark.benchmark(group="figure5")
def test_figure5_big_job_cdf(benchmark, comparison_results):
    study, results = comparison_results
    report = benchmark.pedantic(
        STUDY_PRESETS["figure5"].render,
        args=(results, study),
        rounds=1,
        iterations=1,
    )
    save_report("figure5", report)

    # Shape check (paper: SRPTMS+C completes at least as large a fraction of
    # jobs within 1000 s as Mantri does).
    srptms, mantri = (
        results.filter(scheduler=name).mean(
            lambda result: result.fraction_completed_within(1000.0)
        )
        for name in ("SRPTMS+C", "Mantri")
    )
    assert srptms >= mantri - 0.02
