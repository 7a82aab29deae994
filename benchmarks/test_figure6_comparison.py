"""Benchmark: Figure 6 -- weighted/unweighted average flowtime per scheduler."""

from __future__ import annotations

from repro.analysis.comparison import percentage_improvement
from repro.study.presets import STUDY_PRESETS

from .conftest import save_report


def test_figure6_scheduler_comparison(comparison_results):
    study, results = comparison_results
    report = STUDY_PRESETS["figure6"].render(results, study)
    save_report("figure6", report)

    # Shape check (paper: SRPTMS+C reduces both averages relative to Mantri,
    # by ~25% in the paper's setting; the sign and a non-trivial margin is
    # what the scaled reproduction must show).
    names = ("SRPTMS+C", "SCA", "Mantri")
    mean = {name: results.filter(scheduler=name).mean("mean_flowtime") for name in names}
    weighted = {
        name: results.filter(scheduler=name).mean("weighted_mean_flowtime")
        for name in names
    }
    assert percentage_improvement(mean["SRPTMS+C"], mean["Mantri"]) > 3.0
    assert percentage_improvement(weighted["SRPTMS+C"], weighted["Mantri"]) > 3.0
    # SCA also sits between the two extremes on the unweighted metric.
    assert mean["SRPTMS+C"] < mean["Mantri"]
    assert mean["SCA"] < mean["Mantri"] * 1.05
