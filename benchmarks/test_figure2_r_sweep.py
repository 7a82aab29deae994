"""Benchmark: Figure 2 -- flowtime vs r for SRPTMS+C (epsilon = 0.6)."""

from __future__ import annotations

from repro.study.presets import STUDY_PRESETS

from .conftest import SWEEP_CONFIG, save_report

R_VALUES = (1, 2, 3, 5, 8, 10)


def test_figure2_r_sweep():
    preset = STUDY_PRESETS["figure2"]
    study = preset.build(SWEEP_CONFIG, r_values=R_VALUES)
    results = preset.run(study, SWEEP_CONFIG)
    save_report("figure2", preset.render(results, study))

    # Shape check (paper: the curves are nearly flat in r because within-job
    # variation is small): the spread of the unweighted curve stays modest.
    means = [results.filter(r=r).mean("mean_flowtime") for r in R_VALUES]
    assert (max(means) - min(means)) / min(means) < 0.35
