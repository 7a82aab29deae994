"""Benchmark: Figure 1 -- flowtime vs epsilon for SRPTMS+C (r = 0)."""

from __future__ import annotations

from repro.study.presets import STUDY_PRESETS

from .conftest import SWEEP_CONFIG, save_report

EPSILONS = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


def test_figure1_epsilon_sweep():
    preset = STUDY_PRESETS["figure1"]
    study = preset.build(SWEEP_CONFIG, epsilons=EPSILONS)
    results = preset.run(study, SWEEP_CONFIG)
    save_report("figure1", preset.render(results, study))

    # Shape check (paper: interior minimum near 0.6): a mid-range epsilon
    # should beat the pure-SRPT extreme on the unweighted average, and no
    # value should be wildly off the best.
    means = [results.filter(epsilon=eps).mean("mean_flowtime") for eps in EPSILONS]
    best = min(means)
    mid_best = min(
        value for eps, value in zip(EPSILONS, means) if 0.3 <= eps <= 0.9
    )
    assert mid_best <= means[0] * 1.02
    assert max(means) <= 2.0 * best
