"""Benchmark: scenario sweep -- SCA's advantage under heterogeneity/failures.

Runs the heterogeneity and failure axes of the ``scenario-sweep`` study
preset at a reduced scale and records the rendered report.  The assertion
is directional, not numeric: cloning (SCA) must not fall behind the best
detection/fairness baseline by more than a small margin once machines
misbehave -- the regime the scenario subsystem exists to study.
"""

from __future__ import annotations

from repro.experiments import ExperimentConfig
from repro.study.presets import STUDY_PRESETS

from .conftest import save_report

#: Smaller than the figure benchmarks: 2 points per axis, 4 schedulers each.
SWEEP_SCALE_CONFIG = ExperimentConfig(scale=0.01, seeds=(0,), workers=None)
SPEED_SPREADS = (0.0, 0.5)
FAILURE_RATES = (0.0, 1e-4)


def test_scenario_sweep_smoke():
    preset = STUDY_PRESETS["scenario-sweep"]
    study = preset.build(
        SWEEP_SCALE_CONFIG, speed_spreads=SPEED_SPREADS, failure_rates=FAILURE_RATES
    )
    results = preset.run(study, SWEEP_SCALE_CONFIG)
    save_report("scenario_sweep", preset.render(results, study))

    assert results.coordinates("scenario") == ["base", "hetero:0.5", "failure:0.0001"]
    assert all(value > 0 for value in results.values("mean_flowtime"))
