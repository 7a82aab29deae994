"""Ablation benchmarks for the paper's design choices.

1. Cloning on/off inside SRPTMS+C (machine sharing only vs sharing + cloning)
   on a cluster where a quarter of the machines are permanently slow.
2. The r-term of the effective workload (r = 0 vs r = 3) -- complements the
   Figure 2 sweep at the comparison scale.
3. Extra reference policies (LATE, Fair, FIFO, plain SRPT) on the same trace,
   extending the Figure 6 comparison.
"""

from __future__ import annotations

from repro.analysis.comparison import ComparisonTable
from repro.experiments import ExperimentConfig
from repro.scenarios import BimodalSpeeds, ScenarioSpec
from repro.simulation import ExperimentRunner, RunSpec, SchedulerSpec
from repro.study.presets import STUDY_PRESETS

from .conftest import save_report

ABLATION_CONFIG = ExperimentConfig(scale=0.015, seeds=(0,))

#: Each machine is 4x slow with probability 1/4 (partially failing nodes).
SLOW_QUARTER = ScenarioSpec(speeds=BimodalSpeeds(slow_fraction=0.25, slow_speed=0.25))


def test_ablation_cloning_under_stragglers():
    """SRPTMS+C with cloning should beat SRPTMS (no cloning) when a quarter
    of the machines are 4x slow -- the regime cloning is designed for."""

    trace = ABLATION_CONFIG.make_trace()
    runs = {}
    for name, cloning in (("SRPTMS+C", True), ("SRPTMS (no cloning)", False)):
        scheduler = SchedulerSpec(
            "SRPTMS+C", {"epsilon": 0.6, "r": 3.0, "cloning_enabled": cloning}
        )
        runs[name] = ExperimentRunner().run(
            [
                RunSpec(
                    trace=trace,
                    scheduler=scheduler,
                    num_machines=ABLATION_CONFIG.machines,
                    seed=seed,
                    scenario=SLOW_QUARTER,
                )
                for seed in ABLATION_CONFIG.seeds
            ]
        )
    table = ComparisonTable.from_results(runs)
    save_report("ablation_cloning", table.render(baseline="SRPTMS (no cloning)"))
    with_clones = table.row("SRPTMS+C").mean_flowtime
    without = table.row("SRPTMS (no cloning)").mean_flowtime
    assert with_clones < without


def test_ablation_extra_baselines():
    """Extended Figure 6: all seven policies on the same scaled trace."""
    preset = STUDY_PRESETS["figure6"]
    study = preset.build(ABLATION_CONFIG, include_extra=True)
    results = preset.run(study, ABLATION_CONFIG)
    table = ComparisonTable.from_results(
        {name: cell.results for (name,), cell in results.group_by("scheduler").items()}
    )
    save_report("ablation_extra_baselines", table.render(baseline="Mantri"))
    # SRPT-family policies should not lose to FIFO on the unweighted average.
    assert table.row("SRPTMS+C").mean_flowtime <= table.row("FIFO").mean_flowtime
