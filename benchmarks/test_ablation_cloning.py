"""Ablation benchmarks for the design choices called out in DESIGN.md.

1. Cloning on/off inside SRPTMS+C (machine sharing only vs sharing + cloning)
   under an injected straggler model.
2. The r-term of the effective workload (r = 0 vs r = 3) -- complements the
   Figure 2 sweep at the comparison scale.
3. Extra reference policies (LATE, Fair, FIFO, plain SRPT) on the same trace,
   extending the Figure 6 comparison.
"""

from __future__ import annotations

import pytest

from repro.analysis.comparison import ComparisonTable
from repro.cluster.stragglers import SlowMachines
from repro.core.srptms_c import SRPTMSCScheduler
from repro.experiments import ExperimentConfig
from repro.simulation import ReplicatedResult, run_replications
from repro.study.presets import STUDY_PRESETS

from .conftest import save_report

ABLATION_CONFIG = ExperimentConfig(scale=0.015, seeds=(0,))


@pytest.mark.benchmark(group="ablation")
def test_ablation_cloning_under_stragglers(benchmark):
    """SRPTMS+C with cloning should beat SRPTMS (no cloning) when a quarter
    of the machines are 4x slow -- the regime cloning is designed for."""

    def run() -> ComparisonTable:
        trace = ABLATION_CONFIG.make_trace()
        results = {}
        for name, cloning in (("SRPTMS+C", True), ("SRPTMS (no cloning)", False)):
            results[name] = run_replications(
                trace,
                lambda c=cloning: SRPTMSCScheduler(epsilon=0.6, r=3.0,
                                                   cloning_enabled=c),
                ABLATION_CONFIG.machines,
                seeds=ABLATION_CONFIG.seeds,
                straggler_model_factory=lambda: SlowMachines(fraction=0.25,
                                                             factor=4.0),
            )
        return ComparisonTable.from_results(results)

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("ablation_cloning", table.render(baseline="SRPTMS (no cloning)"))
    with_clones = table.row("SRPTMS+C").mean_flowtime
    without = table.row("SRPTMS (no cloning)").mean_flowtime
    assert with_clones < without


@pytest.mark.benchmark(group="ablation")
def test_ablation_extra_baselines(benchmark):
    """Extended Figure 6: all seven policies on the same scaled trace."""
    preset = STUDY_PRESETS["figure6"]
    study = preset.build(ABLATION_CONFIG, include_extra=True)
    results = benchmark.pedantic(
        preset.run, args=(study, ABLATION_CONFIG), rounds=1, iterations=1
    )
    table = ComparisonTable.from_results(
        {
            name: ReplicatedResult(name, cell.results)
            for (name,), cell in results.group_by("scheduler").items()
        }
    )
    save_report("ablation_extra_baselines", table.render(baseline="Mantri"))
    # SRPT-family policies should not lose to FIFO on the unweighted average.
    assert table.row("SRPTMS+C").mean_flowtime <= table.row("FIFO").mean_flowtime
