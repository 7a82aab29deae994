"""Shared configuration for the benchmark suite.

Every figure, table and ablation benchmark regenerates one of the paper's
artefacts on the scaled synthetic Google trace and checks its shape.  The
resulting report text is printed (so ``pytest benchmarks -s`` shows the
reproduced numbers) and written to ``benchmarks/results/<name>.txt``,
which is committed: a run that renders a report differently leaves the
tree dirty.  Nothing here is timed; the repo benchmark (``perfbench/``)
is the one timer.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments import ExperimentConfig
from repro.study.presets import STUDY_PRESETS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Configuration shared by the parameter sweeps.  Two replications keep the
#: sweep shapes stable (a single seed is too noisy for the Figure 1 interior
#: minimum at this scale); ``workers=None`` fans the runs out over every
#: usable CPU -- results are bit-identical to serial execution.
SWEEP_CONFIG = ExperimentConfig(scale=0.02, seeds=(0, 1), workers=None)

#: Configuration for the scheduler-comparison figures (two replications).
COMPARISON_CONFIG = ExperimentConfig(scale=0.02, seeds=(0, 1), workers=None)


def save_report(name: str, text: str) -> None:
    """Persist a rendered report and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")


@pytest.fixture(scope="session")
def comparison_results():
    """The Figure 4/5/6 study and its results, run once per benchmark session."""
    preset = STUDY_PRESETS["figure4"]
    study = preset.build(COMPARISON_CONFIG)
    return study, preset.run(study, COMPARISON_CONFIG)
