"""Tune SRPTMS+C's epsilon and r on the synthetic Google trace (Figures 1-2).

Run with::

    python examples/parameter_tuning.py [scale]

Sweeps the machine-sharing fraction epsilon (with r = 0) and the
standard-deviation weight r (with epsilon = 0.6), printing the same tables
the paper's Figures 1 and 2 plot, and also validates the offline Theorem 1
bound on a deterministic bulk arrival.
"""

from __future__ import annotations

import sys

from repro.experiments import ExperimentConfig
from repro.study import STUDY_PRESETS


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01
    config = ExperimentConfig(scale=scale, seeds=(0,))

    print(STUDY_PRESETS["figure1"].report(config, epsilons=(0.2, 0.4, 0.6, 0.8, 1.0)))
    print()
    print(STUDY_PRESETS["figure2"].report(config, r_values=(0.0, 1.0, 3.0, 8.0)))
    print()
    print(STUDY_PRESETS["offline-bound"].report(config))


if __name__ == "__main__":
    main()
