"""Compare SRPTMS+C against the paper's baselines on the synthetic Google trace.

Run with::

    python examples/google_trace_comparison.py [scale]

This is a scaled-down version of the paper's Figure 4/5/6 evaluation: the
synthetic Google-like trace is replayed against SRPTMS+C, SCA and Mantri (and
the extra reference policies LATE, SRPT, Fair and FIFO), and the script
prints the Figure 6 comparison plus the small-job CDF of Figure 4.
"""

from __future__ import annotations

import sys

from repro.experiments import ExperimentConfig
from repro.study import STUDY_PRESETS


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01
    config = ExperimentConfig(scale=scale, seeds=(0,))
    print(
        f"simulating {config.trace_config().effective_num_jobs} jobs on "
        f"{config.machines} machines (scale={scale:g}) ...\n"
    )

    # Figures 4 and 6 render the same comparison study: run it once.
    study = STUDY_PRESETS["figure6"].build(config, include_extra=True)
    results = STUDY_PRESETS["figure6"].run(study, config)
    print(STUDY_PRESETS["figure6"].render(results, study))
    print()
    paper_policies = results.filter(scheduler=("SRPTMS+C", "SCA", "Mantri"))
    print(STUDY_PRESETS["figure4"].render(paper_policies, study))


if __name__ == "__main__":
    main()
