"""Regenerate the golden preset reports under ``tests/golden/``.

The golden files freeze the plain-text report of every
:data:`~repro.study.presets.STUDY_PRESETS` entry at a tiny smoke
configuration; ``tests/test_study_presets.py`` asserts the presets
reproduce them byte-for-byte.  Regenerate only when a report's *output
format* deliberately changes:

    PYTHONPATH=src python tools/generate_golden_reports.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.experiments import ExperimentConfig
from repro.study.presets import STUDY_PRESETS, run_reports

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

#: The exact smoke configuration the golden reports (and their tests) use.
GOLDEN_CONFIG = dict(scale=0.005, seeds=(0,))
#: Shorter sweeps than the presets' defaults, keyed by preset name.
GOLDEN_OVERRIDES = {
    "figure1": {"epsilons": (0.2, 0.6, 1.0)},
    "figure2": {"r_values": (1.0, 5.0, 10.0)},
    "figure3": {"machine_fractions": (0.5, 1.0)},
    "scenario-sweep": {"speed_spreads": (0.0, 0.5), "failure_rates": (0.0, 1e-4)},
}


def generate() -> dict:
    """Produce every golden report, keyed by file stem (``offline_bound``...)."""
    reports = run_reports(
        list(STUDY_PRESETS), ExperimentConfig(**GOLDEN_CONFIG), GOLDEN_OVERRIDES
    )
    return {name.replace("-", "_"): text for name, text in reports.items()}


def main() -> int:
    """Write the reports to ``tests/golden/<name>.txt``."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, text in generate().items():
        path = GOLDEN_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
