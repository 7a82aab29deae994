"""The dynamic straggler process of a cluster scenario.

The paper attributes stragglers to "tasks running on partially/intermittently
failing machines or the existence of some localized resource bottleneck(s)"
and folds the resulting per-task variability into the task-duration
distributions of :mod:`repro.workload.distributions`.  Machine-level causes
live in :class:`~repro.scenarios.ScenarioSpec`: permanently slow machines
are a speed distribution such as :class:`~repro.scenarios.BimodalSpeeds`,
and intermittently slow ones are the :class:`DynamicStragglers` process
below -- slowdown onset and recovery events executed by the simulation
engine, which re-estimates the remaining work of whatever copy is running
when a machine's effective speed changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.checks import check_range, check_real

__all__ = ["DynamicStragglers"]


@dataclass(frozen=True)
class DynamicStragglers:
    """A per-machine alternating normal/slow renewal process.

    While healthy, a machine hits a slowdown after an exponential time with
    rate ``onset_rate``; the slow period lasts an exponential time with mean
    ``mean_duration``, during which the machine's effective speed is divided
    by ``factor``.  Onset and recovery are *events*: copies already running
    on the machine slow down (or speed back up) mid-flight.

    The engine drives the process from each machine's dedicated scenario
    stream (see :mod:`repro.scenarios` for the seeding contract).
    """

    onset_rate: float
    mean_duration: float
    factor: float

    def __post_init__(self) -> None:
        check_real("onset_rate", self.onset_rate, positive=True)
        check_real("mean_duration", self.mean_duration, positive=True)
        check_range("slowdown factor", self.factor, 1, closed="neither")

    def draw_onset(self, rng: np.random.Generator) -> float:
        """Healthy time until the next slowdown begins."""
        return float(rng.exponential(1.0 / self.onset_rate))

    def draw_duration(self, rng: np.random.Generator) -> float:
        """Length of one slow period."""
        return float(rng.exponential(self.mean_duration))
