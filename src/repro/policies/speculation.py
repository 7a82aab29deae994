"""Progress-based straggler estimation shared by the speculation policies.

:class:`SpeculationEstimator` estimates a running copy's remaining time
(``t_rem``) and the duration of a fresh copy (``t_new``) purely from
observable signals (progress scores and the durations of already finished
copies), never from the simulator's hidden workloads.  It sits beside the
redundancy policies that consume it (Mantri and LATE speculation).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

import numpy as np

from repro.simulation.scheduler_api import SchedulerView
from repro.workload.job import Job, Phase, Task, TaskCopy

__all__ = ["SpeculationEstimator"]


class SpeculationEstimator:
    """Progress-based straggler estimation shared by Mantri and LATE.

    Parameters
    ----------
    min_progress:
        Minimum progress fraction a copy must have reported before its
        remaining time is considered estimable (too-early estimates are
        wildly noisy in practice, so both Mantri and LATE wait).
    min_elapsed:
        Minimum processing time a copy must have consumed before being a
        speculation candidate.
    min_samples:
        Minimum number of finished copies of the same job phase needed to
        estimate ``t_new``; this is exactly the "detection needs to wait for
        enough samples" limitation of detection-based schemes that the paper
        points out for small jobs.
    """

    #: Maximum duration samples retained per (job, phase); older samples are
    #: discarded, which both bounds memory and keeps estimates recent.
    max_samples: int = 64

    def __init__(
        self,
        min_progress: float = 0.05,
        min_elapsed: float = 1.0,
        min_samples: int = 3,
    ) -> None:
        if not 0.0 < min_progress < 1.0:
            raise ValueError(f"min_progress must be in (0, 1), got {min_progress}")
        if min_elapsed < 0:
            raise ValueError(f"min_elapsed must be >= 0, got {min_elapsed}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.min_progress = min_progress
        self.min_elapsed = min_elapsed
        self.min_samples = min_samples
        self._samples: Dict[tuple, deque] = {}

    def record_completion(self, task: Task, time: float) -> None:
        """Record the duration of the copy that completed ``task``.

        Schedulers call this from their ``on_task_completion`` hook so that
        ``t_new`` estimation is an O(1) lookup instead of a rescan of the
        job's copies at every decision point.
        """
        winner = next((c for c in task.copies if c.is_finished), None)
        if winner is None or winner.start_time is None:
            return
        key = (task.job.job_id, task.phase)
        bucket = self._samples.setdefault(key, deque(maxlen=self.max_samples))
        bucket.append(winner.finish_time - winner.start_time)

    def recorded_durations(self, job: Job, phase: Phase) -> List[float]:
        """Durations recorded via :meth:`record_completion` for ``job``/``phase``."""
        return list(self._samples.get((job.job_id, phase), ()))

    def remaining_time(self, view: SchedulerView, copy: TaskCopy) -> Optional[float]:
        """``t_rem``: estimated remaining processing time of a running copy.

        Uses the standard progress-rate extrapolation
        ``t_rem = elapsed * (1 - progress) / progress``.  Returns ``None``
        when the copy has not yet produced a usable progress signal.
        """
        if not copy.is_active or copy.is_blocked:
            return None
        elapsed = view.copy_elapsed(copy)
        progress = view.copy_progress(copy)
        if elapsed < self.min_elapsed or progress < self.min_progress:
            return None
        return elapsed * (1.0 - progress) / progress

    def observed_durations(self, job: Job, phase: Phase) -> List[float]:
        """Durations of already-finished copies of ``job``/``phase``.

        Prefers the samples recorded through :meth:`record_completion`.
        """
        return self.recorded_durations(job, phase)

    def new_copy_estimate(self, job: Job, phase: Phase) -> Optional[float]:
        """``t_new``: expected duration of a relaunched copy.

        The median of observed durations of the same job phase; ``None``
        until ``min_samples`` copies have finished.
        """
        durations = self.observed_durations(job, phase)
        if len(durations) < self.min_samples:
            return None
        return float(np.median(durations))

    def straggler_probability(
        self, view: SchedulerView, copy: TaskCopy
    ) -> Optional[float]:
        """Mantri's ``P(t_rem > 2 * t_new)`` estimated from observed samples.

        ``t_new`` is treated as a random draw from the empirical duration
        distribution of finished copies of the same job phase; the
        probability is the fraction of those samples ``d`` with
        ``2 d < t_rem``.  Returns ``None`` when either quantity cannot be
        estimated yet.
        """
        t_rem = self.remaining_time(view, copy)
        if t_rem is None:
            return None
        durations = self._samples.get((copy.task.job.job_id, copy.task.phase))
        if durations is None or len(durations) < self.min_samples:
            return None
        # Pure-Python loop: the sample buffer is tiny (<= max_samples) and
        # this runs for every running copy at every tick, so numpy overhead
        # would dominate.
        hits = sum(1 for duration in durations if 2.0 * duration < t_rem)
        return hits / len(durations)
