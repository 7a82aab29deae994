"""Progress-based straggler estimation shared by the speculation policies.

:class:`SpeculationEstimator` estimates a running copy's progress rate,
remaining time (``t_rem``) and straggler probability purely from
observable signals (progress scores and the durations of already finished
copies), never from the simulator's hidden workloads.  It sits beside the
redundancy policies that consume it (Mantri and LATE speculation).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.simulation.scheduler_api import SchedulerView
from repro.workload.job import Job, Task, TaskCopy

__all__ = ["SpeculationEstimator"]

#: One :meth:`SpeculationEstimator.estimate` entry (see there).
Estimate = Tuple[float, Optional[float], Optional[float], TaskCopy]


class SpeculationEstimator:
    """Progress-based straggler estimation shared by Mantri and LATE.

    Duration samples are kept per ``(job, stage)``, so on a stage DAG a
    copy is only ever compared with finished copies of its own stage.  A
    job's samples are dropped when it completes (:meth:`forget`), so a
    stream run holds samples for alive jobs only.

    Parameters
    ----------
    min_progress:
        Minimum progress fraction a copy must have reported before its
        remaining time is considered estimable (too-early estimates are
        wildly noisy in practice, so both Mantri and LATE wait).
    min_elapsed:
        Minimum processing time a copy must have consumed before being a
        speculation candidate.  A copy with no processing time at all has
        no progress rate and is never estimated, even at ``0``.
    min_samples:
        Minimum number of finished copies of the same job stage needed to
        estimate the straggler probability; this is exactly the "detection
        needs to wait for enough samples" limitation of detection-based
        schemes that the paper points out for small jobs.
    """

    #: Maximum duration samples retained per (job, stage); older samples are
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
        # Job id -> per stage: None, or (durations oldest first, the same
        # doubled and sorted, so one bisection counts ``2 d < t_rem``).
        self._samples: Dict[int, List[Optional[Tuple[Deque[float], List[float]]]]] = {}

    def record_completion(self, task: Task, time: float) -> None:
        """Record the duration of the copy that completed ``task``.

        Schedulers call this from their ``on_task_completion`` hook so that
        the straggler probability is a lookup instead of a rescan of the
        job's copies at every decision point.
        """
        winner = next((c for c in task.copies if c.is_finished), None)
        if winner is None or winner.start_time is None:
            return
        job = task.job
        stages = self._samples.get(job.job_id)
        if stages is None:
            stages = self._samples[job.job_id] = [None] * job.num_stages
        entry = stages[task.stage]
        if entry is None:
            entry = stages[task.stage] = (deque(), [])
        recent, doubled = entry
        if len(recent) == self.max_samples:
            doubled.remove(2.0 * recent.popleft())
        duration = winner.finish_time - winner.start_time
        recent.append(duration)
        insort(doubled, 2.0 * duration)

    def forget(self, job: Job) -> None:
        """Drop every sample of ``job`` (call once it has completed)."""
        self._samples.pop(job.job_id, None)

    def recorded_durations(self, job: Job, stage: int) -> List[float]:
        """The last :attr:`max_samples` durations recorded for ``job``/``stage``."""
        stages = self._samples.get(job.job_id)
        entry = None if stages is None else stages[stage]
        return [] if entry is None else list(entry[0])

    def estimate(self, view: SchedulerView) -> List[Estimate]:
        """``(rate, time_left, probability, copy)`` per running copy, machine order.

        One pass per decision point.  A copy gets an entry once its elapsed
        time is positive and at least ``min_elapsed`` (parked and just
        started copies have no progress rate).  ``progress = min(1,
        elapsed / workload)`` is the score a MapReduce framework reports;
        ``rate = progress / elapsed``; ``time_left = elapsed * (1 -
        progress) / progress`` (``t_rem``), ``None`` below ``min_progress``.
        ``probability`` is Mantri's ``P(t_rem > 2 * t_new)`` with ``t_new``
        drawn from the copy's ``(job, stage)`` samples, i.e. the fraction
        of samples ``d`` with ``2 d < t_rem``; ``None`` without a
        ``time_left`` or before ``min_samples`` samples.
        """
        now = view.time
        min_elapsed = self.min_elapsed
        min_progress = self.min_progress
        min_samples = self.min_samples
        samples = self._samples
        estimates: List[Estimate] = []
        append = estimates.append
        for copy in view.running_copies():
            start = copy.start_time
            if start is None:
                continue
            elapsed = now - start
            if elapsed < min_elapsed or elapsed == 0.0:
                continue
            progress = elapsed / copy.workload
            if progress > 1.0:
                progress = 1.0
            time_left = probability = None
            if progress >= min_progress:
                time_left = elapsed * (1.0 - progress) / progress
                if samples:
                    task = copy.task
                    stages = samples.get(task.job.spec.job_id)
                    if stages is not None:
                        entry = stages[task.stage]
                        if entry is not None:
                            doubled = entry[1]
                            count = len(doubled)
                            if count >= min_samples:
                                probability = bisect_left(doubled, time_left) / count
            append((progress / elapsed, time_left, probability, copy))
        return estimates

