"""Progress-based straggler estimation shared by the speculation policies.

:class:`SpeculationEstimator` holds the progress thresholds both
speculation policies read and the finished-copy durations Mantri compares
against, and runs Mantri's straggler pass.  Every estimate comes purely
from observable signals (progress scores and the durations of already
finished copies), never from the simulator's hidden workloads.  LATE's
pass lives on :class:`~repro.policies.redundancy.LATESpeculation`: it
reads no samples, only the two progress thresholds.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.checks import check_count, check_range, check_real
from repro.simulation.scheduler_api import SchedulerView
from repro.workload.job import Job, Task, TaskCopy

__all__ = ["SpeculationEstimator", "QUIET_MARGIN"]

#: Relative safety margin of the speculation passes' quiet-tick
#: certificates.  Between two decision times a compared float moves by a
#: few ulps (about 1e-16 relative); the margin is seven orders wider, and
#: relative, so it scales with the simulated clock and the workloads.
QUIET_MARGIN = 1e-9


class SpeculationEstimator:
    """Progress thresholds for Mantri and LATE, and Mantri's straggler pass.

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
    #: Quiet-tick certificate of the last :meth:`straggler_estimates` pass.
    quiet_until: float = -math.inf

    def __init__(
        self,
        min_progress: float = 0.05,
        min_elapsed: float = 1.0,
        min_samples: int = 3,
    ) -> None:
        check_range("min_progress", min_progress, 0, 1, closed="neither")
        check_real("min_elapsed", min_elapsed)
        check_count("min_samples", min_samples, 1)
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

    def straggler_estimates(
        self, view: SchedulerView, max_copies: int
    ) -> List[Tuple[float, float, TaskCopy]]:
        """``(time_left, probability, copy)`` per copy Mantri may duplicate, machine order.

        Mantri's pass, one per decision point.  Two structural checks come
        before any float work: the copy's task holds fewer than
        ``max_copies`` active copies, and its ``(job, stage)`` has at least
        ``min_samples`` recorded durations.  A copy failing either has no
        straggler probability, so it is skipped unread; while no alive job
        has samples the pass reads no copy at all.  The rest is estimated
        as before: the elapsed time must be positive and at least
        ``min_elapsed`` (parked and just started copies have no progress
        rate), ``progress = min(1, elapsed / workload)`` is the score a
        MapReduce framework reports and must reach ``min_progress``, and
        ``time_left = elapsed * (1 - progress) / progress`` is ``t_rem``.
        ``probability`` is Mantri's ``P(t_rem > 2 * t_new)`` with ``t_new``
        drawn from the stage's samples, i.e. the fraction of samples ``d``
        with ``2 d < t_rem``.

        The same loop leaves a quiet-tick certificate in
        :attr:`quiet_until`: until then, repeating the pass in the same
        state adds no copy to the estimates and raises no probability.  It
        is the earliest time a skipped copy reaches ``min_elapsed``
        (``start + min_elapsed``) or ``min_progress`` (``start +
        min_progress * workload``), brought forward by the relative
        :data:`QUIET_MARGIN`, since every float the checks compare moves by
        a few ulps.  An estimated copy keeps its estimate, and its exact
        time left, ``workload - elapsed``, only shrinks.  The computed one
        stays within ``4u * workload`` of it (``u = 2**-53``: the two
        divisions, the multiplication and ``1 - progress`` each round once,
        and ``progress``'s own rounding reaches ``time_left`` scaled by
        ``elapsed <= workload``), so between two decision times it rises
        by at most ``8u * workload``.  A doubled sample in ``[time_left,
        time_left + QUIET_MARGIN * workload)`` could therefore be counted
        later; then there is no certificate (``-inf``).  With no alive job
        holding samples the certificate is ``inf``.
        """
        samples = self._samples
        if not samples:
            self.quiet_until = math.inf
            return []
        now = view.time
        min_elapsed = self.min_elapsed
        min_progress = self.min_progress
        min_samples = self.min_samples
        margin = QUIET_MARGIN
        quiet = math.inf
        estimates: List[Tuple[float, float, TaskCopy]] = []
        for copy in view.running_copies():
            task = copy.task
            stages = samples.get(task.job.spec.job_id)
            if stages is None:
                continue
            entry = stages[task.stage]
            if entry is None or task._num_active >= max_copies:
                continue
            doubled = entry[1]
            count = len(doubled)
            if count < min_samples:
                continue
            start = copy.start_time
            if start is None:
                continue
            elapsed = now - start
            if elapsed < min_elapsed or elapsed == 0.0:
                edge = start + min_elapsed
                if edge < quiet:
                    quiet = edge
                continue
            workload = copy.workload
            progress = elapsed / workload
            if progress > 1.0:
                progress = 1.0
            if progress < min_progress:
                edge = start + min_progress * workload
                if edge < quiet:
                    quiet = edge
                continue
            time_left = elapsed * (1.0 - progress) / progress
            below = bisect_left(doubled, time_left)
            if below < count and doubled[below] < time_left + margin * workload:
                quiet = -math.inf
            estimates.append((time_left, below / count, copy))
        # Simulated times are non-negative, and -inf and inf stay as they are.
        self.quiet_until = quiet * (1.0 - QUIET_MARGIN)
        return estimates
