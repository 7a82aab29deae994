"""Algorithm 1 -- the offline SRPT-based scheduler for bulk arrivals (Section IV).

All jobs are assumed to arrive at (or near) time zero.  The scheduler:

1. computes the static priority ``w_i / phi_i`` of every job, where
   ``phi_i`` is the variance-adjusted total workload of Equation (2);
2. whenever a machine is free, walks the jobs in decreasing priority order
   and launches one unscheduled task of the highest-priority job that still
   has one -- tasks of ready stages (map) before later stages (reduce);
3. never clones: in the bulk-arrival regime the number of pending tasks
   exceeds the machine count, and the paper argues (citing [3]) that cloning
   cannot reduce flowtime when ``s(x) <= x`` and work is abundant.

Reduce tasks may be *placed* before their job's map phase finishes (they
then occupy the machine without progressing), exactly as the paper's
Algorithm 1 describes.  Theorem 1 bounds each job's flowtime under this
policy by ``E_i^r + r sigma_i^r + f_i^s / M`` with high probability, and
Remark 2 gives the 2-competitive guarantee at zero variance; both are
checked empirically by the test-suite via :mod:`repro.core.bounds`.

Although designed for the offline case, the implementation also works with
online arrivals (priorities are simply computed when the job arrives), which
makes it a useful "static SRPT, no cloning" reference policy.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.checks import check_count, check_real
from repro.core.priority import offline_priority
from repro.policies.gating import launchable_tasks
from repro.simulation.scheduler_api import LaunchRequest, Scheduler, SchedulerView
from repro.workload.job import Job, Task

__all__ = ["OfflineScheduler"]


class OfflineScheduler(Scheduler):
    """The paper's Algorithm 1 (registered as ``Offline``, see :mod:`repro.policies`).

    Parameters
    ----------
    r:
        The standard-deviation weighting factor in ``phi_i`` (Equation 2).
        ``r = 0`` ignores task-duration variance.
    park_reduce_tasks:
        If True (the paper's pseudo-code), a job whose ready stages are all
        *scheduled* but not finished may have tasks of later stages placed
        on machines, where they wait without progressing.  If False, a
        stage's tasks are only launched once every predecessor stage has
        completed, which never wastes machine time.  Candidates come from
        :func:`~repro.policies.gating.launchable_tasks` (ready stages first).
    seed:
        Seed of the scheduler's private RNG used for the paper's random
        choice among a job's unscheduled tasks.
    """

    name = "Offline-SRPT"

    def __init__(
        self,
        r: float = 0.0,
        *,
        park_reduce_tasks: bool = True,
        seed: int = 0,
    ) -> None:
        check_real("r", r)
        check_count("seed", seed)
        self.r = r
        self.park_reduce_tasks = park_reduce_tasks
        self._rng = np.random.default_rng(seed)
        self._priority_order: List[Job] = []

    # -- notifications -------------------------------------------------------------

    def on_job_arrival(self, job: Job, time: float) -> None:
        """Insert the arriving job into the static priority order."""
        self._priority_order.append(job)
        self._priority_order.sort(
            key=lambda j: (-offline_priority(j.spec, self.r), j.job_id)
        )

    def on_job_completion(self, job: Job, time: float) -> None:
        """Drop the finished job from the priority order (Algorithm 1, line 10)."""
        self._priority_order = [j for j in self._priority_order if j is not job]

    # -- decision -------------------------------------------------------------------

    def _pick_task(self, candidates: Sequence[Task]) -> Task:
        """Choose one unscheduled task uniformly at random (Algorithm 1, line 6/8)."""
        index = int(self._rng.integers(0, len(candidates)))
        return candidates[index]

    def schedule(self, view: SchedulerView) -> List[LaunchRequest]:
        """Return the copies to launch at this decision point (see base class)."""
        free = view.num_free_machines
        if free <= 0:
            return []
        requests: List[LaunchRequest] = []
        for job in self._priority_order:
            if free <= 0:
                break
            if job.is_complete:
                continue
            candidates = launchable_tasks(job, self.park_reduce_tasks)
            while free > 0 and candidates:
                task = self._pick_task(candidates)
                candidates.remove(task)
                requests.append(LaunchRequest(task=task, num_copies=1))
                free -= 1
        return requests
