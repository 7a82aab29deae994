"""Effective workloads (Equations (2)-(4) of the paper), generalised to stages.

The paper folds the standard deviation of task durations into a job's
workload through a tunable factor ``r``.  On a stage DAG each stage ``s``
has ``n_s`` tasks with duration mean ``E_s`` and standard deviation
``sigma_s``; the paper's map->reduce job is the 2-stage instance:

* ``phi_i = sum_s n_s (E_s + r sigma_s)`` -- the *total* effective
  workload used by the offline Algorithm 1 (Equation 2, with the map and
  reduce terms as its two summands), implemented once as
  :meth:`JobSpec.effective_workload <repro.workload.job.JobSpec.effective_workload>`;
* ``U_i(l) = sum_s n_s(l) (E_s + r sigma_s)`` -- the *remaining* effective
  workload used online by SRPTMS+C (Equation 4), where ``n_s(l)`` counts
  the still-unscheduled tasks of stage ``s`` (``m_i(l)``/``r_i(l)`` on
  two-stage jobs), implemented once as
  :meth:`Job.remaining_effective_workload <repro.workload.job.Job.remaining_effective_workload>`;
* ``f_i^s = sum_{j: w_j/phi_j >= w_i/phi_i} phi_j`` -- the accumulated
  workload of all jobs with priority at least that of ``J_i`` (Equation 3),
  which appears in the Theorem 1 flowtime bound (below).

Every stage is priced at its own moments, so a chain with stage durations
1, 10 and 100 s has ``phi = 111``.  The SRPT ordering, the epsilon-share
allocation, Algorithm 1 and the Theorem 1 bounds all read these two
methods through :mod:`repro.core.priority`.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.workload.job import JobSpec

__all__ = ["accumulated_higher_priority_workload"]


def accumulated_higher_priority_workload(
    specs: Sequence[JobSpec], r: float
) -> Dict[int, float]:
    """``f_i^s`` of Equation (3) for every job in ``specs``.

    For each job ``J_i`` this is the sum of ``phi_j`` over all jobs whose
    SRPT priority ``w_j / phi_j`` is at least ``w_i / phi_i`` -- including
    ``J_i`` itself.  Returns a mapping ``job_id -> f_i^s``.
    """
    workloads = {spec.job_id: spec.effective_workload(r) for spec in specs}
    priorities = {
        spec.job_id: spec.weight / workloads[spec.job_id] for spec in specs
    }
    ordered = sorted(specs, key=lambda spec: priorities[spec.job_id], reverse=True)
    accumulated: Dict[int, float] = {}
    running_total = 0.0
    index = 0
    n = len(ordered)
    while index < n:
        # Jobs with exactly equal priority all count each other's workload.
        tie_end = index
        while (
            tie_end + 1 < n
            and priorities[ordered[tie_end + 1].job_id]
            == priorities[ordered[index].job_id]
        ):
            tie_end += 1
        tie_total = sum(
            workloads[ordered[k].job_id] for k in range(index, tie_end + 1)
        )
        running_total += tie_total
        for k in range(index, tie_end + 1):
            accumulated[ordered[k].job_id] = running_total
        index = tie_end + 1
    return accumulated
