"""SRPT-style priority computation and ordering.

Both of the paper's algorithms rank jobs by weight divided by (effective)
workload:

* offline (Algorithm 1): ``w_i / phi_i`` with ``phi_i`` fixed at arrival;
* online (SRPTMS+C):     ``w_i / U_i(l)`` recomputed at every decision point.

Both workloads are stage-exact (see :mod:`repro.core.effective_workload`).

Larger values mean higher priority -- a heavy weight or a small remaining
workload pushes a job to the front, which is exactly the Shortest Remaining
Processing Time intuition generalised to weighted jobs.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.workload.job import Job, JobSpec

__all__ = [
    "srpt_priority",
    "offline_priority",
    "online_priority",
    "sort_specs_by_priority",
    "sort_jobs_by_remaining_priority",
]


def srpt_priority(weight: float, workload: float) -> float:
    """Generic weighted-SRPT priority ``weight / workload``.

    A zero workload (the job has nothing left to schedule) maps to infinity:
    such a job is "ahead of everyone" but the schedulers never launch
    anything for it, so the value only matters for stable sorting.
    """
    if weight <= 0:
        raise ValueError(f"weight must be positive, got {weight}")
    if workload < 0:
        raise ValueError(f"workload must be non-negative, got {workload}")
    if workload == 0:
        return float("inf")
    return weight / workload


def offline_priority(spec: JobSpec, r: float) -> float:
    """``w_i / phi_i`` -- the static priority used by Algorithm 1."""
    return srpt_priority(spec.weight, spec.effective_workload(r))


def online_priority(job: Job, r: float) -> float:
    """``w_i / U_i(l)`` -- the dynamic priority used by SRPTMS+C."""
    return srpt_priority(job.weight, job.remaining_effective_workload(r))


def sort_specs_by_priority(specs: Sequence[JobSpec], r: float) -> List[JobSpec]:
    """Job specs sorted by decreasing offline priority (ties by job id)."""
    return sorted(
        specs, key=lambda spec: (-offline_priority(spec, r), spec.job_id)
    )


def sort_jobs_by_remaining_priority(jobs: Sequence[Job], r: float) -> List[Job]:
    """Runtime jobs sorted by decreasing online priority (ties by job id).

    Ties are broken by job id so the ordering is deterministic, which both
    the tests and the replication protocol rely on.  This is the one SRPT
    sort: the ``srpt`` ordering policy and :func:`~repro.core.allocation
    .epsilon_shares` both call it.  The key is per job, so ranking a subset
    gives the subset's jobs in their order within the full ranking.
    """
    return sorted(jobs, key=lambda job: (-online_priority(job, r), job.job_id))
