"""The epsilon-fraction machine-sharing rule of SRPTMS+C (Section V-A).

At each decision point the scheduler sorts the alive jobs by the online SRPT
priority ``w_i / U_i(l)`` and lets the *highest-priority* jobs -- those whose
cumulative weight makes up an ``epsilon`` fraction of the total alive weight
``W(l)`` -- share the ``M`` machines in proportion to their weights.

Formally, with ``W_i(l)`` the cumulative weight of all jobs with priority
*at most* that of ``J_i`` (including ``J_i`` itself), the share of ``J_i`` is

    g_i(l) = w_i * M / (eps * W(l))                     if W_i - w_i >= (1-eps) W
    g_i(l) = 0                                          if W_i < (1-eps) W
    g_i(l) = (W_i - (1-eps) W) * M / (eps * W(l))       otherwise

so that shares sum exactly to ``M``.  ``eps -> 0`` recovers pure SRPT (only
the single highest-priority job runs); ``eps = 1`` recovers the Hadoop fair
scheduler (every alive job gets a weight-proportional share).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.priority import sort_jobs_by_remaining_priority
from repro.workload.job import Job

__all__ = [
    "fractional_shares",
    "integer_shares",
    "epsilon_shares",
    "epsilon_shares_from_ordered",
]


def fractional_shares(
    jobs_by_priority: Sequence[Tuple[int, float]],
    num_machines: int,
    epsilon: float,
) -> Dict[int, float]:
    """Compute the real-valued shares ``g_i(l)``.

    Parameters
    ----------
    jobs_by_priority:
        ``(job_id, weight)`` pairs sorted by *decreasing* priority.
    num_machines:
        ``M``.
    epsilon:
        The sharing fraction, ``0 < epsilon <= 1``.

    Returns a mapping ``job_id -> g_i`` whose values sum to ``num_machines``
    (up to floating-point error) whenever at least one job is present.
    """
    if num_machines <= 0:
        raise ValueError(f"num_machines must be positive, got {num_machines}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not jobs_by_priority:
        return {}
    weights = [weight for _, weight in jobs_by_priority]
    if any(weight <= 0 for weight in weights):
        raise ValueError("all job weights must be positive")
    total_weight = float(sum(weights))
    threshold = (1.0 - epsilon) * total_weight

    shares: Dict[int, float] = {}
    # W_i is cumulative from the *lowest* priority job up to and including J_i,
    # so walk the priority-sorted list from the back.
    cumulative = 0.0
    cumulative_from_low: List[float] = [0.0] * len(jobs_by_priority)
    for index in range(len(jobs_by_priority) - 1, -1, -1):
        cumulative += weights[index]
        cumulative_from_low[index] = cumulative

    scale = num_machines / (epsilon * total_weight)
    for index, (job_id, weight) in enumerate(jobs_by_priority):
        w_i = cumulative_from_low[index]
        if w_i - weight >= threshold:
            shares[job_id] = weight * scale
        elif w_i < threshold:
            shares[job_id] = 0.0
        else:
            shares[job_id] = (w_i - threshold) * scale
    return shares


def integer_shares(
    fractional: Dict[int, float],
    ordered_job_ids: Sequence[int],
    num_machines: int,
) -> Dict[int, int]:
    """Round fractional shares to integers that still sum to ``num_machines``.

    Uses the largest-remainder method, breaking remainder ties in favour of
    higher-priority jobs (the order given by ``ordered_job_ids``).  Jobs with
    a zero fractional share stay at zero.
    """
    if num_machines <= 0:
        raise ValueError(f"num_machines must be positive, got {num_machines}")
    floors = {job_id: int(fractional.get(job_id, 0.0)) for job_id in ordered_job_ids}
    remainders = {
        job_id: fractional.get(job_id, 0.0) - floors[job_id]
        for job_id in ordered_job_ids
    }
    assigned = sum(floors.values())
    leftover = num_machines - assigned
    if leftover < 0:
        # Fractional shares should never exceed M; guard against float noise.
        leftover = 0
    # Hand the leftover machines to the jobs with the largest remainders,
    # favouring higher priority on ties (stable sort keeps the input order).
    by_remainder = sorted(
        (job_id for job_id in ordered_job_ids if fractional.get(job_id, 0.0) > 0.0),
        key=lambda job_id: -remainders[job_id],
    )
    for job_id in by_remainder:
        if leftover <= 0:
            break
        floors[job_id] += 1
        leftover -= 1
    return floors


def epsilon_shares_from_ordered(
    pairs: Sequence[Tuple[int, float]],
    num_machines: int,
    epsilon: float,
) -> Dict[int, int]:
    """Fractional then integer shares for already-priority-sorted jobs.

    ``pairs`` is ``(job_id, weight)`` sorted by *decreasing* priority.  This
    is the single implementation of the sharing pipeline; callers that have
    already sorted (the SRPTMS+C scheduler sorts once per decision point)
    use it directly, :func:`epsilon_shares` sorts and delegates.
    """
    fractional = fractional_shares(pairs, num_machines, epsilon)
    return integer_shares(
        fractional, [job_id for job_id, _ in pairs], num_machines
    )


def epsilon_shares(
    jobs: Sequence[Job],
    num_machines: int,
    epsilon: float,
    r: float,
) -> Dict[int, int]:
    """End-to-end helper: priorities -> fractional shares -> integer shares.

    ``jobs`` is the set of alive jobs with unscheduled tasks (``psi^s(l)``).
    Returns integer machine shares keyed by job id, summing to
    ``num_machines`` (when any job has a positive share).
    """
    if not jobs:
        return {}
    ordered = sort_jobs_by_remaining_priority(jobs, r)
    return epsilon_shares_from_ordered(
        [(job.job_id, job.weight) for job in ordered], num_machines, epsilon
    )
