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

:func:`ranked_shares` is the one implementation: a single pass over the
ranking, from the lowest priority up, computes every ``g_i(l)`` and its
floor, and the machines the floors leave go to the largest remainders.  It
works on lists aligned with the ranking, so a decision point builds no
dict.  :func:`fractional_shares` and :func:`epsilon_shares` are adaptors
over it that key the result by job id.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.core.priority import sort_jobs_by_remaining_priority
from repro.workload.job import Job

__all__ = ["ranked_shares", "fractional_shares", "epsilon_shares"]


def ranked_shares(
    weights: Sequence[float], num_machines: int, epsilon: float
) -> Tuple[List[int], List[float]]:
    """Integer and real shares of jobs ranked by decreasing priority.

    ``weights`` holds the ranked jobs' weights, highest priority first;
    each must be positive and finite, which :class:`~repro.workload.job
    .JobSpec` guarantees, so no weight is checked here.  Returns
    ``(shares, fractions)``, both aligned with ``weights``: ``fractions[i]``
    is ``g_i(l)`` and ``shares[i]`` its rounding.  The integers sum to
    ``num_machines`` whenever a job is present: each share is rounded
    down, and the machines left over go one each to the largest
    remainders, ties to the higher-priority job.  A zero share stays zero.
    """
    if num_machines <= 0:
        raise ValueError(f"num_machines must be positive, got {num_machines}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    count = len(weights)
    if not count:
        return [], []
    total_weight = float(sum(weights))
    threshold = (1.0 - epsilon) * total_weight
    scale = num_machines / (epsilon * total_weight)
    shares = [0] * count
    fractions = [0.0] * count
    # Positive shares, lowest priority first.
    positive: List[int] = []
    assigned = 0
    # W_i is cumulative from the *lowest* priority job up to and including
    # J_i, so walk the ranking from the back.
    cumulative = 0.0
    for index in range(count - 1, -1, -1):
        weight = weights[index]
        cumulative += weight
        if cumulative - weight >= threshold:
            share = weight * scale
        elif cumulative < threshold:
            continue
        else:
            share = (cumulative - threshold) * scale
        fractions[index] = share
        floor = int(share)
        shares[index] = floor
        assigned += floor
        if share > 0.0:
            positive.append(index)
    # Fractional shares never exceed M; a negative leftover is float noise.
    leftover = num_machines - assigned
    if leftover > 0 and positive:
        positive.reverse()
        if leftover < len(positive):
            # The stable sort keeps rank order among equal remainders.
            positive.sort(key=lambda index: -(fractions[index] - shares[index]))
            del positive[leftover:]
        for index in positive:
            shares[index] += 1
    return shares, fractions


def fractional_shares(
    jobs_by_priority: Sequence[Tuple[int, float]],
    num_machines: int,
    epsilon: float,
) -> Dict[int, float]:
    """The real-valued shares ``g_i(l)`` keyed by job id.

    ``jobs_by_priority`` is ``(job_id, weight)`` pairs sorted by
    *decreasing* priority; ``0 < epsilon <= 1``.  The values sum to
    ``num_machines`` (up to floating-point error) whenever a job is
    present.  An adaptor over :func:`ranked_shares` that also checks the
    weights.
    """
    weights = [weight for _, weight in jobs_by_priority]
    if not all(0 < weight < math.inf for weight in weights):
        raise ValueError("all job weights must be positive and finite")
    _, fractions = ranked_shares(weights, num_machines, epsilon)
    return {
        job_id: share for (job_id, _), share in zip(jobs_by_priority, fractions)
    }


def epsilon_shares(
    jobs: Sequence[Job],
    num_machines: int,
    epsilon: float,
    r: float,
) -> Dict[int, int]:
    """End-to-end helper: rank by ``w_i / U_i(l)``, then integer shares by job id.

    ``jobs`` is the set of alive jobs with unscheduled tasks (``psi^s(l)``).
    The shares sum to ``num_machines`` (when any job has a positive share).
    """
    if not jobs:
        return {}
    ordered = sort_jobs_by_remaining_priority(jobs, r)
    shares, _ = ranked_shares([job.weight for job in ordered], num_machines, epsilon)
    return {job.job_id: share for job, share in zip(ordered, shares)}
