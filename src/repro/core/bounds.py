"""Theoretical quantities from Section IV and V: Lemma 1, Theorem 1, Remark 2.

These functions compute the paper's analytical bounds so the test-suite and
the ``offline_bound`` experiment can check them against measured flowtimes:

* :func:`lemma1_probability` -- the probability ``(r^2 - 1)/r^2`` with which
  the cluster is busy with higher-priority work during ``[0, f_i - E_i^r -
  r sigma_i^r]`` (Lemma 1);
* :func:`theorem1_probability` -- the probability ``1 + 1/r^4 - 2/r^2`` with
  which the Theorem 1 flowtime bound holds for one job;
* :func:`critical_path` -- the longest path of ``E_s + r sigma_s`` through
  a job's stage DAG;
* :func:`offline_flowtime_bound` / :func:`offline_flowtime_bounds` -- the
  per-job bound ``critical_path(spec, r) + f_i^s / M``, Theorem 1's
  ``E_i^r + r sigma_i^r + f_i^s / M`` with the job's whole critical path in
  place of its final stage;
* lower bounds on the optimal weighted flowtime
  (:func:`srpt_relaxation_lower_bound`, :func:`weighted_flowtime_lower_bound`)
  used to evaluate empirical competitive ratios, following the argument of
  Remark 2: every job needs its critical path's worth of serial time, and no
  scheduler on ``M`` unit machines beats the single speed-``M`` machine SRPT
  relaxation.

Every bound reads a job through its stage DAG
(:attr:`~repro.workload.job.JobSpec.stage_specs`); the paper's map→reduce
job is the 2-node case.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.effective_workload import accumulated_higher_priority_workload
from repro.workload.job import JobSpec

__all__ = [
    "lemma1_probability",
    "theorem1_probability",
    "critical_path",
    "offline_flowtime_bound",
    "offline_flowtime_bounds",
    "srpt_relaxation_lower_bound",
    "weighted_flowtime_lower_bound",
    "empirical_competitive_ratio",
    "online_competitive_bound",
]


def lemma1_probability(r: float) -> float:
    """Lemma 1's probability ``(r^2 - 1) / r^2``, clipped to ``[0, 1]``.

    Meaningful (positive) only for ``r > 1``; for ``r <= 1`` the Chebyshev
    argument gives no information and the function returns 0.
    """
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    value = (r * r - 1.0) / (r * r)
    return max(0.0, min(1.0, value))


def theorem1_probability(r: float) -> float:
    """Theorem 1's probability ``1 + 1/r^4 - 2/r^2 = (1 - 1/r^2)^2``.

    The probability with which a single job's flowtime satisfies the
    Theorem 1 bound.  Clipped to ``[0, 1]``; approaches 1 as ``r`` grows.
    """
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    base = max(0.0, 1.0 - 1.0 / (r * r))
    return min(1.0, base * base)


def critical_path(spec: JobSpec, r: float = 0.0) -> float:
    """Longest path through the job's stage DAG, a stage costing ``E_s + r sigma_s``.

    All tasks of a stage may run at once, so a stage is as long as one of
    its tasks, and it cannot start before its predecessors finish.  A stage
    with no tasks costs nothing: it completes the instant it becomes ready,
    and passes its predecessors' path on.  At ``r = 0`` this is the job's
    flowtime on an otherwise idle cluster with enough unit-speed machines
    and deterministic durations; for the 2-node map→reduce DAG it is
    ``E_i^m + r sigma_i^m + E_i^r + r sigma_i^r``.
    """
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    finish: List[float] = []
    for stage in spec.stage_specs:
        start = max([finish[dep] for dep in stage.deps], default=0.0)
        if stage.num_tasks:
            duration = stage.duration
            start += duration.mean + r * duration.std
        finish.append(start)
    return max(finish)


def offline_flowtime_bound(
    spec: JobSpec, accumulated_workload: float, num_machines: int, r: float
) -> float:
    """Theorem 1's per-job bound ``critical_path(spec, r) + f_i^s / M``.

    ``accumulated_workload`` is ``f_i^s`` from Equation (3) (see
    :func:`repro.core.effective_workload.accumulated_higher_priority_workload`).
    Theorem 1's fluid-style argument charges one final-stage task
    ``E_i^r + r sigma_i^r`` on top of ``f_i^s / M``; that under-counts a
    small, high-priority job, whose own stages must still run one after
    another.  So the whole critical path is charged: on the 2-node DAG that
    adds ``E_i^m + r sigma_i^m``, and a job's bound never falls below its
    own serial time.
    """
    if num_machines <= 0:
        raise ValueError(f"num_machines must be positive, got {num_machines}")
    if accumulated_workload < 0:
        raise ValueError("accumulated_workload must be non-negative")
    return critical_path(spec, r) + accumulated_workload / num_machines


def offline_flowtime_bounds(
    specs: Sequence[JobSpec], num_machines: int, r: float
) -> Dict[int, float]:
    """Theorem 1 bounds for every job of a bulk-arrival instance."""
    accumulated = accumulated_higher_priority_workload(specs, r)
    return {
        spec.job_id: offline_flowtime_bound(
            spec, accumulated[spec.job_id], num_machines, r
        )
        for spec in specs
    }


def srpt_relaxation_lower_bound(
    specs: Sequence[JobSpec], num_machines: int
) -> float:
    """Weighted flowtime of the single speed-``M`` machine SRPT relaxation.

    Pooling the ``M`` unit-speed machines into one machine of speed ``M``
    and dropping the precedence constraints can only reduce the optimal
    weighted flowtime; weighted SRPT is optimal for that relaxation, and for
    a bulk arrival it finishes job ``i`` at ``f_i / M``, where ``f_i`` sums
    the ``r = 0`` workloads of ``i`` and every job it runs after (Remark 2).
    Jobs of equal priority run one after another, in any order (every order
    gives the same weighted sum).  Equation (3)'s ``f_i^s`` charges each of
    them the whole tie's workload instead, which can exceed the optimum.
    """
    if num_machines <= 0:
        raise ValueError(f"num_machines must be positive, got {num_machines}")
    workloads = {spec.job_id: spec.effective_workload(0.0) for spec in specs}
    finished: Dict[int, float] = {}
    total = 0.0
    for spec in sorted(
        specs, key=lambda spec: spec.weight / workloads[spec.job_id], reverse=True
    ):
        total += workloads[spec.job_id]
        finished[spec.job_id] = total
    return sum(
        spec.weight * finished[spec.job_id] / num_machines for spec in specs
    )


def weighted_flowtime_lower_bound(
    specs: Sequence[JobSpec], num_machines: int
) -> float:
    """Best available lower bound on the optimal weighted sum of flowtimes.

    The maximum of the weighted critical paths (:func:`critical_path` at
    ``r = 0``) and the single-fast-machine SRPT relaxation; both are valid
    lower bounds for a bulk-arrival instance with deterministic task
    durations on unit-speed machines.
    """
    serial = sum(spec.weight * critical_path(spec) for spec in specs)
    relaxation = srpt_relaxation_lower_bound(specs, num_machines)
    return max(serial, relaxation)


def empirical_competitive_ratio(
    achieved_weighted_flowtime: float,
    specs: Sequence[JobSpec],
    num_machines: int,
) -> float:
    """Measured weighted flowtime divided by the optimal's lower bound.

    For the zero-variance bulk-arrival setting Remark 2 guarantees this is
    at most 2 (up to the integrality slack of whole tasks on whole
    machines); the ``offline_bound`` experiment reports it.
    """
    if achieved_weighted_flowtime < 0:
        raise ValueError("achieved_weighted_flowtime must be non-negative")
    lower_bound = weighted_flowtime_lower_bound(specs, num_machines)
    if lower_bound <= 0:
        raise ValueError("lower bound is not positive; degenerate instance")
    return achieved_weighted_flowtime / lower_bound


def online_competitive_bound(epsilon: float, max_copies: int = 2) -> float:
    """The Theorem 2 competitive factor ``(C + 1 + eps) / eps^2``.

    ``C`` is the maximum number of copies the optimal schedule makes for a
    task.  This is the constant appearing in the paper's
    ``(1 + eps)-speed o(1/eps^2)-competitive`` guarantee; it is reported by
    the experiments for context (it is an upper bound, not a prediction).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if max_copies < 1:
        raise ValueError(f"max_copies must be >= 1, got {max_copies}")
    return (max_copies + 1.0 + epsilon) / (epsilon * epsilon)
