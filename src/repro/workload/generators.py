"""Additional synthetic workload generators used by tests, examples and ablations.

These generators build small, fully controlled traces so that unit tests and
property-based tests can reason about the exact scheduling outcome, and so
that examples can demonstrate specific phenomena (straggler mitigation, SRPT
prioritisation of small jobs, bulk arrival) without the full Google-like
trace.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.checks import check_count, check_range, check_real
from repro.workload.distributions import (
    Deterministic,
    DurationDistribution,
    LogNormal,
)
from repro.workload.job import JobSpec
from repro.workload.trace import Trace

__all__ = [
    "uniform_trace",
    "bulk_arrival_trace",
    "poisson_trace",
    "bimodal_trace",
]


def _resolve_duration(
    mean: float, cv: float
) -> DurationDistribution:
    """Build a duration distribution from a mean and coefficient of variation."""
    if cv == 0:
        return Deterministic(mean)
    return LogNormal(mean, cv * mean)


def uniform_trace(
    num_jobs: int,
    *,
    tasks_per_job: int = 10,
    reduce_tasks_per_job: int = 2,
    mean_duration: float = 10.0,
    cv: float = 0.0,
    inter_arrival: float = 0.0,
    weight: float = 1.0,
    name: str = "uniform",
) -> Trace:
    """A trace of identical jobs, optionally spaced ``inter_arrival`` apart.

    With ``cv == 0`` and ``inter_arrival == 0`` this is the deterministic
    bulk-arrival workload used to validate the offline 2-competitive bound.
    """
    check_count("num_jobs", num_jobs, 1)
    check_count("tasks_per_job", tasks_per_job, 1)
    check_count("reduce_tasks_per_job", reduce_tasks_per_job)
    check_real("inter_arrival", inter_arrival)
    check_real("mean_duration", mean_duration, positive=True)
    check_real("cv", cv)
    duration = _resolve_duration(mean_duration, cv)
    jobs = [
        JobSpec(
            job_id=i,
            arrival_time=i * inter_arrival,
            weight=weight,
            num_map_tasks=tasks_per_job,
            num_reduce_tasks=reduce_tasks_per_job,
            map_duration=duration,
            reduce_duration=duration,
        )
        for i in range(num_jobs)
    ]
    return Trace(jobs, name=name)


def bulk_arrival_trace(
    job_sizes: Sequence[int],
    *,
    mean_duration: float = 10.0,
    cv: float = 0.0,
    weights: Optional[Sequence[float]] = None,
    reduce_fraction: float = 0.2,
    name: str = "bulk",
) -> Trace:
    """All jobs arrive at time zero; ``job_sizes`` gives the task count of each.

    This is the offline setting of Section IV.  Job ``i`` gets
    ``ceil(size * reduce_fraction)`` reduce tasks and the rest as map tasks.
    """
    if not job_sizes:
        raise ValueError("job_sizes must not be empty")
    if weights is not None and len(weights) != len(job_sizes):
        raise ValueError("weights must have the same length as job_sizes")
    check_range("reduce_fraction", reduce_fraction, 0, 1)
    check_real("mean_duration", mean_duration, positive=True)
    check_real("cv", cv)
    duration = _resolve_duration(mean_duration, cv)
    jobs: List[JobSpec] = []
    for i, size in enumerate(job_sizes):
        check_count("job_sizes", size, 1)
        reduces = min(int(np.ceil(size * reduce_fraction)), size - 1) if size > 1 else 0
        maps = size - reduces
        jobs.append(
            JobSpec(
                job_id=i,
                arrival_time=0.0,
                weight=float(weights[i]) if weights is not None else 1.0,
                num_map_tasks=maps,
                num_reduce_tasks=reduces,
                map_duration=duration,
                reduce_duration=duration,
            )
        )
    return Trace(jobs, name=name)


def poisson_trace(
    num_jobs: int,
    arrival_rate: float,
    *,
    mean_tasks_per_job: float = 10.0,
    mean_duration: float = 10.0,
    cv: float = 0.5,
    max_weight: int = 4,
    seed: int = 0,
    name: str = "poisson",
) -> Trace:
    """Poisson arrivals with geometric task counts and log-normal durations.

    A compact online workload for integration tests: small enough to simulate
    in milliseconds, rich enough (random sizes, weights, durations) to
    exercise every scheduler code path.
    """
    check_count("num_jobs", num_jobs, 1)
    check_real("arrival_rate", arrival_rate, positive=True)
    check_range("mean_tasks_per_job", mean_tasks_per_job, 1)
    check_real("mean_duration", mean_duration, positive=True)
    check_real("cv", cv)
    check_count("max_weight", max_weight, 1)
    rng = np.random.default_rng(check_count("seed", seed))
    inter_arrivals = rng.exponential(1.0 / arrival_rate, num_jobs)
    arrivals = np.cumsum(inter_arrivals)
    arrivals[0] = 0.0
    jobs: List[JobSpec] = []
    for i in range(num_jobs):
        total = 1 + rng.geometric(1.0 / mean_tasks_per_job)
        reduces = min(total // 4, total - 1)
        maps = total - reduces
        job_mean = float(mean_duration * rng.uniform(0.5, 1.5))
        duration = _resolve_duration(job_mean, cv)
        jobs.append(
            JobSpec(
                job_id=i,
                arrival_time=float(arrivals[i]),
                weight=float(rng.integers(1, max_weight + 1)),
                num_map_tasks=int(maps),
                num_reduce_tasks=int(reduces),
                map_duration=duration,
                reduce_duration=duration,
            )
        )
    return Trace(jobs, name=name)


def bimodal_trace(
    num_small_jobs: int,
    num_large_jobs: int,
    *,
    small_tasks: int = 5,
    large_tasks: int = 100,
    small_duration: float = 10.0,
    large_duration: float = 100.0,
    cv: float = 0.5,
    horizon: float = 1000.0,
    small_weight: float = 1.0,
    large_weight: float = 1.0,
    seed: int = 0,
    name: str = "bimodal",
) -> Trace:
    """Small interactive jobs mixed with large batch jobs.

    This is the workload shape the paper's introduction motivates: the value
    of SRPT-style prioritisation (and of cloning the small jobs) shows up as
    a large reduction in small-job flowtime while the big jobs lose little.
    """
    check_count("num_small_jobs", num_small_jobs)
    check_count("num_large_jobs", num_large_jobs)
    if num_small_jobs + num_large_jobs == 0:
        raise ValueError("the trace must contain at least one job")
    check_count("small_tasks", small_tasks, 1)
    check_count("large_tasks", large_tasks, 1)
    check_real("small_duration", small_duration, positive=True)
    check_real("large_duration", large_duration, positive=True)
    check_real("cv", cv)
    check_real("horizon", horizon)
    rng = np.random.default_rng(check_count("seed", seed))
    jobs: List[JobSpec] = []
    job_id = 0
    for _ in range(num_large_jobs):
        duration = _resolve_duration(large_duration, cv)
        reduces = max(1, large_tasks // 5)
        jobs.append(
            JobSpec(
                job_id=job_id,
                arrival_time=float(rng.uniform(0.0, horizon)),
                weight=large_weight,
                num_map_tasks=large_tasks - reduces,
                num_reduce_tasks=reduces,
                map_duration=duration,
                reduce_duration=duration,
            )
        )
        job_id += 1
    for _ in range(num_small_jobs):
        duration = _resolve_duration(small_duration, cv)
        reduces = max(0, small_tasks // 5)
        jobs.append(
            JobSpec(
                job_id=job_id,
                arrival_time=float(rng.uniform(0.0, horizon)),
                weight=small_weight,
                num_map_tasks=small_tasks - reduces,
                num_reduce_tasks=reduces,
                map_duration=duration,
                reduce_duration=duration,
            )
        )
        job_id += 1
    return Trace(jobs, name=name)
