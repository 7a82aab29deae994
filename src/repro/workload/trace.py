"""Trace container and the Table II summary statistics.

A :class:`Trace` is an ordered collection of :class:`~repro.workload.job.JobSpec`
objects.  :class:`TraceStatistics` computes exactly the quantities the paper
publishes for the Google cluster-usage trace in Table II, so the benchmark
``benchmarks/test_table2_trace_stats.py`` can print a row-for-row equivalent
table for the synthetic trace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.checks import check_count
from repro.workload.job import JobSpec

__all__ = ["Trace", "TraceStatistics"]


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of a trace, mirroring Table II of the paper."""

    total_jobs: int
    trace_duration: float
    average_tasks_per_job: float
    min_task_duration: float
    max_task_duration: float
    average_task_duration: float
    total_tasks: int
    average_weight: float

    def as_rows(self) -> List[tuple]:
        """Render as (label, value) rows in the same order as Table II."""
        return [
            ("Total number of Jobs", self.total_jobs),
            ("Trace duration (s)", round(self.trace_duration, 1)),
            ("Average number of tasks per job", round(self.average_tasks_per_job, 2)),
            ("Minimum task duration (s)", round(self.min_task_duration, 1)),
            ("Maximum task duration (s)", round(self.max_task_duration, 1)),
            ("Average task duration (s)", round(self.average_task_duration, 1)),
        ]

    def render(self) -> str:
        """Human-readable Table II-style rendering."""
        rows = self.as_rows()
        width = max(len(label) for label, _ in rows)
        lines = [f"{label:<{width}}  {value}" for label, value in rows]
        return "\n".join(lines)


class Trace:
    """An immutable, arrival-time-ordered collection of job specs."""

    def __init__(self, jobs: Iterable[JobSpec], name: str = "trace") -> None:
        specs = sorted(jobs, key=lambda spec: (spec.arrival_time, spec.job_id))
        if not specs:
            raise ValueError("a trace must contain at least one job")
        seen_ids = set()
        for spec in specs:
            if spec.job_id in seen_ids:
                raise ValueError(f"duplicate job_id {spec.job_id} in trace")
            seen_ids.add(spec.job_id)
        self._jobs: List[JobSpec] = specs
        self.name = name

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self._jobs)

    def __getitem__(self, index: int) -> JobSpec:
        return self._jobs[index]

    @property
    def jobs(self) -> Sequence[JobSpec]:
        """The job specs ordered by arrival time."""
        return tuple(self._jobs)

    # -- derived quantities ------------------------------------------------------

    @property
    def num_jobs(self) -> int:
        """Number of jobs in the trace."""
        return len(self._jobs)

    @property
    def total_tasks(self) -> int:
        """Total logical tasks across all jobs."""
        return sum(spec.total_tasks for spec in self._jobs)

    @property
    def first_arrival(self) -> float:
        """Arrival time of the earliest job."""
        return self._jobs[0].arrival_time

    @property
    def last_arrival(self) -> float:
        """Arrival time of the latest job."""
        return self._jobs[-1].arrival_time

    @property
    def duration(self) -> float:
        """Span between the first and the last job arrival."""
        return self.last_arrival - self.first_arrival

    @property
    def total_expected_work(self) -> float:
        """Sum over jobs of the expected total task workload."""
        return sum(spec.expected_total_work for spec in self._jobs)

    def expected_load(self, num_machines: int) -> float:
        """Offered load: expected work per machine per unit of trace time.

        Values near or above 1.0 mean the cluster is saturated; the paper's
        Google-trace experiments run well below saturation so that cloning
        has spare machines to use.
        """
        check_count("num_machines", num_machines, 1)
        horizon = max(self.duration, 1.0)
        return self.total_expected_work / (num_machines * horizon)

    def statistics(self, rng: Optional[np.random.Generator] = None) -> TraceStatistics:
        """Compute Table II statistics.

        Task-duration extrema and averages are computed from one sampled
        duration per task of every stage (using ``rng``, job by job and
        stage by stage), which is how a measured trace would report them;
        when ``rng`` is omitted each stage's mean stands for its tasks
        instead (deterministic, still the right average).
        """
        durations: List[float] = []
        weights: List[float] = []
        for spec in self._jobs:
            weights.append(spec.weight)
            for stage in spec.stage_specs:
                count = stage.num_tasks
                if count == 0:
                    continue
                dist = stage.duration
                if rng is None:
                    durations.extend([dist.mean] * count)
                else:
                    # Batched draw: bit-identical to per-task sampling by
                    # the sample_batch RNG-consumption contract.
                    durations.extend(dist.sample_batch(rng, count).tolist())
        durations_arr = np.asarray(durations, dtype=float)
        return TraceStatistics(
            total_jobs=self.num_jobs,
            trace_duration=self.duration,
            average_tasks_per_job=self.total_tasks / self.num_jobs,
            min_task_duration=float(durations_arr.min()),
            max_task_duration=float(durations_arr.max()),
            average_task_duration=float(durations_arr.mean()),
            total_tasks=self.total_tasks,
            average_weight=float(np.mean(weights)),
        )

    # -- transformations -----------------------------------------------------------

    def filter(self, predicate) -> "Trace":
        """Return a new trace containing only jobs satisfying ``predicate``."""
        kept = [spec for spec in self._jobs if predicate(spec)]
        if not kept:
            raise ValueError("filter removed every job from the trace")
        return Trace(kept, name=f"{self.name}-filtered")

    def head(self, n: int) -> "Trace":
        """Return a trace of the first ``n`` jobs by arrival order."""
        check_count("n", n, 1)
        return Trace(self._jobs[:n], name=f"{self.name}-head{n}")

    def shifted(self, offset: float) -> "Trace":
        """Return a trace with all arrival times shifted by ``offset``."""
        jobs = [
            replace(spec, arrival_time=spec.arrival_time + offset)
            for spec in self._jobs
        ]
        return Trace(jobs, name=f"{self.name}-shifted")

    def as_bulk_arrival(self) -> "Trace":
        """Collapse all arrivals to time zero (the offline setting of Section IV)."""
        jobs = [replace(spec, arrival_time=0.0) for spec in self._jobs]
        return Trace(jobs, name=f"{self.name}-bulk")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace(name={self.name!r}, jobs={self.num_jobs}, "
            f"tasks={self.total_tasks}, duration={self.duration:.1f}s)"
        )
