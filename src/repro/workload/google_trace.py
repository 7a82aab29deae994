"""Synthetic Google-cluster-trace generator calibrated to the paper's Table II.

The paper drives its evaluation with the public Google cluster-usage traces
[21]: 6064 jobs over a 35 032 s window, an average of 26.31 tasks per job,
task durations between 12.8 s and 22 919.3 s with a mean of 1179.7 s, and
per-job priorities in 0..11 that are used directly as job weights.

The original trace files are not redistributable and not available offline,
so this module generates a *synthetic* trace matching those published
marginals:

* heavy-tailed tasks-per-job (bounded Pareto, calibrated so the mean matches
  the target tasks/job);
* heavy-tailed per-job mean task duration (bounded Pareto over the published
  min/max range, calibrated to the published mean);
* log-normal within-job task-duration variation with a configurable
  coefficient of variation (the within-job variation of the real trace is
  small -- the paper notes this when discussing Figure 2);
* priorities drawn from a skewed categorical distribution over 0..11 and
  mapped to weights ``priority + 1`` (the "+1" keeps weights strictly
  positive, which the weighted-SRPT priority ``w_i / phi_i`` requires);
* uniform job arrivals over the trace window (the 12-hour window the paper
  extracts has no strong diurnal pattern).

The ``scale`` parameter shrinks the number of jobs while keeping the trace
window; experiments scale the machine count by the same factor so that the
offered load -- the quantity scheduling behaviour actually depends on -- is
preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.checks import check_count, check_range, check_real
from repro.workload.distributions import BoundedPareto, Floored, LogNormal
from repro.workload.job import JobSpec
from repro.workload.trace import Trace

__all__ = ["GoogleTraceConfig", "GoogleTraceGenerator", "TABLE_II_TARGETS"]


#: The statistics published in Table II of the paper.
TABLE_II_TARGETS = {
    "total_jobs": 6064,
    "trace_duration": 35032.0,
    "average_tasks_per_job": 26.31,
    "min_task_duration": 12.8,
    "max_task_duration": 22919.3,
    "average_task_duration": 1179.7,
    "num_machines": 12000,
}


@dataclass(frozen=True)
class GoogleTraceConfig:
    """Parameters of the synthetic Google-like trace.

    The defaults reproduce the full-scale Table II trace.  ``scale`` < 1
    shrinks the workload so that the cluster (scaled by the same factor in
    the experiment configs) sees the same *offered load* as the paper's.

    Shrinking is split between two dimensions, because both matter:

    * ``job_scale`` -- fewer jobs over the same 12-hour window.  Scaling
      only this dimension preserves load but collapses the number of
      *concurrently alive* jobs, and the epsilon-sharing behaviour of
      SRPTMS+C (Figure 1) only shows up when many jobs compete.
    * ``size_scale`` -- fewer tasks per job.  Scaling only this dimension
      preserves concurrency but degenerates jobs to single tasks.

    By default both factors are ``sqrt(scale)``, which keeps the product
    (and hence the offered load against a ``scale``-sized cluster) equal to
    ``scale`` while degrading concurrency and job structure as gently as
    possible.  Either factor can be overridden explicitly.
    """

    scale: float = 1.0
    job_scale: Optional[float] = None
    size_scale: Optional[float] = None
    num_jobs: int = TABLE_II_TARGETS["total_jobs"]
    trace_duration: float = TABLE_II_TARGETS["trace_duration"]
    mean_tasks_per_job: float = TABLE_II_TARGETS["average_tasks_per_job"]
    max_tasks_per_job: int = 600
    min_task_duration: float = TABLE_II_TARGETS["min_task_duration"]
    max_task_duration: float = TABLE_II_TARGETS["max_task_duration"]
    mean_task_duration: float = TABLE_II_TARGETS["average_task_duration"]
    #: Within-job coefficient of variation of task durations (the knob that
    #: creates stragglers).  Individual jobs jitter around this value by
    #: +/-40% so that the r-term of the effective workload has something to
    #: distinguish.
    within_job_cv: float = 0.6
    #: Rank correlation (Gaussian copula) between a job's task count and its
    #: per-task mean duration.  In the real trace large batch jobs have both
    #: many tasks and long tasks, while the numerous small jobs have short
    #: tasks -- this is what makes the *average job* flowtime far smaller
    #: than the *average task* duration of Table II.
    size_duration_correlation: float = 0.7
    #: Fraction of a job's tasks that are reduce tasks.
    reduce_fraction: float = 0.25
    #: Reduce tasks tend to be longer than map tasks (shuffle + merge); this
    #: multiplies the per-job mean duration for the reduce phase.
    reduce_duration_factor: float = 1.3
    #: Number of distinct priority levels (0 .. num_priorities-1).
    num_priorities: int = 12
    #: Geometric-ish decay of the priority histogram: most jobs are
    #: low-priority batch work, few are high-priority production jobs.
    priority_decay: float = 0.65

    def __post_init__(self) -> None:
        # ``scale`` shrinks the Table II trace and its cluster together;
        # past 1 it would grow them without bound (and overflow the
        # derived machine count at 1e308).
        check_range("scale", self.scale, 0, 1, closed="right")
        for knob in ("job_scale", "size_scale"):
            if getattr(self, knob) is not None:
                check_range(knob, getattr(self, knob), 0, 1, closed="right")
        check_count("num_jobs", self.num_jobs, 1)
        check_real("trace_duration", self.trace_duration)
        check_range("mean_tasks_per_job", self.mean_tasks_per_job, 1)
        check_count("max_tasks_per_job", self.max_tasks_per_job, 1)
        check_real("min_task_duration", self.min_task_duration, positive=True)
        check_range(
            "max_task_duration", self.max_task_duration, self.min_task_duration,
            closed="neither",
        )
        check_range(
            "mean_task_duration", self.mean_task_duration, self.min_task_duration,
            self.max_task_duration, closed="neither",
        )
        check_real("within_job_cv", self.within_job_cv)
        check_range("size_duration_correlation", self.size_duration_correlation, -1, 1)
        check_range("reduce_fraction", self.reduce_fraction, 0, 1, closed="left")
        check_real("reduce_duration_factor", self.reduce_duration_factor, positive=True)
        check_count("num_priorities", self.num_priorities, 1)
        check_real("priority_decay", self.priority_decay, positive=True)

    @property
    def effective_job_scale(self) -> float:
        """The job-count shrink factor (default ``sqrt(scale)``)."""
        if self.job_scale is not None:
            return self.job_scale
        return math.sqrt(self.scale)

    @property
    def effective_size_scale(self) -> float:
        """The tasks-per-job shrink factor (default ``sqrt(scale)``)."""
        if self.size_scale is not None:
            return self.size_scale
        return math.sqrt(self.scale)

    @property
    def effective_num_jobs(self) -> int:
        """Number of jobs after applying the job-count shrink factor."""
        return max(1, int(round(self.num_jobs * self.effective_job_scale)))

    @property
    def effective_mean_tasks_per_job(self) -> float:
        """Target mean tasks per job after applying the size shrink factor."""
        return max(1.5, self.mean_tasks_per_job * self.effective_size_scale)

    @property
    def effective_max_tasks_per_job(self) -> int:
        """Upper bound on tasks per job after applying the size shrink factor."""
        return max(4, int(round(self.max_tasks_per_job * self.effective_size_scale)))

    @property
    def effective_num_machines(self) -> int:
        """Machine count that keeps the full-scale offered load."""
        return max(1, int(round(TABLE_II_TARGETS["num_machines"] * self.scale)))

    @classmethod
    def scaled(cls, scale: float, **overrides) -> "GoogleTraceConfig":
        """Convenience constructor for a scaled-down config."""
        return cls(scale=scale, **overrides)


def _calibrate_bounded_pareto_alpha(
    minimum: float, maximum: float, target_mean: float
) -> float:
    """Find the Pareto shape ``alpha`` whose bounded mean equals ``target_mean``.

    The bounded-Pareto mean is monotonically decreasing in ``alpha`` for a
    fixed support, so bisection converges quickly.
    """
    if not minimum < target_mean < maximum:
        raise ValueError(
            f"target mean {target_mean} must lie inside ({minimum}, {maximum})"
        )

    def mean_for(alpha: float) -> float:
        # The target can sit above the shape-0 (log-uniform) mean, when a
        # large within_job_cv pulls ``maximum`` in; the bracket search then
        # walks the shape towards zero, where BoundedPareto takes that limit.
        return BoundedPareto(minimum, maximum, alpha).mean

    low, high = 1e-3, 50.0
    # Expand the bracket if needed (mean_for(low) is close to the arithmetic
    # midpoint of a log-uniform, mean_for(high) approaches `minimum`).
    for _ in range(100):
        if mean_for(low) >= target_mean >= mean_for(high):
            break
        low /= 2.0
        high *= 1.5
    for _ in range(200):
        mid = 0.5 * (low + high)
        if mean_for(mid) > target_mean:
            low = mid
        else:
            high = mid
        if high - low < 1e-9:
            break
    return 0.5 * (low + high)


class GoogleTraceGenerator:
    """Generates synthetic traces whose marginals match Table II."""

    def __init__(self, config: Optional[GoogleTraceConfig] = None) -> None:
        self.config = config if config is not None else GoogleTraceConfig()
        cfg = self.config
        self._tasks_alpha = _calibrate_bounded_pareto_alpha(
            1.0,
            float(cfg.effective_max_tasks_per_job),
            cfg.effective_mean_tasks_per_job,
        )
        # Per-job mean durations live inside the published [min, max] range;
        # the upper bound is pulled in slightly so that within-job variation
        # does not push individual samples far beyond the published maximum.
        upper = cfg.max_task_duration / (1.0 + 2.0 * cfg.within_job_cv)
        upper = max(upper, cfg.mean_task_duration * 1.5)
        self._duration_alpha = _calibrate_bounded_pareto_alpha(
            cfg.min_task_duration, upper, cfg.mean_task_duration
        )
        self._duration_upper = upper

    # -- per-job sampling helpers ----------------------------------------------

    @staticmethod
    def _normal_cdf(z: np.ndarray) -> np.ndarray:
        """Standard normal CDF (vectorised, no scipy dependency needed)."""
        return 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))

    def _sample_sizes_and_durations(
        self, rng: np.random.Generator, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Jointly sample per-job task counts and mean task durations.

        A Gaussian copula with correlation ``size_duration_correlation``
        couples the two heavy-tailed marginals: big jobs tend to have long
        tasks, small jobs short tasks, while each marginal keeps the
        calibrated Table II mean.
        """
        cfg = self.config
        rho = cfg.size_duration_correlation
        z_size = rng.standard_normal(n)
        z_noise = rng.standard_normal(n)
        z_duration = rho * z_size + math.sqrt(max(0.0, 1.0 - rho * rho)) * z_noise
        u_size = np.clip(self._normal_cdf(z_size), 0.0, 1.0 - 1e-12)
        u_duration = np.clip(self._normal_cdf(z_duration), 0.0, 1.0 - 1e-12)

        tasks_dist = BoundedPareto(
            1.0, float(cfg.effective_max_tasks_per_job), self._tasks_alpha
        )
        duration_dist = BoundedPareto(
            cfg.min_task_duration, self._duration_upper, self._duration_alpha
        )
        task_counts = np.maximum(1, np.round(tasks_dist.quantile(u_size))).astype(int)
        durations = duration_dist.quantile(u_duration)
        # Table II's "average task duration" weighs each *task*, not each job;
        # with a positive size/duration correlation the task-weighted mean
        # exceeds the job-weighted mean, so rescale the per-job means to hit
        # the published task-weighted target (this also pins the offered load
        # to the real trace's value).
        achieved = float(np.sum(task_counts * durations) / np.sum(task_counts))
        if achieved > 0:
            durations = durations * (cfg.mean_task_duration / achieved)
        durations = np.clip(
            durations, cfg.min_task_duration, cfg.max_task_duration
        )
        return task_counts, durations

    def _sample_priorities(self, rng: np.random.Generator, n: int) -> np.ndarray:
        cfg = self.config
        levels = np.arange(cfg.num_priorities)
        weights = cfg.priority_decay**levels
        probabilities = weights / weights.sum()
        return rng.choice(levels, size=n, p=probabilities)

    def _split_tasks(self, total: int) -> tuple[int, int]:
        """Split a job's task count into (map, reduce) counts."""
        cfg = self.config
        reduces = int(round(total * cfg.reduce_fraction))
        reduces = min(reduces, total - 1) if total > 1 else 0
        maps = total - reduces
        return maps, reduces

    # -- public API -----------------------------------------------------------------

    def generate(self, seed: int = 0) -> Trace:
        """Generate a trace using ``seed`` for reproducibility."""
        cfg = self.config
        rng = np.random.default_rng(seed)
        n = cfg.effective_num_jobs

        arrivals = np.sort(rng.uniform(0.0, cfg.trace_duration, n))
        task_counts, mean_durations = self._sample_sizes_and_durations(rng, n)
        priorities = self._sample_priorities(rng, n)

        jobs: List[JobSpec] = []
        for job_id in range(n):
            total_tasks = int(task_counts[job_id])
            maps, reduces = self._split_tasks(total_tasks)
            map_mean = float(mean_durations[job_id])
            reduce_mean = map_mean * cfg.reduce_duration_factor
            job_cv = cfg.within_job_cv * float(rng.uniform(0.6, 1.4))
            # The floor reproduces the trace's hard minimum task duration
            # (container start-up + split fetch in the real system).
            map_dist = Floored(
                LogNormal(map_mean, job_cv * map_mean),
                cfg.min_task_duration,
            )
            reduce_dist = Floored(
                LogNormal(reduce_mean, job_cv * reduce_mean),
                cfg.min_task_duration,
            )
            jobs.append(
                JobSpec(
                    job_id=job_id,
                    arrival_time=float(arrivals[job_id]),
                    weight=float(priorities[job_id]) + 1.0,
                    num_map_tasks=maps,
                    num_reduce_tasks=reduces,
                    map_duration=map_dist,
                    reduce_duration=reduce_dist,
                )
            )
        return Trace(jobs, name=f"google-synthetic-scale{cfg.scale:g}")

    def generate_many(self, seeds: Sequence[int]) -> List[Trace]:
        """Generate one trace per seed (for replicated experiments)."""
        return [self.generate(seed) for seed in seeds]
