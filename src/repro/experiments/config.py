"""Shared configuration for the reproduction experiments.

The paper simulates the full Google trace (6064 jobs, 12 000 machines) and
averages ten repetitions.  Running that takes hours in pure Python, so the
experiments default to a *scaled* configuration: the number of jobs and the
number of machines are shrunk by the same factor, which preserves the
offered load -- the quantity scheduling behaviour actually depends on.  The
full-scale configuration remains one constructor call away
(:meth:`ExperimentConfig.paper_full_scale`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.checks import check_count, check_range, check_real
from repro.scenarios import ScenarioSpec
from repro.simulation.experiment_runner import (
    ExperimentRunner,
    TraceSpec,
    normalize_workers,
)
from repro.workload.google_trace import GoogleTraceConfig, GoogleTraceGenerator
from repro.workload.trace import Trace

__all__ = ["ExperimentConfig", "generate_google_trace"]


def generate_google_trace(trace_config: GoogleTraceConfig, seed: int) -> Trace:
    """Module-level trace factory (picklable by reference for worker processes)."""
    return GoogleTraceGenerator(trace_config).generate(seed=seed)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every figure/table experiment.

    Attributes
    ----------
    scale:
        Fraction of the full trace (jobs) and cluster (machines) to use.
    seeds:
        Replication seeds; the paper uses ten replications, the scaled
        default uses two to keep the benchmark suite fast.
    epsilon, r:
        SRPTMS+C operating point for the comparison figures (the paper picks
        0.6 and 3 after the sweeps of Figures 1 and 2).
    num_machines:
        Cluster size; ``None`` derives it from ``scale`` so the offered load
        matches the paper's.
    trace_seed:
        Seed of the synthetic trace generator (one fixed trace per config,
        replication seeds only vary the simulated task durations).
    within_job_cv:
        Within-job coefficient of variation of task durations.
    workers:
        Worker processes for replicated sweeps: ``1`` runs serially,
        ``None`` and ``0`` (the CLI spelling) both use every usable CPU --
        the value is normalised through
        :func:`repro.simulation.experiment_runner.normalize_workers` at
        construction.  Results are bit-identical either way (see
        :mod:`repro.simulation.experiment_runner`).
    scenario:
        Cluster environment every run of the experiment executes under
        (heterogeneous speeds, dynamic stragglers, failures); ``None`` is
        the paper's homogeneous static cluster.  The CLI sets this from
        ``--scenario``: a preset name or a knob list, resolved by
        :meth:`repro.study.core.ScenarioRef.coerce` (a spec equal to the
        homogeneous default becomes ``None``).
    cache_dir:
        Directory of the results cache
        (:class:`~repro.simulation.results_store.ResultsStore`).  When set,
        every simulation cell an experiment executes is persisted there and
        re-invocations (same trace, scheduler, scenario, seed) are served
        from disk byte-equal, with zero engine runs -- this is what lets an
        interrupted sweep resume.  ``None`` disables caching.  The CLI sets
        this from ``--cache-dir`` / ``--no-cache``.
    """

    scale: float = 0.02
    seeds: Tuple[int, ...] = (0, 1)
    epsilon: float = 0.6
    r: float = 3.0
    num_machines: Optional[int] = None
    trace_seed: int = 0
    within_job_cv: float = 0.6
    workers: Optional[int] = 1
    scenario: Optional[ScenarioSpec] = None
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scenario is not None and not isinstance(self.scenario, ScenarioSpec):
            raise TypeError(f"scenario must be a ScenarioSpec, got {self.scenario!r}")
        if not self.seeds:
            raise ValueError("at least one replication seed is required")
        for seed in self.seeds:
            check_count("seeds", seed)
        check_range("epsilon", self.epsilon, 0, 1, closed="right")
        check_real("r", self.r)
        if self.num_machines is not None:
            check_count("num_machines", self.num_machines, 1)
        check_count("trace_seed", self.trace_seed)
        # scale and within_job_cv go through the trace config's own checks.
        self.trace_config()
        object.__setattr__(self, "workers", normalize_workers(self.workers))

    # -- presets ------------------------------------------------------------------

    @classmethod
    def smoke(cls) -> "ExperimentConfig":
        """Tiny configuration used by the unit/integration tests."""
        return cls(scale=0.005, seeds=(0,))

    @classmethod
    def default_bench(cls) -> "ExperimentConfig":
        """The configuration the benchmark suite runs by default."""
        return cls(scale=0.02, seeds=(0, 1))

    @classmethod
    def paper_full_scale(cls) -> "ExperimentConfig":
        """The paper's setting: full trace, 12K machines, ten replications."""
        return cls(scale=1.0, seeds=tuple(range(10)))

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    # -- derived quantities -----------------------------------------------------------

    @property
    def machines(self) -> int:
        """Cluster size, derived from ``scale`` unless given explicitly."""
        if self.num_machines is not None:
            return self.num_machines
        return self.trace_config().effective_num_machines

    def trace_config(self) -> GoogleTraceConfig:
        """The synthetic-trace configuration for this experiment scale."""
        return GoogleTraceConfig(scale=self.scale, within_job_cv=self.within_job_cv)

    def make_trace(self) -> Trace:
        """Generate the (deterministic, per ``trace_seed``) synthetic trace."""
        return GoogleTraceGenerator(self.trace_config()).generate(seed=self.trace_seed)

    def trace_source(self) -> TraceSpec:
        """Picklable recipe for :meth:`make_trace` (workers rebuild + memoise it)."""
        return TraceSpec(
            factory=generate_google_trace,
            kwargs={"trace_config": self.trace_config(), "seed": self.trace_seed},
        )

    def make_runner(self) -> ExperimentRunner:
        """The experiment runner this configuration asks for."""
        return ExperimentRunner(workers=self.workers, cache_dir=self.cache_dir)

    def study_kwargs(self) -> dict:
        """The scalar knobs a google-trace :class:`~repro.study.core.Study`
        inherits from this config (the one config-to-study mapping, used by
        every study preset)."""
        return dict(
            scenarios=(self.scenario,),
            seeds=self.seeds,
            scale=self.scale,
            epsilon=self.epsilon,
            r=self.r,
            machines=self.num_machines,
            trace_seed=self.trace_seed,
            within_job_cv=self.within_job_cv,
        )
