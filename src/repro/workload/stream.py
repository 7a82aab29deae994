"""Streaming workload layer: lazily generated traces with bounded memory.

A :class:`~repro.workload.trace.Trace` materialises every
:class:`~repro.workload.job.JobSpec` up front, which is fine for the
paper-scale evaluation but rules out million-job experiments: the spec
list alone would dwarf the engine's working set.  This module provides the
lazy counterpart:

* :class:`StreamSpec` -- a *picklable recipe* (module-level generator
  factory + kwargs + declared job count) that can sit inside a
  :class:`~repro.simulation.experiment_runner.RunSpec`, cross process
  boundaries, and be content-addressed by the results cache;
* :class:`TraceStream` -- the one-shot iterable built from a recipe, which
  the engine consumes **lazily**: one arrival of lookahead, never the whole
  trace (see the engine's module docstring);
* chunked generator factories (:func:`stream_uniform_jobs`,
  :func:`stream_poisson_jobs`, :func:`stream_heavy_tail_jobs`) that sample
  job parameters in vectorised chunks of ``chunk_size`` specs -- a single
  RNG call per chunk per parameter -- so generation is fast *and* memory is
  bounded by the chunk, not the trace.

Contract
--------
A stream factory must yield ``JobSpec`` objects in non-decreasing
``arrival_time`` order (the engine enforces this) and must yield exactly
the declared number of jobs (:class:`TraceStream` enforces this).  All
randomness must derive from the explicit ``seed`` kwarg so a stream -- like
every other workload source -- is a pure function of its spec; replaying
the same :class:`StreamSpec` yields the identical job sequence, which is
what keeps streamed runs bit-identical across serial, pooled and cached
execution.

``chunk_size`` is part of a stream's *identity*, not just a memory knob:
vectorised RNG draws consume generator state per chunk, so different chunk
sizes produce statistically identical but numerically different job
sequences.  Keep it fixed (the default) when comparing runs; it correctly
participates in :meth:`StreamSpec.cache_key` and in the results-cache
fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

import numpy as np

from repro.workload.distributions import Deterministic, LogNormal
from repro.workload.job import JobSpec, StageSpec, _fast_legacy_spec

__all__ = [
    "StreamSpec",
    "TraceStream",
    "stream_uniform_jobs",
    "stream_poisson_jobs",
    "stream_heavy_tail_jobs",
    "stream_dag_chain_jobs",
    "stream_dag_diamond_jobs",
]

#: Default number of job specs sampled per vectorised chunk.
DEFAULT_CHUNK_SIZE = 8192


class TraceStream:
    """A one-shot, arrival-ordered, lazily generated source of job specs.

    Looks enough like a :class:`~repro.workload.trace.Trace` for the engine
    (``num_jobs``, ``total_tasks``, ``name``, iteration) while holding no
    job list: iteration pulls specs straight from the generator factory.
    A stream can be consumed **once**; build a fresh one per run from its
    :class:`StreamSpec` (``RunSpec`` execution does this automatically).
    """

    __slots__ = ("spec", "_consumed", "yielded")

    def __init__(self, spec: "StreamSpec") -> None:
        self.spec = spec
        self._consumed = False
        #: Number of specs handed out so far (diagnostics / tests).
        self.yielded = 0

    @property
    def name(self) -> str:
        """Human-readable stream name (from the recipe)."""
        return self.spec.name

    @property
    def num_jobs(self) -> int:
        """Declared number of jobs the stream will yield."""
        return self.spec.num_jobs

    @property
    def total_tasks(self) -> Optional[int]:
        """Unknown ahead of time for a stream; the engine accumulates it."""
        return None

    def __iter__(self) -> Iterator[JobSpec]:
        if self._consumed:
            raise RuntimeError(
                f"stream {self.name!r} was already consumed; build a fresh "
                "TraceStream from its StreamSpec for every run"
            )
        self._consumed = True
        return self._generate()

    def _generate(self) -> Iterator[JobSpec]:
        declared = self.spec.num_jobs
        for spec in self.spec.factory(num_jobs=declared, **dict(self.spec.kwargs)):
            if self.yielded >= declared:
                raise RuntimeError(
                    f"stream {self.name!r} yielded more than its declared "
                    f"{declared} jobs"
                )
            self.yielded += 1
            yield spec

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceStream(name={self.name!r}, num_jobs={self.num_jobs})"


@dataclass(frozen=True)
class StreamSpec:
    """A picklable recipe for a :class:`TraceStream`.

    ``factory`` must be a module-level generator function (picklable by
    reference) called as ``factory(num_jobs=num_jobs, **kwargs)``.  The
    declared ``num_jobs`` is carried explicitly so the engine knows when
    the run is complete without consuming the stream ahead of time.
    """

    factory: Callable[..., Iterable[JobSpec]]
    num_jobs: int
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    name: str = "stream"

    def __post_init__(self) -> None:
        if self.num_jobs <= 0:
            raise ValueError(f"num_jobs must be positive, got {self.num_jobs}")
        if not callable(self.factory):
            raise TypeError(f"factory must be callable, got {self.factory!r}")

    def build(self) -> TraceStream:
        """Create a fresh, unconsumed stream from this recipe."""
        return TraceStream(self)

    def cache_key(self) -> str:
        """Stable identity string (factory + arguments), for caching layers."""
        factory = self.factory
        name = (
            f"{getattr(factory, '__module__', '?')}."
            f"{getattr(factory, '__qualname__', repr(factory))}"
        )
        items = ", ".join(f"{k}={self.kwargs[k]!r}" for k in sorted(self.kwargs))
        return f"{name}(num_jobs={self.num_jobs}, {items})"


# ------------------------------------------------------------------ factories


def _chunk_sizes(num_jobs: int, chunk_size: int) -> Iterator[int]:
    """Sizes of successive sampling chunks covering ``num_jobs``."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    remaining = num_jobs
    while remaining > 0:
        size = min(chunk_size, remaining)
        yield size
        remaining -= size


def stream_uniform_jobs(
    num_jobs: int,
    *,
    tasks_per_job: int = 10,
    reduce_tasks_per_job: int = 2,
    mean_duration: float = 10.0,
    inter_arrival: float = 0.0,
    weight: float = 1.0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[JobSpec]:
    """Identical deterministic jobs spaced ``inter_arrival`` apart.

    The streaming counterpart of
    :func:`repro.workload.generators.uniform_trace` (deterministic
    durations only): all jobs share a single
    :class:`~repro.workload.distributions.Deterministic` instance, so the
    per-job footprint is one ``JobSpec``.  This is the workhorse of the
    million-job throughput benchmarks.
    """
    if num_jobs <= 0:
        raise ValueError(f"num_jobs must be positive, got {num_jobs}")
    if tasks_per_job <= 0:
        raise ValueError(f"tasks_per_job must be positive, got {tasks_per_job}")
    if reduce_tasks_per_job < 0:
        raise ValueError("reduce_tasks_per_job must be non-negative")
    if inter_arrival < 0:
        raise ValueError(f"inter_arrival must be >= 0, got {inter_arrival}")
    if weight <= 0:
        raise ValueError(f"weight must be positive, got {weight}")
    duration = Deterministic(mean_duration)
    # All parameters are validated above, so the specs take the fast
    # construction path (this factory feeds the million-job benchmarks).
    fast_spec = _fast_legacy_spec
    job_id = 0
    for size in _chunk_sizes(num_jobs, chunk_size):
        for _ in range(size):
            yield fast_spec(
                job_id,
                job_id * inter_arrival,
                weight,
                tasks_per_job,
                reduce_tasks_per_job,
                duration,
                duration,
            )
            job_id += 1


def stream_poisson_jobs(
    num_jobs: int,
    *,
    arrival_rate: float = 1.0,
    mean_tasks_per_job: float = 10.0,
    mean_duration: float = 10.0,
    cv: float = 0.5,
    max_weight: int = 4,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[JobSpec]:
    """Poisson arrivals, geometric task counts, log-normal durations.

    The streaming counterpart of
    :func:`repro.workload.generators.poisson_trace`: every random job
    parameter is drawn in vectorised chunks of ``chunk_size`` (one RNG call
    per parameter per chunk) and the cumulative arrival clock is threaded
    across chunks, so memory stays O(``chunk_size``) for any ``num_jobs``.
    """
    if num_jobs <= 0:
        raise ValueError(f"num_jobs must be positive, got {num_jobs}")
    if arrival_rate <= 0:
        raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
    if mean_tasks_per_job < 1:
        raise ValueError("mean_tasks_per_job must be at least 1")
    if cv < 0:
        raise ValueError(f"cv must be non-negative, got {cv}")
    rng = np.random.default_rng(seed)
    clock = 0.0
    job_id = 0
    for size in _chunk_sizes(num_jobs, chunk_size):
        inter_arrivals = rng.exponential(1.0 / arrival_rate, size)
        totals = 1 + rng.geometric(1.0 / mean_tasks_per_job, size)
        mean_factors = rng.uniform(0.5, 1.5, size)
        weights = rng.integers(1, max_weight + 1, size)
        for i in range(size):
            clock += float(inter_arrivals[i])
            total = int(totals[i])
            reduces = min(total // 4, total - 1)
            job_mean = float(mean_duration * mean_factors[i])
            if cv == 0:
                duration = Deterministic(job_mean)
            else:
                duration = LogNormal(job_mean, cv * job_mean)
            yield _fast_legacy_spec(
                job_id,
                clock,
                float(weights[i]),
                total - reduces,
                reduces,
                duration,
                duration,
            )
            job_id += 1


def stream_dag_chain_jobs(
    num_jobs: int,
    *,
    num_rounds: int = 3,
    arrival_rate: float = 1.0,
    mean_tasks_per_round: float = 4.0,
    mean_duration: float = 10.0,
    cv: float = 0.5,
    max_weight: int = 4,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[JobSpec]:
    """Multi-round jobs: a linear chain of ``num_rounds`` shuffle rounds.

    Each job is a stage chain ``round0 -> round1 -> ... -> round{k-1}``
    (every stage depends on the previous one), modelling iterative
    MapReduce workloads where each round's output feeds the next round's
    input.  ``num_rounds=2`` degenerates to the classic map->reduce shape.
    Per-round task counts are geometric with mean ``mean_tasks_per_round``;
    durations are log-normal around a per-job mean (shared across rounds).
    Arrivals are Poisson; all sampling is chunked and seed-pure per the
    stream-factory contract.
    """
    if num_jobs <= 0:
        raise ValueError(f"num_jobs must be positive, got {num_jobs}")
    if num_rounds < 1:
        raise ValueError(f"num_rounds must be at least 1, got {num_rounds}")
    if arrival_rate <= 0:
        raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
    if mean_tasks_per_round < 1:
        raise ValueError("mean_tasks_per_round must be at least 1")
    if cv < 0:
        raise ValueError(f"cv must be non-negative, got {cv}")
    rng = np.random.default_rng(seed)
    clock = 0.0
    job_id = 0
    for size in _chunk_sizes(num_jobs, chunk_size):
        inter_arrivals = rng.exponential(1.0 / arrival_rate, size)
        # One vectorised draw per chunk: a (size, num_rounds) matrix of
        # per-round task counts.
        counts = rng.geometric(1.0 / mean_tasks_per_round, (size, num_rounds))
        mean_factors = rng.uniform(0.5, 1.5, size)
        weights = rng.integers(1, max_weight + 1, size)
        for i in range(size):
            clock += float(inter_arrivals[i])
            job_mean = float(mean_duration * mean_factors[i])
            if cv == 0:
                duration = Deterministic(job_mean)
            else:
                duration = LogNormal(job_mean, cv * job_mean)
            stages = tuple(
                StageSpec(
                    name=f"round{k}",
                    num_tasks=int(counts[i, k]),
                    duration=duration,
                    deps=() if k == 0 else (k - 1,),
                )
                for k in range(num_rounds)
            )
            yield JobSpec.from_stages(
                job_id=job_id,
                arrival_time=clock,
                weight=float(weights[i]),
                stages=stages,
            )
            job_id += 1


def stream_dag_diamond_jobs(
    num_jobs: int,
    *,
    fan_out: int = 3,
    arrival_rate: float = 1.0,
    mean_tasks_per_branch: float = 4.0,
    mean_duration: float = 10.0,
    cv: float = 0.5,
    max_weight: int = 4,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[JobSpec]:
    """Fan-out/fan-in diamond jobs: split -> ``fan_out`` branches -> merge.

    Each job is a diamond-shaped stage DAG: a single-task ``split`` stage,
    ``fan_out`` independent branch stages that all depend on the split (and
    can run concurrently once it completes), and a single-task ``merge``
    stage depending on *every* branch -- the canonical fan-in precedence
    that exercises multi-predecessor gating.  Branch task counts are
    geometric with mean ``mean_tasks_per_branch``; durations are log-normal
    around a per-job mean.  Arrivals are Poisson; all sampling is chunked
    and seed-pure per the stream-factory contract.
    """
    if num_jobs <= 0:
        raise ValueError(f"num_jobs must be positive, got {num_jobs}")
    if fan_out < 1:
        raise ValueError(f"fan_out must be at least 1, got {fan_out}")
    if arrival_rate <= 0:
        raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
    if mean_tasks_per_branch < 1:
        raise ValueError("mean_tasks_per_branch must be at least 1")
    if cv < 0:
        raise ValueError(f"cv must be non-negative, got {cv}")
    rng = np.random.default_rng(seed)
    clock = 0.0
    job_id = 0
    for size in _chunk_sizes(num_jobs, chunk_size):
        inter_arrivals = rng.exponential(1.0 / arrival_rate, size)
        counts = rng.geometric(1.0 / mean_tasks_per_branch, (size, fan_out))
        mean_factors = rng.uniform(0.5, 1.5, size)
        weights = rng.integers(1, max_weight + 1, size)
        for i in range(size):
            clock += float(inter_arrivals[i])
            job_mean = float(mean_duration * mean_factors[i])
            if cv == 0:
                duration = Deterministic(job_mean)
            else:
                duration = LogNormal(job_mean, cv * job_mean)
            branches = tuple(
                StageSpec(
                    name=f"branch{b}",
                    num_tasks=int(counts[i, b]),
                    duration=duration,
                    deps=(0,),
                )
                for b in range(fan_out)
            )
            stages = (
                StageSpec(name="split", num_tasks=1, duration=duration),
                *branches,
                StageSpec(
                    name="merge",
                    num_tasks=1,
                    duration=duration,
                    deps=tuple(range(1, fan_out + 1)),
                ),
            )
            yield JobSpec.from_stages(
                job_id=job_id,
                arrival_time=clock,
                weight=float(weights[i]),
                stages=stages,
            )
            job_id += 1


def stream_heavy_tail_jobs(
    num_jobs: int,
    *,
    arrival_rate: float = 1.0,
    alpha: float = 1.5,
    min_tasks: int = 1,
    max_tasks: int = 1000,
    mean_duration: float = 10.0,
    cv: float = 0.5,
    max_weight: int = 4,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[JobSpec]:
    """Poisson arrivals with Pareto(``alpha``) heavy-tailed job sizes.

    The regime where cloning's advantage is largest (and the paper's
    competitive bounds are most interesting): a sea of small jobs with a
    heavy tail of very large ones.  Task counts follow a bounded Pareto on
    ``[min_tasks, max_tasks]``; durations are log-normal around a per-job
    mean.
    """
    if num_jobs <= 0:
        raise ValueError(f"num_jobs must be positive, got {num_jobs}")
    if arrival_rate <= 0:
        raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 1 <= min_tasks <= max_tasks:
        raise ValueError(
            f"need 1 <= min_tasks <= max_tasks, got [{min_tasks}, {max_tasks}]"
        )
    if cv < 0:
        raise ValueError(f"cv must be non-negative, got {cv}")
    rng = np.random.default_rng(seed)
    clock = 0.0
    job_id = 0
    for size in _chunk_sizes(num_jobs, chunk_size):
        inter_arrivals = rng.exponential(1.0 / arrival_rate, size)
        # Bounded Pareto via inverse-CDF sampling of the unbounded tail,
        # clipped at max_tasks (the standard heavy-tail workload recipe).
        uniforms = rng.random(size)
        sizes = np.minimum(
            max_tasks, np.floor(min_tasks * uniforms ** (-1.0 / alpha))
        ).astype(int)
        mean_factors = rng.uniform(0.5, 1.5, size)
        weights = rng.integers(1, max_weight + 1, size)
        for i in range(size):
            clock += float(inter_arrivals[i])
            total = int(sizes[i])
            reduces = min(total // 4, total - 1)
            job_mean = float(mean_duration * mean_factors[i])
            if cv == 0:
                duration = Deterministic(job_mean)
            else:
                duration = LogNormal(job_mean, cv * job_mean)
            yield _fast_legacy_spec(
                job_id,
                clock,
                float(weights[i]),
                total - reduces,
                reduces,
                duration,
                duration,
            )
            job_id += 1
