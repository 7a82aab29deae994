"""Tests for the streaming workload layer and the engine's lazy arrival path."""

from __future__ import annotations

import math

import pytest

from repro.policies.gating import launchable_tasks
from repro.policies import make_scheduler
from repro.simulation import ExperimentRunner, RunSpec, SchedulerSpec
from repro.simulation.engine import SimulationEngine, SimulationError
from repro.simulation import run_simulation
from repro.simulation.scheduler_api import ComposedScheduler, LaunchRequest, Scheduler
from repro.workload.distributions import Deterministic
from repro.workload.job import JobSpec
from repro.workload.stream import (
    StreamSpec,
    TraceStream,
    stream_dag_chain_jobs,
    stream_dag_diamond_jobs,
    stream_heavy_tail_jobs,
    stream_poisson_jobs,
    stream_uniform_jobs,
)
from repro.workload.trace import Trace


def content_key(spec: JobSpec) -> tuple:
    """Value-level identity of a job spec (distributions compare by moments)."""
    return (
        spec.job_id, spec.arrival_time, spec.weight,
        spec.num_map_tasks, spec.num_reduce_tasks,
        spec.map_duration.mean, spec.map_duration.std,
        spec.reduce_duration.mean, spec.reduce_duration.std,
    )


def poisson_spec(num_jobs=120, seed=3, chunk_size=16, **overrides) -> StreamSpec:
    kwargs = {"arrival_rate": 1.0, "seed": seed, "chunk_size": chunk_size}
    kwargs.update(overrides)
    return StreamSpec(
        factory=stream_poisson_jobs, num_jobs=num_jobs, kwargs=kwargs,
        name=f"poisson-{num_jobs}",
    )


class TestStreamSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamSpec(factory=stream_poisson_jobs, num_jobs=0)
        with pytest.raises(TypeError):
            StreamSpec(factory="not-callable", num_jobs=5)

    def test_build_returns_fresh_stream(self):
        spec = poisson_spec(num_jobs=10)
        a, b = spec.build(), spec.build()
        assert isinstance(a, TraceStream) and a is not b
        assert a.num_jobs == 10
        assert a.total_tasks is None

    def test_cache_key_reflects_arguments(self):
        assert poisson_spec(seed=1).cache_key() != poisson_spec(seed=2).cache_key()


#: Every float knob of every stream factory.
FLOAT_KNOBS = [
    (stream_uniform_jobs, knob) for knob in ("mean_duration", "inter_arrival", "weight")
] + [
    (factory, knob)
    for factory, tasks in (
        (stream_poisson_jobs, "mean_tasks_per_job"),
        (stream_dag_chain_jobs, "mean_tasks_per_round"),
        (stream_dag_diamond_jobs, "mean_tasks_per_branch"),
        (stream_heavy_tail_jobs, "alpha"),
    )
    for knob in ("arrival_rate", tasks, "mean_duration", "cv")
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "factory, knob", FLOAT_KNOBS, ids=[f"{f.__name__}-{k}" for f, k in FLOAT_KNOBS]
)
def test_factories_reject_non_finite_float_knobs(factory, knob, value):
    # NaN durations or rates used to run to completion with NaN flowtimes,
    # and an infinite arrival rate ran a different workload without a word.
    with pytest.raises(ValueError, match=f"^{knob} must be"):
        next(iter(factory(4, **{knob: value})))


class TestTraceStream:
    def test_yields_declared_count_in_arrival_order(self):
        stream = poisson_spec(num_jobs=50).build()
        specs = list(stream)
        assert len(specs) == 50
        assert stream.yielded == 50
        arrivals = [spec.arrival_time for spec in specs]
        assert arrivals == sorted(arrivals)
        assert [spec.job_id for spec in specs] == list(range(50))

    def test_streams_are_one_shot(self):
        stream = poisson_spec(num_jobs=5).build()
        list(stream)
        with pytest.raises(RuntimeError, match="already consumed"):
            iter(stream)

    def test_same_spec_yields_identical_jobs(self):
        spec = poisson_spec(num_jobs=40)
        assert list(map(content_key, spec.build())) == list(
            map(content_key, spec.build())
        )

    def test_chunk_size_is_part_of_the_stream_identity(self):
        """Chunked sampling consumes RNG state per chunk, so ``chunk_size``
        participates in the stream's identity (and in its cache key) --
        different chunkings are distinct, internally consistent streams."""
        fine = poisson_spec(num_jobs=40, chunk_size=7)
        coarse = poisson_spec(num_jobs=40, chunk_size=4096)
        fine_jobs = list(fine.build())
        coarse_jobs = list(coarse.build())
        assert len(fine_jobs) == len(coarse_jobs) == 40
        arrivals = [spec.arrival_time for spec in fine_jobs]
        assert arrivals == sorted(arrivals)
        assert fine.cache_key() != coarse.cache_key()
        # Same chunking replays identically.
        assert list(map(content_key, fine.build())) == list(
            map(content_key, poisson_spec(num_jobs=40, chunk_size=7).build())
        )

    def test_uniform_stream_is_deterministic_and_spaced(self):
        spec = StreamSpec(
            factory=stream_uniform_jobs, num_jobs=6,
            kwargs={"tasks_per_job": 2, "reduce_tasks_per_job": 1,
                    "mean_duration": 5.0, "inter_arrival": 2.0},
        )
        specs = list(spec.build())
        assert [s.arrival_time for s in specs] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        assert all(s.num_map_tasks == 2 and s.num_reduce_tasks == 1 for s in specs)

    def test_heavy_tail_stream_produces_a_tail(self):
        spec = StreamSpec(
            factory=stream_heavy_tail_jobs, num_jobs=400,
            kwargs={"alpha": 1.1, "min_tasks": 1, "max_tasks": 500, "seed": 0},
        )
        sizes = [s.total_tasks for s in spec.build()]
        assert min(sizes) >= 1 and max(sizes) > 20 * sorted(sizes)[len(sizes) // 2]


class TestEngineStreaming:
    def test_stream_run_matches_materialised_run(self):
        """The tentpole equivalence: lazy arrivals == up-front arrivals."""
        spec = poisson_spec(num_jobs=150)
        trace = Trace(list(spec.build()), name="materialised")
        for scheduler_factory in (
            lambda: make_scheduler("SRPTMS+C", epsilon=0.6, r=3.0),
            lambda: make_scheduler("FIFO"),
        ):
            streamed = run_simulation(spec.build(), scheduler_factory(), 24, seed=9)
            materialised = run_simulation(trace, scheduler_factory(), 24, seed=9)
            assert streamed.fingerprint() == materialised.fingerprint()

    def test_total_tasks_accumulated_for_streams(self):
        spec = poisson_spec(num_jobs=30)
        trace = Trace(list(spec.build()), name="materialised")
        result = run_simulation(spec.build(), make_scheduler("FIFO"), 16, seed=1)
        assert result.total_tasks == trace.total_tasks

    def test_engine_does_not_retain_stream_jobs(self):
        """Bounded memory: finished jobs of a stream are dropped."""
        engine = SimulationEngine(
            poisson_spec(num_jobs=60).build(), make_scheduler("FIFO"), 16, seed=2
        )
        result = engine.run()
        assert result.num_jobs == 60
        assert engine._jobs == []
        assert engine._alive == {}

    def test_alive_set_stays_small_while_streaming(self):
        """The engine's working set tracks *alive* jobs, not trace size."""
        peak = {"alive": 0}

        class SpyScheduler(ComposedScheduler):
            def schedule(self, view):
                peak["alive"] = max(peak["alive"], view.num_alive_jobs)
                return super().schedule(view)

        num_jobs = 2000
        spec = StreamSpec(
            factory=stream_uniform_jobs, num_jobs=num_jobs,
            kwargs={"tasks_per_job": 1, "reduce_tasks_per_job": 0,
                    "mean_duration": 10.0, "inter_arrival": 1.0},
        )
        result = run_simulation(spec.build(), SpyScheduler("fifo", "greedy", "none"), 16, seed=0)
        assert result.num_jobs == num_jobs
        # Offered load ~0.6 on 16 machines: the alive set is a tiny, trace-
        # size-independent fraction of the 2000 streamed jobs.
        assert 0 < peak["alive"] < 100

    def test_trace_runs_still_retain_jobs_for_inspection(self):
        trace = Trace(list(poisson_spec(num_jobs=12).build()))
        engine = SimulationEngine(trace, make_scheduler("FIFO"), 8, seed=0)
        engine.run()
        assert len(engine._jobs) == 12
        assert all(job.is_complete for job in engine._jobs)

    def test_under_delivering_stream_raises(self):
        spec = StreamSpec(
            factory=stream_uniform_jobs, num_jobs=10,
            kwargs={"tasks_per_job": 1, "mean_duration": 1.0},
        )
        lying = StreamSpec(
            factory=stream_uniform_jobs, num_jobs=10,
            kwargs={"tasks_per_job": 1, "mean_duration": 1.0},
        )
        stream = lying.build()
        # Truncate the underlying iterator by consuming through a wrapper.
        truncated = iter(list(stream)[:4])

        class Truncated:
            name = "truncated"
            num_jobs = 10
            total_tasks = None

            def __iter__(self):
                return truncated

        with pytest.raises(SimulationError, match="yielded 4 of its declared 10"):
            SimulationEngine(Truncated(), make_scheduler("FIFO"), 4).run()
        del spec

    def test_duplicate_job_id_stream_raises(self):
        duration = Deterministic(5.0)

        class Duplicated:
            name = "duplicated"
            num_jobs = 2
            total_tasks = None

            def __iter__(self):
                spec = JobSpec(job_id=0, arrival_time=0.0, weight=1.0,
                               num_map_tasks=1, num_reduce_tasks=0,
                               map_duration=duration, reduce_duration=duration)
                return iter([spec, spec])

        with pytest.raises(SimulationError, match="duplicate job_id"):
            SimulationEngine(Duplicated(), make_scheduler("FIFO"), 4).run()

    def test_out_of_order_stream_raises(self):
        duration = Deterministic(5.0)

        class Unsorted:
            name = "unsorted"
            num_jobs = 2
            total_tasks = None

            def __iter__(self):
                return iter(
                    [
                        JobSpec(job_id=0, arrival_time=5.0, weight=1.0,
                                num_map_tasks=1, num_reduce_tasks=0,
                                map_duration=duration, reduce_duration=duration),
                        JobSpec(job_id=1, arrival_time=1.0, weight=1.0,
                                num_map_tasks=1, num_reduce_tasks=0,
                                map_duration=duration, reduce_duration=duration),
                    ]
                )

        with pytest.raises(SimulationError, match="out of order"):
            SimulationEngine(Unsorted(), make_scheduler("FIFO"), 4).run()

    def test_simultaneous_stream_arrivals_share_a_batch(self):
        """Lookahead pumping must not split same-instant arrivals."""
        decision_times = []

        class RecordingScheduler(Scheduler):
            name = "recording"

            def schedule(self, view):
                decision_times.append((view.time, view.num_alive_jobs))
                requests = []
                free = view.num_free_machines
                for job in view.alive_jobs:
                    for task in launchable_tasks(job, allow_early_reduce=True):
                        if free <= 0:
                            return requests
                        requests.append(LaunchRequest(task=task, num_copies=1))
                        free -= 1
                return requests

        spec = StreamSpec(
            factory=stream_uniform_jobs, num_jobs=4,
            kwargs={"tasks_per_job": 1, "reduce_tasks_per_job": 0,
                    "mean_duration": 3.0, "inter_arrival": 0.0},
        )
        run_simulation(spec.build(), RecordingScheduler(), 8, seed=0)
        # All four arrivals fire at t=0 in ONE batch: the first scheduler
        # consultation already sees all four alive jobs.
        assert decision_times[0] == (0.0, 4)


class TestRunnerStreaming:
    def test_run_spec_rejects_consumed_stream_instances(self):
        with pytest.raises(TypeError, match="StreamSpec"):
            RunSpec(
                trace=poisson_spec(num_jobs=5).build(),
                scheduler=SchedulerSpec("FIFO"),
                num_machines=4,
            )

    def test_replications_rebuild_the_stream_per_run(self):
        spec = poisson_spec(num_jobs=60)
        runner = ExperimentRunner(workers=1)
        base = RunSpec(
            trace=spec, scheduler=SchedulerSpec("FIFO"), num_machines=16
        )
        results = runner.run([base.with_seed(seed) for seed in (0, 1, 0)])
        assert results[0].fingerprint() == results[2].fingerprint()
        assert results[0].fingerprint() != results[1].fingerprint()

    def test_pooled_stream_execution_is_bit_identical_to_serial(self):
        spec = poisson_spec(num_jobs=80)
        base = RunSpec(
            trace=spec,
            scheduler=SchedulerSpec("SRPTMS+C", {"epsilon": 0.6, "r": 3.0}),
            num_machines=16,
        )
        specs = [base.with_seed(seed) for seed in range(4)]
        serial = ExperimentRunner(workers=1).run(specs)
        pooled = ExperimentRunner(workers=2).run(specs)
        assert [r.fingerprint() for r in serial] == [
            r.fingerprint() for r in pooled
        ]
