"""Tests for the parallel experiment runner.

The load-bearing guarantee: ``ExperimentRunner(workers=N)`` produces
*byte-identical* results to ``workers=1`` for the same seed list, for every
scheduling policy in the repository.  Equality is checked through
:meth:`SimulationResult.fingerprint`, which hashes every per-job record and
counter (wall-clock runtime excluded).
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.policies import make_scheduler
from repro.simulation.experiment_runner import (
    ExperimentRunner,
    RunSpec,
    SchedulerSpec,
    TraceSpec,
    default_workers,
)
from repro.simulation import run_simulation
from repro.workload.generators import poisson_trace

#: One spec per scheduling policy shipped with the repository.
ALL_SCHEDULER_SPECS = [
    SchedulerSpec("SRPTMS+C", {"epsilon": 0.6, "r": 3.0}),
    SchedulerSpec("SCA"),
    SchedulerSpec("Mantri"),
    SchedulerSpec("LATE"),
    SchedulerSpec("SRPT", {"r": 3.0}),
    SchedulerSpec("Fair"),
    SchedulerSpec("FIFO"),
]

SEEDS = (0, 1, 2, 3)


def _specs_for(scheduler_spec, trace, num_machines=8):
    base = RunSpec(trace=trace, scheduler=scheduler_spec, num_machines=num_machines)
    return [base.with_seed(seed) for seed in SEEDS]


class TestParallelSerialEquivalence:
    """workers=4 must be bit-identical to workers=1 for every scheduler."""

    @pytest.mark.parametrize(
        "scheduler_spec",
        ALL_SCHEDULER_SPECS,
        ids=lambda s: s.name,
    )
    def test_workers4_matches_workers1(self, scheduler_spec, small_online_trace):
        specs = _specs_for(scheduler_spec, small_online_trace)
        serial = ExperimentRunner(workers=1).run(specs)
        parallel = ExperimentRunner(workers=4).run(specs)
        assert [r.canonical_dict() for r in serial] == [
            r.canonical_dict() for r in parallel
        ]
        assert [r.fingerprint() for r in serial] == [
            r.fingerprint() for r in parallel
        ]

    def test_trace_spec_source_matches_inline_trace(self, small_online_trace):
        """A TraceSpec rebuilt in the worker yields the same results as the
        equivalent pre-built Trace shipped by pickle."""
        trace_spec = TraceSpec(
            factory=poisson_trace,
            kwargs={
                "num_jobs": 25,
                "arrival_rate": 0.5,
                "mean_tasks_per_job": 6,
                "mean_duration": 8.0,
                "cv": 0.5,
                "seed": 7,
            },
        )
        scheduler = SchedulerSpec("SRPTMS+C", {"epsilon": 0.6, "r": 3.0})
        inline = ExperimentRunner(workers=2).run(
            _specs_for(scheduler, small_online_trace)
        )
        rebuilt = ExperimentRunner(workers=2).run(_specs_for(scheduler, trace_spec))
        assert [r.fingerprint() for r in inline] == [
            r.fingerprint() for r in rebuilt
        ]

    def test_matches_legacy_direct_simulation(self, small_online_trace):
        """RunSpec.execute reproduces run_simulation exactly."""
        spec = RunSpec(
            trace=small_online_trace,
            scheduler=SchedulerSpec("FIFO"),
            num_machines=8,
            seed=5,
        )
        direct = run_simulation(small_online_trace, make_scheduler("FIFO"), 8, seed=5)
        assert spec.execute().fingerprint() == direct.fingerprint()


class TestRunnerMechanics:
    def test_results_keep_spec_order(self, small_online_trace):
        scheduler = SchedulerSpec("FIFO")
        specs = _specs_for(scheduler, small_online_trace)
        results = ExperimentRunner(workers=2).run(specs)
        assert [r.seed for r in results] == list(SEEDS)

    def test_empty_spec_list(self):
        assert ExperimentRunner(workers=2).run([]) == []

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            ExperimentRunner(workers=-1)
        with pytest.raises(ValueError):
            ExperimentRunner(workers=2, chunksize=0)
        # 0 (the CLI spelling) and None both mean "all usable CPUs".
        assert ExperimentRunner(workers=0).workers == default_workers()
        assert ExperimentRunner(workers=None).workers == default_workers()
        assert default_workers() >= 1

    def test_run_spec_validation(self, small_online_trace):
        with pytest.raises(ValueError):
            RunSpec(
                trace=small_online_trace,
                scheduler=SchedulerSpec("FIFO"),
                num_machines=0,
            )
        with pytest.raises(TypeError):
            RunSpec(trace=small_online_trace, scheduler="FIFO", num_machines=4)


class TestBatchedDispatch:
    def test_pool_dispatch_is_batched_and_accounted(self, small_online_trace):
        specs = _specs_for(SchedulerSpec("FIFO"), small_online_trace)
        runner = ExperimentRunner(workers=2, chunksize=2)
        pooled = runner.run(specs)
        stats = runner.last_dispatch_stats
        assert stats["batches"] == len(specs) // 2
        assert stats["batch_size"] == 2
        assert sum(stats["per_worker"].values()) == len(specs) // 2
        serial = ExperimentRunner(workers=1).run(specs)
        for a, b in zip(pooled, serial):
            assert a.fingerprint() == b.fingerprint()

    def test_serial_dispatch_records_one_in_process_batch(
        self, small_online_trace
    ):
        runner = ExperimentRunner(workers=1)
        runner.run(_specs_for(SchedulerSpec("FIFO"), small_online_trace)[:1])
        stats = runner.last_dispatch_stats
        assert stats["batches"] == 1
        assert stats["per_worker"] == {os.getpid(): 1}


class TestSpecPicklability:
    def test_scheduler_spec_roundtrip(self):
        spec = SchedulerSpec("SRPTMS+C", {"epsilon": 0.6, "r": 3.0})
        clone = pickle.loads(pickle.dumps(spec))
        scheduler = clone.build()
        assert scheduler.name == "SRPTMS+C"
        assert scheduler.allocation.epsilon == 0.6
        assert scheduler.ordering.r == 3.0

    @pytest.mark.parametrize("name", ["srptms+c", "SRPTMS-C", "srpt+greedy", dict])
    def test_scheduler_spec_rejects_unknown_name_listing_the_valid_ones(self, name):
        with pytest.raises(ValueError, match="known schedulers: FIFO, Fair, LATE, Mantri, "
                                             "Offline, SCA, SRPT, SRPTMS\\+C, or a policy"):
            SchedulerSpec(name)

    def test_run_spec_roundtrip(self, small_online_trace):
        spec = RunSpec(
            trace=small_online_trace,
            scheduler=SchedulerSpec("SCA"),
            num_machines=8,
            seed=3,
            tag="sca",
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.execute().fingerprint() == spec.execute().fingerprint()

    def test_trace_spec_build_and_cache_key(self):
        spec = TraceSpec(
            factory=poisson_trace,
            kwargs={
                "num_jobs": 5,
                "arrival_rate": 1.0,
                "mean_tasks_per_job": 3,
                "mean_duration": 5.0,
                "cv": 0.0,
                "seed": 1,
            },
        )
        trace = spec.build()
        assert trace.num_jobs == 5
        assert spec.cache_key() == pickle.loads(pickle.dumps(spec)).cache_key()

    def test_trace_spec_rejects_non_trace_factory(self):
        spec = TraceSpec(factory=dict, kwargs={})
        with pytest.raises(TypeError):
            spec.build()


class TestOnResultCallback:
    """Streaming-progress hook: on_result(spec, result, cache_hit)."""

    def test_serial_callback_sees_every_spec_once(self, small_online_trace):
        specs = _specs_for(SchedulerSpec("FIFO"), small_online_trace)
        events = []
        runner = ExperimentRunner(workers=1)
        results = runner.run(
            specs, on_result=lambda s, r, hit: events.append((s, r, hit))
        )
        assert [s for s, _, _ in events] == specs
        assert [r for _, r, _ in events] == results
        assert all(hit is False for _, _, hit in events)

    def test_pooled_callback_fires_in_parent_for_every_spec(
        self, small_online_trace
    ):
        specs = _specs_for(SchedulerSpec("FIFO"), small_online_trace)
        seen = []
        runner = ExperimentRunner(workers=2)
        results = runner.run(specs, on_result=lambda s, r, hit: seen.append((s, r)))
        # Batches complete in any order, but every spec is reported exactly
        # once, with its own result object, from the parent process.
        assert sorted(id(s) for s, _ in seen) == sorted(id(s) for s in specs)
        by_spec = {id(s): r for s, r in seen}
        for spec, result in zip(specs, results):
            assert by_spec[id(spec)] is result

    def test_cache_hits_are_flagged(self, small_online_trace, tmp_path):
        specs = _specs_for(SchedulerSpec("FIFO"), small_online_trace)
        runner = ExperimentRunner(workers=1, cache_dir=tmp_path)
        cold = []
        runner.run(specs, on_result=lambda s, r, hit: cold.append(hit))
        assert cold == [False] * len(specs)
        assert runner.last_dispatch_stats["cache_hits"] == 0
        warm = []
        runner.run(specs, on_result=lambda s, r, hit: warm.append(hit))
        assert warm == [True] * len(specs)
        assert runner.last_dispatch_stats["cache_hits"] == len(specs)

    def test_mixed_hits_report_hits_before_executions(
        self, small_online_trace, tmp_path
    ):
        specs = _specs_for(SchedulerSpec("FIFO"), small_online_trace)
        runner = ExperimentRunner(workers=1, cache_dir=tmp_path)
        runner.run(specs[:2])
        events = []
        runner.run(specs, on_result=lambda s, r, hit: events.append((s.seed, hit)))
        assert events[:2] == [(specs[0].seed, True), (specs[1].seed, True)]
        assert sorted(events[2:]) == [(specs[2].seed, False), (specs[3].seed, False)]
        assert runner.last_dispatch_stats["cache_hits"] == 2

    def test_constructor_callback_and_per_run_override(self, small_online_trace):
        specs = _specs_for(SchedulerSpec("FIFO"), small_online_trace)[:1]
        default_events, override_events = [], []
        runner = ExperimentRunner(
            workers=1,
            on_result=lambda s, r, hit: default_events.append(s),
        )
        runner.run(specs)
        assert default_events == specs
        runner.run(specs, on_result=lambda s, r, hit: override_events.append(s))
        assert override_events == specs
        assert default_events == specs  # the override replaced, not stacked

    def test_result_is_persisted_before_the_callback_observes_it(
        self, small_online_trace, tmp_path
    ):
        """Resume contract: once a consumer saw a result, a restarted sweep
        finds it in the cache."""
        from repro.simulation.results_store import run_spec_fingerprint

        specs = _specs_for(SchedulerSpec("FIFO"), small_online_trace)[:2]
        runner = ExperimentRunner(workers=1, cache_dir=tmp_path)
        cached_at_callback = []

        def probe(spec, result, cache_hit):
            entry = runner.store.load(run_spec_fingerprint(spec))
            cached_at_callback.append(
                entry is not None and entry.fingerprint() == result.fingerprint()
            )

        runner.run(specs, on_result=probe)
        assert cached_at_callback == [True, True]


class TestWorkerSidePersistence:
    """Pooled runs persist results inside the workers, not the parent."""

    def test_pool_persists_worker_side_and_resumes_warm(
        self, small_online_trace, tmp_path
    ):
        specs = _specs_for(SchedulerSpec("FIFO"), small_online_trace)
        runner = ExperimentRunner(workers=2, cache_dir=tmp_path)
        cold = runner.run(specs)
        assert runner.last_run_stats["executed"] == len(specs)
        # Persistence happened inside the pool workers: the parent-side
        # store object never wrote an entry...
        assert runner.store.writes == 0
        # ...yet every spec landed on disk, so a fresh runner resumes
        # entirely from cache with bit-identical results.
        resumed = ExperimentRunner(workers=2, cache_dir=tmp_path)
        warm = resumed.run(specs)
        assert resumed.last_run_stats == {
            "executed": 0,
            "cache_hits": len(specs),
            "uncacheable": 0,
        }
        assert [r.fingerprint() for r in warm] == [
            r.fingerprint() for r in cold
        ]

    def test_serial_path_keeps_parent_side_writes(
        self, small_online_trace, tmp_path
    ):
        specs = _specs_for(SchedulerSpec("FIFO"), small_online_trace)
        runner = ExperimentRunner(workers=1, cache_dir=tmp_path)
        runner.run(specs)
        # No pool, no delegation: the parent store wrote every entry
        # (preserving the persist-before-observe callback ordering).
        assert runner.store.writes == len(specs)
