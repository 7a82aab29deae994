"""Tests for the baseline schedulers: FIFO, Fair, SRPT, Mantri, LATE, SCA."""

from __future__ import annotations

import pytest

from repro.schedulers import (
    FIFOScheduler,
    FairScheduler,
    LATEScheduler,
    MantriScheduler,
    SCAScheduler,
    SRPTScheduler,
)
from repro.core.speedup import ParetoSpeedup
from repro.policies.speculation import SpeculationEstimator
from repro.scenarios import BimodalSpeeds, ScenarioSpec
from repro.simulation import run_simulation
from repro.workload.distributions import Deterministic, LogNormal
from repro.workload.generators import bulk_arrival_trace
from repro.workload.job import JobSpec, Phase
from repro.workload.trace import Trace


ALL_BASELINES = [
    FIFOScheduler,
    FairScheduler,
    SRPTScheduler,
    MantriScheduler,
    LATEScheduler,
    SCAScheduler,
]


class TestAllBaselinesComplete:
    @pytest.mark.parametrize("scheduler_cls", ALL_BASELINES,
                             ids=lambda cls: cls.__name__)
    def test_completes_online_trace(self, scheduler_cls, small_online_trace):
        result = run_simulation(small_online_trace, scheduler_cls(),
                                num_machines=12, seed=0)
        assert result.num_jobs == small_online_trace.num_jobs
        assert result.over_requests == 0
        assert result.mean_flowtime > 0

    @pytest.mark.parametrize("scheduler_cls", ALL_BASELINES,
                             ids=lambda cls: cls.__name__)
    def test_completes_under_scarce_machines(self, scheduler_cls,
                                              small_online_trace):
        result = run_simulation(small_online_trace, scheduler_cls(),
                                num_machines=3, seed=0)
        assert result.num_jobs == small_online_trace.num_jobs


class TestFIFO:
    def test_serves_jobs_in_arrival_order(self):
        early = JobSpec(job_id=0, arrival_time=0.0, weight=1.0, num_map_tasks=4,
                        num_reduce_tasks=0, map_duration=Deterministic(10.0),
                        reduce_duration=Deterministic(10.0))
        late = JobSpec(job_id=1, arrival_time=1.0, weight=100.0, num_map_tasks=1,
                       num_reduce_tasks=0, map_duration=Deterministic(1.0),
                       reduce_duration=Deterministic(1.0))
        result = run_simulation(Trace([early, late]), FIFOScheduler(),
                                num_machines=4)
        completion = {r.job_id: r.completion_time for r in result.records}
        # All machines go to job 0 first; job 1 runs only after one frees up.
        assert completion[1] == pytest.approx(11.0)

    def test_no_cloning(self, small_online_trace):
        result = run_simulation(small_online_trace, FIFOScheduler(),
                                num_machines=30, seed=0)
        assert result.cloning_ratio == pytest.approx(1.0)


class TestFair:
    def test_splits_machines_between_equal_jobs(self):
        trace = bulk_arrival_trace([8, 8], mean_duration=10.0, cv=0.0)
        result = run_simulation(trace, FairScheduler(), num_machines=4)
        flowtimes = [r.flowtime for r in result.records]
        # Each job gets 2 machines -> 8 tasks / 2 machines * 10 s = 40 s each
        # for the map part; with the reduce tasks both finish at the same time.
        assert flowtimes[0] == pytest.approx(flowtimes[1], rel=0.05)

    def test_weight_proportional_shares(self):
        trace = bulk_arrival_trace([9, 9], mean_duration=10.0, cv=0.0,
                                   weights=[2.0, 1.0], reduce_fraction=0.0)
        result = run_simulation(trace, FairScheduler(), num_machines=3)
        completion = {r.job_id: r.completion_time for r in result.records}
        # Job 0 holds ~2 machines, job 1 ~1 machine: job 0 finishes earlier.
        assert completion[0] < completion[1]


class TestSRPT:
    def test_prioritises_short_jobs(self):
        trace = bulk_arrival_trace([2, 30], mean_duration=10.0, cv=0.0)
        result = run_simulation(trace, SRPTScheduler(), num_machines=4)
        flowtimes = {r.job_id: r.flowtime for r in result.records}
        assert flowtimes[0] < flowtimes[1]

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            SRPTScheduler(r=-2.0)


class TestSpeculationEstimator:
    def test_remaining_time_extrapolates_progress(self):
        from repro.simulation.engine import SimulationEngine
        from repro.core.srptms_c import SRPTMSCScheduler

        estimator = SpeculationEstimator(min_progress=0.05, min_elapsed=0.0,
                                         min_samples=1)
        # Build a view via a tiny engine so copy_progress works end to end.
        spec = JobSpec(job_id=0, arrival_time=0.0, weight=1.0, num_map_tasks=1,
                       num_reduce_tasks=0, map_duration=Deterministic(10.0),
                       reduce_duration=Deterministic(10.0))
        engine = SimulationEngine(Trace([spec]),
                                  SRPTMSCScheduler(cloning_enabled=False),
                                  num_machines=1)
        engine.run()
        # After the run the copy is finished; remaining time is None.
        copy = engine._jobs[0].map_tasks[0].copies[0]
        view = engine._view
        assert estimator.remaining_time(view, copy) is None

    def test_straggler_probability_requires_samples(self):
        estimator = SpeculationEstimator(min_samples=3)
        assert estimator.new_copy_estimate.__doc__  # sanity: API present
        # With no recorded samples the estimate must be None.
        spec = JobSpec(job_id=0, arrival_time=0.0, weight=1.0, num_map_tasks=1,
                       num_reduce_tasks=0, map_duration=Deterministic(10.0),
                       reduce_duration=Deterministic(10.0))
        from repro.workload.job import Job

        job = Job.from_spec(spec)
        assert estimator.new_copy_estimate(job, Phase.MAP) is None
        assert estimator.recorded_durations(job, Phase.MAP) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            SpeculationEstimator(min_progress=0.0)
        with pytest.raises(ValueError):
            SpeculationEstimator(min_elapsed=-1.0)
        with pytest.raises(ValueError):
            SpeculationEstimator(min_samples=0)


class TestMantri:
    def test_validation(self):
        with pytest.raises(ValueError):
            MantriScheduler(delta=0.0)
        with pytest.raises(ValueError):
            MantriScheduler(delta=1.0)
        with pytest.raises(ValueError):
            MantriScheduler(max_copies_per_task=1)

    def test_speculates_on_engineered_straggler(self):
        # A job with many identical short tasks plus one enormous outlier: the
        # outlier should trigger Mantri's duplicate rule once enough short
        # copies have finished.
        short = LogNormal(10.0, 1.0)
        jobs = [
            JobSpec(job_id=0, arrival_time=0.0, weight=1.0, num_map_tasks=30,
                    num_reduce_tasks=0, map_duration=short,
                    reduce_duration=short),
        ]
        scheduler = MantriScheduler(delta=0.25, tick_interval=2.0, min_samples=3)
        result = run_simulation(
            Trace(jobs),
            scheduler,
            num_machines=8,
            seed=1,
            scenario=ScenarioSpec(
                speeds=BimodalSpeeds(slow_fraction=0.25, slow_speed=0.05)
            ),
        )
        assert result.num_jobs == 1
        assert scheduler.speculative_copies_launched > 0
        assert result.total_copies > 30

    def test_does_not_speculate_without_variance(self):
        trace = bulk_arrival_trace([10], mean_duration=10.0, cv=0.0)
        scheduler = MantriScheduler(tick_interval=1.0)
        result = run_simulation(trace, scheduler, num_machines=20, seed=0)
        assert scheduler.speculative_copies_launched == 0
        assert result.cloning_ratio == pytest.approx(1.0)


class TestLATE:
    def test_validation(self):
        with pytest.raises(ValueError):
            LATEScheduler(slow_task_percentile=0.0)
        with pytest.raises(ValueError):
            LATEScheduler(speculative_cap=0.0)

    def test_speculative_cap_limits_duplicates(self):
        short = LogNormal(10.0, 3.0)
        jobs = [JobSpec(job_id=0, arrival_time=0.0, weight=1.0, num_map_tasks=40,
                        num_reduce_tasks=0, map_duration=short,
                        reduce_duration=short)]
        scheduler = LATEScheduler(speculative_cap=0.1, tick_interval=2.0)
        result = run_simulation(Trace(jobs), scheduler, num_machines=10, seed=0)
        # At most 10% of 10 machines = 1 speculative copy per decision point;
        # the total stays well below the task count.
        assert result.total_copies < 60


class TestSCA:
    def test_validation(self):
        with pytest.raises(ValueError):
            SCAScheduler(max_copies_per_task=0)

    def test_clones_with_spare_machines(self):
        trace = bulk_arrival_trace([4], mean_duration=10.0, cv=0.3)
        result = run_simulation(trace, SCAScheduler(), num_machines=12, seed=0)
        assert result.cloning_ratio > 1.0

    def test_copy_cap_respected(self):
        trace = bulk_arrival_trace([2], mean_duration=10.0, cv=0.3)
        result = run_simulation(trace, SCAScheduler(max_copies_per_task=3),
                                num_machines=50, seed=0)
        assert result.total_copies <= 2 * 3

    def test_no_cloning_under_contention(self):
        trace = bulk_arrival_trace([40], mean_duration=10.0, cv=0.3)
        result = run_simulation(trace, SCAScheduler(), num_machines=5, seed=0)
        assert result.cloning_ratio == pytest.approx(1.0, abs=0.2)

    def test_custom_speedup_function(self):
        trace = bulk_arrival_trace([4], mean_duration=10.0, cv=0.3)
        scheduler = SCAScheduler(speedup=ParetoSpeedup(alpha=3.0))
        result = run_simulation(trace, scheduler, num_machines=12, seed=0)
        assert result.num_jobs == 1

    def test_prefers_cloning_small_jobs(self):
        # A tiny job and a big job share the cluster; the marginal-gain rule
        # divides by the phase size, so the tiny job's tasks get more clones.
        small = JobSpec(job_id=0, arrival_time=0.0, weight=1.0, num_map_tasks=2,
                        num_reduce_tasks=0, map_duration=LogNormal(10.0, 3.0),
                        reduce_duration=LogNormal(10.0, 3.0))
        big = JobSpec(job_id=1, arrival_time=0.0, weight=1.0, num_map_tasks=20,
                      num_reduce_tasks=0, map_duration=LogNormal(10.0, 3.0),
                      reduce_duration=LogNormal(10.0, 3.0))
        from repro.simulation.engine import SimulationEngine

        engine = SimulationEngine(Trace([small, big]), SCAScheduler(),
                                  num_machines=30, seed=0)
        engine.run()
        small_copies = engine._jobs[0].total_copies_launched()
        big_copies = engine._jobs[1].total_copies_launched()
        assert small_copies / 2 >= big_copies / 20
