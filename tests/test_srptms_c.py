"""Tests for the SRPTMS+C online scheduler (the paper's Algorithm 2)."""

from __future__ import annotations

import pytest

from repro.policies import make_scheduler
from repro.simulation.engine import SimulationEngine
from repro.simulation import run_simulation
from repro.workload.distributions import Deterministic, LogNormal
from repro.workload.generators import bulk_arrival_trace, uniform_trace
from repro.workload.job import JobSpec
from repro.workload.trace import Trace


def single_job_trace(maps=2, reduces=1, mean=10.0, cv=0.0, weight=1.0) -> Trace:
    duration = Deterministic(mean) if cv == 0 else LogNormal(mean, cv * mean)
    return Trace(
        [
            JobSpec(
                job_id=0,
                arrival_time=0.0,
                weight=weight,
                num_map_tasks=maps,
                num_reduce_tasks=reduces,
                map_duration=duration,
                reduce_duration=duration,
            )
        ]
    )


class TestConstruction:
    @pytest.mark.parametrize("epsilon", [0.0, -0.1, 1.5])
    def test_invalid_epsilon(self, epsilon):
        with pytest.raises(ValueError):
            make_scheduler("SRPTMS+C", epsilon=epsilon)

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            make_scheduler("SRPTMS+C", r=-1.0)

    def test_invalid_copy_cap(self):
        with pytest.raises(ValueError):
            make_scheduler("SRPTMS+C", max_copies_per_task=-1)

    def test_name_reflects_cloning_switch(self):
        assert make_scheduler("SRPTMS+C").name == "SRPTMS+C"
        assert make_scheduler("SRPTMS+C", cloning_enabled=False).name == "SRPTMS"


class TestCloningBehaviour:
    def test_single_job_clones_to_fill_its_share(self):
        # One alive job owns the whole cluster; with 8 machines and 3 tasks it
        # should clone tasks so that all 8 machines are used.
        trace = single_job_trace(maps=3, reduces=0)
        engine = SimulationEngine(trace, make_scheduler("SRPTMS+C", epsilon=0.6, r=0.0),
                                  num_machines=8)
        result = engine.run()
        assert result.total_copies == 8
        assert result.cloning_ratio == pytest.approx(8.0 / 3.0)

    def test_cloning_disabled_launches_single_copies(self):
        trace = single_job_trace(maps=3, reduces=0)
        scheduler = make_scheduler("SRPTMS+C", epsilon=0.6, r=0.0, cloning_enabled=False)
        result = run_simulation(trace, scheduler, num_machines=8)
        assert result.total_copies == 3
        assert result.cloning_ratio == pytest.approx(1.0)

    def test_copy_cap_limits_clones(self):
        trace = single_job_trace(maps=2, reduces=0)
        scheduler = make_scheduler("SRPTMS+C", epsilon=0.6, r=0.0, max_copies_per_task=2)
        result = run_simulation(trace, scheduler, num_machines=10)
        assert result.total_copies <= 4

    def test_no_cloning_while_tasks_exceed_allocation(self):
        # 10 deterministic tasks on 4 machines: the first two waves (8 tasks)
        # run as single copies because pending tasks exceed the allocation;
        # only the final 2-task wave is cloned to fill the 4 machines.
        trace = single_job_trace(maps=10, reduces=0)
        engine = SimulationEngine(trace, make_scheduler("SRPTMS+C", epsilon=0.6, r=0.0),
                                  num_machines=4)
        result = engine.run()
        assert result.total_copies == 12
        job = engine._jobs[0]
        early_copies = [copy for task in job.stage_tasks[0] for copy in task.copies
                        if copy.launch_time < 20.0]
        assert len(early_copies) == 8  # one copy per task in the first two waves

    def test_cloning_reduces_flowtime_under_high_variance(self):
        # With heavy within-job variance and spare machines, cloning should
        # beat the no-cloning variant on average.
        trace = uniform_trace(4, tasks_per_job=4, reduce_tasks_per_job=0,
                              mean_duration=20.0, cv=1.0, inter_arrival=0.0)
        with_clones = run_simulation(
            trace, make_scheduler("SRPTMS+C", epsilon=0.6, r=0.0), num_machines=64, seed=3
        )
        without = run_simulation(
            trace,
            make_scheduler("SRPTMS+C", epsilon=0.6, r=0.0, cloning_enabled=False),
            num_machines=64,
            seed=3,
        )
        assert with_clones.mean_flowtime < without.mean_flowtime


class TestSharingBehaviour:
    def test_reduce_waits_for_map_completion_by_default(self):
        trace = single_job_trace(maps=2, reduces=2)
        engine = SimulationEngine(trace, make_scheduler("SRPTMS+C", epsilon=0.6, r=0.0),
                                  num_machines=8)
        engine.run()
        job = engine._jobs[0]
        for task in job.stage_tasks[1]:
            for copy in task.copies:
                assert copy.launch_time >= job.stage_completion_time(0)

    def test_epsilon_small_prioritises_smallest_job(self):
        # With a tiny epsilon only the highest-priority (smallest) job runs.
        trace = bulk_arrival_trace([2, 20], mean_duration=10.0, cv=0.0)
        result = run_simulation(trace, make_scheduler("SRPTMS+C", epsilon=0.05, r=0.0),
                                num_machines=4)
        flowtimes = {record.job_id: record.flowtime for record in result.records}
        assert flowtimes[0] < flowtimes[1]

    def test_epsilon_one_shares_by_weight(self):
        # Two identical jobs, weights 3:1, epsilon=1: the heavy job gets
        # three quarters of the machines and finishes earlier.
        trace = bulk_arrival_trace([8, 8], mean_duration=10.0, cv=0.0,
                                   weights=[3.0, 1.0])
        result = run_simulation(trace, make_scheduler("SRPTMS+C", epsilon=1.0, r=0.0),
                                num_machines=4)
        completion = {record.job_id: record.completion_time
                      for record in result.records}
        assert completion[0] < completion[1]

    def test_non_preemption_lets_running_copies_finish(self):
        # A big job is running everywhere when a tiny job arrives; the tiny
        # job must wait for machines to free up (no preemption), but must be
        # served as soon as one frees.
        big = JobSpec(job_id=0, arrival_time=0.0, weight=1.0, num_map_tasks=4,
                      num_reduce_tasks=0, map_duration=Deterministic(30.0),
                      reduce_duration=Deterministic(30.0))
        small = JobSpec(job_id=1, arrival_time=1.0, weight=1.0, num_map_tasks=1,
                        num_reduce_tasks=0, map_duration=Deterministic(5.0),
                        reduce_duration=Deterministic(5.0))
        trace = Trace([big, small])
        result = run_simulation(trace, make_scheduler("SRPTMS+C", epsilon=0.6, r=0.0),
                                num_machines=4)
        flowtimes = {record.job_id: record.flowtime for record in result.records}
        # The small job waits for the big job's 30 s tasks, then runs 5 s.
        assert flowtimes[1] == pytest.approx(34.0)
        assert result.over_requests == 0

    def test_never_over_requests(self, small_online_trace):
        result = run_simulation(small_online_trace,
                                make_scheduler("SRPTMS+C", epsilon=0.6, r=3.0),
                                num_machines=16, seed=2)
        assert result.over_requests == 0

    def test_all_jobs_complete_under_scarce_machines(self, small_online_trace):
        result = run_simulation(small_online_trace,
                                make_scheduler("SRPTMS+C", epsilon=0.6, r=3.0),
                                num_machines=4, seed=2)
        assert result.num_jobs == small_online_trace.num_jobs

    def test_park_reduce_option(self):
        # Job 0 has a long map task; when job 1 arrives at t=5 a scheduling
        # decision happens while job 0's map is still running, so with the
        # park option its reduce task is placed early (and waits), whereas by
        # default it is only launched after the map phase completes.
        long_map = JobSpec(job_id=0, arrival_time=0.0, weight=1.0,
                           num_map_tasks=1, num_reduce_tasks=1,
                           map_duration=Deterministic(30.0),
                           reduce_duration=Deterministic(10.0))
        other = JobSpec(job_id=1, arrival_time=5.0, weight=1.0, num_map_tasks=1,
                        num_reduce_tasks=0, map_duration=Deterministic(5.0),
                        reduce_duration=Deterministic(5.0))
        trace = Trace([long_map, other])

        def reduce_launch_time(park: bool) -> float:
            scheduler = make_scheduler("SRPTMS+C",
                epsilon=1.0, r=0.0, cloning_enabled=False,
                schedule_reduce_before_map_completion=park,
            )
            engine = SimulationEngine(trace, scheduler, num_machines=3)
            engine.run()
            job = engine._jobs[0]
            return min(copy.launch_time for copy in job.stage_tasks[1][0].copies)

        assert reduce_launch_time(park=True) < 30.0
        assert reduce_launch_time(park=False) >= 30.0


class TestComparisonAgainstSimplePolicies:
    def test_beats_fifo_on_weighted_flowtime(self):
        # Small weighted jobs arriving behind a huge job: SRPTMS+C should
        # easily beat FIFO on the weighted metric.
        from repro.workload.generators import bimodal_trace

        trace = bimodal_trace(12, 2, small_tasks=2, large_tasks=60,
                              small_duration=5.0, large_duration=60.0,
                              cv=0.3, horizon=50.0, seed=5)
        srpt = run_simulation(trace, make_scheduler("SRPTMS+C", epsilon=0.6, r=1.0),
                              num_machines=20, seed=0)
        fifo = run_simulation(trace, make_scheduler("FIFO"), num_machines=20, seed=0)
        assert srpt.mean_flowtime < fifo.mean_flowtime
