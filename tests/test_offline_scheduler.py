"""Tests for the paper's offline Algorithm 1 (OfflineScheduler)."""

from __future__ import annotations

import pytest

from repro.analysis.theory import offline_bound_check
from repro.core.offline import OfflineScheduler
from repro.simulation import run_simulation
from repro.workload.generators import bulk_arrival_trace


class TestPriorityOrdering:
    def test_small_jobs_finish_before_large_jobs(self):
        # Equal weights: SRPT priority = 1/phi, so the smallest job finishes
        # first under bulk arrival when machines are scarce.
        trace = bulk_arrival_trace([2, 6, 20], mean_duration=10.0, cv=0.0)
        result = run_simulation(trace, OfflineScheduler(), num_machines=4)
        by_job = {record.job_id: record.flowtime for record in result.records}
        assert by_job[0] < by_job[1] < by_job[2]

    def test_weights_override_size_order(self):
        # The large job gets a huge weight, boosting its priority above the
        # small job's.
        trace = bulk_arrival_trace(
            [2, 20], mean_duration=10.0, cv=0.0, weights=[1.0, 100.0]
        )
        result = run_simulation(trace, OfflineScheduler(), num_machines=2)
        by_job = {record.job_id: record.completion_time for record in result.records}
        assert by_job[1] < by_job[0]

    def test_no_cloning_is_performed(self):
        trace = bulk_arrival_trace([4, 8], mean_duration=10.0, cv=0.3)
        result = run_simulation(trace, OfflineScheduler(), num_machines=30)
        assert result.cloning_ratio == pytest.approx(1.0)
        assert result.wasted_work == 0.0

    def test_r_parameter_demotes_high_variance_jobs(self):
        # Two jobs with equal mean workload; one has large per-task variance.
        # With r > 0 the noisy job has larger phi, hence lower priority, so
        # the deterministic job is served first when machines are scarce.
        from repro.workload.distributions import Deterministic, LogNormal
        from repro.workload.job import JobSpec
        from repro.workload.trace import Trace

        stable = JobSpec(job_id=0, arrival_time=0.0, weight=1.0, num_map_tasks=4,
                         num_reduce_tasks=0, map_duration=Deterministic(10.0),
                         reduce_duration=Deterministic(10.0))
        noisy = JobSpec(job_id=1, arrival_time=0.0, weight=1.0, num_map_tasks=4,
                        num_reduce_tasks=0, map_duration=LogNormal(10.0, 8.0),
                        reduce_duration=LogNormal(10.0, 8.0))
        trace = Trace([stable, noisy])
        scheduler = OfflineScheduler(r=3.0)
        result = run_simulation(trace, scheduler, num_machines=1, seed=0)
        by_job = {record.job_id: record.completion_time for record in result.records}
        assert by_job[0] < by_job[1]

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            OfflineScheduler(r=-1.0)


class TestParkingBehaviour:
    def test_parking_disabled_never_blocks_machines(self):
        trace = bulk_arrival_trace([6], mean_duration=10.0, cv=0.0,
                                   reduce_fraction=0.5)
        scheduler = OfflineScheduler(park_reduce_tasks=False)
        result = run_simulation(trace, scheduler, num_machines=10, seed=0)
        # 3 maps in parallel (10 s) then 3 reduces in parallel (10 s) = 20 s.
        assert result.records[0].flowtime == pytest.approx(20.0)

    def test_parking_enabled_gives_same_flowtime_with_spare_machines(self):
        trace = bulk_arrival_trace([6], mean_duration=10.0, cv=0.0,
                                   reduce_fraction=0.5)
        parked = run_simulation(
            trace, OfflineScheduler(park_reduce_tasks=True), num_machines=10
        )
        assert parked.records[0].flowtime == pytest.approx(20.0)

    def test_parking_wastes_machines_under_contention(self):
        # Two jobs, few machines: parking job 0's reduce tasks delays job 1.
        trace = bulk_arrival_trace([4, 4], mean_duration=10.0, cv=0.0,
                                   reduce_fraction=0.5)
        parked = run_simulation(
            trace, OfflineScheduler(park_reduce_tasks=True), num_machines=4
        )
        unparked = run_simulation(
            trace, OfflineScheduler(park_reduce_tasks=False), num_machines=4
        )
        assert unparked.total_flowtime <= parked.total_flowtime

    @staticmethod
    def _chain_launch_times(park_reduce_tasks):
        """Launch times per stage of a chain job next to a later tiny job.

        The chain is s0 (1 task) -> s1 (1) -> s2 (4), 5 s per task, on 6
        machines; a 1 s job arriving at t=7 adds a decision point while s1
        runs.
        """
        from repro.simulation.engine import SimulationEngine
        from repro.workload.distributions import Deterministic
        from repro.workload.job import JobSpec, StageSpec
        from repro.workload.trace import Trace

        five = Deterministic(5.0)
        chain = JobSpec.from_stages(job_id=0, arrival_time=0.0, weight=1.0, stages=[
            StageSpec("s0", 1, five),
            StageSpec("s1", 1, five, deps=(0,)),
            StageSpec("s2", 4, five, deps=(1,)),
        ])
        tiny = JobSpec(job_id=1, arrival_time=7.0, weight=1.0, num_map_tasks=1,
                       num_reduce_tasks=0, map_duration=Deterministic(1.0),
                       reduce_duration=Deterministic(1.0))
        scheduler = OfflineScheduler(park_reduce_tasks=park_reduce_tasks)
        engine = SimulationEngine(Trace([chain, tiny]), scheduler, num_machines=6)
        result = engine.run()
        assert {r.job_id: r.flowtime for r in result.records} == {0: 15.0, 1: 1.0}
        return [
            sorted(copy.launch_time for task in tasks for copy in task.copies)
            for tasks in engine._jobs[0].stage_tasks
        ]

    def test_parking_disabled_waits_for_every_predecessor_stage(self):
        # s2 depends on s1, not only on stage 0: with parking off its copies
        # launch when s1 completes at t=10, never while s1 runs.
        assert self._chain_launch_times(False) == [[0.0], [5.0], [10.0] * 4]

    def test_parking_enabled_parks_only_behind_scheduled_ready_stages(self):
        # At t=5 the ready s1 goes first; s2 parks at the next decision
        # point (t=7), once every ready stage is fully scheduled.
        assert self._chain_launch_times(True) == [[0.0], [5.0], [7.0] * 4]


class TestTheoremValidation:
    def test_deterministic_bulk_arrival_satisfies_bounds(self):
        trace = bulk_arrival_trace(
            [2, 3, 5, 8, 12, 20, 30], mean_duration=10.0, cv=0.0
        )
        result = run_simulation(trace, OfflineScheduler(), num_machines=10)
        report = offline_bound_check(result, trace, num_machines=10, r=0.0)
        assert report.fraction_satisfying_bound == 1.0
        assert report.empirical_competitive_ratio <= 2.0

    def test_noisy_bulk_arrival_mostly_satisfies_bounds(self):
        trace = bulk_arrival_trace(
            [2, 3, 5, 8, 12, 20, 30], mean_duration=10.0, cv=0.3
        )
        result = run_simulation(
            trace, OfflineScheduler(r=3.0), num_machines=10, seed=1
        )
        report = offline_bound_check(result, trace, num_machines=10, r=3.0)
        assert report.fraction_satisfying_bound >= report.theoretical_probability
