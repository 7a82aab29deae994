"""Tests for the baseline schedulers: FIFO, Fair, SRPT, Mantri, LATE, SCA."""

from __future__ import annotations

import math

import pytest

from repro.core.speedup import ParetoSpeedup
from repro.policies import make_scheduler
from repro.policies.redundancy import LATESpeculation
from repro.policies.speculation import SpeculationEstimator
from repro.scenarios import BimodalSpeeds, ScenarioSpec
from repro.simulation import run_simulation
from repro.simulation.scheduler_api import (
    ComposedScheduler,
    LaunchRequest,
    Scheduler,
)
from repro.workload.distributions import Deterministic, LogNormal
from repro.workload.generators import bulk_arrival_trace
from repro.workload.job import JobSpec, StageSpec, TaskCopy
from repro.workload.trace import Trace


ALL_BASELINES = ["FIFO", "Fair", "SRPT", "Mantri", "LATE", "SCA"]


class TestAllBaselinesComplete:
    @pytest.mark.parametrize("name", ALL_BASELINES)
    def test_completes_online_trace(self, name, small_online_trace):
        result = run_simulation(small_online_trace, make_scheduler(name),
                                num_machines=12, seed=0)
        assert result.num_jobs == small_online_trace.num_jobs
        assert result.over_requests == 0
        assert result.mean_flowtime > 0

    @pytest.mark.parametrize("name", ALL_BASELINES)
    def test_completes_under_scarce_machines(self, name, small_online_trace):
        result = run_simulation(small_online_trace, make_scheduler(name),
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
        result = run_simulation(Trace([early, late]), make_scheduler("FIFO"),
                                num_machines=4)
        completion = {r.job_id: r.completion_time for r in result.records}
        # All machines go to job 0 first; job 1 runs only after one frees up.
        assert completion[1] == pytest.approx(11.0)

    def test_no_cloning(self, small_online_trace):
        result = run_simulation(small_online_trace, make_scheduler("FIFO"),
                                num_machines=30, seed=0)
        assert result.cloning_ratio == pytest.approx(1.0)


class TestFair:
    def test_splits_machines_between_equal_jobs(self):
        trace = bulk_arrival_trace([8, 8], mean_duration=10.0, cv=0.0)
        result = run_simulation(trace, make_scheduler("Fair"), num_machines=4)
        flowtimes = [r.flowtime for r in result.records]
        # Each job gets 2 machines -> 8 tasks / 2 machines * 10 s = 40 s each
        # for the map part; with the reduce tasks both finish at the same time.
        assert flowtimes[0] == pytest.approx(flowtimes[1], rel=0.05)

    def test_weight_proportional_shares(self):
        trace = bulk_arrival_trace([9, 9], mean_duration=10.0, cv=0.0,
                                   weights=[2.0, 1.0], reduce_fraction=0.0)
        result = run_simulation(trace, make_scheduler("Fair"), num_machines=3)
        completion = {r.job_id: r.completion_time for r in result.records}
        # Job 0 holds ~2 machines, job 1 ~1 machine: job 0 finishes earlier.
        assert completion[0] < completion[1]


class TestSRPT:
    def test_prioritises_short_jobs(self):
        trace = bulk_arrival_trace([2, 30], mean_duration=10.0, cv=0.0)
        result = run_simulation(trace, make_scheduler("SRPT"), num_machines=4)
        flowtimes = {r.job_id: r.flowtime for r in result.records}
        assert flowtimes[0] < flowtimes[1]

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            make_scheduler("SRPT", r=-2.0)


class _StubView:
    """The two view members the speculation passes read: the clock and the copies."""

    def __init__(self, time, copies):
        self.time = time
        self._copies = copies

    def running_copies(self):
        return list(self._copies)


def _finished_copy(task, copy_id, start, duration):
    copy = TaskCopy(copy_id, task, machine_id=copy_id, launch_time=start,
                    workload=duration, start_time=start)
    task.add_copy(copy)
    copy.finish(start + duration)
    return copy


def _running_copy(task, copy_id, start, workload):
    copy = TaskCopy(copy_id, task, machine_id=copy_id, launch_time=start,
                    workload=workload, start_time=start)
    task.add_copy(copy)
    return copy


def _map_job(num_map_tasks):
    """A map-only job outside any engine, stamped as the first arrival."""
    from repro.workload.job import Job

    job = Job.from_spec(JobSpec(
        job_id=0, arrival_time=0.0, weight=1.0, num_map_tasks=num_map_tasks,
        num_reduce_tasks=0, map_duration=Deterministic(10.0),
        reduce_duration=Deterministic(10.0),
    ))
    job.arrival_index = 0
    return job


class TestLATECandidates:
    def test_remaining_time_extrapolates_progress(self):
        from repro.simulation.engine import SimulationEngine

        late = LATESpeculation(min_progress=0.05, min_elapsed=0.0)

        class Probe(Scheduler):
            """Launches every pending map task; records LATE's candidates per tick."""

            tick_interval = 4.0

            def __init__(self):
                self.seen = []

            def schedule(self, view):
                self.seen.append((view.time, late._candidates(view)))
                return [LaunchRequest(task) for job in view.alive_jobs
                        for task in job.unscheduled_stage_tasks(0)]

        spec = JobSpec(job_id=0, arrival_time=0.0, weight=1.0, num_map_tasks=1,
                       num_reduce_tasks=0, map_duration=Deterministic(10.0),
                       reduce_duration=Deterministic(10.0))
        probe = Probe()
        engine = SimulationEngine(Trace([spec]), probe, num_machines=1)
        engine.run()
        task = engine._jobs[0].stage_tasks[0][0]
        [copy] = task.copies
        # Launched at t=0 (nothing running yet), ticks at 4 and 8, done at 10.
        assert [time for time, _ in probe.seen] == [0.0, 4.0, 8.0]
        assert probe.seen[0][1] == []
        for time, candidates in probe.seen[1:]:
            # The one copy is its own rate percentile, so it is a candidate.
            [(negative_left, arrival, stage, index, copy_id, candidate)] = candidates
            assert -negative_left == pytest.approx(10.0 - time)
            assert (arrival, stage, index, copy_id) == (0, 0, 0, copy.copy_id)
            assert candidate is task
        # After the run nothing is running, so nothing is a candidate.
        assert late._candidates(engine._view) == []

    def test_threshold_ranks_copies_that_cannot_be_candidates(self):
        # At t=10 a copy below min_progress and the two copies of one task
        # can never be candidates, yet their rates still set the
        # percentile; a copy with no elapsed time has no rate at all.
        late = LATESpeculation(min_progress=0.25, min_elapsed=1.0)
        job = _map_job(5)
        tasks = job.stage_tasks[0]
        slow = _running_copy(tasks[0], 0, 0.0, 500.0)     # rate 0.002, progress 0.02
        twin_a = _running_copy(tasks[1], 1, 0.0, 40.0)    # progress 0.25, two copies
        twin_b = _running_copy(tasks[1], 2, 0.0, 40.0)
        eligible = _running_copy(tasks[2], 3, 0.0, 30.0)  # progress 1/3, rate 1/30
        fast = _running_copy(tasks[3], 4, 0.0, 20.0)      # progress 0.5, rate 0.05
        fresh = _running_copy(tasks[4], 5, 10.0, 20.0)    # elapsed 0: no rate
        view = _StubView(10.0, [slow, twin_a, twin_b, eligible, fast, fresh])
        # Rates 0.002, 0.025, 0.025, 1/30, 0.05: the 25th percentile is
        # 0.025, below the eligible copy's rate, so nothing qualifies ...
        assert late._candidates(view) == []
        # ... but with a higher percentile the eligible copy does.
        late.slow_task_percentile = 75.0
        [entry] = late._candidates(view)
        assert entry[-1] is tasks[2]
        assert -entry[0] == pytest.approx(20.0)

    def test_no_copy_at_min_progress_returns_nothing(self):
        late = LATESpeculation(min_progress=0.5, min_elapsed=0.0)
        job = _map_job(2)
        copies = [_running_copy(task, i, 0.0, 100.0)
                  for i, task in enumerate(job.stage_tasks[0])]
        assert late._candidates(_StubView(40.0, copies)) == []
        [first, second] = late._candidates(_StubView(50.0, copies))
        assert first[-1] is job.stage_tasks[0][0] and second[-1] is job.stage_tasks[0][1]


class TestStragglerEstimates:
    def test_straggler_probability_requires_samples(self):
        estimator = SpeculationEstimator(min_samples=3)
        job = _map_job(4)
        tasks = job.stage_tasks[0]
        # elapsed 5 of 20: progress 0.25, time left 5 * 0.75 / 0.25 = 15.
        running = _running_copy(tasks[3], 9, 0.0, 20.0)
        view = _StubView(5.0, [running])
        assert estimator.straggler_estimates(view, 2) == []
        assert estimator.recorded_durations(job, 0) == []
        for index, duration in enumerate((4.0, 10.0)):
            _finished_copy(tasks[index], index, 0.0, duration)
            estimator.record_completion(tasks[index], duration)
        # 2 < min_samples: the copy has no straggler probability.
        assert estimator.straggler_estimates(view, 2) == []
        _finished_copy(tasks[2], 2, 0.0, 8.0)
        estimator.record_completion(tasks[2], 8.0)
        [(time_left, probability, estimated)] = estimator.straggler_estimates(view, 2)
        assert estimated is running
        assert time_left == 15.0
        # Samples d with 2 d < 15: only the 4 s one.
        assert probability == pytest.approx(1 / 3)
        assert estimator.recorded_durations(job, 0) == [4.0, 10.0, 8.0]
        assert estimator.recorded_durations(job, 1) == []

    def test_copies_at_the_copy_cap_are_skipped(self):
        estimator = SpeculationEstimator(min_samples=1)
        job = _map_job(3)
        tasks = job.stage_tasks[0]
        _finished_copy(tasks[0], 0, 0.0, 1.0)
        estimator.record_completion(tasks[0], 1.0)
        single = _running_copy(tasks[1], 1, 0.0, 20.0)
        pair = [_running_copy(tasks[2], 2 + i, 0.0, 20.0) for i in range(2)]
        view = _StubView(5.0, [single, *pair])
        # A cap of 2 leaves only the task one copy below it ...
        assert [c for _, _, c in estimator.straggler_estimates(view, 2)] == [single]
        # ... a cap of 3 lists the pair's copies too, in machine order.
        assert [c for _, _, c in estimator.straggler_estimates(view, 3)] == [
            single, *pair
        ]

    def test_sample_window_keeps_the_most_recent_durations(self):
        estimator = SpeculationEstimator(min_samples=1)
        cap = estimator.max_samples
        job = _map_job(cap + 11)
        *done, last = job.stage_tasks[0]
        durations = [float((7 * i) % 23 + 1) for i in range(len(done))]
        for index, (task, duration) in enumerate(zip(done, durations)):
            _finished_copy(task, index, 0.0, duration)
            estimator.record_completion(task, duration)
        kept = durations[-cap:]
        assert estimator.recorded_durations(job, 0) == kept
        running = _running_copy(last, 999, 0.0, 100.0)
        for now in (10.0, 30.0, 60.0, 75.0, 90.0):
            [(time_left, probability, _)] = estimator.straggler_estimates(
                _StubView(now, [running]), 2
            )
            hits = sum(1 for duration in kept if 2.0 * duration < time_left)
            assert probability == hits / cap

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_progress": 0.0},
            {"min_progress": math.nan},
            {"min_elapsed": -1.0},
            {"min_elapsed": math.nan},
            {"min_elapsed": math.inf},
            {"min_samples": 0},
            {"min_samples": 2.5},
            {"min_samples": 3.0},
            {"min_samples": math.nan},
            {"min_samples": True},
        ],
        ids=repr,
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SpeculationEstimator(**kwargs)


class TestMantri:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_scheduler("Mantri", delta=0.0)
        with pytest.raises(ValueError):
            make_scheduler("Mantri", delta=1.0)
        with pytest.raises(ValueError):
            make_scheduler("Mantri", max_copies_per_task=1)

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
        scheduler = make_scheduler("Mantri", delta=0.25, tick_interval=2.0, min_samples=3)
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
        assert scheduler.redundancy.copies_launched > 0
        assert result.total_copies > 30

    def test_samples_are_recorded_per_stage(self):
        # A 3-stage chain whose stages run 1, 10 and 100 s: each stage's
        # recorded samples are exactly its own finished-copy durations, so
        # t_new for a stage-2 copy never pools stage-1 durations.
        from repro.simulation.engine import SimulationEngine

        stages = [
            StageSpec("s0", 3, Deterministic(1.0)),
            StageSpec("s1", 3, Deterministic(10.0), deps=(0,)),
            StageSpec("s2", 3, Deterministic(100.0), deps=(1,)),
        ]
        jobs = [JobSpec.from_stages(job_id=i, arrival_time=2.0 * i, weight=1.0,
                                    stages=stages) for i in range(3)]
        scheduler = make_scheduler("Mantri", tick_interval=2.0, min_samples=1)
        estimator = scheduler.redundancy.estimator
        # A completed job's samples are dropped, so read them just before.
        recorded = {}
        forget = estimator.forget

        def snapshot_then_forget(job):
            recorded[job.job_id] = [
                estimator.recorded_durations(job, stage)
                for stage in range(job.num_stages)
            ]
            forget(job)

        estimator.forget = snapshot_then_forget
        engine = SimulationEngine(Trace(jobs), scheduler, num_machines=8, seed=0)
        engine.run()
        for job in engine._jobs:
            for stage, tasks in enumerate(job.stage_tasks):
                finished = [
                    copy.finish_time - copy.start_time
                    for task in tasks for copy in task.copies
                    if copy.is_finished
                ]
                assert len(finished) == len(tasks)
                assert sorted(recorded[job.job_id][stage]) == sorted(finished)
        assert estimator.recorded_durations(engine._jobs[0], 0) == []

    @pytest.mark.parametrize("ordering", ["fifo", "fair"])
    def test_stream_run_keeps_no_samples_of_completed_jobs(self, ordering):
        # Stream mode promises bounded memory: once a job completes, nothing
        # reads its samples again, so the estimator must not keep them.
        from repro.policies.redundancy import MantriSpeculation
        from repro.workload.stream import StreamSpec, stream_poisson_jobs

        spec = StreamSpec(
            factory=stream_poisson_jobs, num_jobs=300,
            kwargs={"arrival_rate": 0.5, "mean_tasks_per_job": 4.0, "seed": 3},
        )
        scheduler = ComposedScheduler(
            ordering, "greedy", MantriSpeculation(min_samples=1)
        )
        recorded = []
        record_completion = scheduler.redundancy.estimator.record_completion

        def counting_record(task, time):
            recorded.append(task.job.job_id)
            record_completion(task, time)

        scheduler.redundancy.estimator.record_completion = counting_record
        result = run_simulation(spec.build(), scheduler, num_machines=16, seed=0)
        assert result.num_jobs == 300
        assert len(set(recorded)) == 300
        assert scheduler.redundancy.estimator._samples == {}

    def test_does_not_speculate_without_variance(self):
        trace = bulk_arrival_trace([10], mean_duration=10.0, cv=0.0)
        scheduler = make_scheduler("Mantri", tick_interval=1.0)
        result = run_simulation(trace, scheduler, num_machines=20, seed=0)
        assert scheduler.redundancy.copies_launched == 0
        assert result.cloning_ratio == pytest.approx(1.0)


class TestLATE:
    def test_takes_no_completion_notifications(self):
        # LATE reads no finished-copy durations; Mantri records them and
        # drops a job's samples when the job completes.
        from repro.simulation.engine import SimulationEngine

        trace = bulk_arrival_trace([3], mean_duration=10.0, cv=0.0)
        late = SimulationEngine(trace, make_scheduler("LATE"), num_machines=4)
        mantri = SimulationEngine(trace, make_scheduler("Mantri"), num_machines=4)
        assert late._notify_task_completion is None
        assert mantri._notify_task_completion is not None
        assert late._notify_job_completion is None
        assert mantri._notify_job_completion is not None

    def test_zero_elapsed_copies_have_no_progress_rate(self):
        # min_elapsed=0 admits copies that have not run at all: reduce
        # copies parked under allow_early_reduce, and parked copies unparked
        # at this very instant.  They have no progress rate and are skipped
        # instead of dividing by their zero elapsed time.
        maps, reduces = Deterministic(10.0), Deterministic(5.0)
        jobs = [
            JobSpec(job_id=i, arrival_time=3.0 * i, weight=1.0, num_map_tasks=3,
                    num_reduce_tasks=2, map_duration=maps,
                    reduce_duration=reduces)
            for i in range(4)
        ]
        scheduler = ComposedScheduler(
            "fair", "greedy",
            LATESpeculation(min_elapsed=0.0, tick_interval=1.0),
            allow_early_reduce=True,
        )
        result = run_simulation(Trace(jobs), scheduler, num_machines=20, seed=0)
        assert result.num_jobs == 4
        assert result.over_requests == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_scheduler("LATE", slow_task_percentile=0.0)
        with pytest.raises(ValueError):
            make_scheduler("LATE", speculative_cap=0.0)

    def test_speculative_cap_limits_duplicates(self):
        short = LogNormal(10.0, 3.0)
        jobs = [JobSpec(job_id=0, arrival_time=0.0, weight=1.0, num_map_tasks=40,
                        num_reduce_tasks=0, map_duration=short,
                        reduce_duration=short)]
        scheduler = make_scheduler("LATE", speculative_cap=0.1, tick_interval=2.0)
        result = run_simulation(Trace(jobs), scheduler, num_machines=10, seed=0)
        # At most 10% of 10 machines = 1 speculative copy per decision point;
        # the total stays well below the task count.
        assert result.total_copies < 60


class TestSCA:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_scheduler("SCA", max_copies_per_task=0)

    def test_clones_with_spare_machines(self):
        trace = bulk_arrival_trace([4], mean_duration=10.0, cv=0.3)
        result = run_simulation(trace, make_scheduler("SCA"), num_machines=12, seed=0)
        assert result.cloning_ratio > 1.0

    def test_copy_cap_respected(self):
        trace = bulk_arrival_trace([2], mean_duration=10.0, cv=0.3)
        result = run_simulation(trace, make_scheduler("SCA", max_copies_per_task=3),
                                num_machines=50, seed=0)
        assert result.total_copies <= 2 * 3

    def test_no_cloning_under_contention(self):
        trace = bulk_arrival_trace([40], mean_duration=10.0, cv=0.3)
        result = run_simulation(trace, make_scheduler("SCA"), num_machines=5, seed=0)
        assert result.cloning_ratio == pytest.approx(1.0, abs=0.2)

    def test_custom_speedup_function(self):
        trace = bulk_arrival_trace([4], mean_duration=10.0, cv=0.3)
        scheduler = make_scheduler("SCA", speedup=ParetoSpeedup(alpha=3.0))
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

        engine = SimulationEngine(Trace([small, big]), make_scheduler("SCA"),
                                  num_machines=30, seed=0)
        engine.run()
        small_copies = engine._jobs[0].total_copies_launched()
        big_copies = engine._jobs[1].total_copies_launched()
        assert small_copies / 2 >= big_copies / 20
