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
from repro.workload.job import JobSpec, Phase, StageSpec, TaskCopy
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


class _StubView:
    """The two view members the estimator reads: the clock and the copies."""

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


class TestSpeculationEstimator:
    def test_remaining_time_extrapolates_progress(self):
        from repro.simulation.engine import SimulationEngine

        estimator = SpeculationEstimator(min_progress=0.05, min_elapsed=0.0,
                                         min_samples=1)

        class Probe(Scheduler):
            """Launches every pending map task; records estimates per tick."""

            tick_interval = 4.0

            def __init__(self):
                self.seen = []

            def schedule(self, view):
                self.seen.append((view.time, estimator.estimate(view)))
                return [LaunchRequest(task) for job in view.alive_jobs
                        for task in job.unscheduled_tasks(Phase.MAP)]

        spec = JobSpec(job_id=0, arrival_time=0.0, weight=1.0, num_map_tasks=1,
                       num_reduce_tasks=0, map_duration=Deterministic(10.0),
                       reduce_duration=Deterministic(10.0))
        probe = Probe()
        engine = SimulationEngine(Trace([spec]), probe, num_machines=1)
        engine.run()
        copy = engine._jobs[0].map_tasks[0].copies[0]
        # Launched at t=0 (nothing running yet), ticks at 4 and 8, done at 10.
        assert [time for time, _ in probe.seen] == [0.0, 4.0, 8.0]
        assert probe.seen[0][1] == []
        for time, estimates in probe.seen[1:]:
            [(rate, time_left, probability, estimated)] = estimates
            assert estimated is copy
            assert rate == pytest.approx(0.1)
            assert time_left == pytest.approx(10.0 - time)
            assert probability is None  # no sample was ever recorded
        # After the run nothing is running, so nothing is estimated.
        assert estimator.estimate(engine._view) == []

    def test_straggler_probability_requires_samples(self):
        from repro.workload.job import Job

        estimator = SpeculationEstimator(min_samples=3)
        spec = JobSpec(job_id=0, arrival_time=0.0, weight=1.0, num_map_tasks=4,
                       num_reduce_tasks=0, map_duration=Deterministic(10.0),
                       reduce_duration=Deterministic(10.0))
        job = Job.from_spec(spec)
        tasks = job.map_tasks
        running = TaskCopy(9, tasks[3], machine_id=9, launch_time=0.0,
                           workload=20.0, start_time=0.0)
        tasks[3].add_copy(running)
        # elapsed 5 of 20: progress 0.25, time left 5 * 0.75 / 0.25 = 15.
        view = _StubView(5.0, [running])
        assert estimator.recorded_durations(job, 0) == []
        for index, duration in enumerate((4.0, 10.0)):
            _finished_copy(tasks[index], index, 0.0, duration)
            estimator.record_completion(tasks[index], duration)
        [(_, time_left, probability, _)] = estimator.estimate(view)
        assert time_left == 15.0
        assert probability is None  # 2 < min_samples
        _finished_copy(tasks[2], 2, 0.0, 8.0)
        estimator.record_completion(tasks[2], 8.0)
        [(_, time_left, probability, _)] = estimator.estimate(view)
        # Samples d with 2 d < 15: only the 4 s one.
        assert probability == pytest.approx(1 / 3)
        assert estimator.recorded_durations(job, 0) == [4.0, 10.0, 8.0]
        assert estimator.recorded_durations(job, 1) == []

    def test_sample_window_keeps_the_most_recent_durations(self):
        from repro.workload.job import Job

        estimator = SpeculationEstimator(min_samples=1)
        cap = estimator.max_samples
        spec = JobSpec(job_id=0, arrival_time=0.0, weight=1.0,
                       num_map_tasks=cap + 11, num_reduce_tasks=0,
                       map_duration=Deterministic(10.0),
                       reduce_duration=Deterministic(10.0))
        job = Job.from_spec(spec)
        *done, last = job.map_tasks
        durations = [float((7 * i) % 23 + 1) for i in range(len(done))]
        for index, (task, duration) in enumerate(zip(done, durations)):
            _finished_copy(task, index, 0.0, duration)
            estimator.record_completion(task, duration)
        kept = durations[-cap:]
        assert estimator.recorded_durations(job, 0) == kept
        running = TaskCopy(999, last, machine_id=999, launch_time=0.0,
                           workload=100.0, start_time=0.0)
        last.add_copy(running)
        for now in (10.0, 30.0, 60.0, 75.0, 90.0):
            [(_, time_left, probability, _)] = estimator.estimate(
                _StubView(now, [running])
            )
            hits = sum(1 for duration in kept if 2.0 * duration < time_left)
            assert probability == hits / cap

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
        scheduler = MantriScheduler(tick_interval=2.0, min_samples=1)
        estimator = scheduler.estimator
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
        scheduler = MantriScheduler(tick_interval=1.0)
        result = run_simulation(trace, scheduler, num_machines=20, seed=0)
        assert scheduler.speculative_copies_launched == 0
        assert result.cloning_ratio == pytest.approx(1.0)


class TestLATE:
    def test_takes_no_completion_notifications(self):
        # LATE reads no finished-copy durations; Mantri records them and
        # drops a job's samples when the job completes.
        from repro.simulation.engine import SimulationEngine

        trace = bulk_arrival_trace([3], mean_duration=10.0, cv=0.0)
        late = SimulationEngine(trace, LATEScheduler(), num_machines=4)
        mantri = SimulationEngine(trace, MantriScheduler(), num_machines=4)
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
