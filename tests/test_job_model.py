"""Unit tests for the Job / Task / TaskCopy data model and its precedence rules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.workload.distributions import Deterministic, LogNormal
from repro.workload.google_trace import GoogleTraceConfig, GoogleTraceGenerator
from repro.workload.job import Job, JobSpec, StageSpec, Task, TaskCopy, TaskStatus
from repro.workload.stream import stream_uniform_jobs


def make_spec(**overrides) -> JobSpec:
    defaults = dict(
        job_id=0,
        arrival_time=0.0,
        weight=1.0,
        num_map_tasks=2,
        num_reduce_tasks=1,
        map_duration=Deterministic(10.0),
        reduce_duration=Deterministic(5.0),
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestJobSpec:
    def test_legacy_fields_build_the_two_stage_dag(self):
        map_stage, reduce_stage = make_spec().stage_specs
        assert (map_stage.num_tasks, reduce_stage.num_tasks) == (2, 1)
        assert map_stage.duration.mean == 10.0
        assert reduce_stage.duration.mean == 5.0
        assert (map_stage.deps, reduce_stage.deps) == ((), (0,))

    def test_total_tasks_and_expected_work(self):
        spec = make_spec()
        assert spec.total_tasks == 3
        assert spec.expected_total_work == pytest.approx(2 * 10.0 + 1 * 5.0)

    def test_effective_workload_equation_2(self):
        spec = make_spec(
            map_duration=LogNormal(10.0, 2.0), reduce_duration=LogNormal(5.0, 1.0)
        )
        # phi = m*(E+r*sigma) + r_tasks*(E+r*sigma)
        assert spec.effective_workload(r=3.0) == pytest.approx(
            2 * (10.0 + 6.0) + 1 * (5.0 + 3.0)
        )

    def test_effective_workload_r_zero_ignores_variance(self):
        spec = make_spec(map_duration=LogNormal(10.0, 8.0))
        assert spec.effective_workload(r=0.0) == pytest.approx(2 * 10.0 + 5.0)

    def test_effective_workload_rejects_negative_r(self):
        with pytest.raises(ValueError):
            make_spec().effective_workload(-1.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"arrival_time": -1.0},
            {"weight": 0.0},
            {"weight": -2.0},
            {"num_map_tasks": -1},
            {"num_map_tasks": 0, "num_reduce_tasks": 0},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            make_spec(**overrides)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("weight", math.nan),
            ("weight", math.inf),
            ("arrival_time", math.inf),
            ("arrival_time", math.nan),
            ("num_map_tasks", 2.5),
            ("num_map_tasks", math.nan),
            ("num_map_tasks", 2.0),
            ("num_reduce_tasks", True),
            ("num_reduce_tasks", 1.5),
        ],
    )
    def test_non_finite_and_non_integral_numbers_name_their_field(self, field, value):
        # Each of these used to construct, and then ran with a NaN flowtime
        # or failed inside the engine (a float task count, a NaN weight in
        # the share rounding), or ran a bool as one task.
        with pytest.raises(ValueError, match=field):
            make_spec(**{field: value})

    def test_numpy_integer_task_counts_are_accepted(self):
        spec = make_spec(num_map_tasks=np.int64(3), num_reduce_tasks=np.int32(0))
        assert spec.total_tasks == 3

    def test_stage_task_count_must_be_an_integer(self):
        with pytest.raises(ValueError, match="num_tasks"):
            StageSpec(name="map", num_tasks=2.5, duration=Deterministic(1.0))
        with pytest.raises(ValueError, match="num_tasks"):
            StageSpec(name="map", num_tasks=True, duration=Deterministic(1.0))

    def test_from_stages_rejects_a_non_finite_weight(self):
        stages = [StageSpec(name="map", num_tasks=2, duration=Deterministic(1.0))]
        for weight in (math.nan, math.inf):
            with pytest.raises(ValueError, match="weight"):
                JobSpec.from_stages(
                    job_id=0, arrival_time=0.0, weight=weight, stages=stages
                )


class TestJobConstruction:
    def test_from_spec_builds_tasks(self):
        job = Job.from_spec(make_spec())
        assert [len(tasks) for tasks in job.stage_tasks] == [2, 1]
        assert all(
            task.stage == stage
            for stage, tasks in enumerate(job.stage_tasks)
            for task in tasks
        )
        assert job.stage_completion_time(0) is None
        assert not job.stage_is_ready(1)
        assert not job.is_complete

    def test_map_only_job(self):
        job = Job.from_spec(make_spec(num_reduce_tasks=0))
        assert job.stage_tasks[1] == []
        assert job.stage_completion_time(0) is None

    def test_reduce_only_job_has_trivially_complete_map_phase(self):
        job = Job.from_spec(make_spec(num_map_tasks=0, arrival_time=4.0))
        assert job.stage_completion_time(0) == 4.0
        assert job.stage_is_ready(1)

    def test_task_ids_are_unique(self):
        job = Job.from_spec(make_spec(num_map_tasks=5, num_reduce_tasks=3))
        ids = [task.task_id for task in job.all_tasks()]
        assert len(set(ids)) == len(ids)


def launch_copy(task: Task, copy_id: int = 0, machine: int = 0, time: float = 0.0,
                workload: float = 10.0) -> TaskCopy:
    copy = TaskCopy(
        copy_id=copy_id,
        task=task,
        machine_id=machine,
        launch_time=time,
        workload=workload,
    )
    task.add_copy(copy)
    return copy


class TestLegacyStageTuples:
    def test_a_two_phase_spec_derives_its_stages_once(self):
        spec = GoogleTraceGenerator(GoogleTraceConfig(scale=1e-4)).generate(seed=0)[0]
        assert spec.stages is None
        assert Job.from_spec(spec).stage_specs is Job.from_spec(spec).stage_specs

    def test_every_job_of_a_uniform_stream_shares_one_tuple(self):
        jobs = [Job.from_spec(spec) for spec in stream_uniform_jobs(5)]
        assert all(job.stage_specs is jobs[0].stage_specs for job in jobs)
        assert [stage.name for stage in jobs[0].stage_specs] == ["map", "reduce"]


class TestTaskCopy:
    def test_lifecycle(self):
        job = Job.from_spec(make_spec())
        copy = launch_copy(job.stage_tasks[0][0])
        assert copy.is_active and copy.is_blocked
        copy.start(0.0)
        assert not copy.is_blocked
        assert copy.expected_finish_time == pytest.approx(10.0)
        copy.finish(10.0)
        assert copy.is_finished
        assert not copy.is_active

    def test_progress_and_remaining_work(self):
        job = Job.from_spec(make_spec())
        copy = launch_copy(job.stage_tasks[0][0], workload=10.0)
        copy.start(0.0)
        assert copy.progress(4.0) == pytest.approx(0.4)
        assert copy.remaining_work(4.0) == pytest.approx(6.0)
        assert copy.progress(100.0) == 1.0

    def test_blocked_copy_has_no_progress(self):
        job = Job.from_spec(make_spec())
        copy = launch_copy(job.stage_tasks[1][0])
        assert copy.elapsed(50.0) == 0.0
        assert copy.progress(50.0) == 0.0
        assert copy.expected_finish_time is None

    def test_kill_stops_elapsed_accumulation(self):
        job = Job.from_spec(make_spec())
        copy = launch_copy(job.stage_tasks[0][0], workload=10.0)
        copy.start(0.0)
        copy.kill(4.0)
        assert copy.is_killed
        assert copy.elapsed(100.0) == pytest.approx(4.0)

    def test_cannot_start_twice(self):
        job = Job.from_spec(make_spec())
        copy = launch_copy(job.stage_tasks[0][0])
        copy.start(0.0)
        with pytest.raises(ValueError):
            copy.start(1.0)

    def test_cannot_finish_before_start(self):
        job = Job.from_spec(make_spec())
        copy = launch_copy(job.stage_tasks[0][0])
        with pytest.raises(ValueError):
            copy.finish(5.0)

    def test_cannot_start_before_launch(self):
        job = Job.from_spec(make_spec())
        copy = launch_copy(job.stage_tasks[0][0], time=10.0)
        with pytest.raises(ValueError):
            copy.start(5.0)

    def test_cannot_kill_finished_copy(self):
        job = Job.from_spec(make_spec())
        copy = launch_copy(job.stage_tasks[0][0])
        copy.start(0.0)
        copy.finish(10.0)
        with pytest.raises(ValueError):
            copy.kill(11.0)

    def test_validation(self):
        job = Job.from_spec(make_spec())
        with pytest.raises(ValueError):
            TaskCopy(copy_id=0, task=job.stage_tasks[0][0], machine_id=0,
                     launch_time=0.0, workload=0.0)
        with pytest.raises(ValueError):
            TaskCopy(copy_id=0, task=job.stage_tasks[0][0], machine_id=0,
                     launch_time=-1.0, workload=1.0)


class TestTask:
    def test_status_transitions(self):
        job = Job.from_spec(make_spec())
        task = job.stage_tasks[0][0]
        assert task.status is TaskStatus.PENDING
        copy = launch_copy(task)
        copy.start(0.0)
        assert task.status is TaskStatus.RUNNING
        assert task.is_scheduled
        copy.finish(10.0)
        task.complete(10.0)
        assert task.status is TaskStatus.COMPLETED

    def test_complete_kills_sibling_clones(self):
        job = Job.from_spec(make_spec())
        task = job.stage_tasks[0][0]
        winner = launch_copy(task, copy_id=0, machine=0)
        loser = launch_copy(task, copy_id=1, machine=1, workload=20.0)
        winner.start(0.0)
        loser.start(0.0)
        winner.finish(10.0)
        killed = task.complete(10.0)
        assert killed == [loser]
        assert loser.is_killed

    def test_cannot_complete_twice(self):
        job = Job.from_spec(make_spec())
        task = job.stage_tasks[0][0]
        launch_copy(task).start(0.0)
        task.complete(10.0)
        with pytest.raises(ValueError):
            task.complete(11.0)

    def test_cannot_add_copy_to_completed_task(self):
        job = Job.from_spec(make_spec())
        task = job.stage_tasks[0][0]
        launch_copy(task).start(0.0)
        task.complete(10.0)
        with pytest.raises(ValueError):
            launch_copy(task, copy_id=1)

    def test_first_launch_time(self):
        job = Job.from_spec(make_spec())
        task = job.stage_tasks[0][0]
        assert task.first_launch_time() is None
        launch_copy(task, copy_id=0, time=5.0)
        launch_copy(task, copy_id=1, time=3.0)
        assert task.first_launch_time() == 3.0

    def test_duration_distribution_comes_from_stage(self):
        job = Job.from_spec(make_spec())
        assert job.stage_tasks[0][0].duration_distribution.mean == 10.0
        assert job.stage_tasks[1][0].duration_distribution.mean == 5.0


class TestJobPrecedence:
    def _complete_task(self, job: Job, task: Task, time: float) -> bool:
        copy = launch_copy(task, copy_id=len(task.copies), time=time - 1.0,
                           workload=1.0)
        copy.start(time - 1.0)
        copy.finish(time)
        task.complete(time)
        return job.notify_task_completion(task, time)

    def test_map_phase_completes_after_all_map_tasks(self):
        job = Job.from_spec(make_spec())
        assert not self._complete_task(job, job.stage_tasks[0][0], 10.0)
        assert job.stage_completion_time(0) is None
        assert not job.stage_is_ready(1)
        assert not self._complete_task(job, job.stage_tasks[0][1], 12.0)
        assert job.stage_completion_time(0) == 12.0
        assert job.stage_is_ready(1)
        assert not job.is_complete

    def test_job_completes_after_all_reduce_tasks(self):
        job = Job.from_spec(make_spec())
        self._complete_task(job, job.stage_tasks[0][0], 10.0)
        self._complete_task(job, job.stage_tasks[0][1], 12.0)
        finished = self._complete_task(job, job.stage_tasks[1][0], 20.0)
        assert finished
        assert job.is_complete
        assert job.completion_time == 20.0
        assert job.flowtime == 20.0
        assert job.weighted_flowtime == 20.0  # weight 1

    def test_map_only_job_completes_with_last_map_task(self):
        job = Job.from_spec(make_spec(num_reduce_tasks=0, num_map_tasks=2))
        self._complete_task(job, job.stage_tasks[0][0], 5.0)
        finished = self._complete_task(job, job.stage_tasks[0][1], 9.0)
        assert finished
        assert job.completion_time == 9.0

    def test_notify_rejects_foreign_task(self):
        job_a = Job.from_spec(make_spec(job_id=1))
        job_b = Job.from_spec(make_spec(job_id=2))
        with pytest.raises(ValueError):
            job_a.notify_task_completion(job_b.stage_tasks[0][0], 1.0)

    def test_notify_rejects_after_completion(self):
        job = Job.from_spec(make_spec(num_map_tasks=1, num_reduce_tasks=0))
        self._complete_task(job, job.stage_tasks[0][0], 5.0)
        with pytest.raises(ValueError):
            job.notify_task_completion(job.stage_tasks[0][0], 6.0)

    def test_flowtime_none_until_complete(self):
        job = Job.from_spec(make_spec())
        assert job.flowtime is None
        assert job.weighted_flowtime is None


class TestJobCounters:
    def test_unscheduled_counts_follow_launches(self):
        job = Job.from_spec(make_spec(num_map_tasks=3, num_reduce_tasks=2))
        assert job.num_unscheduled_stage_tasks(0) == 3
        assert job.num_unscheduled_stage_tasks(1) == 2
        launch_copy(job.stage_tasks[0][0])
        assert job.num_unscheduled_stage_tasks(0) == 2
        assert job.num_running_copies == 1

    def test_running_copies_counts_clones(self):
        job = Job.from_spec(make_spec())
        launch_copy(job.stage_tasks[0][0], copy_id=0, machine=0)
        launch_copy(job.stage_tasks[0][0], copy_id=1, machine=1)
        assert job.num_running_copies == 2
        assert job.total_copies_launched() == 2

    def test_remaining_effective_workload_equation_4(self):
        spec = make_spec(
            num_map_tasks=3,
            num_reduce_tasks=2,
            map_duration=LogNormal(10.0, 2.0),
            reduce_duration=LogNormal(5.0, 1.0),
        )
        job = Job.from_spec(spec)
        full = job.remaining_effective_workload(r=2.0)
        assert full == pytest.approx(3 * (10 + 4) + 2 * (5 + 2))
        launch_copy(job.stage_tasks[0][0])
        after = job.remaining_effective_workload(r=2.0)
        assert after == pytest.approx(2 * (10 + 4) + 2 * (5 + 2))

    def test_remaining_effective_workload_rejects_negative_r(self):
        job = Job.from_spec(make_spec())
        with pytest.raises(ValueError):
            job.remaining_effective_workload(-0.5)

    def test_num_remaining_tasks(self):
        job = Job.from_spec(make_spec(num_map_tasks=2, num_reduce_tasks=1))
        assert job.num_remaining_tasks == 3
