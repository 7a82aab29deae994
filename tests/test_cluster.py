"""Unit tests for the cluster substrate: machines and occupancy state."""

from __future__ import annotations

import math

import pytest

from repro.cluster.machine import Machine
from repro.cluster.state import ClusterState
from repro.workload.distributions import Deterministic
from repro.workload.job import Job, JobSpec, TaskCopy


def make_job(maps: int = 2, reduces: int = 1) -> Job:
    spec = JobSpec(
        job_id=0,
        arrival_time=0.0,
        weight=1.0,
        num_map_tasks=maps,
        num_reduce_tasks=reduces,
        map_duration=Deterministic(10.0),
        reduce_duration=Deterministic(5.0),
    )
    return Job.from_spec(spec)


def make_copy(task, machine_id: int, copy_id: int = 0) -> TaskCopy:
    copy = TaskCopy(
        copy_id=copy_id,
        task=task,
        machine_id=machine_id,
        launch_time=0.0,
        workload=10.0,
    )
    task.add_copy(copy)
    return copy


class TestMachine:
    def test_assign_and_release(self):
        machine = Machine(machine_id=0)
        job = make_job()
        copy = make_copy(job.stage_tasks[0][0], 0)
        machine.assign(copy)
        assert not machine.is_free
        released = machine.release()
        assert released is copy
        assert machine.is_free

    def test_double_assign_rejected(self):
        machine = Machine(machine_id=0)
        job = make_job()
        machine.assign(make_copy(job.stage_tasks[0][0], 0))
        with pytest.raises(ValueError):
            machine.assign(make_copy(job.stage_tasks[0][1], 0, copy_id=1))

    def test_release_free_machine_rejected(self):
        with pytest.raises(ValueError):
            Machine(machine_id=0).release()

    def test_processing_time_scales_with_speed(self):
        assert Machine(machine_id=0, speed=2.0).processing_time(10.0) == 5.0
        with pytest.raises(ValueError):
            Machine(machine_id=0).processing_time(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Machine(machine_id=-1)
        for speed in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                Machine(machine_id=0, speed=speed)


class TestClusterState:
    def test_initial_state(self):
        cluster = ClusterState(4)
        assert cluster.num_machines == 4
        assert cluster.num_free == 4
        assert cluster.num_busy == 0
        assert cluster.utilization == 0.0
        assert cluster.has_free_machine()

    def test_place_and_release_cycle(self):
        cluster = ClusterState(2)
        job = make_job()
        machine_id = cluster.peek_free_machine()
        copy = make_copy(job.stage_tasks[0][0], machine_id)
        cluster.place(copy)
        assert cluster.num_busy == 1
        assert cluster.machine_of(copy) == machine_id
        cluster.check_invariants()
        cluster.release(copy)
        assert cluster.num_free == 2
        assert cluster.machine_of(copy) is None
        cluster.check_invariants()

    def test_place_requires_peeked_machine(self):
        cluster = ClusterState(2)
        job = make_job()
        wrong_id = (cluster.peek_free_machine() + 1) % 2
        copy = make_copy(job.stage_tasks[0][0], wrong_id)
        with pytest.raises(ValueError):
            cluster.place(copy)
        # The free machine must not have been consumed by the failed attempt.
        assert cluster.num_free == 2

    def test_place_fails_when_full(self):
        cluster = ClusterState(1)
        job = make_job()
        copy = make_copy(job.stage_tasks[0][0], cluster.peek_free_machine())
        cluster.place(copy)
        with pytest.raises(ValueError):
            cluster.place(make_copy(job.stage_tasks[0][1], 0, copy_id=1))

    def test_release_unplaced_copy_rejected(self):
        cluster = ClusterState(1)
        job = make_job()
        copy = make_copy(job.stage_tasks[0][0], 0)
        with pytest.raises(ValueError):
            cluster.release(copy)

    def test_copies_of_every_stage_occupy_machines(self):
        cluster = ClusterState(2)
        job = make_job()
        map_copy = make_copy(job.stage_tasks[0][0], cluster.peek_free_machine())
        cluster.place(map_copy)
        reduce_copy = make_copy(job.stage_tasks[1][0], cluster.peek_free_machine(), 1)
        cluster.place(reduce_copy)
        assert cluster.num_busy == 2
        assert cluster.machine_of(map_copy) != cluster.machine_of(reduce_copy)
        cluster.check_invariants()
        assert not cluster.has_free_machine()
        assert cluster.peek_free_machine() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterState(0)
        with pytest.raises(ValueError):
            ClusterState(1, machine_speed=0.0)
        with pytest.raises(ValueError):
            ClusterState(2, speeds=[1.0])
        with pytest.raises(ValueError):
            ClusterState(2, speeds=[1.0, 0.0])

    def test_per_machine_speeds(self):
        cluster = ClusterState(3, speeds=[0.5, 1.0, 2.0])
        assert cluster.speed_of(0) == 0.5
        assert cluster.speed_of(2) == 2.0
        assert cluster.speeds == [0.5, 1.0, 2.0]
        assert cluster.mean_speed == pytest.approx(3.5 / 3)
        assert cluster.machine(1).processing_time(10.0) == 10.0
        assert cluster.machine(2).processing_time(10.0) == 5.0

    def test_homogeneous_speed_fills_every_machine(self):
        cluster = ClusterState(3, machine_speed=2.0)
        assert cluster.speeds == [2.0, 2.0, 2.0]
        assert cluster.mean_speed == 2.0


class TestClusterFailureState:
    def test_mark_down_removes_from_free_pool(self):
        cluster = ClusterState(3)
        cluster.mark_down(1)
        assert cluster.num_down == 1
        assert cluster.num_free == 2
        assert cluster.num_busy == 0
        assert cluster.machine(1).is_down
        assert cluster.machine(1).failures == 1
        cluster.check_invariants()
        # Placements skip the down machine.
        assert cluster.peek_free_machine() != 1

    def test_mark_up_restores_machine(self):
        cluster = ClusterState(2)
        cluster.mark_down(0)
        cluster.mark_up(0)
        assert cluster.num_down == 0
        assert cluster.num_free == 2
        assert not cluster.machine(0).is_down
        cluster.check_invariants()

    def test_down_machine_rejects_assignment(self):
        cluster = ClusterState(1)
        cluster.mark_down(0)
        job = make_job()
        with pytest.raises(ValueError):
            cluster.machine(0).assign(make_copy(job.stage_tasks[0][0], 0))
        with pytest.raises(ValueError):
            cluster.machine(0).processing_time(10.0)

    def test_mark_down_requires_idle_machine(self):
        cluster = ClusterState(1)
        job = make_job()
        copy = make_copy(job.stage_tasks[0][0], cluster.peek_free_machine())
        cluster.place(copy)
        with pytest.raises(ValueError):
            cluster.mark_down(0)

    def test_double_transitions_rejected(self):
        cluster = ClusterState(1)
        cluster.mark_down(0)
        with pytest.raises(ValueError):
            cluster.mark_down(0)
        cluster.mark_up(0)
        with pytest.raises(ValueError):
            cluster.mark_up(0)

    def test_effective_speed_reflects_slowdown(self):
        machine = Machine(machine_id=0, speed=2.0)
        assert machine.effective_speed == 2.0
        machine.slowdown = 4.0
        assert machine.effective_speed == 0.5
        machine.is_down = True
        assert machine.effective_speed == 0.0


class TestKeptCopyInvariants:
    """A static run's kept copy holds its own machine and its request's others."""

    @staticmethod
    def place_group(cluster, machine_ids, position):
        # The engine's layout: one copy object on every machine of the request.
        task = make_job().stage_tasks[0][0]
        own = machine_ids[position]
        others = machine_ids[:position] + machine_ids[position + 1:]
        copy = TaskCopy(copy_id=position, task=task, machine_id=own,
                        launch_time=0.0, workload=10.0, start_time=0.0,
                        other_machines=others, launch_position=position)
        for machine_id in machine_ids:
            cluster._free_ids.remove(machine_id)
            cluster.machine(machine_id).current_copy = copy
        return copy

    def test_every_machine_of_a_kept_copy_is_accepted(self):
        cluster = ClusterState(5)
        copy = self.place_group(cluster, [4, 1, 3], position=1)
        cluster.check_invariants()
        assert copy.num_copies == 3
        assert copy.machine_ids == [4, 1, 3]

    def test_a_machine_the_kept_copy_does_not_list_is_rejected(self):
        cluster = ClusterState(5)
        copy = self.place_group(cluster, [4, 1, 3], position=1)
        cluster._free_ids.remove(0)
        cluster.machine(0).current_copy = copy
        with pytest.raises(AssertionError, match="copy/machine id mismatch"):
            cluster.check_invariants()

    def test_an_other_machine_freed_alone_is_rejected(self):
        cluster = ClusterState(5)
        self.place_group(cluster, [4, 1, 3], position=1)
        cluster.machine(3).current_copy = None
        cluster._free_ids.append(3)
        with pytest.raises(AssertionError, match="freed alone"):
            cluster.check_invariants()

    def test_a_kept_copy_without_its_own_machine_is_rejected(self):
        cluster = ClusterState(5)
        self.place_group(cluster, [4, 1, 3], position=1)
        cluster.machine(1).current_copy = None
        cluster._free_ids.append(1)
        with pytest.raises(AssertionError, match="left its own machine"):
            cluster.check_invariants()
