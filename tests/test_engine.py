"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

from typing import List, Sequence

import pytest

from repro.cluster.stragglers import DynamicStragglers, ProbabilisticSlowdown
from repro.scenarios import MachineFailures, ScenarioSpec
from repro.simulation.engine import SimulationEngine, SimulationError
from repro.simulation.events import Event, EventType
from repro.simulation.scheduler_api import (
    ComposedScheduler,
    LaunchRequest,
    Scheduler,
    SchedulerView,
)
from repro.workload.distributions import Deterministic
from repro.workload.generators import uniform_trace
from repro.workload.job import JobSpec, Phase
from repro.workload.trace import Trace


class GreedyScheduler(Scheduler):
    """Launches one copy of every launchable task, jobs in arrival order."""

    name = "greedy-test"

    def schedule(self, view: SchedulerView) -> Sequence[LaunchRequest]:
        free = view.num_free_machines
        requests: List[LaunchRequest] = []
        for job in sorted(view.alive_jobs, key=lambda j: j.arrival_time):
            for task in self.eligible_tasks(job):
                if free <= 0:
                    return requests
                requests.append(LaunchRequest(task=task, num_copies=1))
                free -= 1
        return requests


class CloningScheduler(Scheduler):
    """Launches two copies of every map task (and one of each reduce task)."""

    name = "cloning-test"

    def schedule(self, view: SchedulerView) -> Sequence[LaunchRequest]:
        free = view.num_free_machines
        requests: List[LaunchRequest] = []
        for job in view.alive_jobs:
            for task in self.eligible_tasks(job):
                copies = 2 if task.phase is Phase.MAP else 1
                copies = min(copies, free)
                if copies <= 0:
                    return requests
                requests.append(LaunchRequest(task=task, num_copies=copies))
                free -= copies
        return requests


class LazyScheduler(Scheduler):
    """Never launches anything (used to test the stuck-simulation guard)."""

    name = "lazy-test"

    def schedule(self, view: SchedulerView) -> Sequence[LaunchRequest]:
        return []


class OverRequestingScheduler(GreedyScheduler):
    """Requests more copies than there are free machines."""

    name = "over-requesting-test"

    def schedule(self, view: SchedulerView) -> Sequence[LaunchRequest]:
        requests = list(super().schedule(view))
        if requests:
            task = requests[0].task
            requests.append(LaunchRequest(task=task, num_copies=view.num_machines * 2))
        return requests


def single_job_trace(maps=2, reduces=1, map_d=10.0, reduce_d=5.0, arrival=0.0,
                     weight=1.0) -> Trace:
    spec = JobSpec(
        job_id=0,
        arrival_time=arrival,
        weight=weight,
        num_map_tasks=maps,
        num_reduce_tasks=reduces,
        map_duration=Deterministic(map_d),
        reduce_duration=Deterministic(reduce_d),
    )
    return Trace([spec])


class TestBasicExecution:
    def test_single_job_flowtime_is_exact(self):
        # 2 map tasks in parallel (10 s) then 1 reduce task (5 s) -> 15 s.
        trace = single_job_trace()
        engine = SimulationEngine(trace, GreedyScheduler(), num_machines=4)
        result = engine.run()
        assert result.num_jobs == 1
        assert result.records[0].flowtime == pytest.approx(15.0)
        assert result.records[0].map_phase_completion_time == pytest.approx(10.0)
        assert result.makespan == pytest.approx(15.0)

    def test_serial_execution_on_single_machine(self):
        # 2 maps + 1 reduce on one machine: 10 + 10 + 5 = 25 s.
        trace = single_job_trace()
        result = SimulationEngine(trace, GreedyScheduler(), num_machines=1).run()
        assert result.records[0].flowtime == pytest.approx(25.0)

    def test_arrival_offsets_are_respected(self):
        trace = single_job_trace(arrival=7.0)
        result = SimulationEngine(trace, GreedyScheduler(), num_machines=4).run()
        record = result.records[0]
        assert record.arrival_time == 7.0
        assert record.completion_time == pytest.approx(22.0)
        assert record.flowtime == pytest.approx(15.0)

    def test_map_only_job(self):
        trace = single_job_trace(maps=3, reduces=0)
        result = SimulationEngine(trace, GreedyScheduler(), num_machines=3).run()
        assert result.records[0].flowtime == pytest.approx(10.0)

    def test_reduce_only_job(self):
        trace = single_job_trace(maps=0, reduces=2, reduce_d=8.0)
        result = SimulationEngine(trace, GreedyScheduler(), num_machines=2).run()
        assert result.records[0].flowtime == pytest.approx(8.0)

    def test_useful_work_accounting(self):
        trace = single_job_trace()
        result = SimulationEngine(trace, GreedyScheduler(), num_machines=4).run()
        assert result.useful_work == pytest.approx(2 * 10.0 + 5.0)
        assert result.wasted_work == 0.0
        assert result.total_copies == 3
        assert result.cloning_ratio == pytest.approx(1.0)

    def test_machine_speed_scales_durations(self):
        trace = single_job_trace()
        result = SimulationEngine(
            trace, GreedyScheduler(), num_machines=4, machine_speed=2.0
        ).run()
        assert result.records[0].flowtime == pytest.approx(7.5)

    def test_two_jobs_share_the_cluster(self):
        specs = [
            JobSpec(job_id=i, arrival_time=0.0, weight=1.0, num_map_tasks=2,
                    num_reduce_tasks=0, map_duration=Deterministic(10.0),
                    reduce_duration=Deterministic(10.0))
            for i in range(2)
        ]
        result = SimulationEngine(Trace(specs), GreedyScheduler(), num_machines=4).run()
        assert result.num_jobs == 2
        assert all(record.flowtime == pytest.approx(10.0) for record in result.records)


class TestPrecedenceConstraint:
    def test_reduce_never_starts_before_map_phase_ends(self):
        trace = single_job_trace(maps=4, reduces=2, map_d=10.0, reduce_d=5.0)
        engine = SimulationEngine(trace, GreedyScheduler(), num_machines=10)
        result = engine.run()
        # Map phase ends at 10; reduce tasks then need 5 more seconds.
        assert result.records[0].flowtime == pytest.approx(15.0)
        job = engine._jobs[0]
        for task in job.reduce_tasks:
            for copy in task.copies:
                assert copy.start_time >= job.map_phase_completion_time

    def test_parked_reduce_copy_occupies_machine_without_progress(self):
        # A scheduler that launches every unscheduled task immediately parks
        # the reduce copy on a machine until the map phase completes.
        class ParkingScheduler(Scheduler):
            name = "parking-test"

            def schedule(self, view: SchedulerView) -> Sequence[LaunchRequest]:
                free = view.num_free_machines
                requests: List[LaunchRequest] = []
                for job in view.alive_jobs:
                    for phase in (Phase.MAP, Phase.REDUCE):
                        for task in job.unscheduled_tasks(phase):
                            if free <= 0:
                                return requests
                            requests.append(LaunchRequest(task=task, num_copies=1))
                            free -= 1
                return requests

        trace = single_job_trace(maps=1, reduces=1, map_d=10.0, reduce_d=5.0)
        engine = SimulationEngine(trace, ParkingScheduler(), num_machines=4)
        result = engine.run()
        job = engine._jobs[0]
        reduce_copy = job.reduce_tasks[0].copies[0]
        assert reduce_copy.launch_time == pytest.approx(0.0)
        assert reduce_copy.start_time == pytest.approx(10.0)
        assert result.records[0].flowtime == pytest.approx(15.0)


class TestCloning:
    def test_clone_kill_frees_machines_and_counts_waste(self):
        trace = single_job_trace(maps=1, reduces=0, map_d=10.0)
        engine = SimulationEngine(trace, CloningScheduler(), num_machines=4)
        result = engine.run()
        # Both copies are deterministic 10 s: one wins, the other is killed
        # at the same instant having consumed 10 s of machine time.
        assert result.total_copies == 2
        assert result.records[0].flowtime == pytest.approx(10.0)
        assert result.useful_work == pytest.approx(10.0)
        assert result.wasted_work == pytest.approx(10.0)
        assert result.redundant_work_fraction == pytest.approx(0.5)
        assert engine.cluster.num_free == 4

    def test_cloning_ratio_reported(self):
        trace = single_job_trace(maps=2, reduces=1)
        result = SimulationEngine(trace, CloningScheduler(), num_machines=8).run()
        assert result.total_copies == 5
        assert result.cloning_ratio == pytest.approx(5.0 / 3.0)


class TestRobustness:
    def test_stuck_scheduler_raises(self):
        trace = single_job_trace()
        engine = SimulationEngine(trace, LazyScheduler(), num_machines=2)
        with pytest.raises(SimulationError):
            engine.run()

    def test_over_requesting_is_truncated_and_counted(self):
        trace = single_job_trace(maps=2, reduces=1)
        engine = SimulationEngine(trace, OverRequestingScheduler(), num_machines=2)
        result = engine.run()
        assert result.over_requests > 0
        assert result.num_jobs == 1

    def test_max_time_guard(self):
        trace = single_job_trace(arrival=100.0)
        engine = SimulationEngine(
            trace, GreedyScheduler(), num_machines=2, max_time=50.0
        )
        with pytest.raises(SimulationError):
            engine.run()

    def test_launching_completed_task_raises(self):
        class BadScheduler(GreedyScheduler):
            def __init__(self):
                self._stash = None

            def schedule(self, view):
                requests = list(super().schedule(view))
                if requests and self._stash is None:
                    self._stash = requests[0].task
                if self._stash is not None and self._stash.is_completed:
                    return [LaunchRequest(task=self._stash, num_copies=1)]
                return requests

        trace = single_job_trace(maps=1, reduces=1)
        engine = SimulationEngine(trace, BadScheduler(), num_machines=1)
        with pytest.raises(SimulationError):
            engine.run()

    def test_invalid_constructor_arguments(self):
        trace = single_job_trace()
        with pytest.raises(ValueError):
            SimulationEngine(trace, GreedyScheduler(), num_machines=0)
        with pytest.raises(ValueError):
            SimulationEngine(trace, GreedyScheduler(), num_machines=1,
                             machine_speed=0.0)

    def test_check_invariants_mode(self):
        trace = uniform_trace(3, tasks_per_job=2, reduce_tasks_per_job=1,
                              mean_duration=5.0, inter_arrival=1.0)
        result = SimulationEngine(
            trace, GreedyScheduler(), num_machines=3, check_invariants=True
        ).run()
        assert result.num_jobs == 3


class TestStragglerInjection:
    def test_slowdown_model_inflates_flowtime(self):
        trace = single_job_trace(maps=1, reduces=0, map_d=10.0)
        slow = SimulationEngine(
            trace,
            GreedyScheduler(),
            num_machines=1,
            straggler_model=ProbabilisticSlowdown(probability=1.0, factor=3.0),
        ).run()
        assert slow.records[0].flowtime == pytest.approx(30.0)

    def test_seed_changes_sampled_durations(self):
        trace = uniform_trace(4, tasks_per_job=3, reduce_tasks_per_job=1,
                              mean_duration=10.0, cv=0.5)
        a = SimulationEngine(trace, GreedyScheduler(), num_machines=4, seed=1).run()
        b = SimulationEngine(trace, GreedyScheduler(), num_machines=4, seed=2).run()
        assert a.mean_flowtime != b.mean_flowtime

    def test_same_seed_is_reproducible(self):
        trace = uniform_trace(4, tasks_per_job=3, reduce_tasks_per_job=1,
                              mean_duration=10.0, cv=0.5)
        a = SimulationEngine(trace, GreedyScheduler(), num_machines=4, seed=9).run()
        b = SimulationEngine(trace, GreedyScheduler(), num_machines=4, seed=9).run()
        assert a.mean_flowtime == pytest.approx(b.mean_flowtime)
        assert a.makespan == pytest.approx(b.makespan)


class TestEvents:
    def test_event_ordering_same_time(self):
        finish = Event.copy_finish(5.0, 1, copy=None)
        arrival = Event.arrival(5.0, 0, job=None)
        tick = Event.tick(5.0, 2)
        ordered = sorted([tick, arrival, finish])
        assert [e.event_type for e in ordered] == [
            EventType.COPY_FINISH,
            EventType.JOB_ARRIVAL,
            EventType.TICK,
        ]

    def test_event_ordering_by_time(self):
        early = Event.tick(1.0, 5)
        late = Event.copy_finish(2.0, 1, copy=None)
        assert sorted([late, early])[0] is early


class _DecisionLog(ComposedScheduler):
    """The paper's srpt+share+clone composition, logging each decision time.

    Deliberately not FIFO: the engine's FIFO fast lane launches without
    calling ``schedule()`` at all.
    """

    def __init__(self) -> None:
        super().__init__("srpt", "share", "clone", epsilon=0.6, r=3.0)
        self.decision_times: List[float] = []

    def schedule(self, view: SchedulerView) -> Sequence[LaunchRequest]:
        self.decision_times.append(view.time)
        return super().schedule(view)


class TestSameTimestampBatchDraining:
    """The engine drains each timestamp as one batch, then decides once.

    The run mixes simultaneous arrivals, machine failures and repairs,
    clones killed when a sibling wins, and finishes re-estimated by
    straggler slowdowns, so the heap holds colliding timestamps and stale
    finish entries.  Every handler call is logged: the scheduler must be
    consulted once per unique live-event time, in increasing order, each
    timestamp's entries must be handled in priority order, and no killed
    or superseded finish may ever reach the finish handler.
    """

    def test_one_decision_per_live_timestamp_and_no_stale_finish(self):
        specs = [
            JobSpec(job_id=i, arrival_time=arrival, weight=1.0 + i % 3,
                    num_map_tasks=3 + i % 4, num_reduce_tasks=1 + i % 2,
                    map_duration=Deterministic(6.0),
                    reduce_duration=Deterministic(4.0))
            for i, arrival in enumerate(
                [0.0, 0.0, 0.0, 5.0, 5.0, 12.0, 12.0, 12.0, 30.0, 30.0]
            )
        ]
        scheduler = _DecisionLog()
        scenario = ScenarioSpec(
            stragglers=DynamicStragglers(onset_rate=0.05, mean_duration=4.0,
                                         factor=3.0),
            failures=MachineFailures(rate=0.01, mean_repair=3.0),
        )
        engine = SimulationEngine(Trace(specs), scheduler, num_machines=12,
                                  seed=4, scenario=scenario,
                                  check_invariants=True)

        handled = []  # (time, kind) of every handler call
        finish_handler = engine._handle_copy_finish
        arrival_handler = engine._handle_arrival
        event_handler = engine._handle_event

        def on_finish(copy, version=0):
            assert copy.finish_time is None and copy.killed_at is None
            assert version == copy.finish_version
            handled.append((engine.now, "finish"))
            finish_handler(copy, version)

        def on_arrival(job):
            handled.append((engine.now, "arrival"))
            arrival_handler(job)

        def on_event(event):
            handled.append((engine.now, event.event_type.name))
            event_handler(event)

        engine._handle_copy_finish = on_finish
        engine._handle_arrival = on_arrival
        engine._handle_event = on_event
        result = engine.run()
        assert result.num_jobs == len(specs)

        times = sorted({time for time, _ in handled})
        # One decision per batch, in time order; the batch completing the
        # last job ends the run before any decision.
        assert scheduler.decision_times == times[:-1]
        assert times[-1] == result.makespan

        # Within a batch, entries come out in global (priority, sequence)
        # order: finish < repair < failure < ... < arrival < tick.
        def priority(kind):
            if kind == "finish":
                return EventType.COPY_FINISH
            if kind == "arrival":
                return EventType.JOB_ARRIVAL
            return EventType[kind]

        batches = {}
        for time, kind in handled:
            batches.setdefault(time, []).append(priority(kind))
        for batch in batches.values():
            assert batch == sorted(batch)
        assert any(len(set(batch)) > 1 for batch in batches.values())

        # The run really exercised every tie and staleness source.
        kinds = [kind for _, kind in handled]
        arrival_times = [time for time, kind in handled if kind == "arrival"]
        assert len(set(arrival_times)) < len(arrival_times)
        assert "MACHINE_FAILURE" in kinds and "MACHINE_REPAIR" in kinds
        assert result.straggler_onsets > 0 and result.wasted_work > 0
        copies = [
            copy
            for job in engine._jobs
            for task in job.all_tasks()
            for copy in task.copies
        ]
        assert any(copy.finish_version > 1 for copy in copies)
        assert any(
            copy.killed_at is not None and copy.start_time is not None
            for copy in copies
        )
        # Each push of a finish entry bumps the copy's version, so the
        # versions count every queued finish; all but the handled ones
        # were stale and dropped in the drain.
        pushed = sum(copy.finish_version for copy in copies)
        assert pushed > kinds.count("finish")
