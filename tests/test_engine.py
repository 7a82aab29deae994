"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import math
from heapq import heappop, heappush
from types import SimpleNamespace
from typing import List, Sequence

import numpy as np
import pytest

from repro.cluster.stragglers import DynamicStragglers
from repro.experiments import ExperimentConfig
from repro.policies import make_scheduler
from repro.policies.gating import launchable_tasks
from repro.policies.redundancy import PaperCloning
from repro.scenarios import MachineFailures, ScenarioSpec, TopologySpec
from repro.simulation import engine as engine_module
from repro.simulation.engine import SimulationEngine, SimulationError
from repro.simulation.events import Event, EventHeap, EventType
from repro.simulation.scheduler_api import (
    ComposedScheduler,
    LaunchRequest,
    Scheduler,
    SchedulerView,
)
from repro.workload.distributions import Deterministic, DurationDistribution, Exponential
from repro.workload.generators import uniform_trace
from repro.workload.google_trace import GoogleTraceConfig, GoogleTraceGenerator
from repro.workload.job import JobSpec
from repro.workload.stream import stream_dag_chain_jobs, stream_dag_diamond_jobs
from repro.workload.trace import Trace


class GreedyScheduler(Scheduler):
    """Launches one copy of every launchable task, jobs in arrival order."""

    name = "greedy-test"

    def schedule(self, view: SchedulerView) -> Sequence[LaunchRequest]:
        free = view.num_free_machines
        requests: List[LaunchRequest] = []
        for job in sorted(view.alive_jobs, key=lambda j: j.arrival_time):
            for task in launchable_tasks(job, allow_early_reduce=True):
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
            for task in launchable_tasks(job, allow_early_reduce=True):
                copies = 2 if task.stage == 0 else 1
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
        for task in job.stage_tasks[1]:
            for copy in task.copies:
                assert copy.start_time >= job.stage_completion_time(0)

    def test_parked_reduce_copy_occupies_machine_without_progress(self):
        # A scheduler that launches every unscheduled task immediately parks
        # the reduce copy on a machine until the map phase completes.
        class ParkingScheduler(Scheduler):
            name = "parking-test"

            def schedule(self, view: SchedulerView) -> Sequence[LaunchRequest]:
                free = view.num_free_machines
                requests: List[LaunchRequest] = []
                for job in view.alive_jobs:
                    for stage in range(job.num_stages):
                        for task in job.unscheduled_stage_tasks(stage):
                            if free <= 0:
                                return requests
                            requests.append(LaunchRequest(task=task, num_copies=1))
                            free -= 1
                return requests

        trace = single_job_trace(maps=1, reduces=1, map_d=10.0, reduce_d=5.0)
        engine = SimulationEngine(trace, ParkingScheduler(), num_machines=4)
        result = engine.run()
        job = engine._jobs[0]
        reduce_copy = job.stage_tasks[1][0].copies[0]
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


class CountingDistribution(DurationDistribution):
    """Delegates to ``base`` and records the size of every ``sample_list`` draw."""

    def __init__(self, base: DurationDistribution) -> None:
        self.base = base
        self.draws: List[int] = []

    @property
    def mean(self) -> float:
        return self.base.mean

    @property
    def std(self) -> float:
        return self.base.std

    def sample(self, rng, size=1):
        return self.base.sample(rng, size)

    def sample_list(self, rng, size):
        self.draws.append(size)
        return self.base.sample_list(rng, size)


def single_task_trace(duration: DurationDistribution) -> Trace:
    spec = JobSpec(
        job_id=0,
        arrival_time=0.0,
        weight=1.0,
        num_map_tasks=1,
        num_reduce_tasks=0,
        map_duration=duration,
        reduce_duration=duration,
    )
    return Trace([spec])


class TestLaunchRequestFusion:
    """One launch request is one launch call and at most one refill draw."""

    def test_clone_grant_refills_with_one_fused_draw(self):
        dist = CountingDistribution(Exponential(10.0))
        scheduler = ComposedScheduler("srpt", "share", "clone", epsilon=0.6, r=3.0)
        engine = SimulationEngine(single_task_trace(dist), scheduler, num_machines=6, seed=4)
        result = engine.run()
        # The lone job's epsilon-share grant is the whole cluster: one
        # request of six copies.  One draw at arrival (the stage's single
        # task), then one fused top-up for all five clones, not one each.
        assert result.total_copies == 6
        assert result.redundant_copies_launched == 5
        assert result.over_requests == 0
        assert dist.draws == [1, 5]
        # The copies carry the draws in draw order, as six size-1 draws
        # would.  The request builds one copy object, the copy that finishes
        # first on these identical machines -- the least work -- with the
        # id and launch position of its draw, holding all six machines.
        [copy] = engine._jobs[0].stage_tasks[0][0].copies
        expected = Exponential(10.0).sample_list(np.random.default_rng(4), 6)
        assert copy.work == min(expected)
        assert copy.copy_id == copy.launch_position == expected.index(min(expected))
        assert sorted(copy.machine_ids) == list(range(6))

    def test_request_larger_than_free_pool_is_truncated_once(self):
        dist = CountingDistribution(Exponential(10.0))
        engine = SimulationEngine(
            single_task_trace(dist), OverRequestingScheduler(), num_machines=3
        )
        result = engine.run()
        # One copy, then a request of six copies with two machines free:
        # two launch (one fused draw of two) and four are over-requests.
        assert result.total_copies == 3
        assert result.over_requests == 4
        assert dist.draws == [1, 2]


class CheckpointedCloning(PaperCloning):
    """Paper cloning whose copies also checkpoint: clones and resumes at once."""

    checkpoint_interval = 5.0


FAILURES = ScenarioSpec(failures=MachineFailures(rate=2e-4, mean_repair=50.0))

#: Per-copy branches of the launch path a clone-heavy run can take: failure
#: kills and relaunches, a two-rack topology (placement and remote pricing),
#: and checkpoint resumes on top of failures.
CLONE_BRANCHES = {
    "failures": dict(scenario=FAILURES),
    "two-racks": dict(
        scenario=ScenarioSpec(topology=TopologySpec(racks=2, remote_slowdown=2.0))
    ),
    "checkpoint": dict(scenario=FAILURES),
}

#: Fingerprints of the runs above, recorded with one launch call and one
#: refill draw per copy: they pin request-level launching to per-copy
#: launching, bit for bit.
CLONE_FINGERPRINTS = {
    ("srpt+share+clone", "failures"): (
        "5d6ed8f3704f538ddb50a631bc3fef49e51ad648af029ff2d88c611aa11034cb"
    ),
    ("srpt+share+clone", "two-racks"): (
        "b7707c4b8aed3c4170690bf0e9db1b518caf134b3b98c7d9ffd76d27c0f45aea"
    ),
    ("srpt+share+clone", "checkpoint"): (
        "7f25f162c6c7216a624933bcf70f1cecfe492dcb52221a9f1847c6426514231e"
    ),
    ("srpt+greedy+clone", "failures"): (
        "1b932a741f55b2e3b9c0cd81fd26029ff33d8bb11a1df0ce2cd6f2cc56d7e6ae"
    ),
    ("srpt+greedy+clone", "two-racks"): (
        "b22c98732ebada273b2802df7707b26ccefb5e24728a01747648974e384bad14"
    ),
    ("srpt+greedy+clone", "checkpoint"): (
        "92f7351fad52c3b294823813018c50a6b6d4b9f22beb30dde6d22cf6dc4b8292"
    ),
}


@pytest.fixture(scope="module")
def google_config():
    config = ExperimentConfig(scale=0.003)
    return config, config.make_trace()


@pytest.mark.parametrize("composition, branch", sorted(CLONE_FINGERPRINTS))
def test_clone_heavy_fingerprints_are_pinned(google_config, composition, branch):
    config, trace = google_config
    ordering, allocation, _ = composition.split("+")
    redundancy = CheckpointedCloning() if branch == "checkpoint" else "clone"
    scheduler = ComposedScheduler(ordering, allocation, redundancy, epsilon=0.6, r=3.0, seed=2)
    result = SimulationEngine(
        trace,
        scheduler,
        config.machines,
        seed=5,
        check_invariants=True,
        **CLONE_BRANCHES[branch],
    ).run()
    assert result.redundant_copies_launched > 0
    if branch in ("failures", "checkpoint"):
        assert result.copies_killed_by_failure > 0
    if branch == "two-racks":
        assert result.remote_launches > 0
    if branch == "checkpoint":
        assert result.checkpoint_resumes > 0
    assert result.fingerprint() == CLONE_FINGERPRINTS[composition, branch]


#: SCA on stage DAGs deeper than two stages: 60 three-round chain jobs and
#: 60 diamond jobs (split, three branches, merge) on 16 machines.  SCA
#: divides a clone's marginal gain by the unfinished tasks of stage 0, or of
#: every later stage together (``SCACloning._pending_count``).  On these
#: traces a per-stage divisor changes all four fingerprints, so a change to
#: the divisor has to re-record them on purpose.
SCA_DAG_FINGERPRINTS = {
    ("SCA", "chain"): (
        "e0e49dfa0654447eaa1eb19e9e13746044068d0fa222cd9d7a1391ecaea7c238"
    ),
    ("SCA", "diamond"): (
        "fd4895412a0f59ee21d5e7be846d7c7a36bf031dbaf1cedd8ae9d59c8c198fcf"
    ),
    ("srpt+share+sca", "chain"): (
        "0a2d7afdfb09a9ba39d1f6376ebea743b47ad388a249b86d71aac4959dc54596"
    ),
    ("srpt+share+sca", "diamond"): (
        "b674196d7e6517cab16b56cbf02ad9d0d761fbfb7b7c26fc56c34a1aabbfea83"
    ),
}


def _sca_dag_trace(kind: str) -> Trace:
    if kind == "chain":
        specs = stream_dag_chain_jobs(
            60, num_rounds=3, arrival_rate=0.3, mean_tasks_per_round=3.0,
            mean_duration=6.0, cv=0.6, seed=2,
        )
    else:
        specs = stream_dag_diamond_jobs(
            60, fan_out=3, arrival_rate=0.3, mean_tasks_per_branch=2.0,
            mean_duration=6.0, cv=0.6, seed=2,
        )
    return Trace(tuple(specs), name=kind)


@pytest.mark.parametrize("name, kind", sorted(SCA_DAG_FINGERPRINTS))
def test_sca_fingerprints_on_deep_dags_are_pinned(name, kind):
    keywords = {} if name == "SCA" else dict(epsilon=0.6, r=3.0)
    result = SimulationEngine(
        _sca_dag_trace(kind),
        make_scheduler(name, **keywords),
        16,
        seed=3,
        check_invariants=True,
    ).run()
    assert result.redundant_copies_launched > 0
    assert result.fingerprint() == SCA_DAG_FINGERPRINTS[name, kind]


class TestFinishEntryTraffic:
    """Finish entries queued: one per launch request in a static run, one
    per started copy under machine failures.

    Pushes are counted by wrapping the engine module's ``heappush``.
    """

    @staticmethod
    def _count_finish_pushes(monkeypatch):
        pushes = []

        def counting_push(heap, entry):
            if entry[1] == EventType.COPY_FINISH:
                pushes.append(entry)
            heappush(heap, entry)

        monkeypatch.setattr(engine_module, "heappush", counting_push)
        return pushes

    @staticmethod
    def _engine(google_config, **kwargs):
        config, trace = google_config
        scheduler = ComposedScheduler("srpt", "share", "clone", epsilon=0.6, r=3.0, seed=2)
        return SimulationEngine(trace, scheduler, config.machines, seed=5, **kwargs)

    def test_static_run_pushes_one_entry_per_launch_request(
        self, google_config, monkeypatch
    ):
        engine = self._engine(google_config)
        launch = engine._launch_copies
        started_requests = []

        def counting_launch(task, n):
            before = len(task.copies)
            launch(task, n)
            if any(copy.start_time is not None for copy in task.copies[before:]):
                started_requests.append(task)

        engine._launch_copies = counting_launch
        pushes = self._count_finish_pushes(monkeypatch)
        result = engine.run()
        assert result.redundant_copies_launched > 0
        assert len(pushes) == len(started_requests) < result.total_copies
        assert not engine._events

    def test_failure_run_pushes_one_entry_per_started_copy(
        self, google_config, monkeypatch
    ):
        engine = self._engine(google_config, scenario=FAILURES)
        pushes = self._count_finish_pushes(monkeypatch)
        result = engine.run()
        assert result.redundant_copies_launched > 0
        assert result.copies_killed_by_failure > 0
        assert len(pushes) == result.total_copies


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
        # A NaN speed would make every flowtime NaN, an infinite one every
        # copy take zero time.
        for speed in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="machine_speed"):
                SimulationEngine(trace, GreedyScheduler(), num_machines=1,
                                 machine_speed=speed)
        # A NaN max_time would turn the guard off, a negative one raise
        # only at the first event.
        for max_time in (math.nan, -1.0):
            with pytest.raises(ValueError, match="max_time"):
                SimulationEngine(trace, GreedyScheduler(), num_machines=1,
                                 max_time=max_time)

    def test_infinite_max_time_sets_no_limit(self):
        result = SimulationEngine(single_job_trace(), GreedyScheduler(),
                                  num_machines=4, max_time=math.inf).run()
        assert result.num_jobs == 1

    def test_check_invariants_mode(self):
        trace = uniform_trace(3, tasks_per_job=2, reduce_tasks_per_job=1,
                              mean_duration=5.0, inter_arrival=1.0)
        result = SimulationEngine(
            trace, GreedyScheduler(), num_machines=3, check_invariants=True
        ).run()
        assert result.num_jobs == 3


class TestStragglerInjection:
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
    """Heap entries are ``(time, priority, sequence, payload, version)`` tuples,
    pushed with the priorities the engine and ``EventHeap.push_finish`` use."""

    def test_event_ordering_same_time(self):
        heap = EventHeap()
        heappush(heap._entries, (5.0, engine_module._TICK_PRIORITY, 0, None, 0))
        heappush(heap._entries, (5.0, engine_module._ARRIVAL_PRIORITY, 1, None, 0))
        heap.push_finish(SimpleNamespace(finish_version=0), 5.0, 2)
        assert [heappop(heap._entries)[1] for _ in range(3)] == [
            EventType.COPY_FINISH,
            EventType.JOB_ARRIVAL,
            EventType.TICK,
        ]

    def test_event_ordering_by_time(self):
        heap = EventHeap()
        heap.push_finish(SimpleNamespace(finish_version=0), 2.0, 1)
        heappush(heap._entries, (1.0, engine_module._TICK_PRIORITY, 5, None, 0))
        assert heappop(heap._entries)[:2] == (1.0, EventType.TICK)


class _WakeUpProbe(GreedyScheduler):
    """The greedy test scheduler, asking for a scripted wake-up after each decision.

    ``wake_ups`` maps a decision time to the ``tick_interval`` requested
    after that decision; every other decision asks for ``cadence``.
    """

    def __init__(self, wake_ups, cadence: float = 5.0) -> None:
        self.wake_ups = wake_ups
        self.cadence = cadence
        self.tick_interval = cadence
        self.decision_times: List[float] = []

    def schedule(self, view: SchedulerView) -> Sequence[LaunchRequest]:
        self.decision_times.append(view.time)
        self.tick_interval = self.wake_ups.get(view.time, self.cadence)
        return super().schedule(view)


class TestTicks:
    """Tick entries carry no payload, and the earliest requested wake-up wins."""

    def test_static_late_run_constructs_no_event(self, google_config, monkeypatch):
        constructed = []
        init = Event.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(args)
            init(self, *args, **kwargs)

        ticks = []

        def recording_push(heap, entry):
            if entry[1] == EventType.TICK:
                ticks.append(entry)
            heappush(heap, entry)

        monkeypatch.setattr(Event, "__init__", counting_init)
        monkeypatch.setattr(engine_module, "heappush", recording_push)
        config, trace = google_config
        scheduler = ComposedScheduler("srpt", "greedy", "late", r=3.0)
        result = SimulationEngine(trace, scheduler, config.machines, seed=5).run()
        assert result.num_jobs == trace.num_jobs
        assert ticks and all(entry[3] is None for entry in ticks)
        assert constructed == []

    def test_earlier_wake_up_supersedes_the_pending_tick(self):
        # Two long single-task jobs arrive at 0 and 1.  After the decision
        # at 1 the scheduler asks for a wake-up 2 s later, before the tick
        # pending at 5: the tick at 3 is pushed and restarts the 5 s
        # cadence.  The superseded tick at 5 is still a decision point, but
        # starts no second chain (no decisions at 10, 15, ...).
        specs = [
            JobSpec(job_id=i, arrival_time=float(i), weight=1.0, num_map_tasks=1,
                    num_reduce_tasks=0, map_duration=Deterministic(30.0),
                    reduce_duration=Deterministic(1.0))
            for i in range(2)
        ]
        scheduler = _WakeUpProbe({1.0: 2.0})
        SimulationEngine(Trace(specs), scheduler, num_machines=2).run()
        # Job 0 finishes at 30 and job 1 at 31, which ends the run.
        assert scheduler.decision_times == [
            0.0, 1.0, 3.0, 5.0, 8.0, 13.0, 18.0, 23.0, 28.0, 30.0
        ]

    @pytest.mark.parametrize(
        "redundancy, scale, machines, failures",
        [
            # A deadline before the pending 5 s LATE or Mantri tick.
            ("late", 0.0005, 12, None),
            ("mantri", 0.0005, 12, None),
            # A deadline before the poll delay scheduling itself set one
            # wait ahead, for a task every free machine had blacklisted.
            ("none", 0.003, 30, MachineFailures(rate=1e-3, mean_repair=20.0)),
        ],
        ids=["late", "mantri", "none-failures"],
    )
    def test_delay_wake_up_is_never_dropped(self, redundancy, scale, machines, failures):
        # Delay scheduling asks to revisit a deferred task at its deadline.
        # Whenever it asked for a wake-up, the next decision point must
        # come no later.
        trace = GoogleTraceGenerator(GoogleTraceConfig(scale=scale)).generate(
            seed=1 if failures is None else 8
        )
        scheduler = ComposedScheduler("srpt", "delay", redundancy, r=3.0)
        allocation = scheduler.allocation
        decide = scheduler.schedule
        decisions = []  # (time, wake-up delay the allocation asked for)

        def logged(view):
            requests = decide(view)
            decisions.append((view.time, allocation.tick_interval))
            return requests

        scheduler.schedule = logged
        scenario = ScenarioSpec(
            topology=TopologySpec(racks=4, remote_slowdown=1.5), failures=failures
        )
        SimulationEngine(trace, scheduler, num_machines=machines, seed=1,
                         scenario=scenario).run()
        assert any(wake is not None for _, wake in decisions)
        late = [
            (time, wake, next_time)
            for (time, wake), (next_time, _) in zip(decisions, decisions[1:])
            if wake is not None and next_time > time + wake
        ]
        assert late == []


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
