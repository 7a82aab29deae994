"""Property-style invariant tests for the simulation engine.

Seeded random traces are replayed under several policies with an
instrumented wrapper scheduler that validates the paper's Section III
semantics at every decision point, plus post-mortem checks over the full
copy history:

* the view's running copies (read off the machines) are exactly the
  active copies of the alive jobs' tasks, and at most one copy occupies
  any machine at any decision point;
* a copy is blocked (parked, no progress) exactly while its stage is not
  ready, judged from the task lists: some predecessor stage still has an
  incomplete task;
* no copy of a stage starts before every predecessor stage has completed;
* a task's completion time equals that of its earliest-finishing copy;
* killed clones release their machines (the cluster drains: every machine
  ends free, or down after a failure).

The stage-DAG extension (PR 6) adds more layers on multi-round jobs: the
incremental per-job counters must match a full ``_recount`` rescan at
every decision point, a mid-DAG failure kill must be re-dispatched
exactly once under single-copy redundancy policies, and the post-mortem
checks run on chain and diamond traces too, including compositions that
park copies of unready stages, with and without machine failures.

The rack topology (PR 8) adds one more: under an active topology the
per-rack occupancy counters must match a from-scratch recount of the
running copies at every decision point, and every launched copy must be
priced exactly once (``local_launches + remote_launches`` equals the
total copy count).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.policies import make_scheduler
from repro.scenarios import MachineFailures, ScenarioSpec, TopologySpec
from repro.simulation.engine import SimulationEngine
from repro.simulation.scheduler_api import ComposedScheduler, Scheduler
from repro.workload.generators import poisson_trace
from repro.workload.stream import stream_dag_chain_jobs, stream_dag_diamond_jobs
from repro.workload.trace import Trace

NUM_MACHINES = 6


def _stage_complete_by_scan(job, stage) -> bool:
    """Whether ``stage`` has completed, from the task lists alone.

    An empty stage completes the instant it becomes ready.
    """
    return _stage_ready_by_scan(job, stage) and all(
        task.is_completed for task in job.stage_tasks[stage]
    )


def _stage_ready_by_scan(job, stage) -> bool:
    """Whether every predecessor of ``stage`` has completed, from the task lists."""
    return all(
        _stage_complete_by_scan(job, dep) for dep in job.stage_specs[stage].deps
    )


class InvariantCheckingScheduler(Scheduler):
    """Delegates to a real policy, validating engine state at every decision."""

    def __init__(self, base: Scheduler) -> None:
        self._base = base
        self.name = f"checked-{base.name}"
        self.tick_interval = base.tick_interval
        self.decision_points = 0
        self.parked_observations = 0

    def bind(self, view) -> None:
        super().bind(view)
        self._base.bind(view)

    def on_job_arrival(self, job, time) -> None:
        self._base.on_job_arrival(job, time)

    def on_task_completion(self, task, time) -> None:
        self._base.on_task_completion(task, time)

    def on_job_completion(self, job, time) -> None:
        self._base.on_job_completion(job, time)

    def schedule(self, view):
        self.decision_points += 1
        # Recount the active copies from the alive jobs' tasks (independent
        # of the machines, which the view reads them from) and require the
        # view to report exactly that set.
        # A kept copy of a static multi-copy request is resident on every
        # machine of its request, so it is counted once per machine.
        occupied = [
            copy
            for job in view.alive_jobs
            for task in job.all_tasks()
            for copy in task.copies
            if copy.is_active
        ]
        running = view.running_copies()
        assert Counter(running) == Counter(
            {copy: copy.num_copies for copy in occupied}
        ), f"running-copy view disagrees with a task rescan at t={view.time}"

        # At most one active copy per machine, and occupancy must agree
        # with the free-machine count (down machines are neither free nor
        # occupied).
        machine_ids = [
            machine_id for copy in occupied for machine_id in copy.machine_ids
        ]
        assert len(machine_ids) == len(set(machine_ids)), (
            f"two active copies share a machine at t={view.time}"
        )
        assert len(machine_ids) == (
            view.num_machines - view.num_free_machines - view.num_down_machines
        )

        for copy in occupied:
            # Blocked copies are exactly the copies whose stage is not
            # ready, and blocked copies have made zero progress.
            task = copy.task
            if _stage_ready_by_scan(task.job, task.stage):
                assert not copy.is_blocked
            else:
                assert copy.is_blocked
                assert copy.progress(view.time) == 0.0
                self.parked_observations += 1

        requests = self._base.schedule(view)
        # Keep dynamic tick hints (e.g. delay-scheduling deadlines) visible
        # through the wrapper: the engine reads the outermost scheduler.
        self.tick_interval = self._base.tick_interval
        return requests


def check_post_mortem(engine, result, machines) -> None:
    """Checks over a finished run's full copy history.

    A run without machine failures is held to the strict form: every
    machine ends free and every killed copy is a clone the task's
    completion killed.  Only a run with failures may end with machines
    down and hold copies a failure killed before the task completed.
    """
    failures = result.machine_failures > 0 or result.copies_killed_by_failure > 0
    # Killed clones freed their machines: the cluster fully drains (a
    # machine that failed is down rather than free).
    if failures:
        assert engine.cluster.num_free + engine.cluster.num_down == machines
    else:
        assert engine.cluster.num_down == 0
        assert engine.cluster.num_free == machines
    assert engine.cluster.num_busy == 0
    engine.cluster.check_invariants()

    total_copies = 0
    useful = 0.0
    wasted = 0.0
    for job in engine._jobs:
        assert job.is_complete
        for stage, tasks in enumerate(job.stage_tasks):
            if tasks:
                # A stage completes with its last task.
                assert job.stage_completion_time(stage) == max(
                    task.completion_time for task in tasks
                )
            gates = [
                job.stage_completion_time(dep) for dep in job.stage_specs[stage].deps
            ]
            for task in tasks:
                assert task.is_completed
                total_copies += sum(copy.num_copies for copy in task.copies)

                finished = [copy for copy in task.copies if copy.is_finished]
                killed = [copy for copy in task.copies if copy.is_killed]
                # Exactly one copy wins; every other copy was killed.
                assert len(finished) == 1
                assert len(finished) + len(killed) == len(task.copies)

                # Task completion time is the earliest-finishing copy's
                # finish time: the winner finished then, and no clone the
                # completion killed could have finished earlier.  (A kept
                # copy is the earliest of its own request by construction;
                # tests/test_finish_entry_equivalence.py pins that against
                # copies built one by one.)  Only in a run with failures can
                # a copy have been killed earlier, outside that race.
                winner = finished[0]
                assert task.completion_time == winner.finish_time
                for clone in killed:
                    if failures:
                        assert clone.killed_at <= task.completion_time
                    else:
                        assert clone.killed_at == task.completion_time
                    if (
                        clone.start_time is not None
                        and clone.killed_at == task.completion_time
                    ):
                        assert (
                            clone.start_time + clone.workload
                            >= task.completion_time - 1e-9
                        )

                # No copy of a stage starts before every predecessor stage
                # has completed.
                for copy in task.copies:
                    if copy.start_time is not None:
                        for gate in gates:
                            assert gate is not None
                            assert copy.start_time >= gate - 1e-9

                # The copies a kept copy stands for ran exactly as long as it did.
                useful += sum(copy.elapsed(result.makespan) for copy in finished)
                wasted += sum(
                    (copy.num_copies - 1) * copy.elapsed(result.makespan)
                    for copy in finished
                )
                wasted += sum(
                    copy.num_copies * copy.elapsed(result.makespan) for copy in killed
                )

    # The engine's work accounting matches the copy history.
    assert total_copies == result.total_copies
    assert useful == pytest.approx(result.useful_work)
    assert wasted == pytest.approx(result.wasted_work)


def _policies():
    return [
        pytest.param(lambda: make_scheduler("SRPTMS+C", epsilon=0.6, r=3.0), id="srptms_c"),
        pytest.param(lambda: make_scheduler("SCA"), id="sca"),
        pytest.param(lambda: make_scheduler("Mantri"), id="mantri"),
        pytest.param(lambda: make_scheduler("FIFO"), id="fifo"),
    ]


@pytest.mark.parametrize("build", _policies())
@pytest.mark.parametrize("trace_seed", [11, 23, 47])
def test_engine_invariants_on_random_traces(build, trace_seed):
    trace = poisson_trace(
        num_jobs=15,
        arrival_rate=0.4,
        mean_tasks_per_job=5,
        mean_duration=8.0,
        cv=0.8,
        seed=trace_seed,
    )
    scheduler = InvariantCheckingScheduler(build())
    engine = SimulationEngine(
        trace,
        scheduler,
        NUM_MACHINES,
        seed=trace_seed,
        check_invariants=True,
    )
    result = engine.run()
    assert scheduler.decision_points > 0
    assert result.num_jobs == trace.num_jobs

    check_post_mortem(engine, result, NUM_MACHINES)


@pytest.mark.parametrize("trace_seed", [3, 9])
def test_invariants_hold_under_heavy_cloning(trace_seed):
    """An over-provisioned cluster forces aggressive cloning; the
    one-copy-per-machine and kill-frees-machine invariants must survive it."""
    trace = poisson_trace(
        num_jobs=8,
        arrival_rate=0.2,
        mean_tasks_per_job=3,
        mean_duration=10.0,
        cv=1.0,
        seed=trace_seed,
    )
    machines = 24  # far more machines than work
    scheduler = InvariantCheckingScheduler(make_scheduler("SRPTMS+C", epsilon=1.0, r=3.0))
    engine = SimulationEngine(
        trace, scheduler, machines, seed=trace_seed, check_invariants=True
    )
    result = engine.run()
    assert result.total_copies > result.total_tasks, "expected cloning to happen"
    assert result.wasted_work > 0.0
    assert engine.cluster.num_free == machines


# --------------------------------------------------------------------- stage DAGs

#: Every incrementally-maintained Job counter (see Job.__slots__); the
#: rescan invariant asserts each one equals a from-scratch recount.
COUNTER_SLOTS = (
    "_unscheduled",
    "_incomplete",
    "_stage_ready",
    "_unscheduled_ready",
    "_unscheduled_total",
    "_incomplete_total",
    "_incomplete_stages",
    "_active_copies",
    "_copies_launched",
)


def _counter_snapshot(job):
    return {
        slot: list(value) if isinstance(value, list) else value
        for slot, value in ((slot, getattr(job, slot)) for slot in COUNTER_SLOTS)
    }


class CounterRescanScheduler(InvariantCheckingScheduler):
    """Also asserts incremental counters == full rescan at every decision.

    ``Job._recount`` rederives every counter from the task lists and is
    idempotent, so snapshotting before and after it proves the
    incrementally-maintained state never drifted from ground truth.
    """

    def schedule(self, view):
        for job in view.alive_jobs:
            before = _counter_snapshot(job)
            job._recount()
            after = _counter_snapshot(job)
            assert before == after, (
                f"incremental counters drifted from a full rescan for job "
                f"{job.job_id} at t={view.time}: {before} != {after}"
            )
        return super().schedule(view)


def _dag_trace(kind: str, seed: int) -> Trace:
    if kind == "chain":
        specs = stream_dag_chain_jobs(
            10,
            num_rounds=3,
            arrival_rate=0.3,
            mean_tasks_per_round=3.0,
            mean_duration=6.0,
            cv=0.6,
            seed=seed,
        )
    else:
        specs = stream_dag_diamond_jobs(
            10,
            fan_out=3,
            arrival_rate=0.3,
            mean_tasks_per_branch=2.0,
            mean_duration=6.0,
            cv=0.6,
            seed=seed,
        )
    return Trace(tuple(specs), name=f"dag-{kind}")


@pytest.mark.parametrize("kind", ["chain", "diamond"])
@pytest.mark.parametrize("triple", ["fifo+greedy+none", "srpt+greedy+late"])
@pytest.mark.parametrize("trace_seed", [5, 31])
def test_incremental_counters_match_rescan_on_multi_round_jobs(
    kind, triple, trace_seed
):
    trace = _dag_trace(kind, trace_seed)
    ordering, allocation, redundancy = triple.split("+")
    scheduler = CounterRescanScheduler(
        ComposedScheduler(ordering, allocation, redundancy, r=3.0)
    )
    engine = SimulationEngine(
        trace, scheduler, NUM_MACHINES, seed=trace_seed, check_invariants=True
    )
    result = engine.run()
    assert scheduler.decision_points > 0
    assert result.num_jobs == trace.num_jobs
    check_post_mortem(engine, result, NUM_MACHINES)
    # The trace really exercised multi-round DAGs, not degenerate 2-stagers.
    assert any(job.num_stages > 2 for job in engine._jobs)


def _parking_schedulers():
    """Compositions that park copies of unready stages on machines."""
    return [
        pytest.param(
            lambda: ComposedScheduler(
                "srpt", "share", "clone", epsilon=0.6, r=3.0, allow_early_reduce=True
            ),
            id="srpt+share+clone-early",
        ),
        pytest.param(lambda: make_scheduler("Offline"), id="offline"),
        pytest.param(
            lambda: make_scheduler(
                "SRPTMS+C", schedule_reduce_before_map_completion=True
            ),
            id="srptms_c-early",
        ),
    ]


@pytest.mark.parametrize("failures", [False, True], ids=["static", "failures"])
@pytest.mark.parametrize("build", _parking_schedulers())
@pytest.mark.parametrize("kind", ["chain", "diamond"])
def test_parked_copies_wait_for_their_stage_on_multi_round_jobs(
    kind, build, failures
):
    """Copies parked on stages past the second wait for every predecessor."""
    trace = _dag_trace(kind, 5)
    scheduler = CounterRescanScheduler(build())
    scenario = (
        ScenarioSpec(failures=MachineFailures(rate=0.01, mean_repair=5.0))
        if failures
        else None
    )
    engine = SimulationEngine(
        trace,
        scheduler,
        NUM_MACHINES,
        seed=5,
        scenario=scenario,
        check_invariants=True,
    )
    result = engine.run()
    assert result.num_jobs == trace.num_jobs
    assert scheduler.parked_observations > 0, "expected parked copies"
    # Copies of stages past the second were parked too.
    assert any(
        copy.start_time is None or copy.start_time > copy.launch_time
        for job in engine._jobs
        for task in job.all_tasks()
        if task.stage >= 2
        for copy in task.copies
    )
    if failures:
        assert result.copies_killed_by_failure > 0, "expected failures to kill copies"
    check_post_mortem(engine, result, NUM_MACHINES)


@pytest.mark.parametrize("redundancy", ["none", "checkpoint"])
@pytest.mark.parametrize("trace_seed", [13, 29])
def test_mid_dag_failure_kills_redispatched_exactly_once(redundancy, trace_seed):
    """Under a single-copy policy every failure kill triggers exactly one
    replacement launch: per task, copies == kills + 1 and one winner."""
    trace = _dag_trace("chain", trace_seed)
    scheduler = CounterRescanScheduler(
        ComposedScheduler("fifo", "greedy", redundancy)
    )
    scenario = ScenarioSpec(failures=MachineFailures(rate=0.01, mean_repair=5.0))
    engine = SimulationEngine(
        trace,
        scheduler,
        NUM_MACHINES,
        seed=trace_seed,
        scenario=scenario,
        check_invariants=True,
    )
    result = engine.run()
    assert result.num_jobs == trace.num_jobs
    assert result.copies_killed_by_failure > 0, "expected failures to kill copies"

    total_killed = 0
    mid_dag_kill = False
    for job in engine._jobs:
        assert job.is_complete
        for task in job.all_tasks():
            finished = [copy for copy in task.copies if copy.is_finished]
            killed = [copy for copy in task.copies if copy.is_killed]
            assert len(finished) == 1
            # Exactly one replacement per kill, never more, never fewer.
            assert len(task.copies) == len(killed) + 1
            total_killed += len(killed)
            if killed and task.stage > 0:
                mid_dag_kill = True

    assert total_killed == result.copies_killed_by_failure
    assert mid_dag_kill, "expected at least one kill on a stage past the first"

# --------------------------------------------------------------------- topology

class RackOccupancyRescanScheduler(CounterRescanScheduler):
    """Also asserts per-rack occupancy == a from-scratch recount.

    The cluster maintains ``_rack_running`` incrementally on every place
    and release; recounting the running copies by the rack of their
    machine proves the ledger never drifts -- through launches, clone
    kills, failure kills and repairs alike.
    """

    def schedule(self, view):
        if view.topology_active:
            cluster = view._engine.cluster
            recount = [0] * view.num_racks
            for copy in view.running_copies():
                recount[view.rack_of(copy.machine_id)] += 1
            incremental = [
                cluster.num_running_on_rack(rack)
                for rack in range(view.num_racks)
            ]
            assert incremental == recount, (
                f"per-rack occupancy drifted from a recount at "
                f"t={view.time}: {incremental} != {recount}"
            )
        return super().schedule(view)


@pytest.mark.parametrize(
    "triple", ["srpt+delay+none", "srpt+delay+clone", "srpt+greedy+clone"]
)
@pytest.mark.parametrize("trace_seed", [17, 41])
def test_rack_occupancy_and_launch_accounting_under_topology(triple, trace_seed):
    trace = poisson_trace(
        num_jobs=15,
        arrival_rate=0.4,
        mean_tasks_per_job=5,
        mean_duration=8.0,
        cv=0.8,
        seed=trace_seed,
    )
    ordering, allocation, redundancy = triple.split("+")
    scheduler = RackOccupancyRescanScheduler(
        ComposedScheduler(ordering, allocation, redundancy, epsilon=0.6, r=3.0)
    )
    scenario = ScenarioSpec(
        failures=MachineFailures(rate=0.005, mean_repair=5.0),
        topology=TopologySpec(racks=3, remote_slowdown=2.0),
    )
    engine = SimulationEngine(
        trace,
        scheduler,
        NUM_MACHINES,
        seed=trace_seed,
        scenario=scenario,
        check_invariants=True,
    )
    result = engine.run()
    assert scheduler.decision_points > 0
    assert result.num_jobs == trace.num_jobs
    assert engine.cluster.num_free == NUM_MACHINES
    engine.cluster.check_invariants()

    # Every copy launched under an active topology lands on exactly one
    # side of the local/remote ledger -- kills and relaunches included.
    assert (
        result.local_launches + result.remote_launches == result.total_copies
    )
    assert result.total_copies == sum(
        len(task.copies) for job in engine._jobs for task in job.all_tasks()
    )
    assert 0.0 <= result.locality_fraction <= 1.0
