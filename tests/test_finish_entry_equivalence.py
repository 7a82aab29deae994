"""Differential lockdown of one finish entry and one copy object per launch request.

In a static run (no machine failures, no slowdowns) ``SimulationEngine
._launch_copies`` queues one finish entry per launch request: the entry of
the request's earliest-finishing started copy, the first in launch order
on a tie.  A task ends when its first copy finishes, which kills the rest,
and in a static run nothing else can end a started copy, so the copies
without an entry never fire.  On a ready stage that kept copy is also the
request's only ``TaskCopy``: the other copies are the machines it records
(``TaskCopy.other_machines``), freed after the winner's machine in launch
order at the task's completion.  Dynamic runs keep one entry and one
object per started copy, and parked copies stay one object each.

``ReferenceEngine`` keeps the earlier launch path: one copy object and one
entry per started copy in every run.  Both engines must give byte-identical
:class:`~repro.simulation.metrics.SimulationResult` fingerprints, with the
copy counters and the work totals (by ``float.hex``) checked on their own
as well, over every named composition plus four clone-heavy or
speculating triples, three static and two dynamic scenarios,
``allow_early_reduce`` off and on, and three traces:

* a small Google-like trace, whose clipped task durations tie exactly;
* chain DAG jobs, so copies park behind whole predecessor stages;
* ``Deterministic`` jobs arriving three at a time, where the clones of one
  request tie exactly and so do entries of different requests.

``BimodalSpeeds`` is what makes the tie rule visible.  The winner's machine
returns to the free list first and the killed clones' machines follow in
launch order, so a different tied winner moves a slow clone's machine to
another place in the LIFO free list; with identical machines that changes
nothing.  Letting the last tied copy win changes the result of several
``BimodalSpeeds`` cases here, and applying the rule in dynamic runs
changes several straggler and failure cases.  The failure rate is 5x
``FAILURES`` in ``tests/test_engine.py``: these traces last about 100 s,
and at 2e-4 no failure would hit a running copy.

The multi-copy compositions in static runs are also compared on the free
list after every task completion and on each task's winning copy, which
sees a tie broken the other way on identical machines, a machine freed
out of order and a copy id drawn once per request.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappush

import pytest

from repro.cluster.stragglers import DynamicStragglers
from repro.policies import NAMED_COMPOSITIONS
from repro.scenarios import BimodalSpeeds, MachineFailures, ScenarioSpec, TopologySpec
from repro.simulation.engine import SimulationEngine, _RunningCopy
from repro.simulation.scheduler_api import ComposedScheduler
from repro.workload.distributions import Deterministic
from repro.workload.google_trace import GoogleTraceConfig, GoogleTraceGenerator
from repro.workload.job import JobSpec, TaskCopy
from repro.workload.stream import StreamSpec, stream_dag_chain_jobs, stream_poisson_jobs
from repro.workload.trace import Trace

# --------------------------------------------------------------- reference


class ReferenceEngine(SimulationEngine):
    """The earlier launch path: one finish entry per started copy."""

    def _launch_copies(self, task, n):
        cluster = self.cluster
        free_ids = cluster._free_ids
        result = self.result
        free = len(free_ids)
        if n > free:
            result.over_requests += n - free
            n = free
            if n == 0:
                return
        job = task.job
        stage = task.stage
        buffer = job._workloads[stage]
        if len(buffer) < n:
            buffer = self._refill_workloads(task, n - len(buffer))
        topology = self._topology_active
        ready = job._stage_ready[stage]
        now = self.now
        machines = cluster._machines
        entries = self._events._entries
        sequence = self._sequence
        for _ in range(n):
            if topology:
                self._place_for_locality(task)
            machine_id = free_ids.pop()
            raw_workload = buffer.pop()
            if self._checkpoint_interval is not None and task.checkpoint_work > 0.0:
                raw_workload = max(raw_workload - task.checkpoint_work, 1e-9)
                result.checkpoint_resumes += 1
            machine = machines[machine_id]
            if machine.slowdown == 1.0:
                duration = raw_workload / machine.speed
            else:
                duration = raw_workload / (machine.speed / machine.slowdown)
            penalty = 1.0
            if topology:
                rack = self._rack_of[machine_id]
                if rack == task.preferred_rack:
                    result.local_launches += 1
                else:
                    penalty = self._remote_slowdown
                    duration *= penalty
                    result.remote_launches += 1
                cluster._rack_running[rack] += 1
            copy = TaskCopy.__new__(TaskCopy)
            copy.copy_id = next(self._copy_ids)
            copy.task = task
            copy.machine_id = machine_id
            copy.launch_time = now
            copy.workload = duration
            copy.finish_time = None
            copy.killed_at = None
            copy.work = raw_workload
            copy.remote_penalty = penalty
            copy.other_machines = None
            task.copies.append(copy)
            machine.current_copy = copy
            if not ready:
                copy.start_time = None
                copy.finish_version = 0
                continue
            copy.start_time = now
            if self._dynamic:
                rate = machine.effective_speed
                if penalty != 1.0:
                    rate /= penalty
                self._running[machine_id] = _RunningCopy(copy, raw_workload, now, rate)
            copy.finish_version = 1
            heappush(entries, (now + duration, 0, next(sequence), copy, 1))
        num_active = task._num_active
        if num_active:
            result.redundant_copies_launched += n
        else:
            result.redundant_copies_launched += n - 1
            job._unscheduled[stage] -= 1
            job._unscheduled_total -= 1
            if ready:
                job._unscheduled_ready -= 1
        task._num_active = num_active + n
        job._active_copies += n
        job._copies_launched += n
        result.total_copies += n
        if not ready:
            self._parked += n


# ------------------------------------------------------------------ cases


@lru_cache(maxsize=None)
def workload(name):
    """``(trace, machines)`` of one small workload (cached, never mutated)."""
    if name == "google":
        config = GoogleTraceConfig(
            num_jobs=20, job_scale=1.0, size_scale=0.05, trace_duration=60.0,
            min_task_duration=1.0, max_task_duration=40.0,
            mean_task_duration=8.0,
        )
        return GoogleTraceGenerator(config).generate(seed=1), 8
    if name == "chain":
        return Trace(list(stream_dag_chain_jobs(
            10, num_rounds=3, arrival_rate=0.5, mean_tasks_per_round=2.0,
            mean_duration=6.0, seed=4,
        ))), 8
    specs = [
        JobSpec(
            job_id=i, arrival_time=float(4 * (i // 3)), weight=1.0 + i % 3,
            num_map_tasks=1 + i % 3, num_reduce_tasks=i % 2,
            map_duration=Deterministic(5.0 + i % 2),
            reduce_duration=Deterministic(3.0),
        )
        for i in range(12)
    ]
    return Trace(specs), 12


TRACES = ("google", "chain", "deterministic")
STATIC = {
    "none": None,
    "bimodal": ScenarioSpec(speeds=BimodalSpeeds(slow_fraction=0.3, slow_speed=0.25)),
    "racks": ScenarioSpec(topology=TopologySpec(racks=2, remote_slowdown=1.5)),
}
DYNAMIC = {
    "failures": ScenarioSpec(failures=MachineFailures(rate=1e-3, mean_repair=20.0)),
    "stragglers": ScenarioSpec(
        stragglers=DynamicStragglers(onset_rate=1 / 30.0, mean_duration=10.0, factor=3.0)
    ),
}
SCENARIOS = {**STATIC, **DYNAMIC}
#: Far beyond every run below: a lost decision fails the run instead of
#: ticking forever (the LATE and Mantri compositions tick every 5 s).
MAX_TIME = 1e6

COMPOSITIONS = sorted(
    {"+".join(triple) for triple in NAMED_COMPOSITIONS.values()}
    | {"srpt+greedy+clone", "fifo+greedy+clone", "srpt+share+sca", "srpt+delay+clone"}
)


class FreeListProbe:
    """Records the free list and the winning copy at every task completion."""

    def _handle_copy_finish(self, copy, version=0):
        super()._handle_copy_finish(copy, version)
        self.free_lists.append((self.now, tuple(self.cluster._free_ids)))
        self.winners.append(
            (copy.copy_id, copy.machine_id, copy.work.hex(), copy.workload.hex())
        )


class ProbedEngine(FreeListProbe, SimulationEngine):
    pass


class ProbedReference(FreeListProbe, ReferenceEngine):
    pass


def _probed(engine_cls, composition, scenario, early, trace, machines):
    ordering, allocation, redundancy = composition.split("+")
    scheduler = ComposedScheduler(
        ordering, allocation, redundancy, epsilon=0.6, r=1.0, seed=3,
        allow_early_reduce=early,
    )
    engine = engine_cls(
        trace, scheduler, machines, seed=5, scenario=SCENARIOS[scenario], max_time=MAX_TIME
    )
    engine.free_lists = []
    engine.winners = []
    return engine


def _engine(engine_cls, composition, scenario, early, name):
    trace, machines = workload(name)
    return _probed(engine_cls, composition, scenario, early, trace, machines)


def assert_same_run(new, reference):
    """Identical results, free lists and winners after every completion, and ids."""
    a, b = new.run(), reference.run()
    assert a.fingerprint() == b.fingerprint()
    assert a.total_copies == b.total_copies
    assert a.redundant_copies_launched == b.redundant_copies_launched
    assert a.over_requests == b.over_requests
    assert a.useful_work.hex() == b.useful_work.hex()
    assert a.wasted_work.hex() == b.wasted_work.hex()
    assert new.free_lists == reference.free_lists
    assert new.winners == reference.winners
    assert next(new._copy_ids) == next(reference._copy_ids)
    return a


@pytest.mark.parametrize("early", [False, True], ids=["gated", "early"])
@pytest.mark.parametrize("composition", COMPOSITIONS)
@pytest.mark.parametrize("scenario", list(SCENARIOS))
@pytest.mark.parametrize("name", TRACES)
def test_one_entry_per_request_matches_per_copy_reference(
    name, scenario, composition, early
):
    new = _engine(ProbedEngine, composition, scenario, early, name)
    reference = _engine(ProbedReference, composition, scenario, early, name)
    assert assert_same_run(new, reference).num_jobs == len(workload(name)[0])
    # Each task's copy objects are its reference copies, with the other
    # copies of every static ready-stage request folded into its kept copy.
    for job, ref_job in zip(new._jobs, reference._jobs):
        for task, ref_task in zip(job.all_tasks(), ref_job.all_tasks()):
            ids = {copy.copy_id: copy for copy in ref_task.copies}
            assert sum(copy.num_copies for copy in task.copies) == len(ids)
            for copy in task.copies:
                twin = ids[copy.copy_id]
                assert copy.machine_id == twin.machine_id
                assert copy.work.hex() == twin.work.hex()
                assert copy.start_time == twin.start_time
                first = copy.copy_id
                if copy.other_machines is not None:
                    assert scenario in STATIC
                    first -= copy.launch_position
                assert copy.machine_ids == [
                    ids[i].machine_id for i in range(first, first + copy.num_copies)
                ]


#: The compositions whose launch requests carry several copies.
MULTI_COPY = (
    "srpt+share+clone", "srpt+share+sca", "fair+greedy+sca",
    "fifo+greedy+clone", "srpt+greedy+clone", "srpt+delay+clone",
)


@pytest.mark.parametrize("composition", MULTI_COPY)
@pytest.mark.parametrize("scenario", list(STATIC))
def test_stream_mode_matches_per_copy_reference(scenario, composition):
    spec = StreamSpec(
        stream_poisson_jobs, num_jobs=25,
        kwargs=dict(arrival_rate=0.5, mean_tasks_per_job=3.0, mean_duration=6.0, seed=2),
    )
    new = _probed(ProbedEngine, composition, scenario, False, spec.build(), 10)
    reference = _probed(ProbedReference, composition, scenario, False, spec.build(), 10)
    assert assert_same_run(new, reference).redundant_copies_launched > 0
    assert new._jobs == [] and not new._alive


@pytest.mark.parametrize("composition", MULTI_COPY)
def test_all_tie_requests_keep_their_first_copy(composition):
    # Deterministic durations on identical machines: every copy of a request
    # finishes at once, so the first one launched is kept, and its machine
    # is freed before the others, which follow in launch order.
    trace, machines = workload("deterministic")
    new = _probed(ProbedEngine, composition, "none", False, trace, machines)
    reference = _probed(ProbedReference, composition, "none", False, trace, machines)
    assert_same_run(new, reference)
    kept = [
        copy for job in new._jobs for task in job.all_tasks()
        for copy in task.copies if copy.other_machines
    ]
    assert kept and all(copy.launch_position == 0 for copy in kept)


def test_cases_reach_exact_ties_failure_kills_and_parked_copies():
    """The grids above exercise every situation the rules must get right."""
    # The reference builds every copy, so a request's ties are visible.
    engine = _engine(ReferenceEngine, "srpt+share+clone", "bimodal", False, "google")
    launch = engine._launch_copies
    tied_requests = []

    def launch_and_check_ties(task, n):
        before = len(task.copies)
        launch(task, n)
        finishes = [
            copy.launch_time + copy.workload
            for copy in task.copies[before:]
            if copy.start_time is not None
        ]
        if len(finishes) > 1 and finishes.count(min(finishes)) > 1:
            tied_requests.append(task)

    engine._launch_copies = launch_and_check_ties
    engine.run()
    assert tied_requests

    failures = _engine(SimulationEngine, "srpt+greedy+clone", "failures", False, "google")
    assert failures.run().copies_killed_by_failure > 0

    chain = _engine(SimulationEngine, "srpt+share+clone", "none", True, "chain")
    chain.run()
    assert any(
        copy.start_time != copy.launch_time
        for job in chain._jobs
        for task in job.all_tasks()
        for copy in task.copies
    )
