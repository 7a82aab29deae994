"""The discrete-event simulation engine.

The engine owns all mutable state (jobs, tasks, copies, machines) and is the
only component allowed to sample task workloads.  It advances time from one
decision point to the next -- job arrivals, copy completions, machine
events and optional periodic ticks -- which is equivalent to the paper's
per-slot stepping because machine allocations only change at those points.

Semantics enforced here (Section III of the paper):

* each machine holds at most one copy at a time;
* a reduce copy placed before its job's map phase completes occupies its
  machine but makes no progress until the map phase finishes;
* a task completes when its earliest-finishing copy completes; surviving
  clones are killed at that instant and their machines freed;
* the scheduler is consulted after every batch of simultaneous events.

Scenario extensions (:mod:`repro.scenarios`):

* machines may carry individual static speeds (heterogeneous clusters);
* a machine's *effective* speed can change mid-run -- dynamic straggler
  slowdown onset/recovery -- in which case the engine settles the work its
  resident copy has completed so far and re-estimates the finish time at
  the new rate (stale finish events are dropped by version: the
  *versioned finish event* contract of :mod:`repro.simulation.events`);
* machines can fail, killing the resident copy (re-dispatched **exactly
  once** through the normal scheduling path because the task becomes
  unscheduled again) and rejoining the free pool after repair.

All scenario randomness flows from dedicated per-run / per-machine streams
(see the seeding contract in :mod:`repro.scenarios`), so enabling a
scenario never perturbs workload sampling, and every run stays a pure
function of its spec.

Streaming traces and the hot path
---------------------------------
The engine accepts either a fully materialised
:class:`~repro.workload.trace.Trace` or a lazy
:class:`~repro.workload.stream.TraceStream`.  In both cases arrivals are
consumed with **one event of lookahead**: exactly one not-yet-fired arrival
event sits in the heap at any time, and popping it immediately pulls the
next job spec from the source.  Because the source is arrival-ordered, this
produces byte-identical event batches to pushing every arrival up front
while keeping memory proportional to the *alive* job set -- a million-job
stream never materialises a million specs.  For a ``Trace`` the engine
additionally retains finished :class:`~repro.workload.job.Job` objects (in
``_jobs``, arrival order) for post-run inspection; for a stream it drops
them as they finish so memory stays bounded.

The hot path relies on the O(1) incremental counters of
:mod:`repro.workload.job` (unscheduled/active/incomplete task counts
updated at copy transitions, never recomputed by scanning) and on the
tuple-payload :class:`~repro.simulation.events.EventHeap` (C-speed
comparisons, Job/TaskCopy payloads carried directly in the heap tuples,
lazy-deletion decrease-key for finish re-estimates).  Task workloads are
pre-sampled per stage with one vectorised ``sample_batch`` draw at job
arrival -- bit-identical to per-task draws by the RNG-consumption
contract of :meth:`repro.workload.distributions.DurationDistribution
.sample_batch` -- into buffers living on the :class:`Job` itself.  All
events at one timestamp are drained as a single batch before the
scheduler is consulted, and the static FIFO+greedy composition takes a
gated engine-inlined decision walk (see :meth:`SimulationEngine
._resolve_fast_lane`).
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.cluster.state import ClusterState
from repro.cluster.stragglers import NoStragglers, StragglerModel
from repro.scenarios import ScenarioSpec, machine_process_rng, placement_rng
from repro.simulation.events import Event, EventHeap, EventType
from repro.simulation.metrics import JobRecord, SimulationResult
from repro.simulation.scheduler_api import LaunchRequest, Scheduler, SchedulerView
from repro.workload.distributions import Deterministic
from repro.workload.job import _LEGACY_DEPENDENTS, Job, Task, TaskCopy
from repro.workload.stream import TraceStream
from repro.workload.trace import Trace

__all__ = ["SimulationEngine", "SimulationError"]

#: Plain-int arrival priority for the inlined arrival push (see
#: :meth:`SimulationEngine._push_next_arrival`).
_ARRIVAL_PRIORITY = int(EventType.JOB_ARRIVAL)

#: What the engine accepts as a workload: an in-memory trace or a lazy stream.
TraceLike = Union[Trace, TraceStream]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent or stuck state."""


class _RunningCopy:
    """Dynamic-scenario progress ledger for the copy running on one machine.

    ``work_remaining`` is in raw work units; ``rate`` is the machine's
    effective speed at ``settled_at``.  Settling folds the work processed
    since the last settle into ``work_remaining`` so the finish time can be
    re-estimated whenever the rate changes.
    """

    __slots__ = ("copy", "work_remaining", "settled_at", "rate")

    def __init__(
        self, copy: TaskCopy, work_remaining: float, settled_at: float, rate: float
    ) -> None:
        self.copy = copy
        self.work_remaining = work_remaining
        self.settled_at = settled_at
        self.rate = rate


class SimulationEngine:
    """Replays one trace (or stream) against one scheduler on ``M`` machines."""

    def __init__(
        self,
        trace: TraceLike,
        scheduler: Scheduler,
        num_machines: int,
        *,
        seed: int = 0,
        machine_speed: float = 1.0,
        straggler_model: Optional[StragglerModel] = None,
        scenario: Optional[ScenarioSpec] = None,
        max_time: Optional[float] = None,
        check_invariants: bool = False,
    ) -> None:
        if num_machines <= 0:
            raise ValueError(f"num_machines must be positive, got {num_machines}")
        if machine_speed <= 0:
            raise ValueError(f"machine_speed must be positive, got {machine_speed}")
        self.trace = trace
        self.scheduler = scheduler
        self.scenario = scenario
        speeds = None
        if scenario is not None:
            sampled = scenario.machine_speeds(num_machines, seed)
            if sampled is not None:
                # ``machine_speed`` stays the resource-augmentation knob: it
                # scales every sampled per-machine speed uniformly.
                speeds = sampled * machine_speed
        self.cluster = ClusterState(
            num_machines, machine_speed=machine_speed, speeds=speeds
        )
        self.machine_speed = machine_speed
        self.straggler_model = (
            straggler_model if straggler_model is not None else NoStragglers()
        )
        # Fast path: skip the per-copy inflate() call entirely when no
        # straggler model is configured (the overwhelmingly common case).
        self._inflate = (
            None
            if isinstance(self.straggler_model, NoStragglers)
            else self.straggler_model.inflate
        )
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self.max_time = max_time
        self.check_invariants = check_invariants
        # Checkpointing redundancy: the composed scheduler exposes the
        # interval when its redundancy policy is "checkpoint"; the engine
        # then rounds a failure-killed copy's completed work down to an
        # interval multiple and resumes the task from there (see
        # _handle_machine_failure / _launch_copy).
        interval = getattr(scheduler, "checkpoint_interval", None)
        if interval is not None and interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be positive, got {interval}"
            )
        self._checkpoint_interval: Optional[float] = interval

        self.now: float = 0.0
        self._sequence = itertools.count()
        self._copy_ids = itertools.count()
        self._events = EventHeap()
        # Arrival stream state: jobs are pulled lazily, one lookahead at a
        # time (see the module docstring).  ``_jobs`` retains materialised
        # jobs for post-run inspection only when the source is an in-memory
        # Trace; streams stay memory-bounded by dropping finished jobs.
        self._spec_iter = iter(trace)
        self._total_jobs = trace.num_jobs
        self._retain_jobs = isinstance(trace, Trace)
        self._jobs: List[Job] = []
        self._specs_drawn = 0
        self._last_arrival_time = 0.0
        self._alive: Dict[int, Job] = {}
        self._completed = 0
        self._arrived = 0
        # Number of currently parked copies (launched on a not-yet-ready
        # stage, occupying a machine without progress).  Zero for every
        # run without allow_early_reduce, which lets the completion path
        # skip the parked-copy scan entirely (see _handle_copy_finish).
        self._parked = 0
        self._next_tick: Optional[float] = None
        # Dynamic-scenario state: per-machine process streams and the
        # progress ledger of running copies.  ``_dynamic`` gates every piece
        # of this bookkeeping so static scenarios keep the fast path.
        self._dynamic = scenario is not None and scenario.is_dynamic
        self._running: Dict[int, _RunningCopy] = {}
        self._machine_rngs: List[np.random.Generator] = []
        if self._dynamic:
            self._machine_rngs = [
                machine_process_rng(seed, m) for m in range(num_machines)
            ]
        # Rack topology & locality.  Only a *non-degenerate* topology
        # activates any of it: the degenerate (single-rack or unit-penalty)
        # case takes the exact legacy code path, so its results are
        # bit-identical to topology=None and the locality counters stay
        # zero (pinned by tests/test_topology.py).
        topology = scenario.topology if scenario is not None else None
        self._topology_active = topology is not None and not topology.is_degenerate
        self._rack_of: Optional[List[int]] = None
        self._placement_rng: Optional[np.random.Generator] = None
        self._remote_slowdown = 1.0
        self._num_racks = 1
        if self._topology_active:
            self._num_racks = topology.racks
            self._rack_of = [m % topology.racks for m in range(num_machines)]
            self._remote_slowdown = topology.remote_slowdown
            self._placement_rng = placement_rng(seed)
            self.cluster.configure_topology(self._rack_of)
        declared_tasks = trace.total_tasks
        self._accumulate_tasks = declared_tasks is None
        self.result = SimulationResult(
            scheduler_name=scheduler.name,
            num_machines=num_machines,
            total_tasks=0 if declared_tasks is None else declared_tasks,
            seed=seed,
        )
        self.straggler_model.prepare(num_machines, self.rng)
        self._view = SchedulerView(self)
        # Resolved notification hooks, or None when the scheduler (or the
        # policy an instance attribute delegates to) left the base no-op in
        # place: the engine then skips the call entirely on its hot paths.
        # ``__func__`` sees through both class overrides and instance-level
        # rebinding (ComposedScheduler rebinds on_task_completion when its
        # redundancy policy ignores completions).
        self._notify_arrival = self._resolve_hook("on_job_arrival")
        self._notify_task_completion = self._resolve_hook("on_task_completion")
        self._notify_job_completion = self._resolve_hook("on_job_completion")
        self._fast_fifo = self._resolve_fast_lane()

    def _resolve_fast_lane(self) -> bool:
        """True when the FIFO+greedy+none decision walk can be engine-inlined.

        The gate admits exactly the compositions whose ``schedule()`` call
        reduces to :meth:`GreedyAllocation._static_walk` over the identity
        :class:`~repro.policies.ordering.FIFOOrdering` with no redundancy
        finalize pass -- for those, the engine loop runs an equivalent walk
        that launches copies as it finds them, skipping the LaunchRequest
        plan/apply round-trip (see the fast-lane block in :meth:`_run`).
        Every condition is pinned to the exact class so any subclass
        override -- a custom ``schedule``, a re-sorting ordering, a
        finalizing redundancy -- falls back to the generic path.
        """
        # Deferred imports: repro.policies imports this package's
        # scheduler_api module, so a module-level import here could cycle
        # depending on which package is imported first.
        from repro.policies.ordering import FIFOOrdering
        from repro.simulation.scheduler_api import ComposedScheduler

        scheduler = self.scheduler
        return (
            isinstance(scheduler, ComposedScheduler)
            and type(scheduler).schedule is ComposedScheduler.schedule
            and scheduler._static_greedy
            and not scheduler._redundancy_finalizes
            and not scheduler.allow_early_reduce
            and type(scheduler.ordering) is FIFOOrdering
        )

    def _resolve_hook(self, name: str):
        """The scheduler's ``name`` hook, or ``None`` if it is the base no-op.

        A scheduler whose class overrides ``on_task_completion`` only to
        forward to a policy that ignores completions declares that with
        ``ignores_task_completions`` (see :class:`ComposedScheduler`).
        """
        if name == "on_task_completion" and getattr(
            self.scheduler, "ignores_task_completions", False
        ):
            return None
        hook = getattr(self.scheduler, name)
        base = getattr(Scheduler, name)
        if getattr(hook, "__func__", hook) is base:
            return None
        return hook

    # ------------------------------------------------------------------ public API

    def alive_jobs(self) -> List[Job]:
        """Arrived, not-yet-finished jobs in arrival order."""
        return list(self._alive.values())

    def run(self) -> SimulationResult:
        """Run the simulation to completion and return the collected metrics."""
        # The event loop allocates a handful of small objects per simulation
        # step; at the default gen-0 threshold (700) a long run spends >15%
        # of its wall clock in tens of thousands of young-generation
        # collections that scan the ever-growing record list.  Raising the
        # thresholds for the duration of the run cuts the collection count
        # dramatically while still reclaiming cyclic garbage periodically
        # (disabling GC outright would balloon RSS).  Stream-mode finalize
        # breaks the Job<->Task<->TaskCopy cycles explicitly, so nearly all
        # hot-loop garbage is reclaimed by reference counting alone -- the
        # raised gen-1/gen-2 multipliers then keep full collections (which
        # scan the ever-growing, acyclic record list) out of the loop.  GC
        # timing has no effect on simulation semantics, so results stay
        # bit-identical.
        import gc

        old_thresholds = gc.get_threshold()
        gc.set_threshold(10_000, 100, 100)
        try:
            return self._run()
        finally:
            gc.set_threshold(*old_thresholds)

    def _run(self) -> SimulationResult:
        """The actual event loop behind :meth:`run`."""
        self.scheduler.bind(self._view)
        self._push_next_arrival()
        self._schedule_initial_machine_events()
        # Hoisted loop-invariant conditions: ``tick_interval`` is fixed at
        # scheduler construction, so tickless runs (every policy but
        # LATE/Mantri) skip the per-iteration tick bookkeeping entirely.
        interval = self.scheduler.tick_interval
        ticks = interval is not None and interval > 0
        max_time = self.max_time
        check = self.check_invariants
        events = self._events
        entries = events._entries
        pop = heappop
        push = heappush
        handle = self._handle_event
        handle_finish = self._handle_copy_finish
        handle_arrival = self._handle_arrival
        pump = self._push_next_arrival
        launch = self._launch_copy
        refill = self._refill_workloads
        schedule = self.scheduler.schedule
        view = self._view
        cluster = self.cluster
        free_ids = cluster._free_ids
        machines = cluster._machines
        copy_ids = self._copy_ids
        sequence = self._sequence
        result = self.result
        alive_values = self._alive.values()
        dynamic = self._dynamic
        fast = self._fast_fifo
        # The *plain* launch gate: with no topology, no workload inflation,
        # no checkpointing and no dynamic scenario, _launch_copy collapses
        # to pure counter updates plus one heap push -- inlined below in
        # the fast-lane walk (launched tasks there are always on a ready
        # stage, so the parked branch is unreachable too).
        plain = (
            fast
            and not self._topology_active
            and not dynamic
            and self._inflate is None
            and self._checkpoint_interval is None
        )
        total_jobs = self._total_jobs
        arrival_priority = int(EventType.JOB_ARRIVAL)
        finish_priority = int(EventType.COPY_FINISH)

        # The same-timestamp batch drain (see repro.simulation.events):
        # pop the earliest live entry, handle it, then pop and handle every
        # further live entry at the same timestamp before the one decision
        # point of the batch.  Each entry is handled as it is popped, never
        # buffered: handlers never push same-timestamp events (all
        # workloads and scenario draws are strictly positive), and within
        # every (time, priority) class the relative sequence order of
        # pushes is preserved, so the batch is exactly the set of live
        # entries at that time in (priority, sequence) order.  Stale finish
        # entries (killed or re-estimated copies) are dropped at the head
        # and never handled.  Entries are raw
        # ``(time, priority, sequence, payload, version)`` tuples: the two
        # dominant kinds carry their payload directly (one TaskCopy per
        # finish, one Job per arrival) and dispatch straight to their
        # handlers with no Event object in sight; everything else (machine
        # events, ticks) carries an :class:`Event` payload handled by
        # :meth:`_handle_event`.
        while True:
            # Pop the earliest live entry, dropping stale finish entries
            # (killed or re-estimated copies) at the head.
            entry = None
            while entries:
                head = entries[0]
                if head[1] == finish_priority:
                    copy = head[3]
                    if (
                        copy.finish_time is not None
                        or copy.killed_at is not None
                        or head[4] != copy.finish_version
                    ):
                        pop(entries)
                        continue
                entry = pop(entries)
                break
            if entry is None:
                break
            now = self.now = entry[0]
            if max_time is not None and now > max_time:
                raise SimulationError(
                    f"simulation exceeded max_time={max_time} at t={now}"
                )
            while True:
                priority = entry[1]
                if priority == finish_priority:
                    handle_finish(entry[3], entry[4])
                elif priority == arrival_priority:
                    pump()
                    handle_arrival(entry[3])
                else:
                    handle(entry[3])
                # Drain the rest of this timestamp's batch (stale finish
                # heads dropped in place; stale entries later than ``now``
                # are left for the outer pop to reach).
                entry = None
                while entries:
                    head = entries[0]
                    if head[0] != now:
                        break
                    if head[1] == finish_priority:
                        copy = head[3]
                        if (
                            copy.finish_time is not None
                            or copy.killed_at is not None
                            or head[4] != copy.finish_version
                        ):
                            pop(entries)
                            continue
                    entry = pop(entries)
                    break
                if entry is None:
                    break
            if self._completed == total_jobs:
                break
            # One decision point per batch.  The gated FIFO fast lane (see
            # _resolve_fast_lane) is the inlined equivalent of
            # ComposedScheduler.schedule -> GreedyAllocation._static_walk
            # -> launchable_tasks -> _apply_launches for the static
            # fifo+greedy+none composition: FIFOOrdering returns the alive
            # sequence unchanged, so the walk visits jobs in arrival order
            # (the live dict view -- launches never mutate the alive set)
            # and launches each launchable task immediately.  Immediate
            # launching is equivalent to plan-then-apply because a launch
            # only decrements the launched task's own job/stage counters
            # (each stage's count/readiness is snapshotted before its
            # tasks launch, per-task predicates of other tasks are
            # untouched, and readiness only changes at completions), and
            # the walk is bounded by the free count taken before any
            # launch, so requests can never exceed the machines that were
            # free at plan time.
            if fast:
                free = len(free_ids)
                if free > 0:
                    for job in alive_values:
                        if job._unscheduled_ready == 0:
                            continue
                        unscheduled = job._unscheduled
                        ready = job._stage_ready
                        stage = 0
                        for stage_list in job.stage_tasks:
                            count = unscheduled[stage]
                            if count and ready[stage]:
                                # Whole stage unscheduled (a fresh arrival)
                                # skips the per-task filter.
                                whole = count == len(stage_list)
                                for task in stage_list:
                                    if not whole and (
                                        task.completion_time is not None
                                        or task._num_active != 0
                                    ):
                                        continue
                                    if plain:
                                        # _launch_copy, inlined for the
                                        # plain gate above: the walk
                                        # already holds the job and a
                                        # ready stage, the machine is on
                                        # the free list (up, idle), and a
                                        # ready-stage copy starts at once.
                                        machine_id = free_ids[-1]
                                        buffer = job._workloads[stage]
                                        if not buffer:
                                            buffer = refill(task)
                                        raw_workload = buffer.pop()
                                        machine = machines[machine_id]
                                        if machine.slowdown == 1.0:
                                            duration = (
                                                raw_workload / machine.speed
                                            )
                                        else:
                                            duration = raw_workload / (
                                                machine.speed
                                                / machine.slowdown
                                            )
                                        copy = TaskCopy.__new__(TaskCopy)
                                        copy.copy_id = next(copy_ids)
                                        copy.task = task
                                        copy.machine_id = machine_id
                                        copy.launch_time = now
                                        copy.workload = duration
                                        copy.finish_time = None
                                        copy.killed_at = None
                                        copy.work = raw_workload
                                        copy.remote_penalty = 1.0
                                        num_active = task._num_active
                                        if num_active:
                                            result.redundant_copies_launched += 1
                                        else:
                                            unscheduled[stage] -= 1
                                            job._unscheduled_total -= 1
                                            job._unscheduled_ready -= 1
                                        task.copies.append(copy)
                                        task._num_active = num_active + 1
                                        job._active_copies += 1
                                        job._copies_launched += 1
                                        free_ids.pop()
                                        machine.current_copy = copy
                                        machine.copies_hosted += 1
                                        if stage == 0:
                                            cluster._map_running += 1
                                        else:
                                            cluster._reduce_running += 1
                                        result.total_copies += 1
                                        copy.start_time = now
                                        copy.finish_version = 1
                                        push(
                                            entries,
                                            (
                                                now + duration,
                                                0,
                                                next(sequence),
                                                copy,
                                                1,
                                            ),
                                        )
                                    else:
                                        launch(task)
                                    free -= 1
                                    if free == 0:
                                        break
                                if free == 0:
                                    break
                            stage += 1
                        if free == 0:
                            break
            else:
                requests = schedule(view)
                if requests:
                    self._apply_launches(requests)
            if ticks:
                # Ticks go into the heap before stuck-detection runs: an
                # allocation policy deferring its launches (delay
                # scheduling) keeps the run alive through its wake-up
                # tick, which the check must see.
                self._maybe_schedule_tick()
            if dynamic or not entries:
                # Stuck-detection only matters when no future event could
                # unstick the run: on the static path a non-empty heap
                # proves progress (the check's own fast exit, hoisted).
                self._check_progress_possible()
            if check:
                self.cluster.check_invariants()

        if self._completed != self._total_jobs:
            if self._specs_drawn < self._total_jobs and not self._alive:
                raise SimulationError(
                    f"trace source {getattr(self.trace, 'name', '?')!r} yielded "
                    f"{self._specs_drawn} of its declared {self._total_jobs} jobs"
                )
            unfinished = [job.job_id for job in self._alive.values()]
            raise SimulationError(
                f"simulation ended with {len(unfinished)} unfinished jobs "
                f"(e.g. {unfinished[:5]}); the scheduler left work unscheduled"
            )
        self.result.makespan = self.now
        return self.result

    # ------------------------------------------------------------------ event plumbing

    def _push(self, event: Event) -> None:
        self._events.push(event)

    def _push_finish(self, copy: TaskCopy, time: float) -> None:
        """Queue the (only currently valid) finish event of ``copy``."""
        self._events.push_finish(copy, time, next(self._sequence))

    def _push_next_arrival(self) -> None:
        """Pull the next job spec from the source and queue its arrival.

        Maintains the one-lookahead invariant: at most one unfired arrival
        event exists, and it is queued before the current event batch is
        sealed, so simultaneous arrivals land in the same batch exactly as
        they would with all arrivals pushed up front.
        """
        spec = next(self._spec_iter, None)
        if spec is None:
            return
        arrival_time = spec.arrival_time
        if arrival_time < self._last_arrival_time:
            raise SimulationError(
                f"trace source yielded arrivals out of order: job {spec.job_id} "
                f"at t={arrival_time} after t={self._last_arrival_time}"
            )
        self._last_arrival_time = arrival_time
        self._specs_drawn += 1
        job = Job.from_spec(spec)
        if self._retain_jobs:
            self._jobs.append(job)
        # The job itself is the entry payload: no Event allocation (this
        # runs once per job of the stream).
        heappush(
            self._events._entries,
            (arrival_time, _ARRIVAL_PRIORITY, next(self._sequence), job, 0),
        )

    def _handle_event(self, event: Event) -> None:
        # Dispatch by frequency: completions dominate (one per copy),
        # arrivals come second (one per job); everything else is rare.
        if event.event_type is EventType.COPY_FINISH:
            self._handle_copy_finish(event.copy, event.version)
        elif event.event_type is EventType.JOB_ARRIVAL:
            self._handle_arrival(event.job)
        elif event.event_type is EventType.MACHINE_FAILURE:
            self._handle_machine_failure(event.machine_id)
        elif event.event_type is EventType.MACHINE_REPAIR:
            self._handle_machine_repair(event.machine_id)
        elif event.event_type is EventType.MACHINE_SLOWDOWN_START:
            self._handle_slowdown_start(event.machine_id)
        elif event.event_type is EventType.MACHINE_SLOWDOWN_END:
            self._handle_slowdown_end(event.machine_id)
        elif event.event_type is EventType.TICK:
            self._next_tick = None
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event type {event.event_type}")

    def _handle_arrival(self, job: Job) -> None:
        spec = job.spec
        job_id = spec.job_id
        alive = self._alive
        if job_id in alive:
            # Trace.__init__ rejects duplicate ids up front; a stream factory
            # can only be checked as it yields.  A duplicate would corrupt
            # the job_id-keyed alive/buffer bookkeeping -- fail fast instead.
            raise SimulationError(
                f"trace source yielded duplicate job_id {job_id} while "
                "the first job with that id is still alive"
            )
        alive[job_id] = job
        self._arrived += 1
        if self._accumulate_tasks:
            self.result.total_tasks += spec.num_map_tasks + spec.num_reduce_tasks
        # Pre-sample task workloads, one vectorised sample_batch draw per
        # stage in stage index order (map then reduce for the 2-node DAG),
        # so RNG consumption is bit-identical to per-task draws by the
        # sample_batch contract (see DurationDistribution.sample_batch).
        # The buffers live on the job itself -- they die with it at
        # finalize, with no dict or tuple-key allocation per stage.
        rng = self.rng
        workloads: List[List[float]] = []
        append = workloads.append
        for stage in job._stages:
            count = stage.num_tasks
            if count:
                dist = stage.duration
                if type(dist) is Deterministic:
                    # Constant workloads: no RNG use, no reverse needed.
                    append([dist._value] * count)
                else:
                    buffer = dist.sample_list(rng, count)
                    # Reversed so pop() consumes values in draw order.
                    buffer.reverse()
                    append(buffer)
            else:
                append([])
        job._workloads = workloads
        if self._topology_active:
            # One preferred-rack draw per job, in arrival order, from the
            # dedicated placement stream (see the seeding contract in
            # repro.scenarios): the rack holding the job's input splits.
            rack = int(self._placement_rng.integers(self._num_racks))
            for tasks in job.stage_tasks:
                for task in tasks:
                    task.preferred_rack = rack
        if self._notify_arrival is not None:
            self._notify_arrival(job, self.now)

    def _refill_workloads(self, task: Task) -> List[float]:
        """Refill ``task``'s stage buffer (clones/relaunches exhausted it).

        Refills with another stage-sized ``sample_batch`` draw to keep RNG
        calls rare; the cold path behind the inlined buffer pop in
        :meth:`_launch_copy`.
        """
        job = task.job
        count = max(job.stage_specs[task.stage].num_tasks, 1)
        buffer = task.duration_distribution.sample_list(self.rng, count)
        buffer.reverse()
        job._workloads[task.stage] = buffer
        return buffer

    def _handle_copy_finish(self, copy: TaskCopy, version: int = 0) -> None:
        if copy.finish_time is not None or copy.killed_at is not None:
            # Killed by an earlier event in this same batch.
            return
        if version != copy.finish_version:
            # Re-estimated by an earlier event in this same batch.
            return
        task = copy.task
        now = self.now
        result = self.result
        cluster = self.cluster
        dynamic = self._dynamic
        topology = self._topology_active
        # A finishing copy always started; elapsed = now - start (inlined
        # from TaskCopy.elapsed, which this hot path calls per completion).
        elapsed = now - copy.start_time
        # Inlined TaskCopy.finish + Task.complete (+ the bookkeeping hooks
        # they call) -- validation elided: the staleness tests above prove
        # the copy is active and its task incomplete.  The winning copy's
        # deactivation (+1 to the unscheduled counters, fires iff it was
        # the last active copy) and the task's completion (-1, same
        # condition) cancel exactly, so no unscheduled delta is applied on
        # this path at all.
        copy.finish_time = now
        task.completion_time = now
        job = task.job
        stage = task.stage
        num_active = task._num_active - 1
        task._num_active = num_active
        job._active_copies -= 1
        # Inlined ClusterState.release (a finishing copy is always placed
        # on its own machine); Task.phase avoided -- stage 0 is the map
        # phase.
        machine_id = copy.machine_id
        machine = cluster._machines[machine_id]
        machine.current_copy = None
        machine.busy_time += elapsed
        cluster._free_ids.append(machine_id)
        if stage == 0:
            cluster._map_running -= 1
        else:
            cluster._reduce_running -= 1
        if topology:
            cluster._rack_running[self._rack_of[machine_id]] -= 1
        if dynamic:
            self._running.pop(copy.machine_id, None)
        result.useful_work += elapsed

        if num_active:
            # Clones still occupy machines: kill and release them in copy
            # order (inlined TaskCopy.kill; the task's completion_time is
            # already set, so no unscheduled re-entry fires).
            for clone in task.copies:
                if clone.finish_time is None and clone.killed_at is None:
                    clone.killed_at = now
                    task._num_active -= 1
                    job._active_copies -= 1
                    clone_elapsed = (
                        0.0
                        if clone.start_time is None
                        else now - clone.start_time
                    )
                    machine_id = clone.machine_id
                    machine = cluster._machines[machine_id]
                    machine.current_copy = None
                    machine.busy_time += clone_elapsed
                    cluster._free_ids.append(machine_id)
                    if stage == 0:
                        cluster._map_running -= 1
                    else:
                        cluster._reduce_running -= 1
                    if topology:
                        cluster._rack_running[self._rack_of[machine_id]] -= 1
                    if dynamic:
                        self._running.pop(clone.machine_id, None)
                    result.wasted_work += clone_elapsed

        # Inlined Job.notify_task_completion (the engine calls it exactly
        # once per completion, so its ownership checks are elided).
        incomplete = job._incomplete
        incomplete[stage] -= 1
        job._incomplete_total -= 1
        if (
            incomplete[stage] == 0
            and job._stage_completion[stage] is None
            and job._stage_ready[stage]
        ):
            if job._dependents is _LEGACY_DEPENDENTS:
                # Inlined Job._complete_stage for the canonical 2-node
                # map->reduce DAG (the overwhelmingly common shape): the
                # cascade is fully known -- completing the map stage
                # readies the reduce stage (an *empty* reduce stage then
                # completes on the spot, finishing the job), completing
                # the reduce stage finishes the job.  The newly-ready
                # buffer is skipped: its only consumer is the parked-copy
                # unpark below, gated on the exact live parked count.
                completion = job._stage_completion
                completion[stage] = now
                if stage == 0:
                    job._stage_ready[1] = True
                    job._unscheduled_ready += job._unscheduled[1]
                    if job._incomplete[1] == 0:
                        completion[1] = now
                        job._incomplete_stages -= 2
                        job.completion_time = now
                    else:
                        job._incomplete_stages -= 1
                        if self._parked:
                            self._unblock_parked_copies(job, (1,))
                else:
                    job._incomplete_stages -= 1
                    if job._incomplete_stages == 0:
                        job.completion_time = now
            else:
                job._complete_stage(stage, now)
                newly_ready = job._newly_ready
                if newly_ready:
                    job._newly_ready = []
                    if self._parked:
                        self._unblock_parked_copies(job, newly_ready)
        if self._notify_task_completion is not None:
            self._notify_task_completion(task, now)
        if job.completion_time is not None:
            self._finalize_job(job)

    def _unblock_parked_copies(self, job: Job, stages: Sequence[int]) -> None:
        """Start copies parked behind the now-complete predecessors of ``stages``."""
        for stage in stages:
            for task in job.stage_tasks[stage]:
                for copy in task.copies:
                    if copy.is_active and copy.is_blocked:
                        copy.start(self.now)
                        self._parked -= 1
                        if self._dynamic:
                            # The machine's effective speed may have changed
                            # since launch; price the parked work at the
                            # current rate (remote-read penalty included).
                            machine = self.cluster.machine(copy.machine_id)
                            rate = machine.effective_speed
                            if copy.remote_penalty != 1.0:
                                rate /= copy.remote_penalty
                            copy.workload = copy.work / rate
                            self._running[copy.machine_id] = _RunningCopy(
                                copy=copy,
                                work_remaining=copy.work,
                                settled_at=self.now,
                                rate=rate,
                            )
                        self._push_finish(copy, self.now + copy.workload)

    def _finalize_job(self, job: Job) -> None:
        spec = job.spec
        job_id = spec.job_id
        del self._alive[job_id]
        self._completed += 1
        num_stages = len(job._stages)
        # Drop the pre-sampled workload buffers with the job (for retained
        # traces the Job object itself outlives the run).
        job._workloads = None
        # Inlined JobRecord construction and SimulationResult.add_record
        # (append plus metric-cache invalidation); runs once per completed
        # job, and the record constructor is pure field assignment.
        record = JobRecord.__new__(JobRecord)
        record.job_id = job_id
        record.arrival_time = spec.arrival_time
        record.completion_time = job.completion_time
        record.weight = spec.weight
        record.num_map_tasks = spec.num_map_tasks
        record.num_reduce_tasks = spec.num_reduce_tasks
        record.copies_launched = job._copies_launched
        record.map_phase_completion_time = job._stage_completion[0]
        record.num_stages = num_stages
        result = self.result
        result.records.append(record)
        result_dict = result.__dict__
        result_dict.pop("_flowtimes_cache", None)
        result_dict.pop("_weights_cache", None)
        if self._notify_job_completion is not None:
            self._notify_job_completion(job, self.now)
        if not self._retain_jobs:
            # Stream mode drops finished jobs entirely -- break the
            # Job<->Task<->TaskCopy reference cycles so the whole graph is
            # reclaimed by reference counting the moment the last external
            # reference (a stale heap entry at most) drops, instead of
            # lingering as cyclic garbage for the collector.  This is what
            # lets run() raise the gen-0 GC threshold so far: the hot loop
            # produces almost no garbage that *needs* the cycle collector.
            for tasks in job.stage_tasks:
                for task in tasks:
                    task.copies.clear()
            job.stage_tasks = ()

    # ------------------------------------------------------------------ machine events

    def _schedule_initial_machine_events(self) -> None:
        """Seed the per-machine failure/slowdown timelines (dynamic scenarios).

        Draw order is fixed -- per machine, failure before slowdown -- and
        each machine draws from its own dedicated stream, so timelines are
        reproducible regardless of how events later interleave.
        """
        if self.scenario is None:
            return
        failures = self.scenario.failures
        stragglers = self.scenario.stragglers
        for machine_id in range(self.cluster.num_machines):
            rng = self._machine_rngs[machine_id] if self._dynamic else None
            if failures is not None:
                self._push(
                    Event.machine_failure(
                        failures.draw_uptime(rng),
                        next(self._sequence),
                        machine_id,
                    )
                )
            if stragglers is not None:
                self._push(
                    Event.slowdown_start(
                        stragglers.draw_onset(rng),
                        next(self._sequence),
                        machine_id,
                    )
                )

    def _handle_machine_failure(self, machine_id: int) -> None:
        """Kill the resident copy (if any) and take the machine down.

        The killed copy's task reverts to *unscheduled*, so the scheduler --
        consulted right after this event batch -- re-dispatches it through
        the normal launch path: exactly one replacement copy per kill for
        single-copy policies (asserted in the engine invariant tests).
        """
        machine = self.cluster.machine(machine_id)
        if machine.is_down:  # pragma: no cover - defensive (no double failures)
            return
        copy = machine.current_copy
        if copy is not None and copy.is_active:
            if copy.start_time is None:
                # Failure killed a parked (never-started) copy.
                self._parked -= 1
            elapsed = copy.elapsed(self.now)
            copy.kill(self.now)
            self.cluster.release(copy, elapsed=elapsed)
            entry = self._running.pop(machine_id, None)
            if self._checkpoint_interval is not None and elapsed > 0.0:
                self._checkpoint_killed_copy(copy, entry, elapsed)
            else:
                self.result.wasted_work += elapsed
            self.result.copies_killed_by_failure += 1
        self.cluster.mark_down(machine_id)
        self.result.machine_failures += 1
        failures = self.scenario.failures if self.scenario is not None else None
        if failures is not None:
            repair_after = failures.draw_repair(self._machine_rngs[machine_id])
            self._push(
                Event.machine_repair(
                    self.now + repair_after, next(self._sequence), machine_id
                )
            )
        # A failure event injected without a failure process (tests) leaves
        # the machine down for the rest of the run.

    def _checkpoint_killed_copy(
        self, copy: TaskCopy, entry: Optional[_RunningCopy], elapsed: float
    ) -> None:
        """Round a failure-killed copy's completed work down to a checkpoint.

        The raw work the copy processed before the failure, together with
        whatever the task had checkpointed from earlier kills, is rounded
        *down* to a multiple of the checkpoint interval -- that much is
        durably saved (the next copy of the task resumes from it, see
        :meth:`_launch_copy`).  The copy's wall-clock time splits
        proportionally: the saved fraction counts as useful work, the
        work since the last checkpoint is wasted.
        """
        task = copy.task
        interval = self._checkpoint_interval
        if entry is not None:
            # Dynamic ledger: raw work done = total minus what remains at
            # the rates actually experienced since the last settle.
            remaining = max(
                0.0,
                entry.work_remaining - entry.rate * (self.now - entry.settled_at),
            )
            raw_done = copy.work - remaining
        else:
            raw_done = copy.work * (elapsed / copy.workload)
        if raw_done <= 0.0:
            self.result.wasted_work += elapsed
            return
        accumulated = task.checkpoint_work + raw_done
        saved = int(accumulated / interval) * interval
        newly_saved = saved - task.checkpoint_work
        if newly_saved <= 0.0:
            self.result.wasted_work += elapsed
            return
        task.checkpoint_work = saved
        wall_saved = min(elapsed, elapsed * (newly_saved / raw_done))
        self.result.useful_work += wall_saved
        self.result.wasted_work += elapsed - wall_saved
        self.result.work_saved_by_checkpointing += newly_saved

    def _handle_machine_repair(self, machine_id: int) -> None:
        """Return a repaired machine to the free pool and draw its next uptime."""
        self.cluster.mark_up(machine_id)
        failures = self.scenario.failures if self.scenario is not None else None
        if failures is not None:
            uptime = failures.draw_uptime(self._machine_rngs[machine_id])
            self._push(
                Event.machine_failure(
                    self.now + uptime, next(self._sequence), machine_id
                )
            )

    def _handle_slowdown_start(self, machine_id: int) -> None:
        """Begin a slow period: drop the machine's effective speed mid-flight."""
        stragglers = self.scenario.stragglers
        machine = self.cluster.machine(machine_id)
        self._settle_machine(machine_id)
        machine.slowdown = stragglers.factor
        self._reschedule_running_copy(machine_id)
        self.result.straggler_onsets += 1
        self._push(
            Event.slowdown_end(
                self.now + stragglers.draw_duration(self._machine_rngs[machine_id]),
                next(self._sequence),
                machine_id,
            )
        )

    def _handle_slowdown_end(self, machine_id: int) -> None:
        """End a slow period: restore the machine's base speed."""
        stragglers = self.scenario.stragglers
        machine = self.cluster.machine(machine_id)
        self._settle_machine(machine_id)
        machine.slowdown = 1.0
        self._reschedule_running_copy(machine_id)
        if stragglers is not None:
            self._push(
                Event.slowdown_start(
                    self.now + stragglers.draw_onset(self._machine_rngs[machine_id]),
                    next(self._sequence),
                    machine_id,
                )
            )

    def _settle_machine(self, machine_id: int) -> None:
        """Fold work processed since the last settle into the ledger."""
        entry = self._running.get(machine_id)
        if entry is None:
            return
        entry.work_remaining = max(
            0.0, entry.work_remaining - entry.rate * (self.now - entry.settled_at)
        )
        entry.settled_at = self.now

    def _reschedule_running_copy(self, machine_id: int) -> None:
        """Re-estimate the resident copy's finish time at the machine's new rate.

        Must be called right after :meth:`_settle_machine` (which priced the
        work done so far at the *old* rate).  The superseded finish event is
        invalidated by the version bump in :meth:`_push_finish` -- the
        decrease-key operation of :class:`~repro.simulation.events.EventHeap`.
        """
        entry = self._running.get(machine_id)
        if entry is None:
            return
        machine = self.cluster.machine(machine_id)
        copy = entry.copy
        rate = machine.effective_speed
        if copy.remote_penalty != 1.0:
            rate /= copy.remote_penalty
        entry.rate = rate
        remaining_wall = entry.work_remaining / rate
        # Keep the wall-clock workload estimate coherent so progress scores
        # (LATE/Mantri) and remaining-work queries stay meaningful.
        copy.workload = copy.elapsed(self.now) + remaining_wall
        self._push_finish(copy, self.now + remaining_wall)

    # ------------------------------------------------------------------ scheduling

    def _apply_launches(self, requests: Sequence[LaunchRequest]) -> None:
        now = self.now + 1e-9
        free_ids = self.cluster._free_ids
        result = self.result
        launch = self._launch_copy
        for request in requests:
            task = request.task
            job = task.job
            # Combined guard over the three _validate_request conditions;
            # the (cold) method re-runs them to raise the precise error.
            if (
                job.spec.arrival_time > now
                or task.completion_time is not None
                or job.completion_time is not None
            ):
                self._validate_request(task)
            num_copies = request.num_copies
            if num_copies == 1:
                # The overwhelmingly common request shape.
                if free_ids:
                    launch(task)
                else:
                    result.over_requests += 1
                continue
            for _ in range(num_copies):
                if not free_ids:
                    result.over_requests += 1
                    continue
                launch(task)

    def _validate_request(self, task: Task) -> None:
        job = task.job
        if job.spec.arrival_time > self.now + 1e-9:
            raise SimulationError(
                f"scheduler launched task {task.task_id} before its job arrived"
            )
        if task.completion_time is not None:
            raise SimulationError(
                f"scheduler launched already-completed task {task.task_id}"
            )
        if job.completion_time is not None:
            raise SimulationError(
                f"scheduler launched a task of completed job {job.job_id}"
            )

    def _place_for_locality(self, task: Task) -> None:
        """Swap the best free machine for ``task`` to the top of the free list.

        Preference order: a free non-blacklisted machine on the task's
        preferred rack, else any free non-blacklisted machine, else
        whatever sits on top (every free machine hosted a failure-killed
        copy of this task -- the engine still honours the launch request).
        The blacklist is the set of machines whose copy of this task was
        killed; for an incomplete task those are exactly the failure
        kills, since clone-race kills only happen at task completion.  A
        blacklist covering the whole cluster is forgiven (mirroring
        ``DelayScheduling``): the task has died everywhere, and refusing
        every machine forever would deadlock the run.  Scanning starts
        from the list top so that with no blacklist and a local (or no
        local) machine at the top, the legacy LIFO choice is unchanged.
        """
        free_ids = self.cluster._free_ids
        rack_of = self._rack_of
        preferred = task.preferred_rack
        blacklist = None
        for copy in task.copies:
            if copy.killed_at is not None:
                if blacklist is None:
                    blacklist = {copy.machine_id}
                else:
                    blacklist.add(copy.machine_id)
        if blacklist is not None and len(blacklist) >= self.cluster.num_machines:
            blacklist = None
        top = len(free_ids) - 1
        choice = -1
        fallback = -1
        for i in range(top, -1, -1):
            machine_id = free_ids[i]
            if blacklist is not None and machine_id in blacklist:
                continue
            if rack_of[machine_id] == preferred:
                choice = i
                break
            if fallback < 0:
                fallback = i
        if choice < 0:
            choice = fallback if fallback >= 0 else top
        if choice != top:
            free_ids[choice], free_ids[top] = free_ids[top], free_ids[choice]

    def _launch_copy(self, task: Task) -> TaskCopy:
        cluster = self.cluster
        free_ids = cluster._free_ids
        topology = self._topology_active
        if topology:
            self._place_for_locality(task)
        machine_id = free_ids[-1]
        # Next pre-sampled workload of the task's stage (inlined buffer
        # pop; the refill runs only when clones exhausted the arrival batch).
        buffer = task.job._workloads[task.stage]
        if not buffer:
            buffer = self._refill_workloads(task)
        raw_workload = buffer.pop()
        if self._inflate is not None:
            raw_workload = self._inflate(raw_workload, machine_id, self.rng)
        if self._checkpoint_interval is not None and task.checkpoint_work > 0.0:
            # Resume from the last checkpoint: the fresh draw keeps RNG
            # consumption identical across policies; the saved work is then
            # deducted (with a tiny floor so the copy stays schedulable).
            raw_workload = max(raw_workload - task.checkpoint_work, 1e-9)
            self.result.checkpoint_resumes += 1
        now = self.now
        result = self.result
        machine = cluster._machines[machine_id]
        # Inlined Machine.processing_time / effective_speed: a machine on
        # the free list is up, so only the slowdown branch remains (the
        # no-division path preserves pre-scenario results bit for bit).
        if machine.slowdown == 1.0:
            duration = raw_workload / machine.speed
        else:
            duration = raw_workload / (machine.speed / machine.slowdown)
        penalty = 1.0
        if topology:
            # Remote-read penalty: a copy off its preferred rack processes
            # at effective_speed / remote_slowdown for its whole life (its
            # input does not move), composing multiplicatively with static
            # speeds and dynamic slowdowns.
            if self._rack_of[machine_id] == task.preferred_rack:
                result.local_launches += 1
            else:
                penalty = self._remote_slowdown
                duration *= penalty
                result.remote_launches += 1
        # Inlined TaskCopy construction -- its validation cannot fire
        # (raw_workload is floored strictly positive, now >= 0).
        copy = TaskCopy.__new__(TaskCopy)
        copy.copy_id = next(self._copy_ids)
        copy.task = task
        copy.machine_id = machine_id
        copy.launch_time = now
        copy.workload = duration
        copy.start_time = None
        copy.finish_time = None
        copy.killed_at = None
        copy.work = raw_workload
        copy.finish_version = 0
        copy.remote_penalty = penalty
        job = task.job
        stage = task.stage
        num_active = task._num_active
        if num_active > 0:
            # The task already occupies a machine: this launch is redundant
            # (a clone or a speculative duplicate).  Replacements of
            # failure-killed copies are not counted -- the killed copy no
            # longer holds a machine when the task is re-dispatched.
            result.redundant_copies_launched += 1
        # Inlined Task.add_copy (the task is not complete: _apply_launches
        # validated the request) and ClusterState.place (the copy was just
        # built for the peeked machine, so the id checks cannot fire; a
        # free-listed machine is up and idle, covering Machine.assign).
        task.copies.append(copy)
        if num_active == 0:
            job._unscheduled[stage] -= 1
            job._unscheduled_total -= 1
            if job._stage_ready[stage]:
                job._unscheduled_ready -= 1
        task._num_active = num_active + 1
        job._active_copies += 1
        job._copies_launched += 1
        free_ids.pop()
        machine.current_copy = copy
        machine.copies_hosted += 1
        if stage == 0:
            cluster._map_running += 1
        else:
            cluster._reduce_running += 1
        if topology:
            cluster._rack_running[self._rack_of[machine_id]] += 1
        result.total_copies += 1

        if not job._stage_ready[stage]:
            # Parked: occupies the machine, progresses only once every
            # predecessor stage completes (reduce-behind-map in the 2-node DAG).
            self._parked += 1
            return copy
        # Inlined TaskCopy.start: a just-launched copy is active, unstarted
        # and launched at `now`, so its validation cannot fire.
        copy.start_time = now
        if self._dynamic:
            rate = machine.effective_speed
            if penalty != 1.0:
                rate /= penalty
            self._running[machine_id] = _RunningCopy(
                copy=copy,
                work_remaining=raw_workload,
                settled_at=now,
                rate=rate,
            )
        # Inlined EventHeap.push_finish: a fresh copy's version is 0, so
        # the bump lands on 1 and the entry carries exactly that version.
        copy.finish_version = 1
        heappush(
            self._events._entries,
            (now + duration, 0, next(self._sequence), copy, 1),
        )
        return copy

    def _maybe_schedule_tick(self) -> None:
        interval = self.scheduler.tick_interval
        if interval is None or interval <= 0:
            return
        if not self._alive:
            return
        if self._next_tick is not None and self._next_tick > self.now:
            return
        tick_time = self.now + interval
        self._next_tick = tick_time
        self._push(Event.tick(tick_time, next(self._sequence)))

    def _check_progress_possible(self) -> None:
        """Detect a stuck simulation: pending work, free machines, no way forward.

        Under a dynamic scenario the heap is never empty (failure/repair and
        slowdown renewal chains are perpetual), so heap non-emptiness proves
        nothing.  Only *job-relevant* events can unstick a scheduler that
        declines to launch: a future arrival, the completion of a running
        copy, or a tick.  In dynamic mode ``self._running`` is exactly the
        set of started active copies, which makes the check O(1).
        """
        if self._completed == self._total_jobs:
            return
        if self._dynamic:
            if (
                self._arrived < self._total_jobs
                or self._running
                or self._next_tick is not None
            ):
                return
        elif self._events:
            return
        pending_tasks = sum(
            job.num_unscheduled_tasks for job in self._alive.values()
        )
        if pending_tasks == 0:
            return
        if self.cluster.has_free_machine():
            raise SimulationError(
                "scheduler made no progress: free machines and pending tasks exist "
                "but no launches were issued and no future job-relevant events remain"
            )
        if self._dynamic and self.cluster.num_down == 0:
            # Every machine holds a parked (blocked) copy, nothing is
            # running, arriving or ticking, and no repair can free capacity:
            # machine events alone can never unblock this.  The static path
            # reports the same deadlock after its heap drains.
            raise SimulationError(
                "scheduler deadlocked the cluster: every machine holds a "
                "blocked copy while tasks remain unscheduled and no future "
                "job-relevant events remain"
            )
