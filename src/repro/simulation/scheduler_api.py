"""The interface between the simulation engine and scheduling policies.

A scheduler never mutates simulation state directly.  It observes the
cluster through a :class:`SchedulerView` (time, free machines, alive jobs,
progress of running copies, observed durations of completed copies) and
returns a list of :class:`LaunchRequest` objects; the engine places the
requested copies on free machines.

The view deliberately does *not* expose the sampled workload of running
copies: like a real cluster, a scheduler can observe progress and history,
not the future.  The duration *distribution moments* (``mean``/``std`` of
each job phase) are available through the job specs, matching the paper's
assumption that only the first and second moments are known a priori.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Union

from repro.workload.job import Job, Phase, Task, TaskCopy

if TYPE_CHECKING:  # pragma: no cover - avoid an import cycle at runtime
    from repro.policies import (
        AllocationPolicy,
        OrderingPolicy,
        RedundancyPolicy,
    )
    from repro.simulation.engine import SimulationEngine

__all__ = ["LaunchRequest", "SchedulerView", "Scheduler", "ComposedScheduler"]


class LaunchRequest:
    """A scheduler's request to launch ``num_copies`` copies of ``task`` now."""

    __slots__ = ("task", "num_copies")

    def __init__(self, task: Task, num_copies: int = 1) -> None:
        if num_copies <= 0:
            raise ValueError(f"num_copies must be positive, got {num_copies}")
        self.task = task
        self.num_copies = num_copies

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LaunchRequest(task={self.task.task_id!r}, num_copies={self.num_copies})"


class SchedulerView:
    """Read-only window onto the running simulation."""

    def __init__(self, engine: "SimulationEngine") -> None:
        self._engine = engine

    # -- global state -----------------------------------------------------------

    @property
    def time(self) -> float:
        """Current simulation time."""
        return self._engine.now

    @property
    def num_machines(self) -> int:
        """``M`` -- cluster size."""
        return self._engine.cluster.num_machines

    @property
    def num_free_machines(self) -> int:
        """Machines idle (and up) at this instant."""
        # Direct free-list length: this property runs once per decision
        # point, so the num_free property hop is skipped.
        return len(self._engine.cluster._free_ids)

    @property
    def num_down_machines(self) -> int:
        """Machines currently failed (0 outside failure scenarios)."""
        return self._engine.cluster.num_down

    def num_running(self, phase: Phase) -> int:
        """``M(t)`` / ``R(t)`` -- machines running copies of the given phase."""
        return self._engine.cluster.num_running(phase)

    def machine_speed(self, machine_id: int) -> float:
        """Base speed of one machine (heterogeneous scenarios expose these)."""
        return self._engine.cluster.speed_of(machine_id)

    # -- topology (rack locality) -------------------------------------------------

    @property
    def topology_active(self) -> bool:
        """True when a non-degenerate rack topology shapes this run.

        Degenerate topologies (one rack, or no remote slowdown) answer
        False so that placement-aware policies fall back to their flat
        behaviour and stay bit-identical to ``topology=None`` runs.
        """
        return self._engine._topology_active

    @property
    def num_racks(self) -> int:
        """Number of racks (1 when no topology is active)."""
        return self._engine._num_racks

    @property
    def machine_racks(self) -> List[int]:
        """The machine->rack map (schedulers must not mutate it).

        Only valid while :attr:`topology_active`; flat runs raise rather
        than hand out a fabricated map.
        """
        rack_of = self._engine._rack_of
        if rack_of is None:
            raise RuntimeError("machine_racks queried without an active topology")
        return rack_of

    def rack_of(self, machine_id: int) -> int:
        """Rack hosting ``machine_id`` (0 when no topology is active)."""
        rack_of = self._engine._rack_of
        return 0 if rack_of is None else rack_of[machine_id]

    def free_machine_ids(self) -> List[int]:
        """Snapshot of the free machines, in engine placement order.

        The engine serves placements from the *end* of this list; policies
        that simulate placement (delay scheduling) copy it and drain it the
        same way.
        """
        return list(self._engine.cluster._free_ids)

    def locality_hint(self, task: Task) -> Optional[bool]:
        """Whether ``task`` could launch on its preferred rack right now.

        ``None`` when no topology is active (placement has no locality
        dimension), otherwise True iff some free machine sits on the
        task's preferred rack.  Redundancy policies use this to steer
        clones towards local slots.
        """
        engine = self._engine
        if not engine._topology_active:
            return None
        preferred = task.preferred_rack
        rack_of = engine._rack_of
        for machine_id in engine.cluster._free_ids:
            if rack_of[machine_id] == preferred:
                return True
        return False

    # -- jobs ---------------------------------------------------------------------

    @property
    def alive_jobs(self) -> List[Job]:
        """Jobs that have arrived and are not yet complete (``psi^s(l)``)."""
        return self._engine.alive_jobs()

    @property
    def num_alive_jobs(self) -> int:
        """Number of alive jobs (``len(alive_jobs)``)."""
        return len(self._engine.alive_jobs())

    # -- running copies (for progress-monitoring schedulers) ------------------------

    def running_copies(self) -> Iterator[TaskCopy]:
        """All copies currently occupying machines (including blocked ones)."""
        for job in self._engine.alive_jobs():
            for task in job.all_tasks():
                for copy in task.copies:
                    if copy.is_active:
                        yield copy

    def copy_elapsed(self, copy: TaskCopy) -> float:
        """Processing time ``copy`` has consumed so far."""
        return copy.elapsed(self.time)

    def copy_progress(self, copy: TaskCopy) -> float:
        """Progress fraction of ``copy`` in ``[0, 1]``.

        This models the progress score a MapReduce framework reports for
        every running attempt (fraction of input records processed); it is
        what detection-based schedulers such as Mantri and LATE consume.
        """
        return copy.progress(self.time)

    def observed_durations(self, job: Job, phase: Phase) -> List[float]:
        """Durations of copies of ``job``/``phase`` that ran to completion.

        This is the sample history a detection-based scheduler (Mantri, LATE)
        uses to estimate the expected duration of a relaunched copy.
        """
        durations: List[float] = []
        for task in job.tasks(phase):
            for copy in task.copies:
                if copy.is_finished and copy.start_time is not None:
                    durations.append(copy.finish_time - copy.start_time)
        return durations


class Scheduler(ABC):
    """Base class for every scheduling policy (the paper's and the baselines)."""

    #: Human-readable policy name used in result tables.
    name: str = "scheduler"
    #: If not ``None``, the engine wakes the scheduler every ``tick_interval``
    #: time units even when no arrival/completion occurs.  Progress-based
    #: speculation (Mantri, LATE) needs this; the paper's algorithms do not.
    tick_interval: Optional[float] = None

    def bind(self, view: SchedulerView) -> None:
        """Called once before the simulation starts."""
        self._view = view

    @property
    def view(self) -> SchedulerView:
        """The bound view (only valid after :meth:`bind`)."""
        if not hasattr(self, "_view"):
            raise RuntimeError(f"{type(self).__name__} has not been bound to a view")
        return self._view

    # -- notification hooks (optional) ------------------------------------------------

    def on_job_arrival(self, job: Job, time: float) -> None:
        """Called when ``job`` enters the cluster."""

    def on_task_completion(self, task: Task, time: float) -> None:
        """Called when a task (not an individual copy) completes."""

    def on_job_completion(self, job: Job, time: float) -> None:
        """Called when the last reduce task of ``job`` completes."""

    # -- the actual decision -----------------------------------------------------------

    @abstractmethod
    def schedule(self, view: SchedulerView) -> Sequence[LaunchRequest]:
        """Return the copies to launch at this decision point.

        The total number of copies requested must not exceed
        ``view.num_free_machines``; the engine truncates excess requests and
        counts them in ``SimulationResult.over_requests`` (a correct policy
        never over-requests, and the test-suite asserts this).
        """

    # -- shared helpers -------------------------------------------------------------------

    @staticmethod
    def eligible_tasks(job: Job) -> List[Task]:
        """Unscheduled tasks of ``job`` in paper order: map first, then reduce.

        Reduce tasks are listed even when the map phase is incomplete; the
        engine will park their copies (occupying machines without progress),
        exactly as the paper's Algorithm 1 allows.  Policies that prefer not
        to waste machines this way can filter on ``job.map_phase_complete``.
        """
        pending = job.unscheduled_tasks(Phase.MAP)
        if pending:
            return pending
        return job.unscheduled_tasks(Phase.REDUCE)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class ComposedScheduler(Scheduler):
    """The policy-kernel driver: runs any ordering x allocation x redundancy.

    Every decision point proceeds in two steps: the allocation policy
    distributes the free machines over the ordering policy's job ranking
    (routing per-job grants through the redundancy policy's
    ``expand_grant`` hook when it is share-based), then the redundancy
    policy's ``finalize`` hook spends the still-free machines on clones or
    speculative duplicates.  The seven historical schedulers are fixed
    triples of this driver (see
    :data:`repro.policies.NAMED_COMPOSITIONS`); their legacy classes are
    thin subclasses pinning the triple and the historical constructor
    signature.

    Parameters
    ----------
    ordering, allocation, redundancy:
        Policy registry names (``"fifo"``/``"fair"``/``"srpt"``,
        ``"greedy"``/``"share"``, ``"none"``/``"clone"``/``"sca"``/
        ``"late"``/``"mantri"``) or constructed policy instances for
        non-default parameters.
    epsilon:
        Machine-sharing fraction consumed by the ``share`` allocation.
    locality_wait:
        Delay-scheduling wait (simulated seconds) consumed by the
        ``delay`` allocation; ``None`` keeps the policy default.
    r:
        Standard-deviation weight consumed by the ``srpt`` ordering.
    seed:
        Seed of the scheduler's private RNG (the random task subsets and
        clone spreading of the paper's cloning policy).
    allow_early_reduce:
        If True, reduce tasks may be placed before their job's map phase
        completes (they park without progress) -- the offline algorithm's
        behaviour, exposed for ablations.
    name:
        Result-table name; defaults to the composition label
        (``"srpt+share+clone"`` style).
    """

    def __init__(
        self,
        ordering: Union[str, "OrderingPolicy"] = "fifo",
        allocation: Union[str, "AllocationPolicy"] = "greedy",
        redundancy: Union[str, "RedundancyPolicy"] = "none",
        *,
        epsilon: float = 0.6,
        locality_wait: Optional[float] = None,
        r: float = 0.0,
        seed: int = 0,
        allow_early_reduce: bool = False,
        name: Optional[str] = None,
    ) -> None:
        # Deferred import: repro.policies imports this module for the
        # Scheduler/LaunchRequest contract, so importing it at module level
        # would be cyclic.
        from repro.policies import (
            GreedyAllocation,
            RedundancyPolicy,
            make_allocation,
            make_ordering,
            make_redundancy,
        )

        import numpy as np

        self.ordering = make_ordering(ordering, r=r)
        self.allocation = make_allocation(
            allocation, epsilon=epsilon, locality_wait=locality_wait
        )
        self.redundancy = make_redundancy(redundancy)
        self.allow_early_reduce = allow_early_reduce
        # The engine's wake-up request combines both tick sources: the
        # redundancy policy's fixed speculation cadence and the allocation
        # policy's (possibly dynamic) deferral deadline.  Dynamic-tick
        # allocations refresh their interval inside allocate(); schedule()
        # re-derives the combined value after every decision.
        self._redundancy_tick = self.redundancy.tick_interval
        self._allocation_ticks = getattr(self.allocation, "dynamic_tick", False)
        self.tick_interval = self._combined_tick()
        # Hot-path gates, resolved once (plain bools so the scheduler stays
        # picklable for pool dispatch): when the redundancy policy left the
        # base no-op hooks in place, the per-completion forwarding and the
        # per-decision finalize pass are skipped entirely.  The engine reads
        # ``ignores_task_completions`` to elide its own notification call.
        redundancy_cls = type(self.redundancy)
        self.ignores_task_completions = (
            redundancy_cls.on_task_completion
            is RedundancyPolicy.on_task_completion
        )
        self._redundancy_finalizes = (
            redundancy_cls.finalize is not RedundancyPolicy.finalize
        )
        # Static ordering + greedy allocation (the overwhelmingly common
        # composition) dispatches straight to the static machine walk,
        # skipping the allocate() indirection per decision point.
        self._static_greedy = (
            type(self.allocation) is GreedyAllocation
            and not self.ordering.dynamic
        )
        # The checkpoint redundancy policy carries the checkpoint interval;
        # the engine discovers it here and enables checkpoint-resume kills.
        self.checkpoint_interval = getattr(
            self.redundancy, "checkpoint_interval", None
        )
        self._rng = np.random.default_rng(seed)
        self.name = name if name is not None else (
            f"{self.ordering.name}+{self.allocation.name}+{self.redundancy.name}"
        )

    def _combined_tick(self) -> Optional[float]:
        """Min of the redundancy cadence and the allocation's deadline hint."""
        allocation_tick = getattr(self.allocation, "tick_interval", None)
        redundancy_tick = self._redundancy_tick
        if allocation_tick is None:
            return redundancy_tick
        if redundancy_tick is None or allocation_tick < redundancy_tick:
            return allocation_tick
        return redundancy_tick

    def on_task_completion(self, task: Task, time: float) -> None:
        """Forward completion observations to the redundancy policy."""
        self.redundancy.on_task_completion(task, time)

    def schedule(self, view: SchedulerView) -> List[LaunchRequest]:
        """Return the copies to launch at this decision point (see base class)."""
        free = view.num_free_machines
        if free <= 0:
            if self._allocation_ticks:
                # The allocation's deadline hint is a delay from the last
                # time it was consulted, so it is stale now.  No deferred
                # task can launch before a machine frees up, and that event
                # is itself a decision point: drop the hint until then.
                self.allocation.tick_interval = None
                self.tick_interval = self._combined_tick()
            return []
        if self._static_greedy:
            planned = self.allocation._static_walk(
                view, self.ordering, free, self.allow_early_reduce
            )
            used = len(planned)
        else:
            planned, used = self.allocation.allocate(
                view,
                self.ordering,
                self.redundancy,
                self._rng,
                self.allow_early_reduce,
            )
            if self._allocation_ticks:
                # The engine reads tick_interval right after this call, so
                # refreshing the attribute is enough to move the wake-up.
                self.tick_interval = self._combined_tick()
        if not self._redundancy_finalizes:
            return planned
        return self.redundancy.finalize(
            view,
            free - used,
            planned,
            self._rng,
            self.allocation.shares_machines,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComposedScheduler({self.ordering.name!r}, "
            f"{self.allocation.name!r}, {self.redundancy.name!r})"
        )
