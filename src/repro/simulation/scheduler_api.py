"""The interface between the simulation engine and scheduling policies.

A scheduler never mutates simulation state directly.  It observes the
cluster through a :class:`SchedulerView` (time, free machines, alive jobs,
running copies) and returns a list of :class:`LaunchRequest` objects; the
engine places the requested copies on free machines.

The view deliberately does *not* expose the sampled workload of running
copies: like a real cluster, a scheduler can observe progress and history,
not the future.  The duration *distribution moments* (``mean``/``std`` of
each job stage) are available through the job specs, matching the paper's
assumption that only the first and second moments are known a priori.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from repro.checks import check_count
from repro.workload.job import Job, Task, TaskCopy

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

    def running_copies(self) -> List[TaskCopy]:
        """All copies occupying machines (blocked ones too), in machine order.

        One entry per busy machine: the copy it holds.  A static run's
        multi-copy launch request builds one copy object, which sits on
        every machine of the request, so that object appears once per
        machine (see :class:`~repro.workload.job.TaskCopy`); only clone
        policies issue such requests, and none of them reads this view.
        Policies that break exact ties in job order sort by ``(job.arrival_index,
        task.stage, task.index, copy.copy_id)``.
        """
        return [
            copy
            for machine in self._engine.cluster._machines
            if (copy := machine.current_copy) is not None
        ]


class Scheduler(ABC):
    """Base class for every scheduling policy (the paper's and the baselines)."""

    #: Human-readable policy name used in result tables.
    name: str = "scheduler"
    #: If not ``None``, the engine wakes the scheduler every ``tick_interval``
    #: time units even when no arrival/completion occurs.  Progress-based
    #: speculation (Mantri, LATE) needs this; the paper's algorithms do not.
    tick_interval: Optional[float] = None
    #: Quiet-tick certificate, read by the engine right after a
    #: :meth:`schedule` call that returned no request: a time before which
    #: repeating that decision in the same state provably launches
    #: nothing, so the engine skips the tick-only decision points before
    #: it.  The default certifies nothing, so a scheduler that computes no
    #: certificate is consulted at every tick.
    quiet_until: float = -math.inf

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class ComposedScheduler(Scheduler):
    """The policy-kernel driver: runs any ordering x allocation x redundancy.

    Every decision point proceeds in two steps: the allocation policy
    distributes the free machines over the ordering policy's job ranking
    (routing per-job grants through the redundancy policy's
    ``expand_grant`` hook when it is share-based), then the redundancy
    policy's ``finalize`` hook spends the still-free machines on clones or
    speculative duplicates.  The seven online named schedulers are fixed
    triples of this class, built by name through
    :func:`repro.policies.make_scheduler`.

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
        If True, a task may be placed before its stage is ready (a reduce
        task before its job's map stage completes, on the 2-node DAG); it
        parks without progress -- the offline algorithm's behaviour,
        exposed for ablations.
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
            EpsilonShareAllocation,
            FairOrdering,
            FIFOOrdering,
            GreedyAllocation,
            RedundancyPolicy,
            SRPTOrdering,
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
        # A policy with per-job state (Mantri's samples) drops it when the
        # job completes.  Only then is the hook bound, so for every other
        # policy the engine still sees the base no-op and skips the call.
        if (
            redundancy_cls.on_job_completion
            is not RedundancyPolicy.on_job_completion
        ):
            self.on_job_completion = self.redundancy.on_job_completion
        # Static ordering + greedy allocation (the overwhelmingly common
        # composition) dispatches straight to the static machine walk,
        # skipping the allocate() indirection per decision point.
        self._static_greedy = (
            type(self.allocation) is GreedyAllocation
            and not self.ordering.dynamic
        )
        # The redundancy policy's quiet-tick certificate covers the whole
        # decision only when nothing else in it reads the clock or draws
        # from the RNG when it launches nothing: this class's own
        # schedule(), greedy or share over fifo, fair or srpt (pure
        # functions of the counts and the free list) and the default
        # expand_grant.  Pinned to the exact classes, like the engine's
        # FIFO fast lane; delay scheduling reads the clock.
        self._forwards_quiet = (
            type(self).schedule is ComposedScheduler.schedule
            and type(self.allocation) in (GreedyAllocation, EpsilonShareAllocation)
            and type(self.ordering) in (FIFOOrdering, FairOrdering, SRPTOrdering)
            and redundancy_cls.expand_grant is RedundancyPolicy.expand_grant
        )
        # The checkpoint redundancy policy carries the checkpoint interval;
        # the engine discovers it here and enables checkpoint-resume kills.
        self.checkpoint_interval = getattr(
            self.redundancy, "checkpoint_interval", None
        )
        check_count("seed", seed)
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

    @property
    def quiet_until(self) -> float:
        """The redundancy policy's quiet-tick certificate (see :class:`Scheduler`).

        Forwarded only for the compositions whose other steps read no
        clock (see ``_forwards_quiet``).  A decision with no free machine
        returns before the policy's pass, at any time, so whatever
        certificate the policy left last is sound for it too.
        """
        if self._forwards_quiet:
            return self.redundancy.quiet_until
        return -math.inf

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
