"""Allocation policies: how are free machines distributed over ranked jobs?

One of the three axes of the policy kernel (see :mod:`repro.policies`).
Given the ordering policy's ranking, an :class:`AllocationPolicy` decides
how many machines each job receives and emits the *base* launch requests
of a decision point; the redundancy policy then adds (or folds in) any
extra copies.

* :class:`GreedyAllocation` -- one copy per launchable task, jobs served
  strictly in ranking order.  For *dynamic* orderings (fair sharing) the
  machines are handed out one at a time with re-ranking after each
  (water-filling); for static orderings the one-pass walk is equivalent
  and cheaper.  This is the base allocation of FIFO, Fair, SRPT and the
  speculative baselines.
* :class:`EpsilonShareAllocation` -- the epsilon-fraction machine-sharing
  rule of SRPTMS+C (Section V-A, :mod:`repro.core.allocation`): the
  highest-priority jobs covering an ``epsilon`` fraction of the alive
  weight share the cluster in proportion to their weights; each job's
  newly available machines are spent through the redundancy policy's
  :meth:`~repro.policies.redundancy.RedundancyPolicy.expand_grant` hook
  (cloning when the policy says so, single copies otherwise).
* :class:`DelayScheduling` -- the greedy walk made placement-aware (delay
  scheduling, after the Spark/dpark ``LOCALITY_WAIT`` rule): a task whose
  preferred rack has no free machine *waits* up to :data:`LOCALITY_WAIT`
  simulated seconds for a local slot before accepting a remote one, and a
  machine whose copy of the task was killed by a failure is blacklisted
  for that task.  Without an active topology it is exactly the greedy
  allocation.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.allocation import epsilon_shares_from_ordered
from repro.scenarios import DEFAULT_LOCALITY_WAIT
from repro.policies.gating import (
    has_launchable_tasks,
    launchable_tasks,
    schedulable_jobs,
)
from repro.policies.ordering import OrderingPolicy
from repro.policies.redundancy import RedundancyPolicy
from repro.simulation.scheduler_api import LaunchRequest, SchedulerView
from repro.workload.job import Job, Task

__all__ = [
    "AllocationPolicy",
    "GreedyAllocation",
    "EpsilonShareAllocation",
    "DelayScheduling",
    "LOCALITY_WAIT",
]

#: Default delay-scheduling wait (simulated seconds): how long a task holds
#: out for a slot on its preferred rack before accepting a remote one.
#: One constant, shared with the CLI flag via ``repro.scenarios``.
LOCALITY_WAIT = DEFAULT_LOCALITY_WAIT


class AllocationPolicy:
    """Base class of the allocation axis (see the module docstring)."""

    #: Registry name of the policy (also its segment in composition labels).
    name: str = "allocation"
    #: True when the policy computes per-job machine shares and spends them
    #: through ``RedundancyPolicy.expand_grant`` (the epsilon-share rule);
    #: redundancy policies use this to avoid double-cloning in ``finalize``.
    shares_machines: bool = False
    #: Engine wake-up request, mirroring ``Scheduler.tick_interval``: an
    #: allocation that defers launches (delay scheduling) asks for a tick so
    #: its deadline is a decision point.  Policies with ``dynamic_tick``
    #: refresh this inside ``allocate()``; the composed scheduler re-reads
    #: it after every decision.
    tick_interval: Optional[float] = None
    #: True when ``tick_interval`` is refreshed per decision point.
    dynamic_tick: bool = False

    def allocate(
        self,
        view: SchedulerView,
        ordering: OrderingPolicy,
        redundancy: RedundancyPolicy,
        rng: np.random.Generator,
        allow_early_reduce: bool = False,
    ) -> Tuple[List[LaunchRequest], int]:
        """Base launch requests of this decision point and machines used."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class GreedyAllocation(AllocationPolicy):
    """One copy per launchable task, jobs served in ranking order."""

    name = "greedy"

    def allocate(
        self,
        view: SchedulerView,
        ordering: OrderingPolicy,
        redundancy: RedundancyPolicy,
        rng: np.random.Generator,
        allow_early_reduce: bool = False,
    ) -> Tuple[List[LaunchRequest], int]:
        """Walk (static) or water-fill (dynamic ordering) the free machines."""
        free = view.num_free_machines
        if free <= 0:
            return [], 0
        if ordering.dynamic:
            requests = self._water_fill(view, ordering, free, allow_early_reduce)
        else:
            requests = self._static_walk(view, ordering, free, allow_early_reduce)
        return requests, len(requests)

    @staticmethod
    def _static_walk(
        view: SchedulerView,
        ordering: OrderingPolicy,
        free: int,
        allow_early_reduce: bool,
    ) -> List[LaunchRequest]:
        """One pass over the fixed ranking, one copy per launchable task."""
        requests: List[LaunchRequest] = []
        launchable = launchable_tasks
        for job in ordering.order(view, view.alive_jobs):
            if free <= 0:
                break
            # O(1) skip on the raw counters (inlined has_launchable_tasks:
            # this test runs once per alive job per decision point): don't
            # build a task list for a job with nothing launchable (the
            # common case once a job is fully dispatched).
            if job._unscheduled_ready == 0 and not (
                allow_early_reduce and job._unscheduled_total > 0
            ):
                continue
            for task in launchable(job, allow_early_reduce):
                if free <= 0:
                    break
                requests.append(LaunchRequest(task))
                free -= 1
        return requests

    @staticmethod
    def _water_fill(
        view: SchedulerView,
        ordering: OrderingPolicy,
        free: int,
        allow_early_reduce: bool,
    ) -> List[LaunchRequest]:
        """Hand out machines one at a time, re-ranking after each.

        This is the Hadoop Fair Scheduler's water-filling loop: each free
        machine goes to the job whose :meth:`OrderingPolicy.fill_key` is
        currently smallest among jobs that still have launchable tasks.
        """
        candidates: Dict[int, List] = {}
        jobs: Dict[int, Job] = {}
        for job in view.alive_jobs:
            if not has_launchable_tasks(job, allow_early_reduce):
                continue
            candidates[job.job_id] = launchable_tasks(job, allow_early_reduce)
            jobs[job.job_id] = job
        if not candidates:
            return []

        counter = itertools.count()
        heap: List[tuple] = []
        occupied: Dict[int, int] = {}
        for job_id, job in jobs.items():
            occupied[job_id] = job.num_running_copies
            heapq.heappush(
                heap,
                (ordering.fill_key(job, occupied[job_id]), next(counter), job_id),
            )

        requests: List[LaunchRequest] = []
        while free > 0 and heap:
            _, _, job_id = heapq.heappop(heap)
            tasks = candidates[job_id]
            if not tasks:
                continue
            task = tasks.pop(0)
            requests.append(LaunchRequest(task=task, num_copies=1))
            free -= 1
            occupied[job_id] += 1
            if tasks:
                heapq.heappush(
                    heap,
                    (
                        ordering.fill_key(jobs[job_id], occupied[job_id]),
                        next(counter),
                        job_id,
                    ),
                )
        return requests


class EpsilonShareAllocation(AllocationPolicy):
    """Epsilon-fraction machine sharing (the paper's Section V-A rule).

    ``epsilon -> 0`` grants everything to the single highest-ranked job;
    ``epsilon = 1`` degenerates to weight-proportional fair shares.  Shares
    are non-preemptive: a job already occupying at least its share receives
    nothing new.  Each job's newly available machines are spent through the
    redundancy policy's ``expand_grant`` hook, which is where the paper's
    task cloning happens.
    """

    name = "share"
    shares_machines = True

    def __init__(self, epsilon: float = 0.6) -> None:
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
        self.epsilon = epsilon

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EpsilonShareAllocation(epsilon={self.epsilon})"

    def allocate(
        self,
        view: SchedulerView,
        ordering: OrderingPolicy,
        redundancy: RedundancyPolicy,
        rng: np.random.Generator,
        allow_early_reduce: bool = False,
    ) -> Tuple[List[LaunchRequest], int]:
        """Rank, share, then spend each job's grant via the redundancy hook."""
        available = view.num_free_machines
        if available <= 0:
            return [], 0
        jobs = schedulable_jobs(view.alive_jobs, allow_early_reduce)
        if not jobs:
            return [], 0
        # Rank once and feed the same ordering to the sharing rule instead
        # of re-sorting inside an epsilon_shares() call.
        ordered = ordering.order(view, jobs)
        shares = epsilon_shares_from_ordered(
            [(job.job_id, job.weight) for job in ordered],
            view.num_machines,
            self.epsilon,
        )

        requests: List[LaunchRequest] = []
        used_total = 0
        for job in ordered:
            if available <= 0:
                break
            share = shares.get(job.job_id, 0)
            if share <= 0:
                continue
            occupied = job.num_running_copies
            newly_available = share - occupied
            if newly_available <= 0:
                # Non-preemptive: the job already holds at least its share.
                continue
            grant = min(newly_available, available)
            candidates = launchable_tasks(job, allow_early_reduce)
            job_requests, used = redundancy.expand_grant(
                job, candidates, grant, rng
            )
            requests.extend(job_requests)
            available -= used
            used_total += used
        return requests, used_total


class DelayScheduling(AllocationPolicy):
    """Greedy allocation with delay scheduling on the rack topology.

    The walk visits jobs in ranking order like :class:`GreedyAllocation`,
    but each launchable task now has a *placement opinion*:

    * a free machine on the task's preferred rack (and not blacklisted for
      the task) -> launch immediately, locally;
    * only remote machines free -> the task *defers*: it waits until it
      has been deferred for ``locality_wait`` simulated seconds, then
      accepts the remote slot.  The wait clock starts the first time the
      task is considered without a local slot;
    * machines whose copy of this task was killed by a failure are
      *blacklisted* for the task and never receive a re-dispatched copy.
      While every free machine is blacklisted the task simply waits for a
      different machine (this wait is exempt from the ``locality_wait``
      bound -- there is no acceptable slot to accept).

    The policy keeps the engine alive across pure-deferral decisions by
    publishing the earliest pending deadline through ``tick_interval``
    (``dynamic_tick`` contract); deadlines are monotone (first-seen time
    plus a constant), so the engine's pending tick is never too late.

    With no active topology the walk degenerates to exactly the greedy
    allocation, which keeps ``topology=None`` runs bit-identical.
    """

    name = "delay"
    dynamic_tick = True

    def __init__(self, locality_wait: float = LOCALITY_WAIT) -> None:
        if locality_wait < 0:
            raise ValueError(
                f"locality_wait must be non-negative, got {locality_wait}"
            )
        self.locality_wait = float(locality_wait)
        #: Earliest pending deferral deadline, as a delay from "now";
        #: refreshed by every allocate() call (None = nothing deferred).
        self.tick_interval: Optional[float] = (
            self.locality_wait if self.locality_wait > 0 else None
        )
        # (job_id, stage, index) -> time the task first failed to find a
        # local slot; cleared when the task launches.
        self._first_seen: Dict[Tuple[int, int, int], float] = {}
        #: Longest any task had already waited at a moment the policy chose
        #: to keep deferring (instrumentation; < locality_wait by design).
        self.max_deferred_wait = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DelayScheduling(locality_wait={self.locality_wait})"

    @staticmethod
    def _blacklist(task: Task) -> Optional[Set[int]]:
        """Machines that failure-killed a copy of ``task`` (None if none).

        For an incomplete task every killed copy is a failure kill (clone
        kills only happen when a sibling *finishes*, completing the task),
        so the kill ledger on ``task.copies`` is exactly the blacklist.
        """
        hosts: Optional[Set[int]] = None
        for copy in task.copies:
            if copy.killed_at is not None:
                if hosts is None:
                    hosts = set()
                hosts.add(copy.machine_id)
        return hosts

    @staticmethod
    def _take_machine(
        free_pool: List[int],
        rack_of: List[int],
        preferred: Optional[int],
        blacklist: Optional[Set[int]],
    ) -> int:
        """Pop the machine the engine's placement rule would choose.

        Mirrors ``SimulationEngine._place_for_locality`` on the policy's
        private pool copy so launch requests issued in one batch account
        for the machines consumed by the requests before them.
        """
        top = len(free_pool) - 1
        choice = -1
        fallback = -1
        for i in range(top, -1, -1):
            machine_id = free_pool[i]
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
            free_pool[choice], free_pool[top] = free_pool[top], free_pool[choice]
        return free_pool.pop()

    def allocate(
        self,
        view: SchedulerView,
        ordering: OrderingPolicy,
        redundancy: RedundancyPolicy,
        rng: np.random.Generator,
        allow_early_reduce: bool = False,
    ) -> Tuple[List[LaunchRequest], int]:
        """Placement-aware walk; defers off-rack launches within the wait."""
        free = view.num_free_machines
        if free <= 0:
            return [], 0
        if not view.topology_active or self.locality_wait <= 0.0:
            # Flat cluster (or zero wait): exactly the greedy allocation.
            self.tick_interval = None
            if ordering.dynamic:
                requests = GreedyAllocation._water_fill(
                    view, ordering, free, allow_early_reduce
                )
            else:
                requests = GreedyAllocation._static_walk(
                    view, ordering, free, allow_early_reduce
                )
            return requests, len(requests)

        now = view.time
        wait = self.locality_wait
        rack_of = view.machine_racks
        num_machines = view.num_machines
        free_pool = view.free_machine_ids()
        requests: List[LaunchRequest] = []
        first_seen = self._first_seen
        next_deadline: Optional[float] = None
        launchable = launchable_tasks
        # Note: one ranked pass even under dynamic orderings -- deferral
        # does not compose with per-machine water-filling, and the ranking
        # is refreshed every decision point anyway.
        for job in ordering.order(view, view.alive_jobs):
            if not free_pool:
                break
            if job._unscheduled_ready == 0 and not (
                allow_early_reduce and job._unscheduled_total > 0
            ):
                continue
            for task in launchable(job, allow_early_reduce):
                if not free_pool:
                    break
                blacklist = self._blacklist(task)
                if blacklist is not None and len(blacklist) >= num_machines:
                    # The task has died on every machine in the cluster;
                    # refusing all of them forever would deadlock the run.
                    # Forgive the blacklist (the engine's placement rule
                    # applies the same forgiveness).
                    blacklist = None
                preferred = task.preferred_rack
                have_local = False
                have_eligible = False
                for machine_id in free_pool:
                    if blacklist is not None and machine_id in blacklist:
                        continue
                    have_eligible = True
                    if rack_of[machine_id] == preferred:
                        have_local = True
                        break
                if have_local:
                    self._take_machine(free_pool, rack_of, preferred, blacklist)
                    first_seen.pop((job.job_id, task.stage, task.index), None)
                    requests.append(LaunchRequest(task))
                    continue
                key = (job.job_id, task.stage, task.index)
                seen = first_seen.get(key)
                if seen is None:
                    first_seen[key] = now
                    seen = now
                if not have_eligible:
                    # Every free machine is blacklisted for this task: hold
                    # the copy back regardless of how long it has waited,
                    # and poll again one wait from now (keeps the run alive
                    # until a non-blacklisted machine frees up or repairs).
                    deadline = now + wait
                    if next_deadline is None or deadline < next_deadline:
                        next_deadline = deadline
                    continue
                # Defer iff the deadline the wake-up tick uses still lies
                # ahead.  ``now - seen < wait`` can hold when ``seen +
                # wait`` rounds down to ``now``; deferring then would leave
                # a zero wake-up hint, which the engine ignores.
                deadline = seen + wait
                if now < deadline:
                    waited = now - seen
                    if waited > self.max_deferred_wait:
                        self.max_deferred_wait = waited
                    if next_deadline is None or deadline < next_deadline:
                        next_deadline = deadline
                    continue
                # Wait exhausted: accept the remote (non-blacklisted) slot.
                self._take_machine(free_pool, rack_of, preferred, blacklist)
                first_seen.pop(key, None)
                requests.append(LaunchRequest(task))
        if next_deadline is None:
            self.tick_interval = None
        else:
            self.tick_interval = max(next_deadline - now, 0.0)
        return requests, len(requests)
