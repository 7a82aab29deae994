"""Redundancy policies: when is a second copy of a task worth a machine?

One of the three axes of the policy kernel (see :mod:`repro.policies`).
A :class:`RedundancyPolicy` has two hooks into a decision point:

* :meth:`RedundancyPolicy.expand_grant` -- called by *share-based*
  allocations (:class:`~repro.policies.allocation.EpsilonShareAllocation`)
  for every job, with the job's newly granted machines.  The default
  spends them one single copy per unscheduled task;
  :class:`PaperCloning` clones tasks to use the whole grant (the paper's
  Task Scheduling procedure).
* :meth:`RedundancyPolicy.finalize` -- called once per decision point
  after the base allocation, with the machines still free.  This is where
  post-pass redundancy lives: :class:`SCACloning` folds marginal-gain
  clones into the planned requests, :class:`LATESpeculation` and
  :class:`MantriSpeculation` append duplicates of detected stragglers,
  and :class:`PaperCloning` spreads leftover machines as clones when the
  allocation did not already give it per-job grants.

:class:`NoRedundancy` implements neither: exactly one copy per task, ever
(the engine-level ``SimulationResult.redundant_copies_launched`` counter
stays at zero, which the property tests assert).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.speedup import ParetoSpeedup, SpeedupFunction
from repro.checks import check_count, check_range, check_real
from repro.policies.speculation import QUIET_MARGIN, SpeculationEstimator
from repro.simulation.scheduler_api import LaunchRequest, SchedulerView
from repro.workload.job import Job, Task

__all__ = [
    "RedundancyPolicy",
    "NoRedundancy",
    "CheckpointRedundancy",
    "PaperCloning",
    "SCACloning",
    "LATESpeculation",
    "MantriSpeculation",
]


class RedundancyPolicy:
    """Base class of the redundancy axis (see the module docstring)."""

    #: Registry name of the policy (also its segment in composition labels).
    name: str = "redundancy"
    #: Progress-monitoring policies (Mantri, LATE) ask the engine for
    #: periodic wake-ups; allocation-time policies do not need them.
    tick_interval: Optional[float] = None
    #: Quiet-tick certificate of the last :meth:`finalize` pass that launched
    #: nothing (see ``Scheduler.quiet_until``).  The default certifies
    #: nothing, so a policy that computes no certificate -- a subclass that
    #: overrides LATE's or Mantri's ``_speculate`` included -- is consulted
    #: at every tick.
    quiet_until: float = -math.inf

    def __init__(self) -> None:
        #: Redundant copies (clones or speculative duplicates) this policy
        #: decided to launch over the lifetime of one simulation run.
        self.copies_launched = 0

    def on_task_completion(self, task: Task, time: float) -> None:
        """Observation hook (estimator feeding); default: nothing."""

    def on_job_completion(self, job: Job, time: float) -> None:
        """Drop per-job state of a completed job; default: nothing."""

    def expand_grant(
        self,
        job: Job,
        candidates: Sequence[Task],
        machines: int,
        rng: np.random.Generator,
    ) -> Tuple[List[LaunchRequest], int]:
        """Spend one job's ``machines``-machine grant on its ``candidates``.

        Default behaviour (no redundancy): one single copy per candidate,
        in candidate order, until the grant or the candidates run out.
        Returns the requests and the machines actually used.
        """
        count = len(candidates)
        if count == 0 or machines <= 0:
            return [], 0
        launch = min(machines, count)
        requests = [
            LaunchRequest(task=task, num_copies=1)
            for task in candidates[:launch]
        ]
        return requests, launch

    def finalize(
        self,
        view: SchedulerView,
        free: int,
        planned: List[LaunchRequest],
        rng: np.random.Generator,
        shares_expanded: bool,
    ) -> List[LaunchRequest]:
        """Post-allocation pass over the ``free`` machines still available.

        ``planned`` is the base allocation's request list; ``shares_expanded``
        is True when the allocation already routed per-job grants through
        :meth:`expand_grant` (so grant-time cloning must not double-apply).
        Default: return the planned requests unchanged.
        """
        return planned

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class NoRedundancy(RedundancyPolicy):
    """Never launch a second copy of a task (the pure-ordering ablation)."""

    name = "none"


class CheckpointRedundancy(RedundancyPolicy):
    """Opportunistic checkpointing: save partial work instead of racing copies.

    Never launches a second copy of a task.  Instead, every running copy
    durably checkpoints its completed raw work every ``interval`` units;
    when a machine failure kills the copy, the engine rounds the completed
    raw work down to the last checkpoint boundary and the replacement copy
    resumes from there instead of from zero (the ``checkpoint_resumes`` /
    ``work_saved_by_checkpointing`` counters in
    :class:`~repro.simulation.metrics.SimulationResult` account for it).
    The engine reads :attr:`checkpoint_interval` off the scheduler at
    construction time -- the policy itself makes no launch decisions beyond
    the single-copy default.

    Parameters
    ----------
    interval:
        Raw-work units between durable checkpoints (must be positive).
        Smaller intervals save more work per failure at the cost of the
        modelled checkpoint overhead being ignored (the simulation treats
        checkpoint writes as free).
    """

    name = "checkpoint"

    def __init__(self, *, interval: float = 5.0) -> None:
        super().__init__()
        #: The engine discovers this attribute (via the composed scheduler)
        #: and enables the checkpoint-resume kill path.
        self.checkpoint_interval = check_real("checkpoint interval", interval, positive=True)


class PaperCloning(RedundancyPolicy):
    """The paper's task cloning (Algorithm 2's Task Scheduling procedure).

    Under a share-based allocation this is exactly SRPTMS+C's rule: when a
    job's grant exceeds its unscheduled task count, every task is cloned so
    the whole grant is used (copies spread as evenly as possible, the extra
    copies going to a random subset); otherwise a random subset of tasks is
    launched with a single copy each.

    Under the greedy allocation there are no per-job grants, so the same
    spreading rule is applied once, in :meth:`finalize`, to the machines
    left over after every launchable task received its single copy -- the
    natural "FIFO + cloning" / "Fair + cloning" generalisation.

    Parameters
    ----------
    enabled:
        ``False`` caps every task at one copy while keeping the random
        subset draws of the disabled-cloning SRPTMS ablation bit-identical
        to the historical implementation.
    max_copies_per_task:
        Safety cap on simultaneous copies of one task (0 = uncapped, the
        paper's setting).
    """

    name = "clone"

    def __init__(
        self,
        *,
        enabled: bool = True,
        max_copies_per_task: int = 0,
    ) -> None:
        super().__init__()
        check_count("max_copies_per_task", max_copies_per_task, 0)
        self.enabled = enabled
        self.max_copies_per_task = max_copies_per_task

    def _capped(self, counts: List[int], tasks: Sequence[Task]) -> List[int]:
        """Apply the cloning switch and the optional per-task copy cap."""
        if not self.enabled:
            counts = [1] * len(counts)
        cap = self.max_copies_per_task
        if cap > 0:
            counts = [
                min(copies, max(0, cap - task._num_active))
                for copies, task in zip(counts, tasks)
            ]
        return counts

    @staticmethod
    def _spread(
        counts: List[int], machines: int, rng: np.random.Generator
    ) -> List[int]:
        """Add ``machines`` copies to ``counts`` as evenly as possible.

        Every entry gets ``machines // len(counts)``, and one more goes to
        each entry of a random subset of the right size, so no task
        systematically lags behind with fewer clones.
        """
        count = len(counts)
        base_copies = machines // count
        extras = machines - base_copies * count
        counts = [copies + base_copies for copies in counts]
        if extras > 0:
            for index in rng.choice(count, size=extras, replace=False).tolist():
                counts[index] += 1
        return counts

    def expand_grant(
        self,
        job: Job,
        candidates: Sequence[Task],
        machines: int,
        rng: np.random.Generator,
    ) -> Tuple[List[LaunchRequest], int]:
        """The paper's Task Scheduling procedure for one job's grant.

        Returns the launch requests and the number of machines actually
        used (``pi_i(l)`` in Algorithm 2).
        """
        if not candidates or machines <= 0:
            return [], 0
        count = len(candidates)
        if machines < count:
            # Fewer machines than tasks: launch a random subset, one copy each.
            chosen = rng.choice(count, size=machines, replace=False).tolist()
            chosen.sort()
            return [LaunchRequest(candidates[index]) for index in chosen], machines
        # Enough machines for every unscheduled task: clone to use them all.
        counts = self._capped(self._spread([0] * count, machines, rng), candidates)
        requests = [
            LaunchRequest(task, copies)
            for task, copies in zip(candidates, counts)
            if copies > 0
        ]
        used = sum(counts)
        self.copies_launched += used - len(requests)
        return requests, used

    def finalize(
        self,
        view: SchedulerView,
        free: int,
        planned: List[LaunchRequest],
        rng: np.random.Generator,
        shares_expanded: bool,
    ) -> List[LaunchRequest]:
        """Spread leftover machines as clones over the planned tasks.

        Only under grant-less (greedy) allocations: a share-based
        allocation already routed its grants through :meth:`expand_grant`,
        and the paper's rule leaves share-exceeding machines idle.
        """
        if shares_expanded or free <= 0 or not planned or not self.enabled:
            return planned
        counts = self._spread([request.num_copies for request in planned], free, rng)
        counts = self._capped(counts, [request.task for request in planned])
        requests: List[LaunchRequest] = []
        for request, copies in zip(planned, counts):
            if copies <= 0:
                continue
            self.copies_launched += max(0, copies - request.num_copies)
            requests.append(LaunchRequest(task=request.task, num_copies=copies))
        return requests


class SCACloning(RedundancyPolicy):
    """Smart Cloning Algorithm's marginal-gain cloning (after [26]).

    Remaining free machines are handed out one at a time to the task whose
    additional clone yields the largest marginal reduction in expected
    weighted stage-completion time,

        gain = w_i * (E / s(x) - E / s(x + 1)) / n,

    where ``x`` is the task's current planned copy count and ``n`` the
    job's unfinished tasks that must finish with it (:meth:`_pending_count`).
    Dividing by ``n`` captures that a stage only completes when *all* its
    tasks do, which makes SCA clone *small* jobs aggressively -- the
    behaviour [26] reports.
    """

    name = "sca"

    def __init__(
        self,
        speedup: Optional[SpeedupFunction] = None,
        *,
        max_copies_per_task: int = 8,
    ) -> None:
        super().__init__()
        check_count("max_copies_per_task", max_copies_per_task, 1)
        self.speedup = speedup if speedup is not None else ParetoSpeedup(alpha=2.0)
        self.max_copies_per_task = max_copies_per_task

    # -- clone allocation -------------------------------------------------------------

    @staticmethod
    def _pending_count(job: Job, stage: int) -> int:
        """Unfinished tasks that scale the marginal gain of a ``stage`` task.

        Stage 0 counts its own unfinished tasks; every later stage counts
        the unfinished tasks of all later stages together.  On the 2-node
        map→reduce DAG that is the task's own stage.
        """
        first = job.num_incomplete_stage_tasks(0)
        return first if stage == 0 else job.num_remaining_tasks - first

    def _marginal_gain(self, task: Task, copies: int, pending: int) -> float:
        """Weighted reduction in expected stage time from one more clone."""
        mean = task.duration_distribution.mean
        gain = self.speedup.marginal_gain(mean, copies)
        return task.job.weight * gain / max(1, pending)

    def _allocate_clones(
        self,
        planned_copies: Dict[str, int],
        tasks_by_id: Dict[str, Task],
        free: int,
    ) -> Dict[str, int]:
        """Distribute ``free`` machines as clones by greedy marginal gain."""
        extra: Dict[str, int] = {}
        if free <= 0 or not planned_copies:
            return extra
        counter = itertools.count()
        heap: List[tuple] = []
        pending_cache: Dict[tuple, int] = {}
        for task_id, copies in planned_copies.items():
            task = tasks_by_id[task_id]
            key = (task.job.job_id, task.stage > 0)
            if key not in pending_cache:
                pending_cache[key] = self._pending_count(task.job, task.stage)
            gain = self._marginal_gain(task, copies, pending_cache[key])
            heapq.heappush(heap, (-gain, next(counter), task_id))

        while free > 0 and heap:
            negative_gain, _, task_id = heapq.heappop(heap)
            if -negative_gain <= 0:
                break
            task = tasks_by_id[task_id]
            current = planned_copies[task_id] + extra.get(task_id, 0)
            if current >= self.max_copies_per_task:
                continue
            extra[task_id] = extra.get(task_id, 0) + 1
            free -= 1
            new_count = current + 1
            if new_count < self.max_copies_per_task:
                key = (task.job.job_id, task.stage > 0)
                gain = self._marginal_gain(task, new_count, pending_cache[key])
                heapq.heappush(heap, (-gain, next(counter), task_id))
        return extra

    # -- decision --------------------------------------------------------------------------

    def finalize(
        self,
        view: SchedulerView,
        free: int,
        planned: List[LaunchRequest],
        rng: np.random.Generator,
        shares_expanded: bool,
    ) -> List[LaunchRequest]:
        """Fold marginal-gain clones into the planned base requests."""
        planned_copies: Dict[str, int] = {}
        tasks_by_id: Dict[str, Task] = {}
        for request in planned:
            planned_copies[request.task.task_id] = request.num_copies
            tasks_by_id[request.task.task_id] = request.task
        extra = self._allocate_clones(planned_copies, tasks_by_id, free)
        self.copies_launched += sum(extra.values())
        requests: List[LaunchRequest] = []
        for task_id, copies in planned_copies.items():
            total = copies + extra.get(task_id, 0)
            requests.append(
                LaunchRequest(task=tasks_by_id[task_id], num_copies=total)
            )
        return requests


def _linear_percentile(values: Sequence[float], q: float) -> float:
    """``np.percentile(values, q)`` (linear method) bit for bit, minus numpy's call cost.

    numpy's own float arithmetic: the virtual index ``(n - 1) * (q / 100)``
    into the sorted values, and its two-branch interpolation.
    """
    ordered = sorted(values)
    top = len(ordered) - 1
    virtual = top * (q / 100)
    if virtual >= top:
        return ordered[top]
    below = int(virtual)
    t = virtual - below
    a = ordered[below]
    b = ordered[below + 1]
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


class LATESpeculation(RedundancyPolicy):
    """LATE (Longest Approximate Time to End) speculative execution [28].

    * estimate each running attempt's time-to-end by progress-rate
      extrapolation;
    * speculate only on attempts whose *progress rate* falls below the
      ``slow_task_percentile`` of currently running attempts;
    * among those, duplicate the attempts with the *longest* estimated time
      to end first (ties by job arrival, stage, task index, launch order);
    * never exceed ``speculative_cap`` (a fraction of the cluster)
      speculative copies per decision point, and at most one duplicate per
      task.

    It reads no finished-copy durations, so it takes no completion hook.
    """

    name = "late"

    def __init__(
        self,
        *,
        slow_task_percentile: float = 25.0,
        speculative_cap: float = 0.1,
        tick_interval: Optional[float] = 5.0,
        min_progress: float = 0.05,
        min_elapsed: float = 1.0,
    ) -> None:
        super().__init__()
        check_range("slow_task_percentile", slow_task_percentile, 0, 100, closed="neither")
        check_range("speculative_cap", speculative_cap, 0, 1, closed="right")
        if tick_interval is not None:
            check_real("tick_interval", tick_interval, positive=True)
        self.slow_task_percentile = slow_task_percentile
        self.speculative_cap = speculative_cap
        self.tick_interval = tick_interval
        self.estimator = SpeculationEstimator(
            min_progress=min_progress, min_elapsed=min_elapsed, min_samples=1
        )

    def _candidates(self, view: SchedulerView) -> List[tuple]:
        """Sort keys of the copies LATE may duplicate, in machine order.

        One loop over the running copies.  A copy is estimable once its
        elapsed time is positive and at least ``min_elapsed`` (parked and
        just started copies have no progress rate); ``progress = min(1,
        elapsed / workload)`` and ``rate = progress / elapsed``.  The
        threshold percentile ranks the rate of every estimable copy, so
        all of them are collected.  A copy can become a candidate only at
        ``min_progress`` or more and as its task's only active copy (at
        most one duplicate per task); only those at or below the threshold
        then pay for ``time_left = elapsed * (1 - progress) / progress``.
        Each key is ``(-time_left, job arrival index, stage, task index,
        copy id, task)``.

        With no candidate, the same loop leaves a quiet-tick certificate in
        :attr:`quiet_until`: the earliest time at which a copy reaches
        ``min_elapsed`` (``start + min_elapsed``), a task's only active
        copy reaches ``min_progress`` (``start + min_progress *
        workload``), or any copy reaches ``progress = 1`` (``start +
        workload``), brought forward by the relative ``QUIET_MARGIN``.
        Before all three, in the same state, the estimable and possible
        copies stay the same and every rate stays ``1 / workload`` up to
        a few ulps, and so does the threshold, which interpolates them.
        A possible copy whose rate lies above the threshold by less than
        ``QUIET_MARGIN`` (relative) may still fall to it at a later tick;
        then there is no certificate (``-inf``), and every tick makes the
        full pass.
        """
        now = view.time
        min_elapsed = self.estimator.min_elapsed
        min_progress = self.estimator.min_progress
        rates: List[float] = []
        add_rate = rates.append
        possible: List[tuple] = []
        quiet = math.inf
        for copy in view.running_copies():
            start = copy.start_time
            if start is None:
                continue
            elapsed = now - start
            if elapsed < min_elapsed or elapsed == 0.0:
                edge = start + min_elapsed
                if edge < quiet:
                    quiet = edge
                continue
            workload = copy.workload
            progress = elapsed / workload
            if progress > 1.0:
                progress = 1.0
            rate = progress / elapsed
            add_rate(rate)
            if progress >= min_progress:
                if copy.task._num_active < 2:
                    possible.append((rate, elapsed, progress, copy))
            elif copy.task._num_active < 2:
                edge = start + min_progress * workload
                if edge < quiet:
                    quiet = edge
                continue
            if start + workload < quiet:
                quiet = start + workload
        candidates: List[tuple] = []
        if possible:
            threshold = _linear_percentile(rates, self.slow_task_percentile)
            near = threshold * (1.0 + QUIET_MARGIN)
            for rate, elapsed, progress, copy in possible:
                if rate > near:
                    continue
                if rate > threshold:
                    quiet = -math.inf
                    continue
                task = copy.task
                candidates.append(
                    (-(elapsed * (1.0 - progress) / progress), task.job.arrival_index,
                     task.stage, task.index, copy.copy_id, task)
                )
        self.quiet_until = -math.inf if candidates else quiet * (1.0 - QUIET_MARGIN)
        return candidates

    def _speculate(self, view: SchedulerView, free: int) -> List[LaunchRequest]:
        # With no machine or budget to spend, no time can make this pass
        # launch; otherwise _candidates replaces the certificate.
        self.quiet_until = math.inf
        if free <= 0:
            return []
        budget = min(free, int(self.speculative_cap * view.num_machines))
        if budget <= 0:
            return []
        candidates = self._candidates(view)
        candidates.sort()
        # A task has one candidate at most: no duplicate set is needed.
        requests = [
            LaunchRequest(task=entry[-1], num_copies=1)
            for entry in candidates[:budget]
        ]
        self.copies_launched += len(requests)
        return requests

    def finalize(
        self,
        view: SchedulerView,
        free: int,
        planned: List[LaunchRequest],
        rng: np.random.Generator,
        shares_expanded: bool,
    ) -> List[LaunchRequest]:
        """Append duplicates of the slowest detected attempts."""
        requests = list(planned)
        requests.extend(self._speculate(view, free))
        return requests


class MantriSpeculation(RedundancyPolicy):
    """Microsoft Mantri's duplicate-launch rule [4].

    For every running attempt Mantri tracks a progress score and estimates
    the remaining time ``t_rem`` by progress-rate extrapolation, and the
    duration ``t_new`` of a restarted copy from the empirical durations of
    finished copies of the same job stage; a duplicate is launched when
    ``P(t_rem > 2 * t_new) > delta``, the paper's inequality, with at most
    ``max_copies_per_task`` simultaneous attempts per task.  Pending
    (never-yet-launched) tasks always take priority over speculative
    duplicates because the base allocation runs first.
    """

    name = "mantri"

    def __init__(
        self,
        delta: float = 0.25,
        *,
        max_copies_per_task: int = 2,
        tick_interval: Optional[float] = 5.0,
        min_progress: float = 0.05,
        min_elapsed: float = 1.0,
        min_samples: int = 3,
    ) -> None:
        super().__init__()
        check_range("delta", delta, 0, 1, closed="neither")
        check_count("max_copies_per_task", max_copies_per_task, 2)
        if tick_interval is not None:
            check_real("tick_interval", tick_interval, positive=True)
        self.delta = delta
        self.max_copies_per_task = max_copies_per_task
        self.tick_interval = tick_interval
        self.estimator = SpeculationEstimator(
            min_progress=min_progress,
            min_elapsed=min_elapsed,
            min_samples=min_samples,
        )

    def on_task_completion(self, task: Task, time: float) -> None:
        """Feed the finished task's duration into the t_new estimator."""
        self.estimator.record_completion(task, time)

    def on_job_completion(self, job: Job, time: float) -> None:
        """Drop the job's samples: it has no running copy left to estimate."""
        self.estimator.forget(job)

    def _speculate(self, view: SchedulerView, free: int) -> List[LaunchRequest]:
        """Spend up to ``free`` machines on duplicates, longest time left first.

        When it launches nothing, the estimator's certificate is this
        pass's (see ``SpeculationEstimator.straggler_estimates``): until
        then no copy gains an estimate and no probability rises, so none
        exceeds ``delta``.  With no free machine it is ``inf``.
        """
        if free <= 0:
            self.quiet_until = math.inf
            return []
        estimator = self.estimator
        delta = self.delta
        scored: List[tuple] = []
        for time_left, probability, copy in estimator.straggler_estimates(
            view, self.max_copies_per_task
        ):
            if probability <= delta:
                continue
            task = copy.task
            scored.append(
                (-time_left, task.job.arrival_index, task.stage, task.index,
                 copy.copy_id, task)
            )
        scored.sort()
        requests: List[LaunchRequest] = []
        duplicated = set()
        for entry in scored:
            if free <= 0:
                break
            task = entry[-1]
            if id(task) in duplicated:
                continue
            requests.append(LaunchRequest(task=task, num_copies=1))
            duplicated.add(id(task))
            self.copies_launched += 1
            free -= 1
        self.quiet_until = -math.inf if requests else estimator.quiet_until
        return requests

    def finalize(
        self,
        view: SchedulerView,
        free: int,
        planned: List[LaunchRequest],
        rng: np.random.Generator,
        shares_expanded: bool,
    ) -> List[LaunchRequest]:
        """Append duplicates of attempts satisfying Mantri's inequality."""
        requests = list(planned)
        requests.extend(self._speculate(view, free))
        return requests
