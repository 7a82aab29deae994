"""Ordering policies: in which order are machines offered to jobs?

One of the three axes of the policy kernel (see :mod:`repro.policies`).
An :class:`OrderingPolicy` ranks ``psi^s(l)``, the alive jobs with
launchable unscheduled tasks, at a decision point; the allocation policy
then distributes free machines over that ranking.

Two ranking modes exist:

* *static* (``dynamic = False``): the ranking is fixed for the whole
  decision point (:meth:`OrderingPolicy.order`).  FIFO and SRPT are
  static -- their keys do not change while machines are being handed out.
* *dynamic* (``dynamic = True``): the rank of a job depends on how many
  machines it currently occupies, so the greedy allocation re-ranks after
  every single machine it hands out (water-filling), using
  :meth:`OrderingPolicy.fill_key`.  Fair sharing is dynamic -- giving a
  job a machine makes it less underserved.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.checks import check_real
from repro.core.priority import sort_jobs_by_remaining_priority
from repro.simulation.scheduler_api import SchedulerView
from repro.workload.job import Job

__all__ = ["OrderingPolicy", "FIFOOrdering", "FairOrdering", "SRPTOrdering"]


class OrderingPolicy:
    """Base class of the ordering axis (see the module docstring)."""

    #: Registry name of the policy (also its segment in composition labels).
    name: str = "ordering"
    #: True when the ranking depends on the machines a job already holds,
    #: in which case the greedy allocation water-fills via :meth:`fill_key`.
    dynamic: bool = False

    def order(self, view: SchedulerView, jobs: Sequence[Job]) -> Sequence[Job]:
        """``jobs`` ranked for this decision point (highest priority first).

        Every allocation passes ``psi^s(l)`` only
        (:func:`~repro.policies.gating.schedulable_jobs`, in arrival order),
        never the fully dispatched alive jobs.  An ordering must therefore
        rank a subset exactly as it would rank those jobs within the full
        alive set.  FIFO keeps the given order, and ``fair`` and ``srpt``
        sort by a per-job key with a job-id tie-break, so all three do.

        May return the given sequence itself when it is already in policy
        order (FIFO does); callers must treat the result as read-only.
        """
        raise NotImplementedError

    def fill_key(self, job: Job, occupied: int) -> float:
        """Water-filling key of ``job`` holding ``occupied`` machines.

        Smaller keys are served first.  Only dynamic orderings implement
        this; static orderings are ranked once via :meth:`order`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} is a static ordering (no fill_key)"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class FIFOOrdering(OrderingPolicy):
    """Serve jobs in arrival order (Hadoop's original default).

    The engine maintains the alive set in arrival-event order, which is
    exactly ``(arrival_time, job_id)``: traces are sorted on that key and
    simultaneous arrivals are enqueued in trace order.  Returning the
    given order directly is therefore identical to re-sorting -- and O(n)
    instead of O(n log n) at every decision point.
    """

    name = "fifo"

    def order(self, view: SchedulerView, jobs: Sequence[Job]) -> Sequence[Job]:
        """Alive jobs in arrival order (the given sequence, uncopied)."""
        return jobs


class FairOrdering(OrderingPolicy):
    """Most-underserved-first, by occupied-machines-per-weight ratio.

    This is the Hadoop Fair Scheduler's ranking: every alive job is
    entitled to a share of the cluster proportional to its weight, and the
    job furthest below its entitlement is served first.  The ranking is
    *dynamic*: handing a job one machine changes its key, so the greedy
    allocation water-fills one machine at a time.
    """

    name = "fair"
    dynamic = True

    def order(self, view: SchedulerView, jobs: Sequence[Job]) -> List[Job]:
        """Snapshot ranking by increasing occupied-per-weight ratio."""
        return sorted(
            jobs,
            key=lambda job: (job.num_running_copies / job.weight, job.job_id),
        )

    def fill_key(self, job: Job, occupied: int) -> float:
        """Occupied-per-weight ratio with ``occupied`` machines held."""
        return occupied / job.weight


class SRPTOrdering(OrderingPolicy):
    """Weighted-SRPT: rank by the online priority ``w_i / U_i(l)``.

    ``U_i(l)`` is the stage-exact remaining effective workload of Equation
    (4) with standard-deviation weight ``r``
    (:meth:`Job.remaining_effective_workload
    <repro.workload.job.Job.remaining_effective_workload>`), keyed once per
    job of ``psi^s(l)`` per decision point.  Paired with the epsilon-share
    allocation this is the ordering of the paper's SRPTMS+C; paired with
    the greedy allocation it is plain weighted SRPT.
    """

    name = "srpt"

    def __init__(self, r: float = 0.0) -> None:
        check_real("r", r)
        self.r = r

    def order(self, view: SchedulerView, jobs: Sequence[Job]) -> List[Job]:
        """Jobs by decreasing online SRPT priority (ties by job id)."""
        return sort_jobs_by_remaining_priority(jobs, self.r)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SRPTOrdering(r={self.r})"
