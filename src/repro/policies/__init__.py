"""The composable policy kernel: ordering x allocation x redundancy.

The paper's SRPTMS+C is literally a composition -- SRPT job ordering +
epsilon-fraction machine sharing + task cloning -- and so is every baseline
scheduler in this repository.  This package makes the three concerns
pluggable:

* :mod:`~repro.policies.ordering` -- in which order are machines offered
  to jobs?  (``fifo`` / ``fair`` / ``srpt``)
* :mod:`~repro.policies.allocation` -- how are free machines distributed
  over that order?  (``greedy`` one-per-task / ``share`` epsilon-fraction
  shares / ``delay`` rack-locality delay scheduling)
* :mod:`~repro.policies.redundancy` -- when is a second copy of a task
  worth a machine?  (``none`` / ``checkpoint`` opportunistic
  checkpointing / ``clone`` paper cloning / ``sca`` marginal-gain
  cloning / ``late`` / ``mantri`` speculation)

Any triple runs through
:class:`~repro.simulation.scheduler_api.ComposedScheduler`.  A composition
is written ``"<ordering>+<allocation>+<redundancy>"``, e.g.
``"srpt+greedy+late"`` (SRPT ordering with LATE speculation) or
``"fifo+share+clone"`` (FIFO priorities under epsilon sharing with paper
cloning); :func:`parse_composition` recognises the form.

This package is also the one scheduler registry.  :data:`NAMED_SCHEDULERS`
names the paper's SRPTMS+C, its offline Algorithm 1 and the baselines they
are compared against (``SRPTMS+C``, ``SCA``, ``Mantri``, ``LATE``,
``Fair``, ``FIFO``, ``SRPT``, ``Offline``): the seven online ones are the
named points of :data:`NAMED_COMPOSITIONS`, and the remaining cells of the
3 x 3 x 6 grid are the novel design space the ``policy-grid`` study preset
sweeps.  :func:`make_scheduler` builds any registry name -- a named
scheduler or a triple -- and the Study scheduler axis, spec files, the
CLI and the results cache all go through it.
"""

from __future__ import annotations

import inspect
from functools import partial
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Type, Union

from repro.policies.allocation import (
    LOCALITY_WAIT,
    AllocationPolicy,
    DelayScheduling,
    EpsilonShareAllocation,
    GreedyAllocation,
)
from repro.policies.gating import launchable_tasks, schedulable_jobs
from repro.policies.ordering import (
    FairOrdering,
    FIFOOrdering,
    OrderingPolicy,
    SRPTOrdering,
)
from repro.policies.redundancy import (
    CheckpointRedundancy,
    LATESpeculation,
    MantriSpeculation,
    NoRedundancy,
    PaperCloning,
    RedundancyPolicy,
    SCACloning,
)
from repro.policies.speculation import SpeculationEstimator
from repro.simulation.scheduler_api import ComposedScheduler, Scheduler

__all__ = [
    "OrderingPolicy",
    "FIFOOrdering",
    "FairOrdering",
    "SRPTOrdering",
    "AllocationPolicy",
    "GreedyAllocation",
    "EpsilonShareAllocation",
    "DelayScheduling",
    "LOCALITY_WAIT",
    "RedundancyPolicy",
    "NoRedundancy",
    "CheckpointRedundancy",
    "PaperCloning",
    "SCACloning",
    "LATESpeculation",
    "MantriSpeculation",
    "SpeculationEstimator",
    "ORDERING_POLICIES",
    "ALLOCATION_POLICIES",
    "REDUNDANCY_POLICIES",
    "NAMED_COMPOSITIONS",
    "NAMED_SCHEDULERS",
    "SchedulerEntry",
    "scheduler_entry",
    "make_scheduler",
    "composition_label",
    "parse_composition",
    "make_ordering",
    "make_allocation",
    "make_redundancy",
    "launchable_tasks",
    "schedulable_jobs",
]

#: The ordering axis, by registry name.
ORDERING_POLICIES: Dict[str, Type[OrderingPolicy]] = {
    "fifo": FIFOOrdering,
    "fair": FairOrdering,
    "srpt": SRPTOrdering,
}

#: The allocation axis, by registry name.
ALLOCATION_POLICIES: Dict[str, Type[AllocationPolicy]] = {
    "greedy": GreedyAllocation,
    "share": EpsilonShareAllocation,
    "delay": DelayScheduling,
}

#: The redundancy axis, by registry name.
REDUNDANCY_POLICIES: Dict[str, Type[RedundancyPolicy]] = {
    "none": NoRedundancy,
    "checkpoint": CheckpointRedundancy,
    "clone": PaperCloning,
    "sca": SCACloning,
    "late": LATESpeculation,
    "mantri": MantriSpeculation,
}

#: The seven online named schedulers as points of the policy grid, by
#: policy-kernel key (``NAMED_SCHEDULERS`` builds each from its triple).
NAMED_COMPOSITIONS: Dict[str, Tuple[str, str, str]] = {
    "fifo": ("fifo", "greedy", "none"),
    "fair": ("fair", "greedy", "none"),
    "srpt": ("srpt", "greedy", "none"),
    "sca": ("fair", "greedy", "sca"),
    "late": ("fair", "greedy", "late"),
    "mantri": ("fair", "greedy", "mantri"),
    "srptms_c": ("srpt", "share", "clone"),
}


def composition_label(ordering: str, allocation: str, redundancy: str) -> str:
    """The canonical ``"<ordering>+<allocation>+<redundancy>"`` spelling."""
    return f"{ordering}+{allocation}+{redundancy}"


def parse_composition(name: str) -> Optional[Tuple[str, str, str]]:
    """Parse a composition triple, or ``None`` if ``name`` is not one.

    Only strings of exactly three ``+``-separated *registered* policy names
    parse (so ``"SRPTMS+C"``, which splits into two parts, stays a plain
    scheduler name).
    """
    if not isinstance(name, str):
        return None
    parts = name.split("+")
    if len(parts) != 3:
        return None
    ordering, allocation, redundancy = parts
    if (
        ordering in ORDERING_POLICIES
        and allocation in ALLOCATION_POLICIES
        and redundancy in REDUNDANCY_POLICIES
    ):
        return (ordering, allocation, redundancy)
    return None


def _unknown(kind: str, name: object, registry: Dict[str, type]) -> ValueError:
    known = ", ".join(sorted(registry))
    return ValueError(f"unknown {kind} policy {name!r}; known: {known}")


def make_ordering(
    spec: Union[str, OrderingPolicy], *, r: float = 0.0
) -> OrderingPolicy:
    """Resolve an ordering name (or pass an instance through).

    ``r`` parameterises the ``srpt`` ordering (the standard-deviation
    weight of the remaining effective workload); other orderings ignore it.
    """
    if isinstance(spec, OrderingPolicy):
        return spec
    if spec == "srpt":
        return SRPTOrdering(r=r)
    try:
        return ORDERING_POLICIES[spec]()
    except KeyError:
        raise _unknown("ordering", spec, ORDERING_POLICIES) from None


def make_allocation(
    spec: Union[str, AllocationPolicy],
    *,
    epsilon: float = 0.6,
    locality_wait: Optional[float] = None,
) -> AllocationPolicy:
    """Resolve an allocation name (or pass an instance through).

    ``epsilon`` parameterises the ``share`` allocation (the machine-sharing
    fraction of Section V-A) and ``locality_wait`` the ``delay`` allocation
    (how long a task holds out for its preferred rack; ``None`` keeps the
    :data:`LOCALITY_WAIT` default); the other allocations ignore them.
    """
    if isinstance(spec, AllocationPolicy):
        return spec
    if spec == "share":
        return EpsilonShareAllocation(epsilon=epsilon)
    if spec == "delay" and locality_wait is not None:
        return DelayScheduling(locality_wait=locality_wait)
    try:
        return ALLOCATION_POLICIES[spec]()
    except KeyError:
        raise _unknown("allocation", spec, ALLOCATION_POLICIES) from None


def make_redundancy(
    spec: Union[str, RedundancyPolicy]
) -> RedundancyPolicy:
    """Resolve a redundancy name with default parameters (or pass through).

    Policy-specific knobs (Mantri's ``delta``, LATE's percentile, the SCA
    speedup function, the cloning cap) are available by passing a
    constructed policy instance instead of a name.
    """
    if isinstance(spec, RedundancyPolicy):
        return spec
    try:
        return REDUNDANCY_POLICIES[spec]()
    except KeyError:
        raise _unknown("redundancy", spec, REDUNDANCY_POLICIES) from None


# ------------------------------------------------------------ the registry


class SchedulerEntry(NamedTuple):
    """One registry entry: how to build a scheduler, and what a study passes it.

    ``build`` takes exactly the scheduler's keywords, with their defaults
    (its signature is the keyword schema spec files are checked against);
    ``reads`` names the study-point parameters (``epsilon``, ``r``,
    ``seed``) a :class:`~repro.study.Study` passes it unless a scheduler
    table overrides them.
    """

    build: Callable[..., Scheduler]
    reads: Tuple[str, ...] = ()


def _named_composition(key: str, name: str) -> Callable[..., Scheduler]:
    """A build function whose keywords are those of the composition's redundancy policy."""
    ordering, allocation, redundancy = NAMED_COMPOSITIONS[key]
    policy = REDUNDANCY_POLICIES[redundancy]

    def build(**kwargs: Any) -> Scheduler:
        return ComposedScheduler(ordering, allocation, policy(**kwargs), name=name)

    signature = inspect.signature(policy).replace(return_annotation="Scheduler")
    build.__signature__ = signature  # type: ignore[attr-defined]
    return build


def _srptms_c(
    epsilon: float = 0.6,
    r: float = 3.0,
    *,
    cloning_enabled: bool = True,
    schedule_reduce_before_map_completion: bool = False,
    max_copies_per_task: int = 0,
    seed: int = 0,
) -> Scheduler:
    """SRPTMS+C, Algorithm 2 (docs/ARCHITECTURE.md walks through it).

    ``epsilon`` is the machine-sharing fraction and ``r`` the std weight
    of the remaining effective workload.  ``cloning_enabled=False`` is the
    ``SRPTMS`` ablation (shares, but one copy per task);
    ``schedule_reduce_before_map_completion`` parks reduce copies before
    their map phase completes; ``max_copies_per_task`` caps copies per
    task (0: uncapped, as in the paper); ``seed`` seeds the random choice
    of tasks to launch when machines are scarce.
    """
    ordering, allocation, _ = NAMED_COMPOSITIONS["srptms_c"]
    cloning = PaperCloning(enabled=cloning_enabled, max_copies_per_task=max_copies_per_task)
    return ComposedScheduler(
        ordering,
        allocation,
        cloning,
        epsilon=epsilon,
        r=r,
        seed=seed,
        allow_early_reduce=schedule_reduce_before_map_completion,
        name="SRPTMS+C" if cloning_enabled else "SRPTMS",
    )


def _srpt(r: float = 0.0) -> Scheduler:
    """Greedy weighted SRPT: SRPTMS+C's ``epsilon -> 0`` limit without cloning."""
    return ComposedScheduler(*NAMED_COMPOSITIONS["srpt"], r=r, name="SRPT")


def _offline(r: float = 0.0, *, park_reduce_tasks: bool = True, seed: int = 0) -> Scheduler:
    """The paper's offline Algorithm 1 (see :mod:`repro.core.offline`)."""
    # Deferred: repro.core.offline imports this package.
    from repro.core.offline import OfflineScheduler

    return OfflineScheduler(r, park_reduce_tasks=park_reduce_tasks, seed=seed)


#: The named schedulers, by the name spec files, studies, the CLI, result
#: tables and the results cache use.  Explicit scheduler-table keywords
#: win over the study-point parameters an entry reads.
NAMED_SCHEDULERS: Dict[str, SchedulerEntry] = {
    "SRPTMS+C": SchedulerEntry(_srptms_c, ("epsilon", "r")),
    "SCA": SchedulerEntry(_named_composition("sca", "SCA")),
    "Mantri": SchedulerEntry(_named_composition("mantri", "Mantri")),
    "LATE": SchedulerEntry(_named_composition("late", "LATE")),
    "Fair": SchedulerEntry(_named_composition("fair", "Fair")),
    "FIFO": SchedulerEntry(_named_composition("fifo", "FIFO")),
    "SRPT": SchedulerEntry(_srpt, ("r",)),
    "Offline": SchedulerEntry(_offline, ("r", "seed")),
}


def scheduler_entry(name: str) -> SchedulerEntry:
    """The registry entry of ``name``: a named scheduler or a composition triple.

    A triple takes :class:`ComposedScheduler`'s keywords and reads the
    study point's ``epsilon`` (share allocation) and ``r`` (srpt
    ordering).  An unknown name raises a ``ValueError`` listing the valid
    ones.
    """
    entry = NAMED_SCHEDULERS.get(name) if isinstance(name, str) else None
    if entry is not None:
        return entry
    triple = parse_composition(name)
    if triple is None:
        raise ValueError(
            f"unknown scheduler {name!r}; known schedulers: "
            f"{', '.join(sorted(NAMED_SCHEDULERS))}, or a policy-kernel triple "
            "like 'srpt+greedy+late' (<ordering>+<allocation>+<redundancy>, "
            "see repro.policies)"
        )
    return SchedulerEntry(partial(ComposedScheduler, *triple), ("epsilon", "r"))


def make_scheduler(name: str, /, **kwargs: Any) -> Scheduler:
    """Build the scheduler registered as ``name`` with the given keywords.

    ``name`` is positional-only, so a triple's own ``name`` keyword (its
    result-table name) passes through.  A keyword the scheduler does not
    take raises a ``TypeError`` naming the scheduler and its keywords.
    """
    entry = scheduler_entry(name)
    keywords = inspect.signature(entry.build).parameters
    unknown = sorted(set(kwargs) - set(keywords))
    if unknown:
        raise TypeError(
            f"scheduler {name!r} takes no keyword {', '.join(unknown)}; "
            f"its keywords: {', '.join(keywords) or 'none'}"
        )
    return entry.build(**kwargs)
