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
:class:`~repro.simulation.scheduler_api.ComposedScheduler`; the seven
historical schedulers are the named points of :data:`NAMED_COMPOSITIONS`
(their classes are thin aliases producing bit-identical results), and the
remaining cells of the 3 x 2 x 6 grid are the novel design space the
``policy-grid`` study preset sweeps.

A composition is written ``"<ordering>+<allocation>+<redundancy>"``, e.g.
``"srpt+greedy+late"`` (SRPT ordering with LATE speculation) or
``"fifo+share+clone"`` (FIFO priorities under epsilon sharing with paper
cloning); :func:`parse_composition` recognises the form, and the Study
scheduler axis, spec files and the CLI all accept it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type, Union

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

#: The seven historical schedulers as named points of the policy grid.
#: Their legacy classes are thin aliases over exactly these triples
#: (bit-identity asserted in ``tests/test_policies.py``).
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
