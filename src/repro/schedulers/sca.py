"""Smart Cloning Algorithm (SCA) baseline, after [26].

The authors' earlier paper proposes, at the beginning of every time slot, to
solve a convex program that chooses the number of clones for each task of
the arriving jobs so as to minimise the total expected weighted flowtime,
then to launch all chosen copies on available machines.  The reproduction
implements the standard greedy/water-filling counterpart of that program:
fair-share single copies first, then leftover machines spent one at a time
on the clone with the largest marginal gain (see
:class:`~repro.policies.redundancy.SCACloning` for the rule and for why
the greedy keeps the behaviour [26] reports for the convex program:
small jobs are cloned aggressively).

Since the policy-kernel refactor this class is a thin alias for the
``fair+greedy+sca`` composition (see :mod:`repro.policies`); it produces
bit-identical results to the historical implementation.
"""

from __future__ import annotations

from typing import Optional

from repro.core.speedup import SpeedupFunction
from repro.policies.redundancy import SCACloning
from repro.simulation.scheduler_api import ComposedScheduler

__all__ = ["SCAScheduler"]


class SCAScheduler(ComposedScheduler):
    """Fair-share base copies plus greedy marginal-gain cloning (``fair+greedy+sca``)."""

    def __init__(
        self,
        speedup: Optional[SpeedupFunction] = None,
        *,
        max_copies_per_task: int = 8,
    ) -> None:
        cloning = SCACloning(speedup, max_copies_per_task=max_copies_per_task)
        super().__init__("fair", "greedy", cloning, name="SCA")

    @property
    def speedup(self) -> SpeedupFunction:
        """The speedup function pricing each marginal clone."""
        return self.redundancy.speedup

    @property
    def max_copies_per_task(self) -> int:
        """Cap on simultaneous copies of one task."""
        return self.redundancy.max_copies_per_task
