"""LATE (Longest Approximate Time to End) speculative execution [28].

LATE is the classic Hadoop-era improvement over naive speculation and is
included as an extra detection-based reference point beyond Mantri.  The
underlying job scheduler is, as in Hadoop, the fair scheduler; the
speculation rule itself lives in
:class:`~repro.policies.redundancy.LATESpeculation`.

Since the policy-kernel refactor this class is a thin alias for the
``fair+greedy+late`` composition (see :mod:`repro.policies`); it produces
bit-identical results to the historical implementation.
"""

from __future__ import annotations

from typing import Optional

from repro.policies.redundancy import LATESpeculation
from repro.policies.speculation import SpeculationEstimator
from repro.simulation.scheduler_api import ComposedScheduler

__all__ = ["LATEScheduler"]


class LATEScheduler(ComposedScheduler):
    """Fair sharing plus the LATE speculative-execution heuristic (``fair+greedy+late``)."""

    def __init__(
        self,
        *,
        slow_task_percentile: float = 25.0,
        speculative_cap: float = 0.1,
        tick_interval: Optional[float] = 5.0,
        min_progress: float = 0.05,
        min_elapsed: float = 1.0,
    ) -> None:
        speculation = LATESpeculation(
            slow_task_percentile=slow_task_percentile,
            speculative_cap=speculative_cap,
            tick_interval=tick_interval,
            min_progress=min_progress,
            min_elapsed=min_elapsed,
        )
        super().__init__("fair", "greedy", speculation, name="LATE")

    @property
    def slow_task_percentile(self) -> float:
        """Progress-rate percentile below which attempts are speculated on."""
        return self.redundancy.slow_task_percentile

    @property
    def speculative_cap(self) -> float:
        """Cluster fraction the speculation budget is capped at."""
        return self.redundancy.speculative_cap

    @property
    def estimator(self) -> SpeculationEstimator:
        """The progress thresholds (``min_progress``, ``min_elapsed``) the rule reads."""
        return self.redundancy.estimator

    @property
    def speculative_copies_launched(self) -> int:
        """Speculative duplicates launched so far (exposed for tests/benches).

        The same quantity is available on every scheduler's result as
        ``SimulationResult.redundant_copies_launched``.
        """
        return self.redundancy.copies_launched
