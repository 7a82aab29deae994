"""Empirical validation of the paper's analytical results.

:func:`offline_bound_check` measures, for an offline (bulk-arrival) run of
Algorithm 1, how often the Theorem 1 per-job flowtime bound holds and what
empirical competitive ratio the schedule achieved against the Remark 2 lower
bound.  The unit tests and the ``offline_bound`` experiment use it to verify
that:

* with deterministic task durations every job satisfies the bound and the
  weighted flowtime is within a factor of ~2 of the lower bound (Remark 2);
* with noisy durations the fraction of jobs satisfying the bound is at least
  the Theorem 1 probability ``(1 - 1/r^2)^2`` (up to sampling error).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.bounds import (
    empirical_competitive_ratio,
    offline_flowtime_bounds,
    theorem1_probability,
)
from repro.simulation.metrics import SimulationResult
from repro.workload.trace import Trace

__all__ = ["OfflineBoundReport", "offline_bound_check"]


@dataclass(frozen=True)
class OfflineBoundReport:
    """Outcome of comparing measured flowtimes against Theorem 1 / Remark 2."""

    num_jobs: int
    num_satisfying_bound: int
    theoretical_probability: float
    empirical_competitive_ratio: float
    max_bound_violation: float

    @property
    def fraction_satisfying_bound(self) -> float:
        """Fraction of runs whose flowtime meets the theoretical bound."""
        if self.num_jobs == 0:
            return 0.0
        return self.num_satisfying_bound / self.num_jobs

    def render(self) -> str:
        """Human-readable report of this experiment's results."""
        return "\n".join(
            [
                f"jobs                        : {self.num_jobs}",
                f"satisfy Theorem 1 bound     : {self.num_satisfying_bound} "
                f"({100.0 * self.fraction_satisfying_bound:.1f}%)",
                f"Theorem 1 probability       : {100.0 * self.theoretical_probability:.1f}%",
                f"empirical competitive ratio : {self.empirical_competitive_ratio:.3f}",
                f"max bound violation (s)     : {self.max_bound_violation:.2f}",
            ]
        )


def offline_bound_check(
    result: SimulationResult,
    trace: Trace,
    num_machines: int,
    r: float,
    slack: float = 1e-6,
) -> OfflineBoundReport:
    """Compare measured per-job flowtimes against the Theorem 1 bounds.

    Each job's bound is :func:`repro.core.bounds.offline_flowtime_bound`:
    its stage DAG's critical path plus ``f_i^s / M``.  ``slack`` absorbs
    floating-point noise and the integrality of whole tasks on whole
    machines.

    When every stage of every job has zero variance (the deterministic
    regime) the reported theoretical probability is 1.0 (Remark 2: the
    bound is deterministic); otherwise it is the Theorem 1 value
    ``(1 - 1/r^2)^2``.
    """
    bounds: Dict[int, float] = offline_flowtime_bounds(
        list(trace), num_machines, r
    )
    satisfied = 0
    worst_violation = 0.0
    for record in result.records:
        bound = bounds[record.job_id]
        if record.flowtime <= bound + slack:
            satisfied += 1
        else:
            worst_violation = max(worst_violation, record.flowtime - bound)
    ratio = empirical_competitive_ratio(
        result.total_weighted_flowtime, list(trace), num_machines
    )
    zero_variance = all(
        stage.duration.std == 0 for spec in trace for stage in spec.stage_specs
    )
    probability = 1.0 if zero_variance else theorem1_probability(max(r, 1.0))
    return OfflineBoundReport(
        num_jobs=result.num_jobs,
        num_satisfying_bound=satisfied,
        theoretical_probability=probability,
        empirical_competitive_ratio=ratio,
        max_bound_violation=worst_violation,
    )
