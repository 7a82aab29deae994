"""Cross-scheduler comparison tables (Figure 6 of the paper).

Figure 6 is a bar chart of the unweighted and weighted average job flowtime
for SRPTMS+C, SCA and Mantri; the headline claim is that SRPTMS+C reduces
both metrics by roughly 25% relative to Mantri.  :class:`ComparisonTable`
holds the per-scheduler numbers, computes improvements relative to a chosen
baseline and renders a plain-text table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.simulation.metrics import SimulationResult

__all__ = ["ComparisonTable", "percentage_improvement"]


def percentage_improvement(value: float, baseline: float) -> float:
    """Percent reduction of ``value`` relative to ``baseline`` (positive = better)."""
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return 100.0 * (baseline - value) / baseline


@dataclass
class ComparisonRow:
    """One scheduler's headline metrics."""

    scheduler: str
    mean_flowtime: float
    weighted_mean_flowtime: float

    def as_dict(self) -> Dict[str, float]:
        """The comparison table as a plain dictionary."""
        return {
            "scheduler": self.scheduler,
            "mean_flowtime": self.mean_flowtime,
            "weighted_mean_flowtime": self.weighted_mean_flowtime,
        }


@dataclass
class ComparisonTable:
    """Figure-6-style comparison of several schedulers."""

    rows: List[ComparisonRow] = field(default_factory=list)

    @classmethod
    def from_results(
        cls, cells: Dict[str, Sequence[SimulationResult]]
    ) -> "ComparisonTable":
        """Build a table from ``{scheduler name: that scheduler's runs}``.

        Each row holds the mean over the runs (the cell's seeds) of both
        flowtime averages.
        """

        def mean(runs: Sequence[SimulationResult], metric: str) -> float:
            return float(np.array([getattr(run, metric) for run in runs], dtype=float).mean())

        return cls(
            [
                ComparisonRow(
                    scheduler=name,
                    mean_flowtime=mean(runs, "mean_flowtime"),
                    weighted_mean_flowtime=mean(runs, "weighted_mean_flowtime"),
                )
                for name, runs in cells.items()
            ]
        )

    def row(self, scheduler: str) -> ComparisonRow:
        """One scheduler's row of the comparison table."""
        for entry in self.rows:
            if entry.scheduler == scheduler:
                return entry
        raise KeyError(f"no row for scheduler {scheduler!r}")

    def improvement_over(
        self, scheduler: str, baseline: str, weighted: bool = False
    ) -> float:
        """Percent flowtime reduction of ``scheduler`` relative to ``baseline``."""
        target = self.row(scheduler)
        reference = self.row(baseline)
        if weighted:
            return percentage_improvement(
                target.weighted_mean_flowtime, reference.weighted_mean_flowtime
            )
        return percentage_improvement(target.mean_flowtime, reference.mean_flowtime)

    def render(self, baseline: Optional[str] = None) -> str:
        """Plain-text table; improvements are shown relative to ``baseline``."""
        lines = [
            f"{'scheduler':<14} {'mean flowtime':>15} {'weighted mean':>15}"
            + ("   vs baseline" if baseline else "")
        ]
        for entry in self.rows:
            line = (
                f"{entry.scheduler:<14} {entry.mean_flowtime:>15.1f} "
                f"{entry.weighted_mean_flowtime:>15.1f}"
            )
            if baseline and entry.scheduler != baseline:
                unweighted = self.improvement_over(entry.scheduler, baseline)
                weighted = self.improvement_over(
                    entry.scheduler, baseline, weighted=True
                )
                line += f"   {unweighted:+5.1f}% / {weighted:+5.1f}%"
            lines.append(line)
        return "\n".join(lines)
