"""Empirical flowtime CDFs over the paper's two ranges (Figures 4 and 5).

Figure 4 plots the cumulative fraction of jobs against flowtime for the
small-job range 0-300 s (25 s grid); Figure 5 does the same for the big-job
range 0-4000 s (500 s grid).  Both are cumulative fractions over *all* jobs
(the y-axis of Figure 5 starts around 0.7 because most jobs are small), so
the curves here are plain CDFs of the full flowtime distribution evaluated
on the two grids.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.simulation.metrics import SimulationResult

__all__ = [
    "SMALL_JOB_GRID",
    "BIG_JOB_GRID",
    "cdf_curve",
    "cdf_comparison",
    "render_cdf_table",
]

#: Figure 4's x-axis: 0 to 300 seconds in 25-second steps.
SMALL_JOB_GRID: List[float] = [float(x) for x in range(0, 301, 25)]

#: Figure 5's x-axis: 0 to 4000 seconds in 500-second steps.
BIG_JOB_GRID: List[float] = [float(x) for x in range(0, 4001, 500)]


def cdf_curve(runs: Sequence[SimulationResult], points: Sequence[float]) -> np.ndarray:
    """Cumulative fraction of jobs with flowtime <= each of ``points``.

    ``runs`` are one cell's runs (its seeds, as
    :attr:`~repro.study.resultset.ResultSet.results` lists them); the
    curve is the mean of their per-run curves.
    """
    if not points:
        raise ValueError("points must not be empty")
    return np.mean(np.stack([run.flowtime_cdf(points) for run in runs]), axis=0)


def cdf_comparison(
    cells: Dict[str, Sequence[SimulationResult]], points: Sequence[float]
) -> Dict[str, np.ndarray]:
    """CDF curves of several schedulers on the same grid, keyed by name."""
    return {name: cdf_curve(runs, points) for name, runs in cells.items()}


def render_cdf_table(
    curves: Dict[str, Iterable[float]], points: Sequence[float], title: str = ""
) -> str:
    """Text rendering of CDF curves: one row per grid point, one column per policy."""
    from repro.experiments.report import render_columns

    return render_columns(
        "flowtime (s)",
        list(points),
        {name: list(values) for name, values in curves.items()},
        title=title,
        precision=3,
        column_width=12,
        x_width=14,
        x_format=lambda point: f"{point:.0f}",
    )
