"""The paper's artefacts as study presets, keyed by their CLI names.

:data:`STUDY_PRESETS` is the one place a paper artefact is defined: Table
II, Figures 1-6, the Theorem 1 / Remark 2 check of offline Algorithm 1
(``offline-bound``), the scenario sweep, and the policy-grid,
dag-redundancy and locality sweeps.  Each :class:`StudyPreset` holds

* ``defaults`` -- its knobs (axis values and fixed parameters);
* :meth:`StudyPreset.build` -- the :class:`~repro.study.core.Study` it
  sweeps, from an :class:`~repro.experiments.config.ExperimentConfig` plus
  knob overrides;
* ``render(results, study)`` -- its plain-text report, read off the
  study's :class:`~repro.study.resultset.ResultSet`.

The reports are byte-identical to ``tests/golden/``.  For example::

    preset = STUDY_PRESETS["figure1"]
    study = preset.build(config, epsilons=(0.2, 0.6, 1.0))
    print(preset.render(preset.run(study, config), study))
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.cdf import BIG_JOB_GRID, SMALL_JOB_GRID, cdf_comparison, render_cdf_table
from repro.analysis.comparison import ComparisonTable
from repro.analysis.theory import OfflineBoundReport, offline_bound_check
from repro.experiments.config import ExperimentConfig, generate_google_trace
from repro.experiments.report import render_columns, render_key_values, render_sweep_table
from repro.scenarios import DEFAULT_MEAN_REPAIR
from repro.simulation.metrics import SimulationResult
from repro.study.core import Study, StudyPoint
from repro.study.resultset import ResultSet
from repro.workload.google_trace import TABLE_II_TARGETS, GoogleTraceConfig
from repro.workload.trace import TraceStatistics

__all__ = [
    "StudyPreset",
    "STUDY_PRESETS",
    "preset_study",
    "run_reports",
    "table2_statistics",
    "offline_bound_reports",
]


def _config(config: Optional[ExperimentConfig]) -> ExperimentConfig:
    return config if config is not None else ExperimentConfig.default_bench()


def _axis(study: Study, name: str) -> Tuple[Any, ...]:
    return dict(study.axes)[name]


def _labels(refs) -> List[str]:
    return [ref.label for ref in refs]


def _argmin(xs: Sequence[Any], ys: Sequence[float]) -> Any:
    """The x of the first smallest y."""
    return xs[min(range(len(ys)), key=ys.__getitem__)]


def _flowtime_curves(cells: Sequence[ResultSet]) -> Dict[str, List[float]]:
    """The two flowtime series every SRPTMS+C sweep figure plots."""
    return {
        "Average job flowtime (s)": [cell.mean("mean_flowtime") for cell in cells],
        "Weighted average flowtime (s)": [
            cell.mean("weighted_mean_flowtime") for cell in cells
        ],
    }


# ------------------------------------------------------------------- table II


def _table2_study(config: ExperimentConfig) -> Study:
    """Table II: a zero-run study whose workload axis is the result."""
    return Study(
        name="table2",
        schedulers=(),
        seeds=config.seeds,
        scale=config.scale,
        trace_seed=config.trace_seed,
        within_job_cv=config.within_job_cv,
    )


def table2_statistics(study: Study) -> TraceStatistics:
    """The Table II statistics of the table2 study's synthetic trace.

    Task durations are drawn once per task from the trace-seeded
    generator, as a measured trace would report them.
    """
    trace = generate_google_trace(
        GoogleTraceConfig(scale=study.scale, within_job_cv=study.within_job_cv),
        seed=study.trace_seed,
    )
    return trace.statistics(rng=np.random.default_rng(study.trace_seed))


def _table2_render(results: ResultSet, study: Study) -> str:
    stats = table2_statistics(study)
    paper = TABLE_II_TARGETS
    rows = {
        "Total number of Jobs": f"{stats.total_jobs}  (paper*scale: {paper['total_jobs'] * study.scale:.0f})",
        "Trace duration (s)": f"{stats.trace_duration:.1f}  (paper: {paper['trace_duration']:.1f})",
        "Average number of tasks per job": f"{stats.average_tasks_per_job:.2f}  (paper: {paper['average_tasks_per_job']:.2f})",
        "Minimum task duration (s)": f"{stats.min_task_duration:.1f}  (paper: {paper['min_task_duration']:.1f})",
        "Maximum task duration (s)": f"{stats.max_task_duration:.1f}  (paper: {paper['max_task_duration']:.1f})",
        "Average task duration (s)": f"{stats.average_task_duration:.1f}  (paper: {paper['average_task_duration']:.1f})",
    }
    return render_key_values(
        rows, title=f"Table II -- synthetic trace statistics (scale={study.scale:g})"
    )


# ----------------------------------------------------------- figure 1 (epsilon)

#: The paper's Figure 1 x-axis.
DEFAULT_EPSILONS: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def _figure1_study(
    config: ExperimentConfig, *, epsilons: Sequence[float], r: float
) -> Study:
    """Figure 1: SRPTMS+C swept over epsilon at fixed r.

    The paper finds both flowtime averages minimised around epsilon = 0.6:
    a small epsilon is too SRPT-like, a large one too fair-share-like.
    """
    kwargs = config.study_kwargs()
    kwargs["epsilon"] = 0.6  # unused: the axis overrides it at every point
    kwargs["r"] = float(r)
    return Study(
        name="figure1",
        schedulers=("SRPTMS+C",),
        axes={"epsilon": tuple(epsilons)},
        **kwargs,
    )


def _figure1_render(results: ResultSet, study: Study) -> str:
    epsilons = _axis(study, "epsilon")
    curves = _flowtime_curves([results.filter(epsilon=e) for e in epsilons])
    mean, weighted = curves.values()
    table = render_sweep_table(
        "epsilon",
        epsilons,
        curves,
        title=f"Figure 1 -- flowtime vs epsilon under SRPTMS+C (r={study.r:g})",
    )
    return (
        table
        + f"\nbest epsilon (unweighted): {_argmin(epsilons, mean):g}"
        + f"\nbest epsilon (weighted)  : {_argmin(epsilons, weighted):g}"
    )


# ----------------------------------------------------------------- figure 2 (r)

#: The paper's Figure 2 x-axis.
DEFAULT_R_VALUES: Tuple[float, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)


def _figure2_study(
    config: ExperimentConfig, *, r_values: Sequence[float], epsilon: float
) -> Study:
    """Figure 2: SRPTMS+C swept over r at fixed epsilon.

    ``r`` weighs the task-duration deviation in the effective workload.
    The paper finds a flat dependence: the trace's within-job variation is
    small.
    """
    kwargs = config.study_kwargs()
    kwargs["epsilon"] = float(epsilon)
    return Study(
        name="figure2",
        schedulers=("SRPTMS+C",),
        axes={"r": tuple(r_values)},
        **kwargs,
    )


def _figure2_render(results: ResultSet, study: Study) -> str:
    r_values = _axis(study, "r")
    curves = _flowtime_curves([results.filter(r=r) for r in r_values])
    mean, weighted = curves.values()
    low, high = min(mean), max(mean)
    spread = (high - low) / low if low != 0 else 0.0
    table = render_sweep_table(
        "r",
        r_values,
        curves,
        title=f"Figure 2 -- flowtime vs r under SRPTMS+C (epsilon={study.epsilon:g})",
    )
    return (
        table
        + f"\nbest r (unweighted): {_argmin(r_values, mean):g}"
        + f"\nbest r (weighted)  : {_argmin(r_values, weighted):g}"
        + f"\nrelative spread of the unweighted curve: {100.0 * spread:.1f}%"
    )


# -------------------------------------------------------- figure 3 (cluster size)

#: The paper's Figure 3 x-axis (6K..12K machines) as fractions of 12K.
DEFAULT_MACHINE_FRACTIONS: Tuple[float, ...] = (
    0.5,
    0.5833,
    0.6667,
    0.75,
    0.8333,
    0.9167,
    1.0,
)


def _figure3_study(
    config: ExperimentConfig, *, machine_fractions: Sequence[float]
) -> Study:
    """Figure 3: SRPTMS+C swept over fractions of the config's cluster.

    The paper sees a knee around 8K of 12K machines: past it, spare
    capacity already clones the small jobs.
    """
    return Study(
        name="figure3",
        schedulers=("SRPTMS+C",),
        axes={"machine_fraction": tuple(machine_fractions)},
        **config.study_kwargs(),
    )


def _figure3_render(results: ResultSet, study: Study) -> str:
    cells = [
        results.filter(machine_fraction=f)
        for f in _axis(study, "machine_fraction")
    ]
    counts = [cell.results[0].num_machines for cell in cells]
    curves = _flowtime_curves(cells)
    mean = curves["Average job flowtime (s)"]
    knee = next(
        (count for count, value in zip(counts, mean) if value <= 1.10 * mean[-1]),
        counts[-1],
    )
    table = render_sweep_table(
        "machines",
        counts,
        curves,
        title=(
            "Figure 3 -- flowtime vs cluster size under SRPTMS+C "
            f"(epsilon={study.epsilon:g}, r={study.r:g})"
        ),
    )
    return table + (
        f"\nknee: {knee} machines already within 10% of the "
        f"largest cluster's flowtime"
    )


# ------------------------------------------------- scheduler comparison (4-6)

#: The paper's compared policies, in report order.
COMPARISON_SCHEDULERS: Tuple[str, ...] = ("SRPTMS+C", "SCA", "Mantri")
#: Extra reference policies of the ablation benchmarks.
EXTRA_SCHEDULERS: Tuple[str, ...] = ("LATE", "SRPT", "Fair", "FIFO")


def _comparison_study(
    config: ExperimentConfig,
    *,
    trace,
    include_extra: bool,
    schedulers: Optional[Sequence[str]],
) -> Study:
    """Figures 4-6: one scheduler comparison on one trace.

    ``trace`` replaces the config's synthetic trace; ``include_extra``
    adds the extra reference policies; ``schedulers`` picks a subset.
    """
    names = COMPARISON_SCHEDULERS + (EXTRA_SCHEDULERS if include_extra else ())
    if schedulers is not None:
        unknown = set(schedulers) - set(names)
        if unknown:
            raise ValueError(f"unknown scheduler names: {sorted(unknown)}")
        names = tuple(schedulers)
    kwargs = config.study_kwargs()
    if trace is not None:
        kwargs["workloads"] = (trace,)
    return Study(name="scheduler-comparison", schedulers=names, **kwargs)


def _runs_by_scheduler(results: ResultSet) -> Dict[str, List[SimulationResult]]:
    """Each scheduler's runs (its seeds), in axis order."""
    return {name: cell.results for (name,), cell in results.group_by("scheduler").items()}


def _cdf_render(results: ResultSet, grid: List[float], limit: float, title: str) -> str:
    curves = cdf_comparison(_runs_by_scheduler(results), grid)
    at_limit = "  ".join(
        f"{name}: {curve[grid.index(limit)]:.1%}" for name, curve in curves.items()
    )
    return (
        render_cdf_table(curves, grid, title=title)
        + f"\nfraction of jobs completing within {limit:.0f} s -- {at_limit}"
    )


def _figure4_render(results: ResultSet, study: Study) -> str:
    """Figure 4: flowtime CDFs over the small-job range.

    The paper: more than half the jobs finish within 100 s under SRPTMS+C,
    against ~46% (SCA) and ~44% (Mantri).
    """
    return _cdf_render(
        results,
        SMALL_JOB_GRID,
        100.0,
        "Figure 4 -- CDF of job flowtime, small-job range (0-300 s)",
    )


def _figure5_render(results: ResultSet, study: Study) -> str:
    """Figure 5: flowtime CDFs over the big-job range.

    The paper: ~90% of jobs finish within 1000 s under SRPTMS+C, against
    ~88% (SCA) and ~86% (Mantri).
    """
    return _cdf_render(
        results,
        BIG_JOB_GRID,
        1000.0,
        "Figure 5 -- CDF of job flowtime, big-job range (0-4000 s)",
    )


def _figure6_render(results: ResultSet, study: Study) -> str:
    """Figure 6: both flowtime averages per scheduler, against Mantri.

    The paper's headline: SRPTMS+C cuts both by ~25% relative to Mantri.
    """
    table = ComparisonTable.from_results(_runs_by_scheduler(results))
    unweighted = table.improvement_over("SRPTMS+C", "Mantri")
    weighted = table.improvement_over("SRPTMS+C", "Mantri", weighted=True)
    return "\n".join(
        [
            "Figure 6 -- average job flowtime per scheduler",
            table.render(baseline="Mantri"),
            f"SRPTMS+C vs Mantri: {unweighted:+.1f}% (unweighted), "
            f"{weighted:+.1f}% (weighted)   [paper: ~25% reduction]",
        ]
    )


# -------------------------------------------------------------- offline bound

#: Job sizes (task counts) of the default bulk-arrival instance: many small
#: jobs and a few large ones, as in the paper's motivation.
DEFAULT_JOB_SIZES: Tuple[int, ...] = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 30, 40, 60, 80)


def _offline_bound_study(
    config: ExperimentConfig,
    *,
    job_sizes: Sequence[int],
    num_machines: int,
    mean_duration: float,
    noisy_cv: float,
    r: float,
    weights: Optional[Sequence[float]],
) -> Study:
    """Algorithm 1 on deterministic and noisy bulk arrivals, as one product.

    With deterministic durations, Remark 2 bounds the competitive ratio by
    2 and Theorem 1 holds for every job; with noisy durations Theorem 1
    holds per job with probability ``(1 - 1/r^2)^2``.  The axes are
    workloads (deterministic/noisy) x r (``0`` for the Remark 2 regime,
    ``r`` for the Theorem 1 regime); the report reads, and
    :func:`_offline_bound_cells` runs, only the two diagonal cells.
    """

    def bulk_table(cv: float) -> Dict[str, object]:
        table: Dict[str, object] = {
            "kind": "bulk",
            "job_sizes": tuple(int(size) for size in job_sizes),
            "mean_duration": float(mean_duration),
            "cv": float(cv),
        }
        if weights is not None:
            table["weights"] = tuple(float(w) for w in weights)
        return table

    r_axis = (0.0, float(r)) if r != 0.0 else (0.0,)
    return Study(
        name="offline-bound",
        schedulers=("Offline",),
        workloads=(
            ("deterministic", bulk_table(0.0)),
            ("noisy", bulk_table(noisy_cv)),
        ),
        seeds=(config.seeds[0],),
        axes={"r": r_axis},
        machines=num_machines,
        scale=config.scale,
    )


def _offline_bound_diagonal(study: Study) -> Tuple[Tuple[str, float], ...]:
    return (("deterministic", 0.0), ("noisy", _axis(study, "r")[-1]))


def _offline_bound_cells(study: Study, point: StudyPoint) -> bool:
    coords = dict(point.coords)
    return (coords["workload"], coords["r"]) in _offline_bound_diagonal(study)


def offline_bound_reports(
    results: ResultSet, study: Study
) -> Dict[str, OfflineBoundReport]:
    """The bound checks of the offline-bound study, keyed by workload label."""
    workloads = {ref.label: ref for ref in study.workloads}
    # Bulk traces are a pure function of their recipe, so rebuilding one
    # yields the trace the run replayed.
    return {
        label: offline_bound_check(
            results.filter(workload=label, r=r).results[0],
            workloads[label].resolve(None).build(),
            study.machines,
            r=r,
        )
        for label, r in _offline_bound_diagonal(study)
    }


def _offline_bound_render(results: ResultSet, study: Study) -> str:
    reports = offline_bound_reports(results, study)
    return "\n".join(
        [
            f"Offline Algorithm 1 on a bulk arrival ({study.machines} machines, "
            f"r={_axis(study, 'r')[-1]:g})",
            "-- deterministic task durations (Remark 2 regime) --",
            reports["deterministic"].render(),
            "-- noisy task durations (Theorem 1 regime) --",
            reports["noisy"].render(),
        ]
    )


# -------------------------------------------------------------- scenario sweep

#: Half-widths ``s`` of the ``UniformSpeeds(1-s, 1+s)`` heterogeneity axis.
DEFAULT_SPEED_SPREADS: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75)

#: Per-machine failure rates (events per simulated second) of the failure
#: axis.  The synthetic Google trace's tasks average ~640 s, so the top
#: rate (mean uptime ~3300 s) already kills about a fifth of task
#: executions; rates near ``1 / mean task duration`` make completion itself
#: improbable.
DEFAULT_FAILURE_RATES: Tuple[float, ...] = (0.0, 2e-5, 1e-4, 3e-4)

#: The cloning policy the sweep studies plus its baselines, in report order.
SWEEP_SCHEDULERS: Tuple[str, ...] = ("SCA", "LATE", "Mantri", "Fair")


def _scenario_sweep_study(
    config: ExperimentConfig,
    *,
    speed_spreads: Sequence[float],
    failure_rates: Sequence[float],
    mean_repair: float,
) -> Study:
    """SCA vs detection/fairness baselines as machines misbehave.

    Two adversity axes: machine speeds ``UniformSpeeds(1-s, 1+s)``
    normalised to mean 1 (constant capacity, growing spread), and a
    per-machine fail/repair process at growing rates.  Both fold into one
    scenario axis; their zero point is the shared homogeneous ``base``
    cluster, which runs once and heads both tables.  Every scenario is a
    knob table, so the study round-trips through spec files.
    """
    if not speed_spreads or not failure_rates:
        raise ValueError("both sweep axes need at least one point")
    scenarios: Dict[str, Optional[Dict[str, float]]] = {}
    for spread in speed_spreads:
        label = "base" if spread == 0.0 else f"hetero:{spread:g}"
        scenarios.setdefault(label, {"speed_spread": spread} if spread else None)
    for rate in failure_rates:
        label = "base" if rate == 0.0 else f"failure:{rate:g}"
        scenarios.setdefault(
            label,
            {"failure_rate": rate, "mean_repair": mean_repair} if rate else None,
        )
    kwargs = config.study_kwargs()
    kwargs["scenarios"] = tuple(scenarios.items())
    return Study(name="scenario-sweep", schedulers=SWEEP_SCHEDULERS, **kwargs)


def _adversity_table(
    results: ResultSet,
    names: Sequence[str],
    points: Sequence[Tuple[str, float]],
    x_label: str,
    title: str,
) -> str:
    series: Dict[str, List[float]] = {
        name: [
            results.filter(scenario=label, scheduler=name).mean("mean_flowtime")
            for label, _ in points
        ]
        for name in names
    }
    best = [
        min(series[name][index] for name in names if name != "SCA")
        for index in range(len(points))
    ]
    series["SCA adv. (%)"] = [
        100.0 * (low - sca) / low for low, sca in zip(best, series["SCA"])
    ]
    return render_sweep_table(x_label, [x for _, x in points], series, title=title)


def _scenario_sweep_render(results: ResultSet, study: Study) -> str:
    base = [("base", 0.0)] if "base" in _labels(study.scenarios) else []
    hetero, failure = list(base), list(base)
    mean_repair = DEFAULT_MEAN_REPAIR
    for ref in study.scenarios:
        knobs = dict(ref.decl or ())
        if "speed_spread" in knobs:
            hetero.append((ref.label, knobs["speed_spread"]))
        elif "failure_rate" in knobs:
            failure.append((ref.label, knobs["failure_rate"]))
            mean_repair = knobs["mean_repair"]
    names = _labels(study.schedulers)
    return "\n\n".join(
        [
            _adversity_table(
                results,
                names,
                hetero,
                "speed spread",
                "Scenario sweep -- mean flowtime vs machine-speed spread "
                "(UniformSpeeds(1-s, 1+s), mean-normalised)",
            ),
            _adversity_table(
                results,
                names,
                failure,
                "failure rate",
                "Scenario sweep -- mean flowtime vs per-machine failure rate "
                f"(mean repair {mean_repair:g} s)",
            ),
            "SCA adv. (%) = flowtime reduction of SCA vs the best of "
            "LATE/Mantri/Fair at that sweep point",
        ]
    )


# --------------------------------------------------------------- policy grid

#: The novel ordering+allocation+redundancy compositions the grid sweeps
#: (the seven named cells are :data:`repro.policies.NAMED_COMPOSITIONS`).
DEFAULT_GRID: Tuple[str, ...] = (
    "srpt+greedy+clone",
    "srpt+greedy+late",
    "srpt+greedy+mantri",
    "srpt+share+none",
    "srpt+share+late",
    "srpt+share+sca",
    "fifo+greedy+clone",
    "fifo+greedy+late",
    "fifo+share+clone",
    "fair+greedy+clone",
    "fair+share+clone",
    "fair+share+mantri",
)

#: Scenario presets the grid is evaluated under.
DEFAULT_GRID_SCENARIOS: Tuple[str, ...] = ("none", "uniform-hetero", "zipf-hetero")


def _policy_grid_study(
    config: ExperimentConfig, *, grid: Sequence[str], scenarios: Sequence[str]
) -> Study:
    """Novel policy compositions vs SRPTMS+C across scenario presets.

    The scheduler axis holds the reference (``SRPTMS+C``) followed by the
    grid's composition triples (``"srpt+greedy+late"`` style, see
    :mod:`repro.policies`); the report says which beat the reference where.
    """
    if not grid:
        raise ValueError("the composition grid needs at least one entry")
    kwargs = config.study_kwargs()
    kwargs["scenarios"] = tuple(scenarios)
    return Study(
        name="policy-grid", schedulers=("SRPTMS+C",) + tuple(grid), **kwargs
    )


def _policy_grid_render(results: ResultSet, study: Study) -> str:
    names = _labels(study.schedulers)
    blocks: List[str] = []
    for scenario in _labels(study.scenarios):
        cells = [results.filter(scenario=scenario, scheduler=name) for name in names]
        means = [cell.mean("mean_flowtime") for cell in cells]
        advantage = {
            name: 100.0 * (means[0] - mean) / means[0]
            for name, mean in zip(names, means)
        }
        table = render_columns(
            "policy",
            names,
            {
                "mean flowtime": means,
                "weighted mean": [cell.mean("weighted_mean_flowtime") for cell in cells],
                "vs SRPTMS+C (%)": list(advantage.values()),
                "redundant copies": [
                    cell.mean("redundant_copies_launched") for cell in cells
                ],
            },
            title=f"Policy grid -- scenario: {scenario}",
            precision=1,
            column_width=18,
            x_width=24,
        )
        winners = sorted(
            (name for name, mean in zip(names[1:], means[1:]) if mean < means[0]),
            key=lambda name: -advantage[name],
        )
        blocks.append(table + "\nbeats SRPTMS+C: " + (", ".join(winners) or "(none)"))
    blocks.append(
        "policy = <ordering>+<allocation>+<redundancy> "
        "(repro.policies); vs SRPTMS+C (%) = mean-flowtime reduction "
        "relative to the paper's scheduler, positive is better"
    )
    return "\n\n".join(blocks)


# ------------------------------------------------------------ dag redundancy

#: The redundancy axis: no redundancy, the paper's cloning, LATE
#: speculation and checkpointing, each over SRPT ordering + greedy
#: allocation so the redundancy policy is the only varying factor.
DEFAULT_REDUNDANCIES: Tuple[str, ...] = ("none", "clone", "late", "checkpoint")

#: Two DAG stream workloads (knob tables over
#: :data:`repro.study.core.STREAM_FACTORIES`): a 3-round shuffle chain and a
#: fan-out/fan-in diamond, both small enough for smoke-scale goldens.
DEFAULT_DAG_WORKLOADS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    (
        "chain",
        {
            "kind": "stream",
            "factory": "dag_chain",
            "num_jobs": 20,
            "num_rounds": 3,
            "arrival_rate": 0.05,
            "mean_tasks_per_round": 3.0,
            "mean_duration": 15.0,
            "cv": 0.3,
            "seed": 1,
        },
    ),
    (
        "diamond",
        {
            "kind": "stream",
            "factory": "dag_diamond",
            "num_jobs": 20,
            "fan_out": 3,
            "arrival_rate": 0.05,
            "mean_tasks_per_branch": 2.0,
            "mean_duration": 15.0,
            "cv": 0.3,
            "seed": 2,
        },
    ),
)

#: The failure-heavy scenario axis.
DEFAULT_FAILURE_SCENARIOS: Tuple[Tuple[str, Dict[str, float]], ...] = (
    ("fail-lo", {"failure_rate": 0.002, "mean_repair": 10.0}),
    ("fail-hi", {"failure_rate": 0.01, "mean_repair": 10.0}),
)

#: Cluster size of the sweep (its stream workloads do not scale with
#: ``scale``): large enough that LATE's speculative cap (10% of the
#: cluster) rounds to at least one machine.
DAG_MACHINES = 12


def _dag_redundancy_study(
    config: ExperimentConfig,
    *,
    redundancies: Sequence[str],
    scenarios: Sequence,
    workloads: Sequence,
) -> Study:
    """Clone vs speculate vs checkpoint on stage-DAG jobs under failures.

    When machines fail mid-DAG, is it better to race redundant copies,
    duplicate detected stragglers, or checkpoint partial work so the
    replacement copy resumes?  The report adds the checkpoint accounting
    (resumes, work saved).
    """
    if not redundancies:
        raise ValueError("at least one redundancy policy is required")
    return Study(
        name="dag-redundancy",
        schedulers=tuple(f"srpt+greedy+{name}" for name in redundancies),
        scenarios=tuple(scenarios),
        workloads=tuple(workloads),
        seeds=config.seeds,
        scale=config.scale,
        r=config.r,
        epsilon=config.epsilon,
        machines=DAG_MACHINES,
    )


def _dag_redundancy_render(results: ResultSet, study: Study) -> str:
    schedulers = _labels(study.schedulers)
    names = [label.rsplit("+", 1)[1] for label in schedulers]
    workloads = _labels(study.workloads)
    blocks: List[str] = []
    for scenario in _labels(study.scenarios):
        series: Dict[str, List[float]] = {}
        beats = [True] * len(names)
        for workload in workloads:
            flowtimes = [
                results.filter(
                    scenario=scenario, workload=workload, scheduler=scheduler
                ).mean("mean_flowtime")
                for scheduler in schedulers
            ]
            baseline = flowtimes[names.index("none")]
            series[f"{workload} flowtime"] = flowtimes
            series[f"{workload} vs none (%)"] = [
                100.0 * (baseline - value) / baseline for value in flowtimes
            ]
            beats = [ok and value < baseline for ok, value in zip(beats, flowtimes)]
        for column, metric in (
            ("failure kills", "copies_killed_by_failure"),
            ("ckpt resumes", "checkpoint_resumes"),
            ("work saved", "work_saved_by_checkpointing"),
        ):
            # Replication means, summed over workloads.
            series[column] = [
                sum(
                    results.filter(
                        scenario=scenario, workload=workload, scheduler=scheduler
                    ).mean(metric)
                    for workload in workloads
                )
                for scheduler in schedulers
            ]
        table = render_columns(
            "redundancy",
            names,
            series,
            title=f"DAG redundancy -- scenario: {scenario}",
            precision=1,
            column_width=18,
            x_width=14,
        )
        winners = [name for name, ok in zip(names, beats) if ok]
        blocks.append(
            table
            + "\nbeats none on every workload: "
            + (", ".join(winners) or "(none)")
        )
    blocks.append(
        "redundancy policy composed as srpt+greedy+<redundancy> "
        "(repro.policies); vs none (%) = mean-flowtime reduction "
        "relative to the single-copy baseline, positive is better; "
        "work saved = raw work recovered from checkpoints after "
        "failure kills"
    )
    return "\n\n".join(blocks)


# ----------------------------------------------------------------- locality

#: The scheduler axis: placement-blind greedy vs delay scheduling, each
#: with and without the paper's cloning, over the same SRPT ordering.
DEFAULT_LOCALITY_SCHEDULERS: Tuple[str, ...] = (
    "srpt+greedy+none",
    "srpt+delay+none",
    "srpt+greedy+clone",
    "srpt+delay+clone",
)

#: One Poisson stream workload, small enough for smoke-scale goldens.
DEFAULT_LOCALITY_WORKLOADS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    (
        "poisson",
        {
            "kind": "stream",
            "factory": "poisson",
            "num_jobs": 20,
            "arrival_rate": 0.05,
            "mean_tasks_per_job": 4.0,
            "mean_duration": 15.0,
            "cv": 0.3,
            "seed": 3,
        },
    ),
)

#: The same failure process on a flat cluster and on four racks with a 2x
#: remote-read slowdown, so the topology is the only varying factor (and
#: failure kills exercise the delay policy's per-task blacklists).
DEFAULT_TOPOLOGY_SCENARIOS: Tuple[Tuple[str, Dict[str, float]], ...] = (
    ("flat", {"failure_rate": 0.002, "mean_repair": 10.0}),
    (
        "racks",
        {
            "racks": 4,
            "remote_slowdown": 2.0,
            "failure_rate": 0.002,
            "mean_repair": 10.0,
        },
    ),
)

#: The scheduler the locality report measures against.
LOCALITY_BASELINE = "srpt+greedy+none"

#: Cluster size of the sweep (its stream workload does not scale with
#: ``scale``): a multiple of the rack count, so racks come out equally sized.
LOCALITY_MACHINES = 12


def _locality_study(
    config: ExperimentConfig,
    *,
    schedulers: Sequence[str],
    scenarios: Sequence,
    workloads: Sequence,
) -> Study:
    """Delay scheduling vs greedy placement on a flat and a racked cluster.

    A copy launched off its task's preferred rack runs slower by the
    scenario's ``remote_slowdown``.  The report adds the locality
    accounting (local/remote launches).
    """
    if not schedulers:
        raise ValueError("at least one scheduler is required")
    return Study(
        name="locality",
        schedulers=tuple(schedulers),
        scenarios=tuple(scenarios),
        workloads=tuple(workloads),
        seeds=config.seeds,
        scale=config.scale,
        r=config.r,
        epsilon=config.epsilon,
        machines=LOCALITY_MACHINES,
    )


def _locality_render(results: ResultSet, study: Study) -> str:
    names = _labels(study.schedulers)
    scenarios = _labels(study.scenarios)
    blocks: List[str] = []
    local_share: Dict[str, List[float]] = {}
    for scenario in scenarios:
        cells = [results.filter(scenario=scenario, scheduler=name) for name in names]
        means = [cell.mean("mean_flowtime") for cell in cells]
        baseline = means[names.index(LOCALITY_BASELINE)]
        local = [cell.mean("local_launches") for cell in cells]
        remote = [cell.mean("remote_launches") for cell in cells]
        local_share[scenario] = [
            near / (near + far) if near + far > 0 else 0.0
            for near, far in zip(local, remote)
        ]
        series = {
            "mean flowtime": means,
            "vs greedy (%)": [100.0 * (baseline - mean) / baseline for mean in means],
            "local launches": local,
            "remote launches": remote,
            "local (%)": [100.0 * share for share in local_share[scenario]],
        }
        blocks.append(
            render_columns(
                "scheduler",
                names,
                series,
                title=f"Locality -- scenario: {scenario}",
                precision=1,
                column_width=18,
                x_width=18,
            )
        )
    delay = next((name for name in names if name.split("+")[1] == "delay"), None)
    if delay is not None and len(scenarios) > 1:
        share = dict(zip(names, local_share[scenarios[-1]]))
        blocks.append(
            f"delay scheduling local fraction on '{scenarios[-1]}': "
            f"{100.0 * share[delay]:.1f}% "
            f"(greedy: {100.0 * share[LOCALITY_BASELINE]:.1f}%)"
        )
    blocks.append(
        "allocation policy composed as srpt+<allocation>+<redundancy> "
        "(repro.policies); vs greedy (%) = mean-flowtime reduction "
        "relative to srpt+greedy+none, positive is better; local/remote "
        "launches count copies on/off their preferred rack (zero on the "
        "flat scenario by construction)"
    )
    return "\n\n".join(blocks)


# ------------------------------------------------------------------- registry


@dataclass(frozen=True)
class StudyPreset:
    """A paper artefact: its knob defaults, its study and its report."""

    #: Every knob :meth:`build` accepts, with its default.
    defaults: Mapping[str, Any]
    #: ``(config, **knobs) -> Study``, called with every knob resolved.
    builder: Callable[..., Study]
    #: ``(results, study) -> str``: the plain-text report.
    render: Callable[[ResultSet, Study], str]
    #: ``(study, point) -> bool`` when the report reads only part of the
    #: product: :meth:`run` then simulates only those points.
    select: Optional[Callable[[Study, StudyPoint], bool]] = None

    def build(self, config: Optional[ExperimentConfig] = None, **overrides) -> Study:
        """The study this preset sweeps under ``config`` (default: the bench config)."""
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise TypeError(
                f"unknown knobs {sorted(unknown)}; this preset takes "
                f"{sorted(self.defaults)}"
            )
        return self.builder(_config(config), **{**self.defaults, **overrides})

    def run(self, study: Study, config: Optional[ExperimentConfig] = None) -> ResultSet:
        """Execute ``study`` (from :meth:`build`) under the config's runner."""
        select = None if self.select is None else functools.partial(self.select, study)
        return study.run(runner=_config(config).make_runner(), select=select)

    def report(self, config: Optional[ExperimentConfig] = None, **overrides) -> str:
        """Build, run and render in one call."""
        study = self.build(config, **overrides)
        return self.render(self.run(study, config), study)


_COMPARISON_DEFAULTS = {"trace": None, "include_extra": False, "schedulers": None}

#: Every paper artefact and sweep, by its CLI name.
STUDY_PRESETS: Dict[str, StudyPreset] = {
    "table2": StudyPreset({}, _table2_study, _table2_render),
    "figure1": StudyPreset(
        {"epsilons": DEFAULT_EPSILONS, "r": 0.0}, _figure1_study, _figure1_render
    ),
    "figure2": StudyPreset(
        {"r_values": DEFAULT_R_VALUES, "epsilon": 0.6}, _figure2_study, _figure2_render
    ),
    "figure3": StudyPreset(
        {"machine_fractions": DEFAULT_MACHINE_FRACTIONS},
        _figure3_study,
        _figure3_render,
    ),
    "figure4": StudyPreset(_COMPARISON_DEFAULTS, _comparison_study, _figure4_render),
    "figure5": StudyPreset(_COMPARISON_DEFAULTS, _comparison_study, _figure5_render),
    "figure6": StudyPreset(_COMPARISON_DEFAULTS, _comparison_study, _figure6_render),
    "offline-bound": StudyPreset(
        {
            "job_sizes": DEFAULT_JOB_SIZES,
            "num_machines": 20,
            "mean_duration": 10.0,
            "noisy_cv": 0.3,
            "r": 3.0,
            "weights": None,
        },
        _offline_bound_study,
        _offline_bound_render,
        select=_offline_bound_cells,
    ),
    "scenario-sweep": StudyPreset(
        {
            "speed_spreads": DEFAULT_SPEED_SPREADS,
            "failure_rates": DEFAULT_FAILURE_RATES,
            "mean_repair": DEFAULT_MEAN_REPAIR,
        },
        _scenario_sweep_study,
        _scenario_sweep_render,
    ),
    "policy-grid": StudyPreset(
        {"grid": DEFAULT_GRID, "scenarios": DEFAULT_GRID_SCENARIOS},
        _policy_grid_study,
        _policy_grid_render,
    ),
    "dag-redundancy": StudyPreset(
        {
            "redundancies": DEFAULT_REDUNDANCIES,
            "scenarios": DEFAULT_FAILURE_SCENARIOS,
            "workloads": DEFAULT_DAG_WORKLOADS,
        },
        _dag_redundancy_study,
        _dag_redundancy_render,
    ),
    "locality": StudyPreset(
        {
            "schedulers": DEFAULT_LOCALITY_SCHEDULERS,
            "scenarios": DEFAULT_TOPOLOGY_SCENARIOS,
            "workloads": DEFAULT_LOCALITY_WORKLOADS,
        },
        _locality_study,
        _locality_render,
    ),
}


def preset_study(name: str, config: Optional[ExperimentConfig] = None) -> Study:
    """The default study of a named preset (see :data:`STUDY_PRESETS`)."""
    try:
        preset = STUDY_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(STUDY_PRESETS))
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None
    return preset.build(config)


def run_reports(
    names: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> Dict[str, str]:
    """Reports of several presets, keyed by name; each distinct study runs once.

    Figures 4-6 render one scheduler comparison, so it runs once for all
    three.  ``overrides`` maps a preset name to its knob overrides.
    """
    overrides = overrides or {}
    executed: List[Tuple[Study, Any, ResultSet]] = []
    reports: Dict[str, str] = {}
    for name in names:
        preset = STUDY_PRESETS[name]
        study = preset.build(config, **overrides.get(name, {}))
        results = next(
            (
                done
                for ran, select, done in executed
                if ran == study and select is preset.select
            ),
            None,
        )
        if results is None:
            results = preset.run(study, config)
            executed.append((study, preset.select, results))
        reports[name] = preset.render(results, study)
    return reports
