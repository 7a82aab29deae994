"""Command-line interface: regenerate any paper table/figure, or run a sweep.

Examples::

    repro-mapreduce table2
    repro-mapreduce figure1 --scale 0.02 --seeds 0 1
    repro-mapreduce figure6 --scale 0.03
    repro-mapreduce figure1 --workers 0   # fan replications out over all CPUs
    repro-mapreduce offline-bound
    repro-mapreduce all --scale 0.01
    repro-mapreduce figure6 --scenario uniform-hetero
    repro-mapreduce figure6 --failure-rate 0.001 --repair-time 50
    repro-mapreduce scenario-sweep --scale 0.01 --workers 0
    repro-mapreduce figure6 --cache-dir ~/.cache/repro-mapreduce
    repro-mapreduce sweep --spec study.toml --csv results.csv
    repro-mapreduce policy --ordering srpt --allocation share --redundancy late
    repro-mapreduce policy-grid --scale 0.01 --workers 0
    repro-mapreduce figure6 --racks 4 --remote-slowdown 2
    repro-mapreduce policy --allocation delay --racks 4 --locality-wait 5
    repro-mapreduce locality --scale 0.01
    repro-mapreduce serve --cache-dir ~/.cache/repro-mapreduce
    repro-mapreduce submit --spec study.toml --csv results.csv
    repro-mapreduce cache stats --cache-dir ~/.cache/repro-mapreduce
    repro-mapreduce cache prune --stale --cache-dir ~/.cache/repro-mapreduce
    repro-mapreduce profile --workload stream:100000 --scheduler FIFO
    repro-mapreduce profile --workload smoke:0.02 --scheduler SRPTMS+C --dump engine.prof

Each experiment subcommand prints the plain-text report of the
corresponding experiment; ``--scale`` shrinks the trace and the cluster
together so the offered load stays at the paper's level.  ``--scenario``
(and the fine-grained ``--speed-spread``/``--failure-rate``/
``--slowdown-*`` flags) run any *figure* experiment under a non-ideal
cluster environment; the non-simulating experiments reject scenario flags
instead of silently ignoring them.  See :mod:`repro.scenarios`.
``--cache-dir`` enables the results cache
(:mod:`repro.simulation.results_store`): re-invocations and interrupted
sweeps reuse already-computed cells byte-for-byte instead of
re-simulating; ``--no-cache`` bypasses it.

The ``sweep`` subcommand needs no driver code at all: ``--spec`` names a
TOML/JSON study file (:mod:`repro.study.specfile`) declaring the axes
product to run; the tidy report prints to stdout and ``--csv``/``--json``
export the per-run records.  Only ``--workers`` and the cache flags apply
to ``sweep`` -- everything else lives in the spec file.

The ``policy`` subcommand runs one policy-kernel composition
(:mod:`repro.policies`): ``--ordering``/``--allocation``/``--redundancy``
pick the triple, which is simulated next to the paper's SRPTMS+C under the
usual scale/seed/scenario flags.  ``policy-grid`` sweeps a dozen novel
compositions against SRPTMS+C across scenario presets and reports which
compositions win where (it defines its own scenario axis, so scenario
flags do not apply).

Worker counts (one mapping, everywhere): ``--workers 1`` runs serially
(the default), ``--workers N`` uses ``N`` worker processes, and
``--workers 0`` -- like ``workers=None`` in the library -- uses every
usable CPU.  Results are bit-identical for any value.

Four subcommands dispatch before the experiment parser: ``serve`` runs
the sweep-service daemon and ``submit`` sends a spec file to it
(:mod:`repro.service`); ``cache`` inspects and prunes a results-cache
directory (``stats`` / ``prune --stale``); ``profile`` cProfiles one
engine run and prints the top-N cumulative table (``--dump`` writes the
raw profile for :mod:`pstats`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.checks import check_count, check_range
from repro.cluster.stragglers import DynamicStragglers
from repro.experiments import ExperimentConfig
from repro.experiments.report import render_resultset
from repro.scenarios import (
    DEFAULT_LOCALITY_WAIT,
    DEFAULT_MEAN_REPAIR,
    DEFAULT_REMOTE_SLOWDOWN,
    DEFAULT_SLOWDOWN_DURATION,
    DEFAULT_SLOWDOWN_FACTOR,
    SCENARIO_PRESETS,
    MachineFailures,
    ScenarioSpec,
    TopologySpec,
    UniformSpeeds,
    scenario_preset,
)
from repro.policies import (
    ALLOCATION_POLICIES as _ALLOCATION_NAMES,
    NAMED_SCHEDULERS,
    ORDERING_POLICIES as _ORDERING_NAMES,
    REDUNDANCY_POLICIES as _REDUNDANCY_NAMES,
    composition_label,
    scheduler_entry,
)
from repro.simulation.experiment_runner import normalize_workers
from repro.study.presets import STUDY_PRESETS, run_reports

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-mapreduce",
        description=(
            "Reproduce the tables and figures of 'Task-Cloning Algorithms in a "
            "MapReduce Cluster with Competitive Performance Bounds' "
            "(Xu & Lau, ICDCS 2015)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*STUDY_PRESETS, "policy", "sweep", "all"],
        help=(
            "which table/figure to regenerate, 'sweep' for a spec-file "
            "study, 'policy' for one policy-kernel composition, "
            "'policy-grid' for the composition sweep, 'dag-redundancy' "
            "for the redundancy sweep on stage-DAG workloads, or "
            "'locality' for the placement sweep on a rack topology"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.02,
        help="fraction of the full trace/cluster to simulate (default 0.02)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[0, 1],
        help="replication seeds (default: 0 1)",
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        default=0.6,
        help="SRPTMS+C machine-sharing fraction (default 0.6)",
    )
    parser.add_argument(
        "--r",
        type=float,
        default=3.0,
        help="standard-deviation weight in the effective workload (default 3)",
    )
    parser.add_argument(
        "--machines",
        type=int,
        default=None,
        help="override the cluster size (default: 12000 * scale)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes for replicated sweeps: 1 runs serially "
            "(default), N uses N processes, 0 uses every usable CPU (the "
            "library spelling is workers=None); results are bit-identical "
            "for any value"
        ),
    )
    sweep = parser.add_argument_group(
        "sweep",
        "spec-file studies (repro.study): 'sweep --spec FILE' compiles a "
        "declarative TOML/JSON axes product into run specs and prints the "
        "tidy per-cell report; only --workers and the cache flags apply, "
        "the spec file defines everything else",
    )
    sweep.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="study spec file (.toml or .json) for the 'sweep' subcommand",
    )
    sweep.add_argument(
        "--csv",
        default=None,
        metavar="FILE",
        help="also export the sweep's per-run records as CSV",
    )
    sweep.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="FILE",
        help="also export the sweep's per-run records as JSON",
    )
    cache = parser.add_argument_group(
        "results cache",
        "content-addressed store of simulation results "
        "(repro.simulation.results_store); cached cells are returned "
        "byte-equal with zero engine runs, so re-invocations and "
        "interrupted sweeps resume instead of recomputing",
    )
    cache.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "directory to cache simulation results in (created if missing); "
            "default: no caching"
        ),
    )
    cache.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the results cache even if --cache-dir is given",
    )
    policy = parser.add_argument_group(
        "policy kernel",
        "the composition the 'policy' subcommand runs (repro.policies): "
        "ordering x allocation x redundancy; the chosen triple is "
        "simulated next to SRPTMS+C under the usual scale/seed/scenario "
        "flags",
    )
    policy.add_argument(
        "--ordering",
        choices=sorted(_ORDERING_NAMES),
        default=None,
        help="job-ordering policy (default: srpt)",
    )
    policy.add_argument(
        "--allocation",
        choices=sorted(_ALLOCATION_NAMES),
        default=None,
        help="machine-allocation policy (default: greedy)",
    )
    policy.add_argument(
        "--redundancy",
        choices=sorted(_REDUNDANCY_NAMES),
        default=None,
        help="redundancy policy (default: none)",
    )
    policy.add_argument(
        "--locality-wait",
        type=float,
        default=None,
        metavar="W",
        help=(
            "delay-scheduling wait in simulated seconds for the 'delay' "
            f"allocation (default {_DEFAULT_LOCALITY_WAIT:g})"
        ),
    )
    scenario = parser.add_argument_group(
        "scenario",
        "cluster environment the experiment runs under (repro.scenarios); "
        "fine-grained flags override the chosen preset",
    )
    scenario.add_argument(
        "--scenario",
        choices=sorted(SCENARIO_PRESETS),
        default=None,
        help="named scenario preset (default: the paper's homogeneous cluster)",
    )
    scenario.add_argument(
        "--speed-spread",
        type=float,
        default=None,
        metavar="S",
        help=(
            "machine speeds ~ Uniform[1-S, 1+S], mean-normalised; "
            "0 restores homogeneous speeds"
        ),
    )
    scenario.add_argument(
        "--failure-rate",
        type=float,
        default=None,
        help="per-machine failure rate (events/s); 0 disables failures",
    )
    scenario.add_argument(
        "--repair-time",
        type=float,
        default=None,
        help=f"mean machine repair time in seconds (default {_DEFAULT_REPAIR:g})",
    )
    scenario.add_argument(
        "--slowdown-rate",
        type=float,
        default=None,
        help="per-machine dynamic-straggler onset rate (events/s); 0 disables",
    )
    scenario.add_argument(
        "--slowdown-duration",
        type=float,
        default=None,
        help=(
            "mean length of a dynamic slow period in seconds "
            f"(default {_DEFAULT_SLOW_DURATION:g})"
        ),
    )
    scenario.add_argument(
        "--slowdown-factor",
        type=float,
        default=None,
        help=(
            "effective-speed divisor during a slow period "
            f"(default {_DEFAULT_SLOW_FACTOR:g})"
        ),
    )
    scenario.add_argument(
        "--racks",
        type=int,
        default=None,
        metavar="N",
        help=(
            "spread the machines over N racks (task inputs get preferred "
            "racks; 1 restores the flat cluster)"
        ),
    )
    scenario.add_argument(
        "--remote-slowdown",
        type=float,
        default=None,
        metavar="F",
        help=(
            "effective-rate divisor for copies running off their preferred "
            f"rack (default {_DEFAULT_REMOTE_SLOWDOWN:g}; needs --racks > 1)"
        ),
    )
    return parser


#: Fallbacks when a rate flag creates a process without its detail flags
#: (the same constants parameterise the presets in :mod:`repro.scenarios`).
_DEFAULT_REPAIR = DEFAULT_MEAN_REPAIR
_DEFAULT_SLOW_DURATION = DEFAULT_SLOWDOWN_DURATION
_DEFAULT_SLOW_FACTOR = DEFAULT_SLOWDOWN_FACTOR
_DEFAULT_REMOTE_SLOWDOWN = DEFAULT_REMOTE_SLOWDOWN
_DEFAULT_LOCALITY_WAIT = DEFAULT_LOCALITY_WAIT

#: Experiments that simulate under ``ExperimentConfig.scenario``.  The others
#: reject scenario flags instead of silently ignoring them: table2 is pure
#: trace statistics, offline-bound validates the homogeneous-cluster bounds,
#: and scenario-sweep / policy-grid define their own scenario axes.
_SCENARIO_EXPERIMENTS = frozenset(
    {"figure1", "figure2", "figure3", "figure4", "figure5", "figure6", "policy"}
)


def _scenario_from_args(args: argparse.Namespace) -> Optional[ScenarioSpec]:
    """Compose the ScenarioSpec the CLI flags describe (None = homogeneous).

    Rate flags (``--failure-rate``, ``--slowdown-rate``) create or disable a
    process; detail flags (``--repair-time``, ``--slowdown-duration``,
    ``--slowdown-factor``) override that process wherever it came from --
    the command line or the ``--scenario`` preset -- and error out when no
    process exists to override.
    """
    try:
        return _compose_scenario(args)
    except ValueError as exc:
        # Spec validation (negative rates, factor <= 1, repair <= 0, ...)
        # must surface as a clean CLI error, not a traceback.
        raise SystemExit(f"invalid scenario flags: {exc}") from None


def _compose_scenario(args: argparse.Namespace) -> Optional[ScenarioSpec]:
    from dataclasses import replace

    base = scenario_preset(args.scenario) if args.scenario else ScenarioSpec()
    speeds = base.speeds
    normalize = base.normalize_mean_speed
    if args.speed_spread is not None:
        check_range("--speed-spread", args.speed_spread, 0, 1, closed="left")
        if args.speed_spread == 0.0:
            speeds, normalize = None, False
        else:
            speeds = UniformSpeeds(
                1.0 - args.speed_spread, 1.0 + args.speed_spread
            )
            normalize = True

    stragglers = base.stragglers
    if args.slowdown_rate is not None:
        if args.slowdown_rate == 0.0:
            stragglers = None
        else:
            stragglers = DynamicStragglers(
                onset_rate=args.slowdown_rate,
                mean_duration=_DEFAULT_SLOW_DURATION,
                factor=_DEFAULT_SLOW_FACTOR,
            )
    if args.slowdown_duration is not None or args.slowdown_factor is not None:
        if stragglers is None:
            raise SystemExit(
                "--slowdown-duration/--slowdown-factor need a straggler "
                "process to modify; pass --slowdown-rate or a preset with "
                "dynamic stragglers"
            )
        stragglers = replace(
            stragglers,
            mean_duration=(
                args.slowdown_duration
                if args.slowdown_duration is not None
                else stragglers.mean_duration
            ),
            factor=(
                args.slowdown_factor
                if args.slowdown_factor is not None
                else stragglers.factor
            ),
        )

    topology = base.topology
    if args.remote_slowdown is not None and args.racks is None:
        raise SystemExit(
            "--remote-slowdown needs a rack topology to price; pass "
            "--racks N with N > 1"
        )
    if args.racks is not None:
        check_count("--racks", args.racks, 1)
        if args.racks == 1:
            topology = None
        else:
            topology = TopologySpec(
                racks=args.racks,
                remote_slowdown=(
                    args.remote_slowdown
                    if args.remote_slowdown is not None
                    else _DEFAULT_REMOTE_SLOWDOWN
                ),
            )

    failures = base.failures
    if args.failure_rate is not None:
        if args.failure_rate == 0.0:
            failures = None
        else:
            failures = MachineFailures(
                rate=args.failure_rate, mean_repair=_DEFAULT_REPAIR
            )
    if args.repair_time is not None:
        if failures is None:
            # scenario-sweep runs its own failure axis; --repair-time
            # parameterises that axis instead (handled in main).
            if args.experiment != "scenario-sweep":
                raise SystemExit(
                    "--repair-time needs a failure process to modify; pass "
                    "--failure-rate or a preset with failures"
                )
        else:
            failures = replace(failures, mean_repair=args.repair_time)

    spec = ScenarioSpec(
        speeds=speeds,
        normalize_mean_speed=normalize,
        stragglers=stragglers,
        failures=failures,
        topology=topology,
    )
    return None if spec.is_default else spec


def _workers_from_args(args: argparse.Namespace) -> Optional[int]:
    try:
        # One shared mapping (repro.simulation.experiment_runner):
        # 0 and None mean all usable CPUs, N >= 1 means exactly N.
        return normalize_workers(args.workers)
    except ValueError as exc:
        raise SystemExit(f"--workers: {exc}") from None


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    scenario = _scenario_from_args(args)
    if scenario is not None and args.experiment not in _SCENARIO_EXPERIMENTS:
        raise SystemExit(
            f"scenario flags do not apply to {args.experiment!r}: table2 is "
            "pure trace statistics, offline-bound validates the "
            "homogeneous-cluster bounds, scenario-sweep, policy-grid, "
            "dag-redundancy and locality define their own scenario axes "
            "(only --repair-time applies to scenario-sweep), 'sweep' takes its "
            "scenarios from the spec file, and 'all' mixes both kinds -- "
            "run the figure commands individually instead"
        )
    try:
        return ExperimentConfig(
            scale=args.scale,
            seeds=tuple(args.seeds),
            epsilon=args.epsilon,
            r=args.r,
            num_machines=args.machines,
            workers=_workers_from_args(args),
            scenario=scenario,
            cache_dir=None if args.no_cache else args.cache_dir,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid arguments: {exc}") from None


#: What 'all' prints: the paper's tables, figures and bound check.
_PAPER_ARTEFACTS = (
    "table2",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "offline-bound",
)

#: Figure flags that have no effect on 'sweep' (the spec file rules).
_FIGURE_ONLY_FLAGS = ("scale", "seeds", "epsilon", "r", "machines")


def _run_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Execute a spec-file study: load, run, print, export."""
    from repro.study import load_study

    if args.spec is None:
        raise SystemExit("'sweep' needs --spec FILE (a .toml or .json study spec)")
    for flag in _FIGURE_ONLY_FLAGS:
        if getattr(args, flag) != parser.get_default(flag):
            raise SystemExit(
                f"--{flag} does not apply to 'sweep': the spec file defines "
                "the study; only --workers and the cache flags apply"
            )
    if _scenario_from_args(args) is not None:
        raise SystemExit(
            "scenario flags do not apply to 'sweep': declare scenarios in "
            "the spec file's scenarios axis"
        )
    try:
        study = load_study(args.spec)
        # Compiling runs every constructor's knob checks before any run.
        study.compile()
    except (TypeError, ValueError) as exc:  # a StudySpecError is a ValueError
        raise SystemExit(f"invalid study spec: {exc}") from None
    results = study.run(
        workers=_workers_from_args(args),
        cache_dir=None if args.no_cache else args.cache_dir,
    )
    if args.csv:
        results.to_csv(args.csv)
    if args.json_out:
        results.to_json(args.json_out)
    seeds = len(study.seeds)
    cells = study.num_points() // seeds if seeds else 0
    title = (
        f"Study {study.name!r} -- {len(results)} runs "
        f"({cells} cells x {seeds} seeds), mean over seeds"
    )
    print(render_resultset(results, title=title))
    return 0


def _run_policy(args: argparse.Namespace, config: ExperimentConfig) -> str:
    """Run one policy-kernel composition next to SRPTMS+C and render it."""
    from repro.study import Study

    name = composition_label(
        args.ordering or "srpt",
        args.allocation or "greedy",
        args.redundancy or "none",
    )
    composition: object = name
    if args.locality_wait is not None:
        # Scheduler tables forward extra kwargs into ComposedScheduler
        # (repro.study.core), exactly like a spec-file scheduler table.
        composition = {"name": name, "locality_wait": args.locality_wait}
    study = Study(
        name="policy",
        schedulers=(composition, "SRPTMS+C"),
        **config.study_kwargs(),
    )
    results = study.run(runner=config.make_runner())
    title = (
        f"Policy composition {name} vs SRPTMS+C "
        f"(epsilon={config.epsilon:g}, r={config.r:g}), mean over "
        f"{len(config.seeds)} seed(s)"
    )
    return render_resultset(results, title=title)


def _main_cache(argv: Sequence[str]) -> int:
    """The ``cache`` maintenance subcommand: ``stats`` and ``prune``."""
    from repro.simulation.results_store import FORMAT_VERSION, cache_stats, prune_stale

    parser = argparse.ArgumentParser(
        prog="repro-mapreduce cache",
        description=(
            "Inspect and maintain a results-cache directory "
            "(repro.simulation.results_store)."
        ),
    )
    parser.add_argument(
        "action",
        choices=["stats", "prune"],
        help=(
            "'stats' prints entry count, total bytes and a format-version "
            "histogram; 'prune --stale' removes entries whose format "
            f"differs from the current FORMAT_VERSION ({FORMAT_VERSION})"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="results-cache directory to inspect/maintain",
    )
    parser.add_argument(
        "--stale",
        action="store_true",
        help="for 'prune': remove stale-format and unreadable entries",
    )
    args = parser.parse_args(argv)
    if args.action == "stats":
        stats = cache_stats(args.cache_dir)
        print(f"cache {stats['cache_dir']}")
        print(f"  entries:        {stats['entries']}")
        print(f"  total bytes:    {stats['total_bytes']}")
        print(f"  format version: {stats['format_version']} (current)")
        print(f"  stale entries:  {stats['stale']}")
        for version, count in sorted(stats["formats"].items()):
            print(f"    format {version}: {count}")
        return 0
    if not args.stale:
        raise SystemExit(
            "'prune' only supports --stale pruning; pass --stale to remove "
            "entries whose format differs from the current version"
        )
    report = prune_stale(args.cache_dir)
    print(
        f"pruned {report['cache_dir']}: scanned {report['scanned']}, "
        f"removed {report['removed']} ({report['removed_bytes']} bytes), "
        f"kept {report['kept']}"
    )
    return 0


def _main_profile(argv: Sequence[str]) -> int:
    """The ``profile`` subcommand: cProfile one engine run.

    Builds the requested workload and scheduler, runs the simulation
    under :mod:`cProfile`, and prints the top-N functions by cumulative
    time -- the quickest way to see where engine wall-clock goes without
    instrumenting anything.  ``--dump`` additionally writes the raw
    profile for interactive :mod:`pstats` / snakeviz digging.
    """
    import cProfile
    import pstats

    from repro.simulation import run_simulation
    from repro.workload.stream import StreamSpec, stream_uniform_jobs

    parser = argparse.ArgumentParser(
        prog="repro-mapreduce profile",
        description=(
            "Profile one simulation run with cProfile and print the "
            "top-N cumulative table."
        ),
    )
    parser.add_argument(
        "--workload",
        default="stream:100000",
        metavar="KIND",
        help=(
            "'stream[:N]' for a lazily generated uniform single-task "
            "stream of N jobs (default 100000) on 16 machines, or "
            "'smoke[:SCALE]' for the scale-SCALE synthetic Google trace "
            "(default 0.02) on its matching cluster"
        ),
    )
    parser.add_argument(
        "--scheduler",
        default="FIFO",
        metavar="NAME",
        help=(
            "scheduler registry name, as in a spec file: "
            f"{', '.join(NAMED_SCHEDULERS)}, or a composition triple such as "
            "srpt+greedy+late (default FIFO)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="replication seed (default 0)"
    )
    parser.add_argument(
        "--machines",
        type=int,
        default=None,
        help="override the cluster size",
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        default=0.6,
        help="machine-sharing fraction, for schedulers that read it (default 0.6)",
    )
    parser.add_argument(
        "--r",
        type=float,
        default=3.0,
        help="effective-workload weight, for schedulers that read it (default 3)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=25,
        help="rows of the cumulative table to print (default 25)",
    )
    parser.add_argument(
        "--dump",
        default=None,
        metavar="FILE",
        help="also write the raw profile for pstats/snakeviz",
    )
    args = parser.parse_args(argv)
    try:
        entry = scheduler_entry(args.scheduler)
    except ValueError as exc:
        raise SystemExit(f"invalid --scheduler: {exc}") from None

    kind, _, parameter = args.workload.partition(":")
    if kind == "stream":
        num_jobs = int(parameter) if parameter else 100_000
        trace = StreamSpec(
            factory=stream_uniform_jobs,
            num_jobs=num_jobs,
            kwargs={
                "tasks_per_job": 1,
                "reduce_tasks_per_job": 0,
                "mean_duration": 10.0,
                "inter_arrival": 1.0,
            },
            name=f"profile-stream-{num_jobs}",
        ).build()
        machines = 16
        workload_label = f"stream of {num_jobs} single-task jobs"
    elif kind == "smoke":
        scale = float(parameter) if parameter else 0.02
        config = ExperimentConfig(scale=scale, seeds=(args.seed,))
        trace = config.make_trace()
        machines = config.machines
        workload_label = (
            f"scale-{scale} synthetic Google trace ({trace.num_jobs} jobs)"
        )
    else:
        raise SystemExit(
            f"unknown --workload {args.workload!r}: expected "
            "'stream[:N]' or 'smoke[:SCALE]'"
        )
    if args.machines is not None:
        machines = args.machines
    # The scheduler reads the same parameters a study point would pass it.
    point = {"epsilon": args.epsilon, "r": args.r, "seed": args.seed}
    scheduler = entry.build(**{name: point[name] for name in entry.reads})

    profiler = cProfile.Profile()
    profiler.enable()
    result = run_simulation(trace, scheduler, machines, seed=args.seed)
    profiler.disable()

    print(
        f"profiled {workload_label} under {args.scheduler} on "
        f"{machines} machines, seed {args.seed}: "
        f"{result.num_jobs} jobs in {result.runtime_seconds:.2f}s "
        f"({result.num_jobs / result.runtime_seconds:,.0f} jobs/sec)"
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(args.top)
    if args.dump is not None:
        stats.dump_stats(args.dump)
        print(f"raw profile written to {args.dump} (open with pstats)")
    return 0


#: Subcommands dispatched before the experiment parser is built: the
#: sweep-service daemon/client (repro.service.cli), cache maintenance,
#: and the cProfile harness.
_SERVICE_COMMANDS = frozenset({"serve", "submit", "cache", "profile"})


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-mapreduce`` console script."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SERVICE_COMMANDS:
        if argv[0] == "serve":
            from repro.service.cli import main_serve

            return main_serve(argv[1:])
        if argv[0] == "submit":
            from repro.service.cli import main_submit

            return main_submit(argv[1:])
        if argv[0] == "profile":
            return _main_profile(argv[1:])
        return _main_cache(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, value in (("--spec", args.spec), ("--csv", args.csv), ("--json", args.json_out)):
        if value is not None and args.experiment != "sweep":
            raise SystemExit(f"{flag} only applies to the 'sweep' subcommand")
    for flag, value in (
        ("--ordering", args.ordering),
        ("--allocation", args.allocation),
        ("--redundancy", args.redundancy),
        ("--locality-wait", args.locality_wait),
    ):
        if value is not None and args.experiment != "policy":
            raise SystemExit(
                f"{flag} only applies to the 'policy' subcommand (the "
                "policy-grid sweep and spec files declare compositions "
                "through the scheduler axis)"
            )
    if args.locality_wait is not None and args.allocation != "delay":
        raise SystemExit(
            "--locality-wait parameterises the 'delay' allocation; pass "
            "--allocation delay"
        )
    if args.experiment == "sweep":
        return _run_sweep(args, parser)
    config = _config_from_args(args)
    if args.experiment == "policy":
        print(_run_policy(args, config))
        return 0

    if args.experiment == "all":
        print("\n\n".join(run_reports(_PAPER_ARTEFACTS, config).values()))
        return 0
    overrides = {}
    if args.experiment == "scenario-sweep" and args.repair_time is not None:
        overrides["mean_repair"] = args.repair_time
    print(STUDY_PRESETS[args.experiment].report(config, **overrides))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
