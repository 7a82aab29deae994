"""Command-line interface: regenerate any paper table/figure, or run a sweep.

Examples::

    repro-mapreduce table2
    repro-mapreduce figure1 --scale 0.02 --seeds 0 1
    repro-mapreduce figure6 --scale 0.03
    repro-mapreduce figure1 --workers 0   # fan replications out over all CPUs
    repro-mapreduce offline-bound
    repro-mapreduce all --scale 0.01
    repro-mapreduce figure6 --scenario uniform-hetero
    repro-mapreduce figure6 --scenario failure_rate=1e-3,mean_repair=50
    repro-mapreduce figure6 --scenario racks=4,remote_slowdown=2
    repro-mapreduce scenario-sweep --scale 0.01 --workers 0
    repro-mapreduce figure6 --cache-dir ~/.cache/repro-mapreduce
    repro-mapreduce sweep --spec study.toml --csv results.csv
    repro-mapreduce policy-grid --scale 0.01 --workers 0
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
runs any *figure* experiment under a non-ideal cluster environment: a
preset name (:data:`repro.scenarios.SCENARIO_PRESETS`) or a knob list
such as ``failure_rate=1e-4,mean_repair=300``, whose keys are those of a
spec-file scenario table and which resolves exactly as that table does
(:meth:`repro.study.core.ScenarioRef.coerce`).  The non-simulating
experiments reject ``--scenario`` instead of silently ignoring it.
``--cache-dir`` enables the results cache
(:mod:`repro.simulation.results_store`): re-invocations and interrupted
sweeps reuse already-computed cells byte-for-byte instead of
re-simulating; ``--no-cache`` bypasses it.

The ``sweep`` subcommand needs no driver code at all: ``--spec`` names a
TOML/JSON study file (:mod:`repro.study.specfile`) declaring the axes
product to run; the tidy report prints to stdout and ``--csv``/``--json``
export the per-run records.  Only ``--workers`` and the cache flags apply
to ``sweep`` -- everything else lives in the spec file, including any
policy-kernel composition (:mod:`repro.policies`) to compare, such as a
scheduler axis ``["srpt+share+late", "SRPTMS+C"]``.  ``policy-grid``
sweeps a dozen compositions against SRPTMS+C across scenario presets
(it defines its own scenario axis, so ``--scenario`` does not apply).

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

from repro.checks import check_count, check_real, parse_knob
from repro.experiments import ExperimentConfig
from repro.experiments.report import render_resultset
from repro.policies import NAMED_SCHEDULERS, scheduler_entry
from repro.scenarios import SCENARIO_PRESETS
from repro.simulation.experiment_runner import normalize_workers
from repro.study.core import ScenarioRef
from repro.study.presets import STUDY_PRESETS, run_reports

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    defaults = ExperimentConfig()
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
        choices=[*STUDY_PRESETS, "sweep", "all"],
        help=(
            "which table/figure to regenerate, 'sweep' for a spec-file "
            "study, 'policy-grid' for the composition sweep, "
            "'dag-redundancy' for the redundancy sweep on stage-DAG "
            "workloads, or 'locality' for the placement sweep on a rack "
            "topology"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help=(
            "fraction of the full trace/cluster to simulate "
            f"(default {defaults.scale:g})"
        ),
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help=f"replication seeds (default: {' '.join(map(str, defaults.seeds))})",
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help=f"SRPTMS+C machine-sharing fraction (default {defaults.epsilon:g})",
    )
    parser.add_argument(
        "--r",
        type=float,
        default=None,
        help=(
            "standard-deviation weight in the effective workload "
            f"(default {defaults.r:g})"
        ),
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
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="SCENARIO",
        help=(
            "cluster environment (repro.scenarios): a preset name "
            f"({', '.join(SCENARIO_PRESETS)}) or a knob list such as "
            "failure_rate=1e-4,mean_repair=300, keyed like a spec-file "
            "scenario table (default: the paper's homogeneous cluster)"
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
    return parser


#: Experiments that simulate under ``ExperimentConfig.scenario``.  The others
#: reject ``--scenario`` instead of silently ignoring it: table2 is pure
#: trace statistics, offline-bound validates the homogeneous-cluster bounds,
#: and scenario-sweep / policy-grid define their own scenario axes.
_SCENARIO_EXPERIMENTS = frozenset(
    {"figure1", "figure2", "figure3", "figure4", "figure5", "figure6"}
)


def _workers_from_args(args: argparse.Namespace) -> Optional[int]:
    try:
        # One shared mapping (repro.simulation.experiment_runner):
        # 0 and None mean all usable CPUs, N >= 1 means exactly N.
        return normalize_workers(args.workers)
    except ValueError as exc:
        raise SystemExit(f"--workers: {exc}") from None


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    scenario = None
    if args.scenario is not None:
        try:
            scenario = ScenarioRef.coerce(args.scenario).spec
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"invalid --scenario: {exc.args[0]}") from None
        if scenario is not None and scenario.is_default:
            scenario = None  # the homogeneous preset: label 'none', same cache key
    if scenario is not None and args.experiment not in _SCENARIO_EXPERIMENTS:
        raise SystemExit(
            f"--scenario does not apply to {args.experiment!r}: table2 is "
            "pure trace statistics, offline-bound validates the "
            "homogeneous-cluster bounds, scenario-sweep, policy-grid, "
            "dag-redundancy and locality define their own scenario axes, "
            "and 'all' mixes both kinds -- run the figure commands "
            "individually instead"
        )
    # Only the flags given reach the config; the rest keep its defaults.
    given = {
        "scale": args.scale,
        "seeds": None if args.seeds is None else tuple(args.seeds),
        "epsilon": args.epsilon,
        "r": args.r,
        "num_machines": args.machines,
    }
    try:
        return ExperimentConfig(
            workers=_workers_from_args(args),
            scenario=scenario,
            cache_dir=None if args.no_cache else args.cache_dir,
            **{name: value for name, value in given.items() if value is not None},
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


def _run_sweep(args: argparse.Namespace) -> int:
    """Execute a spec-file study: load, run, print, export."""
    from repro.study import load_study

    if args.spec is None:
        raise SystemExit("'sweep' needs --spec FILE (a .toml or .json study spec)")
    for flag in _FIGURE_ONLY_FLAGS:
        if getattr(args, flag) is not None:
            raise SystemExit(
                f"--{flag} does not apply to 'sweep': the spec file defines "
                "the study; only --workers and the cache flags apply"
            )
    if args.scenario is not None:
        raise SystemExit(
            "--scenario does not apply to 'sweep': declare scenarios in "
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
    if kind not in ("stream", "smoke"):
        raise SystemExit(
            f"unknown --workload {args.workload!r}: expected "
            "'stream[:N]' or 'smoke[:SCALE]'"
        )
    # Every knob is checked before the run, and a bad one is named.
    try:
        check_count("seed", args.seed)
        if kind == "stream":
            num_jobs = parse_knob(parameter) if parameter else 100_000
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
        else:
            scale = check_real("scale", parse_knob(parameter)) if parameter else 0.02
            config = ExperimentConfig(scale=scale, seeds=(args.seed,))
            trace = config.make_trace()
            machines = config.machines
            workload_label = (
                f"scale-{scale} synthetic Google trace ({trace.num_jobs} jobs)"
            )
        if args.machines is not None:
            machines = check_count("machines", args.machines, 1)
        # The scheduler reads the same parameters a study point would pass it.
        point = {"epsilon": args.epsilon, "r": args.r, "seed": args.seed}
        scheduler = entry.build(**{name: point[name] for name in entry.reads})
    except ValueError as exc:
        raise SystemExit(f"invalid arguments: {exc}") from None

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
    args = build_parser().parse_args(argv)
    for flag, value in (("--spec", args.spec), ("--csv", args.csv), ("--json", args.json_out)):
        if value is not None and args.experiment != "sweep":
            raise SystemExit(f"{flag} only applies to the 'sweep' subcommand")
    if args.experiment == "sweep":
        return _run_sweep(args)
    config = _config_from_args(args)
    if args.experiment == "all":
        print("\n\n".join(run_reports(_PAPER_ARTEFACTS, config).values()))
        return 0
    print(STUDY_PRESETS[args.experiment].report(config))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
