"""The repository benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-google --seed 1 --seconds 55 --trace 0

``--workload`` is ``paper-google``, ``fifo-stream`` or ``sweep`` (see
``BENCHMARK.json`` and ``perfbench/interaction_map.json``).  With
``--trace 0`` the run measures the end-to-end metrics with no
instrumentation; with ``--trace 1`` it measures the per-layer metrics by
timing calls into each module's public functions from outside.  The
second-to-last stdout line is a detail report (machine shape, sizes,
fingerprints, per-leg walls, every failure); the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``, where
``failed / attempted`` is the failed fraction of operations.  ``--out FILE``
also writes both to ``FILE``.  The run writes nothing else: result caches
live in a scratch directory inside the checkout that is deleted on exit,
and no bytecode is written.

``setup_s`` (untraced runs only) is the median over several set-ups --
this process's own (interpreter start to first timed call) and
``SETUP_PROBES`` more, each in a fresh interpreter started with
``--setup-probe``, which sets up and exits -- because imports can only be
timed once per process.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Extra set-ups, each in a fresh interpreter, behind the ``setup_s`` median.
SETUP_PROBES = 4
#: Files the benchmark needs from the checkout besides its own directory.
REQUIRED = (
    "BENCHMARK.json",
    "src/repro/__init__.py",
    "examples/studies/policy_grid.toml",
    "examples/studies/dag_redundancy.toml",
)


def parse_args(argv):
    """The four standard benchmark arguments plus this benchmark's own switches."""
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, default=None, help="also write the report here")
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def declared_metrics(trace: bool):
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def probe_setup(args) -> float:
    """Seconds one fresh interpreter takes to set the workload up."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--trace", "0",
        "--setup-probe",
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    """Run one workload once and print its report and result lines."""
    args = parse_args(argv)
    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: not a checkout of the program, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from harness import REFERENCE_KERNEL_S, emit, kernel_seconds, machine_shape, median, peak_rss_mb
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = ROOT / f".perfbench-work-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.tiny, ROOT, work_dir)
    try:
        workload.setup()
        own_setup = time.perf_counter() - _STARTED
        # At reference speed, like every timing (see harness.HostSpeed).
        own_setup *= REFERENCE_KERNEL_S / kernel_seconds()
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        if args.trace:
            outcome = workload.traced(args.seconds)
        else:
            probes = 1 if args.tiny else SETUP_PROBES
            setup_samples = [own_setup] + [probe_setup(args) for _ in range(probes)]
            outcome = workload.measure(args.seconds)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    values = dict(outcome.metrics)
    units = declared_metrics(bool(args.trace))
    if args.trace:
        # A layer the workload bypasses reads 0 (see interaction_map.json).
        values = {**dict.fromkeys(units, 0.0), **values}
    else:
        values["setup_s"] = median(setup_samples)
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}"
        )
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "machine": machine_shape(ROOT),
        "sizes": workload.sizes(),
        "peak_rss_mb": peak_rss_mb(),
        "failed_frac": outcome.failed / max(1, outcome.attempted),
        **outcome.report,
    }
    if not args.trace:
        report["setup_samples_s"] = setup_samples
    emit(report, metrics, outcome.attempted, outcome.failed)
    if args.out is not None:
        args.out.write_text(
            json.dumps({"report": report, "metrics": metrics}, indent=1, sort_keys=True) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
