"""Pool speedup check: a four-worker ExperimentRunner against a serial one.

Run from the root of a checkout (it is not a test, so tier-1 skips it)::

    PYTHONPATH=src python -m benchmarks.pool_speedup

Times a ten-replication figure-1-style sweep (SRPTMS+C at epsilon 0.6,
r 0, on the scale-0.01 synthetic Google trace) run serially and on a
four-worker pool.  Both runs must execute every spec in the engine (no
cache hits) and give bit-identical results.  Where at least four CPUs are
usable the pool must be at least twice as fast; a slow pooled timing is
re-timed once first, since one spike on a shared host can ruin it.  With
fewer CPUs the timings are printed and not judged: four workers
time-slicing fewer cores measure the host, not the pool.  Exits 1 when a
check fails.
"""

from __future__ import annotations

import sys
import time

from repro.experiments import ExperimentConfig
from repro.simulation import ExperimentRunner, RunSpec, SchedulerSpec, default_workers

#: Replication seeds of the sweep (the paper's ten-repetition protocol).
SEEDS = tuple(range(10))
POOL_WORKERS = 4
MIN_SPEEDUP = 2.0


def sweep_specs(seeds=SEEDS) -> list:
    """One SRPTMS+C run per seed on the scale-0.01 trace."""
    config = ExperimentConfig(scale=0.01, seeds=tuple(seeds))
    base = RunSpec(
        trace=config.trace_source(),
        scheduler=SchedulerSpec("SRPTMS+C", {"epsilon": config.epsilon, "r": 0.0}),
        num_machines=config.machines,
    )
    return [base.with_seed(seed) for seed in seeds]


def cold_run(workers: int, specs: list, **runner_kwargs):
    """Run ``specs`` on a fresh runner: ``(seconds, results, runner)``.

    Raises ``RuntimeError`` unless every spec ran in the engine: a run
    served from a warm cache would time work the engine never did.
    """
    counters = {"engine_runs": 0, "cache_hits": 0}

    def tally(spec, result, cache_hit):
        counters["cache_hits" if cache_hit else "engine_runs"] += 1

    runner = ExperimentRunner(workers=workers, on_result=tally, **runner_kwargs)
    started = time.perf_counter()
    results = runner.run(specs)
    elapsed = time.perf_counter() - started
    if counters != {"engine_runs": len(specs), "cache_hits": 0} or (
        runner.last_dispatch_stats["cache_hits"]
    ):
        raise RuntimeError(f"the sweep was not cold: {counters} for {len(specs)} specs")
    return elapsed, results, runner


def main() -> int:
    """Time the sweep serially and pooled; 1 if a check fails."""
    specs = sweep_specs()
    serial_s, serial, _ = cold_run(1, specs)
    pooled_s, pooled, _ = cold_run(POOL_WORKERS, specs)
    if [r.fingerprint() for r in serial] != [r.fingerprint() for r in pooled]:
        print("FAILED: the pooled results differ from the serial ones")
        return 1
    cpus = default_workers()
    if cpus >= POOL_WORKERS and pooled_s > serial_s / MIN_SPEEDUP:
        pooled_s = min(pooled_s, cold_run(POOL_WORKERS, specs)[0])
    speedup = serial_s / pooled_s
    print(
        f"{len(specs)} runs on {cpus} usable CPUs: serial {serial_s:.2f} s, "
        f"{POOL_WORKERS} workers {pooled_s:.2f} s, speedup {speedup:.2f}x"
    )
    if cpus < POOL_WORKERS:
        print(f"not judged: fewer than {POOL_WORKERS} usable CPUs")
        return 0
    if speedup < MIN_SPEEDUP:
        print(f"FAILED: expected at least {MIN_SPEEDUP:g}x with {POOL_WORKERS} workers")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
