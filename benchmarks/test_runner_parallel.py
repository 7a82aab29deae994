"""Serial vs pooled execution of a replicated sweep: the same results, run cold.

The ten-replication figure-1-style sweep of :mod:`benchmarks.pool_speedup`
(SRPTMS+C at one epsilon on the scaled synthetic Google trace) runs through
:class:`ExperimentRunner` with ``workers=1`` and with a four-worker pool.
The two must be bit-identical, and each must prove it ran cold: every spec
executed in the engine, none served from a cache.

A second test exercises the runner's batched pool dispatch: many small
specs shipped to the pool as whole batches (one IPC round-trip per batch),
with the per-worker dispatch distribution counted.

Nothing here is timed.  The pool's speedup check runs outside tier-1:
``python -m benchmarks.pool_speedup``.
"""

from __future__ import annotations

from repro.simulation import ExperimentRunner

from .pool_speedup import POOL_WORKERS, cold_run, sweep_specs


def test_runner_pool_matches_serial_and_runs_cold():
    specs = sweep_specs()
    _, serial_results, _ = cold_run(1, specs)
    _, pooled_results, _ = cold_run(POOL_WORKERS, specs)
    assert [r.fingerprint() for r in serial_results] == [
        r.fingerprint() for r in pooled_results
    ]


def test_runner_batched_dispatch():
    # 20 small runs, batched 5-per-dispatch: 4 batches total instead of 20
    # pool tasks, each crossing the process boundary as one pickle.
    specs = sweep_specs(seeds=range(20))
    serial_results = ExperimentRunner(workers=1).run(specs)

    _, batched_results, runner = cold_run(POOL_WORKERS, specs, chunksize=5)

    assert [r.fingerprint() for r in serial_results] == [
        r.fingerprint() for r in batched_results
    ]
    stats = runner.last_dispatch_stats
    assert stats["batch_size"] == 5
    assert stats["batches"] == 4
    assert sum(stats["per_worker"].values()) == stats["batches"]
    assert stats["cache_hits"] == 0
    assert runner.last_run_stats["executed"] == len(specs)
