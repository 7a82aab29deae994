"""Engine throughput benchmark, recorded in ``.benchmarks/BENCH_engine.json``.

Two measurements.  Both record their timings and assert only behaviour:
wall-clock numbers depend on the machine, so judging them is left to
``tools/check_bench_regression.py``, which compares the recorded
throughput leaves against the committed baseline
``benchmarks/results/BENCH_engine.json``.

1. **Smoke-workload throughput** -- the scale-0.02 synthetic Google trace
   (the same workload the benchmark suite's sweeps run) replayed under
   SRPTMS+C and FIFO, best of :data:`TIMING_ROUNDS`.

2. **Million-job streaming run** -- a 1,000,000-job lazily generated
   workload (:mod:`repro.workload.stream`) replayed end-to-end under FIFO,
   best of :data:`TIMING_ROUNDS`, with a bounded-memory assertion on the
   first run: the engine must not materialise the trace (its retained-job
   list stays empty, the alive set drains) and the process high-water mark
   must grow by far less than a materialised million-job run would
   require.
"""

from __future__ import annotations

import json
import resource
import time

from repro.core.srptms_c import SRPTMSCScheduler
from repro.experiments import ExperimentConfig
from repro.schedulers.fifo import FIFOScheduler
from repro.simulation.engine import SimulationEngine
from repro.simulation import run_simulation
from repro.workload.stream import StreamSpec, stream_uniform_jobs

from .conftest import MEASURED_DIR, save_report_json

#: How often each timed configuration is run (the best run is kept;
#: single-core containers are noisy).
TIMING_ROUNDS = 5

MILLION = 1_000_000
#: Memory head-room for the million-job run: JobRecords for 10^6 finished
#: jobs cost ~150 MB; materialising the trace plus its Job/Task/TaskCopy
#: graphs would add roughly a gigabyte, so 600 MB cleanly separates
#: "streamed" from "materialised".
MILLION_JOB_RSS_LIMIT_MB = 600


def _results_payload() -> dict:
    path = MEASURED_DIR / "BENCH_engine.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _best_jobs_per_sec(trace, scheduler_factory, machines) -> float:
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        result = run_simulation(trace, scheduler_factory(), machines, seed=0)
        best = min(best, time.perf_counter() - started)
        assert result.num_jobs == trace.num_jobs
    return trace.num_jobs / best


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_engine_throughput_vs_baseline():
    config = ExperimentConfig(scale=0.02, seeds=(0,))
    trace = config.make_trace()
    measured = {
        "SRPTMS+C": _best_jobs_per_sec(
            trace, lambda: SRPTMSCScheduler(epsilon=0.6, r=3.0), config.machines
        ),
        "FIFO": _best_jobs_per_sec(trace, FIFOScheduler, config.machines),
    }
    payload = _results_payload()
    payload.update(
        {
            "workload": "scale-0.02 synthetic Google trace "
                        f"({trace.num_jobs} jobs, {trace.total_tasks} tasks, "
                        f"{config.machines} machines), seed 0, best of "
                        f"{TIMING_ROUNDS}",
            "jobs_per_sec": {k: round(v, 1) for k, v in measured.items()},
        }
    )
    save_report_json("BENCH_engine", payload)


def test_million_job_streaming_run_is_bounded_memory():
    spec = StreamSpec(
        factory=stream_uniform_jobs,
        num_jobs=MILLION,
        kwargs={
            "tasks_per_job": 1,
            "reduce_tasks_per_job": 0,
            "mean_duration": 10.0,
            "inter_arrival": 1.0,
        },
        name="uniform-1M",
    )
    # First run under the memory watch: maxrss is monotonic, so only the
    # first replay can separate "streamed" from "materialised".
    stream = spec.build()
    rss_before = _maxrss_mb()
    engine = SimulationEngine(stream, FIFOScheduler(), 16, seed=0)
    started = time.perf_counter()
    result = engine.run()
    best_wall = time.perf_counter() - started
    rss_delta = _maxrss_mb() - rss_before

    # Completed end to end.
    assert result.num_jobs == MILLION
    assert result.total_tasks == MILLION
    assert stream.yielded == MILLION
    # No full-trace materialisation: the engine retained no jobs, the alive
    # set drained, and the only O(num_jobs) state is the per-job records.
    assert engine._jobs == []
    assert engine._alive == {}
    assert rss_delta < MILLION_JOB_RSS_LIMIT_MB, (
        f"million-job stream grew RSS by {rss_delta:.0f} MB "
        f"(limit {MILLION_JOB_RSS_LIMIT_MB} MB)"
    )
    del result, engine

    # Remaining timing rounds (best of TIMING_ROUNDS overall).
    for _ in range(TIMING_ROUNDS - 1):
        stream = spec.build()
        engine = SimulationEngine(stream, FIFOScheduler(), 16, seed=0)
        started = time.perf_counter()
        result = engine.run()
        best_wall = min(best_wall, time.perf_counter() - started)
        assert result.num_jobs == MILLION
        del result, engine

    payload = _results_payload()
    payload["million_job_stream"] = {
        "workload": (
            "stream_uniform_jobs: 1M single-task jobs, 16 machines, "
            f"best of {TIMING_ROUNDS}"
        ),
        "jobs_per_sec": round(MILLION / best_wall, 1),
        "wall_seconds": round(best_wall, 1),
        "maxrss_delta_mb": round(rss_delta, 1),
        "rss_limit_mb": MILLION_JOB_RSS_LIMIT_MB,
    }
    save_report_json("BENCH_engine", payload)
