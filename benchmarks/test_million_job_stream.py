"""Million-job streaming run: the engine replays a lazy stream in bounded memory.

A 1,000,000-job lazily generated workload (:mod:`repro.workload.stream`)
is replayed once, end to end, under FIFO.  The engine must not
materialise the trace: its retained-job list stays empty, the alive set
drains, and the process high-water mark grows by far less than a
materialised million-job run would need.  Nothing is timed here; the
repo benchmark's ``fifo-stream`` workload times the same replay.
"""

from __future__ import annotations

import resource

from repro.policies import make_scheduler
from repro.simulation.engine import SimulationEngine
from repro.workload.stream import StreamSpec, stream_uniform_jobs

MILLION = 1_000_000
#: Memory head-room for the million-job run: JobRecords for 10^6 finished
#: jobs cost ~150 MB; materialising the trace plus its Job/Task/TaskCopy
#: graphs would add roughly a gigabyte, so 600 MB cleanly separates
#: "streamed" from "materialised".
MILLION_JOB_RSS_LIMIT_MB = 600


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


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
    stream = spec.build()
    rss_before = _maxrss_mb()
    engine = SimulationEngine(stream, make_scheduler("FIFO"), 16, seed=0)
    result = engine.run()
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
