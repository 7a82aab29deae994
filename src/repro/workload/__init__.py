"""Workload substrate: job/task data model, duration distributions and traces.

This subpackage provides everything the schedulers consume as *input*:

* :mod:`repro.workload.distributions` -- task-duration distributions with
  known first and second moments (the only statistics the paper's algorithms
  are allowed to use).
* :mod:`repro.workload.job` -- the ``JobSpec`` / ``Job`` / ``Task`` /
  ``TaskCopy`` data model including the Map/Reduce precedence state machine.
* :mod:`repro.workload.trace` -- a container of job specs plus the Table II
  statistics.
* :mod:`repro.workload.google_trace` -- a synthetic generator calibrated to
  the Google cluster-usage trace statistics published in the paper.
* :mod:`repro.workload.generators` -- additional synthetic workloads used by
  the tests, examples and ablation benchmarks.
* :mod:`repro.workload.stream` -- the streaming workload layer: picklable
  :class:`StreamSpec` recipes and lazily generated, bounded-memory
  :class:`TraceStream` sources for million-job experiments.
"""

from repro.workload.distributions import (
    BoundedPareto,
    Deterministic,
    DurationDistribution,
    Empirical,
    Exponential,
    Floored,
    LogNormal,
    ShiftedExponential,
    TruncatedNormal,
    Uniform,
)
from repro.workload.job import (
    Job,
    JobSpec,
    Task,
    TaskCopy,
    TaskStatus,
)
from repro.workload.trace import Trace, TraceStatistics
from repro.workload.google_trace import GoogleTraceGenerator, GoogleTraceConfig
from repro.workload.generators import (
    bimodal_trace,
    bulk_arrival_trace,
    poisson_trace,
    uniform_trace,
)
from repro.workload.stream import (
    StreamSpec,
    TraceStream,
    stream_heavy_tail_jobs,
    stream_poisson_jobs,
    stream_uniform_jobs,
)

__all__ = [
    "BoundedPareto",
    "Deterministic",
    "DurationDistribution",
    "Empirical",
    "Exponential",
    "Floored",
    "LogNormal",
    "ShiftedExponential",
    "TruncatedNormal",
    "Uniform",
    "Job",
    "JobSpec",
    "Task",
    "TaskCopy",
    "TaskStatus",
    "Trace",
    "TraceStatistics",
    "GoogleTraceGenerator",
    "GoogleTraceConfig",
    "bimodal_trace",
    "bulk_arrival_trace",
    "poisson_trace",
    "uniform_trace",
    "StreamSpec",
    "TraceStream",
    "stream_heavy_tail_jobs",
    "stream_poisson_jobs",
    "stream_uniform_jobs",
]
