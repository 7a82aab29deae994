"""Discrete-event MapReduce cluster simulator.

The engine replays a :class:`~repro.workload.trace.Trace` against a
scheduler implementing the :class:`~repro.simulation.scheduler_api.Scheduler`
interface on a cluster of ``M`` machines, honouring the paper's semantics:

* one task copy per machine at a time,
* reduce copies blocked until their job's map phase completes,
* a task completes when its earliest copy completes and surviving clones are
  killed immediately,
* scheduling decisions are taken at job arrivals, task completions and
  (for progress-monitoring schedulers such as Mantri) periodic ticks.
"""

from repro.simulation.engine import SimulationEngine, SimulationError
from repro.simulation.events import Event, EventType
from repro.simulation.experiment_runner import (
    ExperimentRunner,
    ReplicatedResult,
    RunSpec,
    SchedulerSpec,
    TraceSpec,
    default_workers,
    normalize_workers,
    run_replications,
    run_simulation,
    sweep_specs,
)
from repro.simulation.metrics import JobRecord, SimulationResult
from repro.simulation.results_store import (
    ResultsStore,
    UncacheableSpecError,
    run_spec_fingerprint,
)
from repro.simulation.scheduler_api import LaunchRequest, Scheduler, SchedulerView

__all__ = [
    "SimulationEngine",
    "SimulationError",
    "Event",
    "EventType",
    "JobRecord",
    "SimulationResult",
    "LaunchRequest",
    "Scheduler",
    "SchedulerView",
    "ReplicatedResult",
    "run_simulation",
    "run_replications",
    "ExperimentRunner",
    "RunSpec",
    "SchedulerSpec",
    "TraceSpec",
    "default_workers",
    "normalize_workers",
    "sweep_specs",
    "ResultsStore",
    "UncacheableSpecError",
    "run_spec_fingerprint",
]
