"""repro -- reproduction of "Task-Cloning Algorithms in a MapReduce Cluster
with Competitive Performance Bounds" (Xu & Lau, ICDCS 2015).

The package is organised as:

* :mod:`repro.core` -- the paper's schedulers (offline Algorithm 1 and the
  online SRPTMS+C Algorithm 2) and their theory (speedup functions,
  effective workloads, epsilon-fraction machine sharing, Theorem 1 bounds);
* :mod:`repro.workload` -- job/task model, duration distributions, traces
  and the synthetic Google-trace generator;
* :mod:`repro.cluster` -- machines, occupancy bookkeeping and the dynamic
  straggler process;
* :mod:`repro.scenarios` -- cluster environments (heterogeneous machine
  speeds, dynamic stragglers, machine failures) behind a picklable
  :class:`~repro.scenarios.ScenarioSpec`;
* :mod:`repro.simulation` -- the discrete-event cluster simulator;
* :mod:`repro.schedulers` -- baseline policies (Mantri, SCA, LATE, FIFO,
  Fair, plain SRPT);
* :mod:`repro.analysis` -- CDFs, comparison tables, theory checks;
* :mod:`repro.study` -- declarative sweeps: a :class:`~repro.study.Study`
  is a cartesian product of axes (schedulers x scenarios x workloads x
  seeds x scalar sweeps) compiled to run specs, returning a tidy
  :class:`~repro.study.ResultSet`; spec files via ``repro-mapreduce sweep``;
  every paper table/figure is a preset in
  :data:`~repro.study.presets.STUDY_PRESETS`;
* :mod:`repro.experiments` -- :class:`~repro.experiments.ExperimentConfig`
  and the plain-text report renderers;
* :mod:`repro.checks` -- the one rule per numeric knob, which every
  constructor that takes a user knob calls.

Quickstart::

    from repro import SRPTMSCScheduler, run_simulation
    from repro.workload import poisson_trace

    trace = poisson_trace(num_jobs=100, arrival_rate=0.5)
    result = run_simulation(trace, SRPTMSCScheduler(epsilon=0.6, r=3.0),
                            num_machines=50)
    print(result.mean_flowtime, result.weighted_mean_flowtime)
"""

from repro.core.offline import OfflineSRPTScheduler
from repro.core.srptms_c import SRPTMSCScheduler
from repro.scenarios import ScenarioSpec
from repro.schedulers import (
    FIFOScheduler,
    FairScheduler,
    LATEScheduler,
    MantriScheduler,
    SCAScheduler,
    SRPTScheduler,
)
from repro.simulation import (
    SimulationEngine,
    SimulationResult,
    run_replications,
    run_simulation,
)
from repro.study import ResultSet, Study, load_study
from repro.workload import GoogleTraceConfig, GoogleTraceGenerator, Trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SRPTMSCScheduler",
    "OfflineSRPTScheduler",
    "MantriScheduler",
    "SCAScheduler",
    "LATEScheduler",
    "FIFOScheduler",
    "FairScheduler",
    "SRPTScheduler",
    "SimulationEngine",
    "SimulationResult",
    "ScenarioSpec",
    "run_simulation",
    "run_replications",
    "Trace",
    "GoogleTraceGenerator",
    "GoogleTraceConfig",
    "Study",
    "ResultSet",
    "load_study",
]
