"""repro -- reproduction of "Task-Cloning Algorithms in a MapReduce Cluster
with Competitive Performance Bounds" (Xu & Lau, ICDCS 2015).

The package is organised as:

* :mod:`repro.core` -- the paper's offline Algorithm 1 and the theory
  (speedup functions, effective workloads, epsilon-fraction machine
  sharing, Theorem 1 bounds);
* :mod:`repro.policies` -- the policy kernel (ordering x allocation x
  redundancy) and the one scheduler registry: SRPTMS+C (Algorithm 2), the
  baselines (SCA, Mantri, LATE, Fair, FIFO, plain SRPT) and ``Offline``
  are names :func:`~repro.policies.make_scheduler` builds, next to any
  composition triple such as ``"srpt+greedy+late"``;
* :mod:`repro.workload` -- job/task model, duration distributions, traces
  and the synthetic Google-trace generator;
* :mod:`repro.cluster` -- machines, occupancy bookkeeping and the dynamic
  straggler process;
* :mod:`repro.scenarios` -- cluster environments (heterogeneous machine
  speeds, dynamic stragglers, machine failures) behind a picklable
  :class:`~repro.scenarios.ScenarioSpec`;
* :mod:`repro.simulation` -- the discrete-event cluster simulator;
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

    from repro import make_scheduler, run_simulation
    from repro.workload import poisson_trace

    trace = poisson_trace(num_jobs=100, arrival_rate=0.5)
    result = run_simulation(trace, make_scheduler("SRPTMS+C", epsilon=0.6, r=3.0),
                            num_machines=50)
    print(result.mean_flowtime, result.weighted_mean_flowtime)
"""

from repro.policies import make_scheduler
from repro.scenarios import ScenarioSpec
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
    "make_scheduler",
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
