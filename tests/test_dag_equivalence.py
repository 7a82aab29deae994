"""Differential lockdown of the stage-DAG job model (PR 6 tentpole).

The engine's ``Job`` was generalised from hard-coded map→reduce to an
arbitrary stage DAG, with the legacy two-phase spec compiling to the
canonical 2-node DAG (stage ``map`` with no dependencies, stage ``reduce``
depending on it).  These tests pin the bit-identity contract the refactor
promised: a map→reduce job declared *explicitly* through the DAG path
(:meth:`JobSpec.from_stages`) produces a byte-identical
:class:`~repro.simulation.metrics.SimulationResult` fingerprint to the
same job declared through the pre-DAG two-phase fields -- for every legacy
scheduler and composition triple, serially, pooled (``workers=2``), and
under the ``zipf-hetero`` and ``MachineFailures`` scenario presets.

Fingerprints hash every per-job record and counter (see
``SimulationResult.canonical_dict``), so equality here means the DAG
compilation changed *nothing* observable about two-phase scheduling.
"""

from __future__ import annotations

import pytest

from repro.scenarios import MachineFailures, ScenarioSpec, scenario_preset
from repro.simulation.experiment_runner import (
    ExperimentRunner,
    RunSpec,
    SchedulerSpec,
)
from repro.workload.generators import poisson_trace
from repro.workload.job import JobSpec, StageSpec
from repro.workload.trace import Trace

#: A run that ticks past this has lost a decision: it fails instead of
#: ticking forever (the LATE and Mantri cells tick every 5 s).
MAX_TIME = 1e6

#: The seven named schedulers (the named points of the policy grid).
LEGACY_SCHEDULER_SPECS = (
    ("SRPTMS+C", SchedulerSpec("SRPTMS+C", {"epsilon": 0.6, "r": 3.0})),
    ("SCA", SchedulerSpec("SCA")),
    ("Mantri", SchedulerSpec("Mantri")),
    ("LATE", SchedulerSpec("LATE")),
    ("SRPT", SchedulerSpec("SRPT", {"r": 3.0})),
    ("Fair", SchedulerSpec("Fair")),
    ("FIFO", SchedulerSpec("FIFO")),
)

#: Three policy-kernel composition triples riding along (one per axis
#: combination class: pure ordering, speculation, share-based cloning).
COMPOSITION_TRIPLES = (
    "srpt+greedy+none",
    "fair+greedy+late",
    "fifo+share+clone",
)

ALL_SCHEDULER_IDS = tuple(name for name, _ in LEGACY_SCHEDULER_SPECS) + (
    COMPOSITION_TRIPLES
)


def _scheduler_spec(name: str) -> SchedulerSpec:
    for legacy_name, spec in LEGACY_SCHEDULER_SPECS:
        if legacy_name == name:
            return spec
    return SchedulerSpec(name, {"epsilon": 0.6, "r": 3.0})


def _as_explicit_dag(spec: JobSpec) -> JobSpec:
    """Re-declare a legacy two-phase spec through the explicit DAG path.

    Uses the *same* duration-distribution objects and the canonical stage
    names, so task ids, presampling order and RNG consumption are
    identical by construction -- the differential isolates the DAG code
    path itself.
    """
    assert spec.stages is None, "expected a legacy two-phase spec"
    return JobSpec.from_stages(
        job_id=spec.job_id,
        arrival_time=spec.arrival_time,
        weight=spec.weight,
        stages=(
            StageSpec(
                name="map",
                num_tasks=spec.num_map_tasks,
                duration=spec.map_duration,
            ),
            StageSpec(
                name="reduce",
                num_tasks=spec.num_reduce_tasks,
                duration=spec.reduce_duration,
                deps=(0,),
            ),
        ),
    )


@pytest.fixture(scope="module")
def trace_pair():
    """The same map→reduce trace, declared legacy-style and DAG-style."""
    legacy = poisson_trace(
        num_jobs=20,
        arrival_rate=0.5,
        mean_tasks_per_job=6,
        mean_duration=8.0,
        cv=0.5,
        seed=7,
    )
    explicit = Trace(
        tuple(_as_explicit_dag(spec) for spec in legacy), name="explicit-dag"
    )
    for before, after in zip(legacy, explicit):
        assert after.stages is not None
        assert after.num_map_tasks == before.num_map_tasks
        assert after.num_reduce_tasks == before.num_reduce_tasks
    return legacy, explicit


SCENARIOS = {
    "homogeneous": None,
    "zipf-hetero": "zipf-hetero",
    "failures": ScenarioSpec(
        failures=MachineFailures(rate=0.001, mean_repair=20.0)
    ),
}


def _resolve_scenario(key: str):
    scenario = SCENARIOS[key]
    if isinstance(scenario, str):
        return scenario_preset(scenario)
    return scenario


def _fingerprints(trace, scheduler_spec, *, scenario, workers, seeds=(0, 1)):
    specs = [
        RunSpec(
            trace=trace,
            scheduler=scheduler_spec,
            num_machines=8,
            seed=seed,
            scenario=scenario,
            max_time=MAX_TIME,
        )
        for seed in seeds
    ]
    results = ExperimentRunner(workers=workers).run(specs)
    return [result.fingerprint() for result in results]


class TestDagCompilationBitIdentity:
    """Explicit 2-node DAG == legacy two-phase, for every policy."""

    @pytest.mark.parametrize("name", ALL_SCHEDULER_IDS)
    def test_serial(self, trace_pair, name):
        legacy, explicit = trace_pair
        scheduler = _scheduler_spec(name)
        assert _fingerprints(
            legacy, scheduler, scenario=None, workers=1
        ) == _fingerprints(explicit, scheduler, scenario=None, workers=1)

    @pytest.mark.parametrize("name", ALL_SCHEDULER_IDS)
    def test_pooled(self, trace_pair, name):
        legacy, explicit = trace_pair
        scheduler = _scheduler_spec(name)
        assert _fingerprints(
            legacy, scheduler, scenario=None, workers=2
        ) == _fingerprints(explicit, scheduler, scenario=None, workers=2)

    @pytest.mark.parametrize("name", ALL_SCHEDULER_IDS)
    @pytest.mark.parametrize("scenario_key", ["zipf-hetero", "failures"])
    def test_under_scenarios(self, trace_pair, name, scenario_key):
        legacy, explicit = trace_pair
        scheduler = _scheduler_spec(name)
        scenario = _resolve_scenario(scenario_key)
        assert _fingerprints(
            legacy, scheduler, scenario=scenario, workers=1
        ) == _fingerprints(explicit, scheduler, scenario=scenario, workers=1)

    def test_records_report_two_stages_both_ways(self, trace_pair):
        legacy, explicit = trace_pair
        scheduler = _scheduler_spec("FIFO")
        for trace in (legacy, explicit):
            spec = RunSpec(trace=trace, scheduler=scheduler, num_machines=8)
            result = ExperimentRunner(workers=1).run([spec])[0]
            assert all(record.num_stages == 2 for record in result.records)
