"""Differential lockdown of the rack-topology axis (PR 8 tentpole).

The scenario layer grew a :class:`~repro.scenarios.TopologySpec` (racks,
per-job input placement, remote-read slowdown) and the policy kernel a
locality-aware ``delay`` allocation.  These tests pin the two hard
guarantees the tentpole promised:

* **Degenerate == absent.**  A topology with one rack, or with a unit
  remote slowdown, produces a byte-identical
  :class:`~repro.simulation.metrics.SimulationResult` fingerprint to
  ``topology=None`` -- for every legacy scheduler and composition triple
  (including ``delay``), serially and pooled (``workers=2``).  The engine
  must take the exact legacy code paths, consuming no extra RNG draws.

* **Pooled == serial.**  Under an active multi-rack topology with machine
  failures (exercising remote pricing, the dedicated placement seed
  stream and the delay policy's blacklists), worker pooling changes
  nothing: placement randomness comes from a per-seed stream keyed only
  by the run seed, never from engine state.

Fingerprints hash every per-job record and counter (see
``SimulationResult.canonical_dict``), so equality here means the topology
axis changed *nothing* observable where it is inactive.
"""

from __future__ import annotations

import pytest

from repro.scenarios import MachineFailures, ScenarioSpec, TopologySpec
from repro.simulation.experiment_runner import (
    ExperimentRunner,
    RunSpec,
    SchedulerSpec,
)
from repro.workload.generators import poisson_trace

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

#: Three policy-kernel composition triples riding along -- one per
#: allocation kind, with ``delay`` among them so the locality-aware
#: policy itself is pinned to the legacy greedy walk off-topology.
COMPOSITION_TRIPLES = (
    "srpt+greedy+none",
    "fair+delay+late",
    "fifo+share+clone",
)

ALL_SCHEDULER_IDS = tuple(name for name, _ in LEGACY_SCHEDULER_SPECS) + (
    COMPOSITION_TRIPLES
)

#: Both ways a topology can be degenerate (the engine must treat either
#: exactly like ``topology=None``).
DEGENERATE_TOPOLOGIES = {
    "single-rack": TopologySpec(racks=1, remote_slowdown=2.0),
    "unit-slowdown": TopologySpec(racks=4, remote_slowdown=1.0),
}

#: An active multi-rack topology under failures: remote pricing, the
#: placement stream and the delay blacklists all engage.
MULTI_RACK_SCENARIO = ScenarioSpec(
    failures=MachineFailures(rate=0.001, mean_repair=20.0),
    topology=TopologySpec(racks=4, remote_slowdown=2.0),
)

#: Schedulers exercised under the active topology: the locality-aware
#: compositions plus a topology-blind legacy baseline.
MULTI_RACK_SCHEDULER_IDS = (
    "SRPTMS+C",
    "srpt+delay+none",
    "srpt+delay+clone",
    "srpt+greedy+clone",
)


def _scheduler_spec(name: str) -> SchedulerSpec:
    for legacy_name, spec in LEGACY_SCHEDULER_SPECS:
        if legacy_name == name:
            return spec
    return SchedulerSpec(name, {"epsilon": 0.6, "r": 3.0})


@pytest.fixture(scope="module")
def trace():
    return poisson_trace(
        num_jobs=20,
        arrival_rate=0.5,
        mean_tasks_per_job=6,
        mean_duration=8.0,
        cv=0.5,
        seed=7,
    )


def _fingerprints(trace, scheduler_spec, *, scenario, workers, seeds=(0, 1)):
    specs = [
        RunSpec(
            trace=trace,
            scheduler=scheduler_spec,
            num_machines=8,
            seed=seed,
            scenario=scenario,
        )
        for seed in seeds
    ]
    results = ExperimentRunner(workers=workers).run(specs)
    return [result.fingerprint() for result in results]


class TestDegenerateTopologyBitIdentity:
    """Degenerate topology == ``topology=None``, for every policy."""

    @pytest.mark.parametrize("name", ALL_SCHEDULER_IDS)
    @pytest.mark.parametrize("topology_key", sorted(DEGENERATE_TOPOLOGIES))
    def test_serial(self, trace, name, topology_key):
        scheduler = _scheduler_spec(name)
        degenerate = ScenarioSpec(
            topology=DEGENERATE_TOPOLOGIES[topology_key]
        )
        assert _fingerprints(
            trace, scheduler, scenario=None, workers=1
        ) == _fingerprints(trace, scheduler, scenario=degenerate, workers=1)

    @pytest.mark.parametrize("name", ALL_SCHEDULER_IDS)
    @pytest.mark.parametrize("topology_key", sorted(DEGENERATE_TOPOLOGIES))
    def test_pooled(self, trace, name, topology_key):
        scheduler = _scheduler_spec(name)
        degenerate = ScenarioSpec(
            topology=DEGENERATE_TOPOLOGIES[topology_key]
        )
        assert _fingerprints(
            trace, scheduler, scenario=None, workers=2
        ) == _fingerprints(trace, scheduler, scenario=degenerate, workers=2)

    @pytest.mark.parametrize("name", ALL_SCHEDULER_IDS)
    def test_degenerate_under_failures(self, trace, name):
        """Degeneracy also holds with a failure process running."""
        scheduler = _scheduler_spec(name)
        failures = MachineFailures(rate=0.001, mean_repair=20.0)
        plain = ScenarioSpec(failures=failures)
        degenerate = ScenarioSpec(
            failures=failures,
            topology=DEGENERATE_TOPOLOGIES["single-rack"],
        )
        assert _fingerprints(
            trace, scheduler, scenario=plain, workers=1
        ) == _fingerprints(trace, scheduler, scenario=degenerate, workers=1)


class TestMultiRackPooledEqualsSerial:
    """Active topology + failures: pooling changes nothing."""

    @pytest.mark.parametrize("name", MULTI_RACK_SCHEDULER_IDS)
    def test_pooled_equals_serial(self, trace, name):
        scheduler = _scheduler_spec(name)
        assert _fingerprints(
            trace, scheduler, scenario=MULTI_RACK_SCENARIO, workers=1
        ) == _fingerprints(
            trace, scheduler, scenario=MULTI_RACK_SCENARIO, workers=2
        )


class TestTopologyAccounting:
    """The locality counters engage exactly when the topology does."""

    def _run(self, trace, name, scenario):
        spec = RunSpec(
            trace=trace,
            scheduler=_scheduler_spec(name),
            num_machines=8,
            seed=0,
            scenario=scenario,
        )
        return ExperimentRunner(workers=1).run([spec])[0]

    def test_counters_zero_without_topology(self, trace):
        result = self._run(trace, "srpt+delay+none", None)
        assert result.local_launches == 0
        assert result.remote_launches == 0
        assert result.locality_fraction == 0.0

    def test_counters_zero_on_degenerate_topology(self, trace):
        scenario = ScenarioSpec(topology=DEGENERATE_TOPOLOGIES["unit-slowdown"])
        result = self._run(trace, "srpt+delay+none", scenario)
        assert result.local_launches == 0
        assert result.remote_launches == 0

    def test_counters_cover_every_launch_under_topology(self, trace):
        for name in ("srpt+greedy+none", "srpt+delay+none"):
            result = self._run(trace, name, MULTI_RACK_SCENARIO)
            priced = result.local_launches + result.remote_launches
            assert priced > 0
            assert 0.0 <= result.locality_fraction <= 1.0

    def test_delay_improves_locality_over_greedy(self, trace):
        greedy = self._run(trace, "srpt+greedy+none", MULTI_RACK_SCENARIO)
        delay = self._run(trace, "srpt+delay+none", MULTI_RACK_SCENARIO)
        assert delay.locality_fraction > greedy.locality_fraction
