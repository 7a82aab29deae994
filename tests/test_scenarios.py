"""Tests for the scenario subsystem: specs, engine semantics, determinism.

The load-bearing guarantees:

* every scenario run is a pure function of its ``RunSpec`` -- pooled
  execution (``workers=4``) is bit-identical to serial execution for
  heterogeneous, dynamic-straggler and failure scenarios alike;
* scenario randomness lives on dedicated seed streams, so enabling a
  scenario never perturbs workload sampling;
* a machine failure kills the resident copy and the scheduler re-dispatches
  it exactly once through the normal launch path;
* a dynamic slowdown re-estimates the running copy's finish time exactly.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.cluster.stragglers import DynamicStragglers
from repro.scenarios import (
    SCENARIO_PRESETS,
    BimodalSpeeds,
    MachineFailures,
    ScenarioSpec,
    UniformSpeeds,
    ZipfSpeeds,
    scenario_preset,
    speed_rng,
)
from repro.policies import make_scheduler
from repro.simulation.engine import SimulationEngine, SimulationError
from repro.simulation.events import Event
from repro.simulation.experiment_runner import ExperimentRunner, RunSpec, SchedulerSpec
from repro.simulation import run_simulation

from test_engine import GreedyScheduler, single_job_trace

#: A scenario per axis the subsystem opens: static heterogeneity, dynamic
#: stragglers, machine failures (rates high enough to actually fire at the
#: small test scale).
DETERMINISM_SCENARIOS = {
    "heterogeneous": ScenarioSpec(
        speeds=UniformSpeeds(0.5, 1.5), normalize_mean_speed=True
    ),
    "dynamic-stragglers": ScenarioSpec(
        stragglers=DynamicStragglers(onset_rate=1 / 50.0, mean_duration=20.0, factor=3.0)
    ),
    "failures": ScenarioSpec(
        failures=MachineFailures(rate=1 / 150.0, mean_repair=15.0)
    ),
}

#: A quiet dynamic scenario used to enable dynamic bookkeeping in tests that
#: inject machine events by hand (no natural event fires before t=1e9).
_QUIET_DYNAMIC = ScenarioSpec(
    stragglers=DynamicStragglers(onset_rate=1e-12, mean_duration=1e12, factor=2.0)
)


class TestSpeedDistributions:
    def test_uniform_bounds_and_determinism(self):
        dist = UniformSpeeds(0.5, 1.5)
        a = dist.sample(256, speed_rng(3))
        b = dist.sample(256, speed_rng(3))
        assert np.array_equal(a, b)
        assert a.min() >= 0.5 and a.max() <= 1.5
        assert not np.array_equal(a, dist.sample(256, speed_rng(4)))

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformSpeeds(0.0, 1.0)
        with pytest.raises(ValueError):
            UniformSpeeds(1.0, 0.5)

    def test_bimodal_two_classes(self):
        dist = BimodalSpeeds(slow_fraction=0.5, slow_speed=0.5, fast_speed=2.0)
        speeds = dist.sample(512, speed_rng(0))
        assert set(np.unique(speeds)) == {0.5, 2.0}
        slow_share = float(np.mean(speeds == 0.5))
        assert 0.4 < slow_share < 0.6

    def test_bimodal_validation(self):
        with pytest.raises(ValueError):
            BimodalSpeeds(slow_fraction=1.5)
        with pytest.raises(ValueError):
            BimodalSpeeds(slow_speed=2.0, fast_speed=1.0)

    def test_zipf_tier_speeds(self):
        dist = ZipfSpeeds(alpha=1.5, num_tiers=4)
        speeds = dist.sample(2048, speed_rng(1))
        tiers = {1.0, 1 / 2, 1 / 3, 1 / 4}
        assert set(np.unique(speeds)) <= tiers
        # Zipf weighting: the fast tier must dominate.
        assert float(np.mean(speeds == 1.0)) > 0.4

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            ZipfSpeeds(alpha=0.0)
        with pytest.raises(ValueError):
            ZipfSpeeds(num_tiers=0)


class TestScenarioSpec:
    def test_default_is_static_homogeneous(self):
        spec = ScenarioSpec()
        assert spec.is_default
        assert not spec.is_dynamic
        assert spec.machine_speeds(8, seed=0) is None

    def test_type_validation(self):
        with pytest.raises(TypeError):
            ScenarioSpec(speeds="fast")
        with pytest.raises(TypeError):
            ScenarioSpec(stragglers="sometimes")
        with pytest.raises(TypeError):
            ScenarioSpec(failures=0.5)

    def test_machine_speeds_normalization(self):
        spec = ScenarioSpec(speeds=UniformSpeeds(0.5, 1.5), normalize_mean_speed=True)
        speeds = spec.machine_speeds(64, seed=5)
        assert speeds.shape == (64,)
        assert speeds.mean() == pytest.approx(1.0)

    def test_machine_speeds_independent_of_workload_stream(self):
        """Speed sampling must not consume the engine's workload RNG."""
        spec = ScenarioSpec(speeds=UniformSpeeds(0.99, 1.01))
        trace = single_job_trace()
        plain = SimulationEngine(trace, GreedyScheduler(), num_machines=4, seed=7)
        scen = SimulationEngine(
            trace, GreedyScheduler(), num_machines=4, seed=7, scenario=spec
        )
        # Both engines must draw identical workload streams.
        assert plain.rng.random() == scen.rng.random()

    def test_process_spec_validation(self):
        with pytest.raises(ValueError):
            MachineFailures(rate=0.0, mean_repair=10.0)
        with pytest.raises(ValueError):
            MachineFailures(rate=0.1, mean_repair=0.0)
        with pytest.raises(ValueError):
            DynamicStragglers(onset_rate=0.0, mean_duration=1.0, factor=2.0)
        with pytest.raises(ValueError):
            DynamicStragglers(onset_rate=1.0, mean_duration=0.0, factor=2.0)
        with pytest.raises(ValueError):
            DynamicStragglers(onset_rate=1.0, mean_duration=1.0, factor=1.0)

    def test_presets_wellformed_and_picklable(self):
        for name, preset in SCENARIO_PRESETS.items():
            clone = pickle.loads(pickle.dumps(preset))
            assert clone == preset, name
        assert scenario_preset("homogeneous").is_default
        with pytest.raises(KeyError):
            scenario_preset("nope")


class TestHeterogeneousEngine:
    def test_per_machine_speeds_scale_durations(self):
        """A cluster of half-speed machines doubles every deterministic task."""
        spec = ScenarioSpec(
            speeds=BimodalSpeeds(slow_fraction=1.0, slow_speed=0.5, fast_speed=1.0)
        )
        trace = single_job_trace()  # 2 maps (10 s) then 1 reduce (5 s)
        result = run_simulation(
            trace, GreedyScheduler(), 4, seed=0, scenario=spec
        )
        assert result.records[0].flowtime == pytest.approx(30.0)

    def test_heterogeneity_changes_flowtime(self):
        spec = ScenarioSpec(speeds=UniformSpeeds(0.5, 1.5))
        trace = single_job_trace()
        plain = run_simulation(trace, GreedyScheduler(), 4, seed=0)
        hetero = run_simulation(trace, GreedyScheduler(), 4, seed=0, scenario=spec)
        assert hetero.records[0].flowtime != plain.records[0].flowtime


class TestDynamicSlowdown:
    def test_injected_slowdown_reestimates_finish(self):
        """10 s of work, slowdown x2 at t=2: 2 + 8 * 2 = 18 s."""
        trace = single_job_trace(maps=1, reduces=0, map_d=10.0)
        engine = SimulationEngine(
            trace, GreedyScheduler(), num_machines=1, scenario=_QUIET_DYNAMIC
        )
        engine._push(Event.slowdown_start(2.0, next(engine._sequence), 0))
        result = engine.run()
        assert result.records[0].flowtime == pytest.approx(18.0)
        assert result.straggler_onsets == 1

    def test_injected_recovery_restores_rate(self):
        """Slow from t=2 to t=6 (rate 1/2): 10 = 2 + 4/2 + 6 -> finish at 12."""
        trace = single_job_trace(maps=1, reduces=0, map_d=10.0)
        engine = SimulationEngine(
            trace, GreedyScheduler(), num_machines=1, scenario=_QUIET_DYNAMIC
        )
        engine._push(Event.slowdown_start(2.0, next(engine._sequence), 0))
        engine._push(Event.slowdown_end(6.0, next(engine._sequence), 0))
        result = engine.run()
        assert result.records[0].flowtime == pytest.approx(12.0)

    def test_slowdown_on_idle_machine_is_harmless(self):
        trace = single_job_trace(maps=1, reduces=0, map_d=10.0)
        engine = SimulationEngine(
            trace, GreedyScheduler(), num_machines=2, scenario=_QUIET_DYNAMIC
        )
        engine._push(Event.slowdown_start(2.0, next(engine._sequence), 1))
        result = engine.run()
        # The copy runs on machine 0; machine 1's slowdown changes nothing.
        assert result.records[0].flowtime == pytest.approx(10.0)


class TestMachineFailures:
    def test_killed_copy_redispatched_exactly_once(self):
        """The engine invariant: one replacement copy per failure kill."""
        trace = single_job_trace(maps=1, reduces=0, map_d=10.0)
        engine = SimulationEngine(
            trace, GreedyScheduler(), num_machines=2, scenario=_QUIET_DYNAMIC
        )
        # No failure process is configured, so the injected failure is a
        # one-shot: machine 0 (hosting the copy) dies at t=5 and stays down.
        engine._push(Event.machine_failure(5.0, next(engine._sequence), 0))
        result = engine.run()
        task = engine._jobs[0].stage_tasks[0][0]
        assert result.machine_failures == 1
        assert result.copies_killed_by_failure == 1
        # Exactly one replacement: 2 copies total, the killed one plus the
        # re-dispatched one, which starts on machine 1 at the kill instant.
        assert len(task.copies) == 2
        killed, relaunched = task.copies
        assert killed.is_killed and killed.machine_id == 0
        assert relaunched.is_finished and relaunched.machine_id == 1
        assert relaunched.launch_time == pytest.approx(5.0)
        assert result.records[0].flowtime == pytest.approx(15.0)
        assert result.wasted_work == pytest.approx(5.0)

    def test_single_copy_scheduler_copy_accounting(self):
        """total copies == tasks + failure kills for a non-cloning policy."""
        scenario = ScenarioSpec(
            failures=MachineFailures(rate=1 / 100.0, mean_repair=10.0)
        )
        from repro.workload.generators import poisson_trace

        trace = poisson_trace(
            num_jobs=20,
            arrival_rate=0.5,
            mean_tasks_per_job=5,
            mean_duration=8.0,
            cv=0.5,
            seed=11,
        )
        result = run_simulation(
            trace, GreedyScheduler(), 8, seed=2, scenario=scenario
        )
        assert result.copies_killed_by_failure > 0
        assert result.total_copies == result.total_tasks + result.copies_killed_by_failure

    def test_failed_machine_rejoins_after_repair(self):
        """With every machine failing at t=5 for exactly 2 s, work resumes."""
        scenario = ScenarioSpec(
            failures=MachineFailures(rate=1e-9, mean_repair=2.0, fixed_repair=True)
        )
        trace = single_job_trace(maps=1, reduces=0, map_d=10.0)
        engine = SimulationEngine(
            trace, GreedyScheduler(), num_machines=1, scenario=scenario
        )
        engine._push(Event.machine_failure(5.0, next(engine._sequence), 0))
        result = engine.run()
        # 5 s of work lost; machine back at t=7; full 10 s rerun -> 17 s.
        assert result.records[0].flowtime == pytest.approx(17.0)
        assert result.machine_failures == 1

    def test_stuck_scheduler_still_detected_under_dynamic_scenario(self):
        """Perpetual machine events must not mask a scheduler that never
        launches: the static path raises SimulationError, and so must the
        dynamic path (instead of spinning on failure/repair events forever)."""
        from test_engine import LazyScheduler

        scenario = ScenarioSpec(
            failures=MachineFailures(rate=1 / 100.0, mean_repair=10.0)
        )
        trace = single_job_trace()
        engine = SimulationEngine(
            trace, LazyScheduler(), num_machines=2, scenario=scenario
        )
        with pytest.raises(SimulationError):
            engine.run()

    def test_parked_copy_deadlock_detected_under_dynamic_scenario(self):
        """A scheduler that fills every machine with blocked reduce copies
        while map tasks stay unscheduled deadlocks the cluster; the dynamic
        path must raise like the static path does, not spin on machine
        events forever."""
        from repro.simulation.scheduler_api import LaunchRequest, Scheduler

        class ReduceFirstScheduler(Scheduler):
            name = "reduce-first-test"

            def schedule(self, view):
                requests = []
                free = view.num_free_machines
                for job in view.alive_jobs:
                    for task in job.unscheduled_stage_tasks(1):
                        if free <= 0:
                            return requests
                        requests.append(LaunchRequest(task=task, num_copies=1))
                        free -= 1
                return requests

        trace = single_job_trace(maps=1, reduces=2)
        engine = SimulationEngine(
            trace, ReduceFirstScheduler(), num_machines=2, scenario=_QUIET_DYNAMIC
        )
        with pytest.raises(SimulationError):
            engine.run()

    def test_invariants_hold_under_failures(self):
        scenario = ScenarioSpec(
            failures=MachineFailures(rate=1 / 60.0, mean_repair=10.0),
            stragglers=DynamicStragglers(
                onset_rate=1 / 40.0, mean_duration=15.0, factor=3.0
            ),
        )
        from repro.workload.generators import poisson_trace

        trace = poisson_trace(
            num_jobs=15,
            arrival_rate=0.5,
            mean_tasks_per_job=4,
            mean_duration=6.0,
            cv=0.5,
            seed=3,
        )
        result = run_simulation(
            trace,
            make_scheduler("SCA"),
            6,
            seed=4,
            scenario=scenario,
            check_invariants=True,
        )
        assert result.num_jobs == 15


class TestScenarioDeterminism:
    """Pooled (workers=4) vs serial bit-identity for every scenario axis."""

    @pytest.mark.parametrize("scenario_name", sorted(DETERMINISM_SCENARIOS))
    @pytest.mark.parametrize(
        "scheduler_spec",
        [
            SchedulerSpec("SCA"),
            SchedulerSpec("LATE"),
            SchedulerSpec("Mantri"),
        ],
        ids=lambda s: s.name,
    )
    def test_pooled_matches_serial(
        self, scenario_name, scheduler_spec, small_online_trace
    ):
        scenario = DETERMINISM_SCENARIOS[scenario_name]
        base = RunSpec(
            trace=small_online_trace,
            scheduler=scheduler_spec,
            num_machines=8,
            scenario=scenario,
        )
        specs = [base.with_seed(seed) for seed in (0, 1, 2, 3)]
        serial = ExperimentRunner(workers=1).run(specs)
        pooled = ExperimentRunner(workers=4).run(specs)
        assert [r.canonical_dict() for r in serial] == [
            r.canonical_dict() for r in pooled
        ]
        assert [r.fingerprint() for r in serial] == [r.fingerprint() for r in pooled]

    def test_scenario_run_spec_pickles(self, small_online_trace):
        spec = RunSpec(
            trace=small_online_trace,
            scheduler=SchedulerSpec("SCA"),
            num_machines=8,
            seed=1,
            scenario=DETERMINISM_SCENARIOS["failures"],
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.execute().fingerprint() == spec.execute().fingerprint()

    def test_run_spec_rejects_non_scenario(self, small_online_trace):
        with pytest.raises(TypeError):
            RunSpec(
                trace=small_online_trace,
                scheduler=SchedulerSpec("SCA"),
                num_machines=4,
                scenario="hostile",
            )
