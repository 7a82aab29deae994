"""Unit tests for the Lemma 1 / Theorem 1 / Remark 2 bound computations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.theory import offline_bound_check
from repro.core.bounds import (
    critical_path,
    empirical_competitive_ratio,
    lemma1_probability,
    offline_flowtime_bound,
    offline_flowtime_bounds,
    online_competitive_bound,
    srpt_relaxation_lower_bound,
    theorem1_probability,
    weighted_flowtime_lower_bound,
)
from repro.policies import make_scheduler
from repro.simulation.engine import SimulationEngine
from repro.workload.distributions import Deterministic, LogNormal
from repro.workload.job import JobSpec, StageSpec
from repro.workload.trace import Trace


def make_spec(job_id=0, weight=1.0, maps=2, reduces=1, mean=10.0, std=0.0) -> JobSpec:
    duration = Deterministic(mean) if std == 0 else LogNormal(mean, std)
    return JobSpec(
        job_id=job_id,
        arrival_time=0.0,
        weight=weight,
        num_map_tasks=maps,
        num_reduce_tasks=reduces,
        map_duration=duration,
        reduce_duration=duration,
    )


class TestProbabilities:
    def test_lemma1_formula(self):
        assert lemma1_probability(2.0) == pytest.approx(0.75)
        assert lemma1_probability(10.0) == pytest.approx(0.99)

    def test_lemma1_clipped_below_one(self):
        assert lemma1_probability(0.5) == 0.0

    def test_theorem1_formula(self):
        assert theorem1_probability(2.0) == pytest.approx((1 - 0.25) ** 2)

    def test_theorem1_approaches_one(self):
        assert theorem1_probability(100.0) == pytest.approx(1.0, abs=1e-3)

    def test_theorem1_is_square_of_lemma1(self):
        r = 3.0
        assert theorem1_probability(r) == pytest.approx(lemma1_probability(r) ** 2)

    @pytest.mark.parametrize("func", [lemma1_probability, theorem1_probability])
    def test_probability_validation(self, func):
        with pytest.raises(ValueError):
            func(0.0)


def chain_spec(durations, job_id=0, tasks=1, last_std=0.0) -> JobSpec:
    """A chain of one stage per duration, every stage depending on the previous."""
    stages = []
    for index, mean in enumerate(durations):
        last = index == len(durations) - 1
        duration = (
            LogNormal(mean, last_std) if last and last_std else Deterministic(mean)
        )
        stages.append(StageSpec(name=f"round{index}", num_tasks=tasks,
                                duration=duration,
                                deps=(index - 1,) if index else ()))
    return JobSpec.from_stages(job_id=job_id, arrival_time=0.0, weight=1.0,
                               stages=stages)


class TestCriticalPath:
    def test_two_stage_spec_sums_both_stages(self):
        spec = make_spec(mean=10.0, std=2.0)
        assert critical_path(spec, 3.0) == pytest.approx(16.0 + 16.0)

    def test_an_empty_stage_costs_nothing(self):
        assert critical_path(make_spec(maps=0, mean=8.0)) == pytest.approx(8.0)
        # An empty middle stage still passes its predecessor's path on.
        spec = JobSpec.from_stages(job_id=0, arrival_time=0.0, weight=1.0, stages=[
            StageSpec("a", 1, Deterministic(5.0)),
            StageSpec("b", 0, Deterministic(50.0), deps=(0,)),
            StageSpec("c", 1, Deterministic(3.0), deps=(1,)),
        ])
        assert critical_path(spec) == pytest.approx(8.0)

    def test_a_diamond_takes_its_longest_branch(self):
        spec = JobSpec.from_stages(job_id=0, arrival_time=0.0, weight=1.0, stages=[
            StageSpec("split", 1, Deterministic(1.0)),
            StageSpec("fast", 4, Deterministic(2.0), deps=(0,)),
            StageSpec("slow", 1, Deterministic(30.0), deps=(0,)),
            StageSpec("merge", 1, Deterministic(4.0), deps=(1, 2)),
        ])
        assert critical_path(spec) == pytest.approx(1.0 + 30.0 + 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            critical_path(make_spec(), -1.0)


class TestTheorem1Bound:
    def test_bound_formula(self):
        spec = make_spec(mean=10.0, std=2.0)
        bound = offline_flowtime_bound(spec, accumulated_workload=200.0,
                                       num_machines=10, r=3.0)
        assert bound == pytest.approx(16.0 + 16.0 + 20.0)

    def test_map_only_job_uses_map_moments(self):
        spec = make_spec(reduces=0, mean=8.0)
        bound = offline_flowtime_bound(spec, 0.0, 4, 0.0)
        assert bound == pytest.approx(8.0)

    def test_bounds_for_all_jobs_increase_with_lower_priority(self):
        small = make_spec(job_id=0, maps=1, reduces=1)
        large = make_spec(job_id=1, maps=10, reduces=2)
        bounds = offline_flowtime_bounds([small, large], num_machines=5, r=0.0)
        assert bounds[1] > bounds[0]

    def test_bound_is_the_critical_path_plus_the_fluid_term(self):
        spec = make_spec()
        bound = offline_flowtime_bounds([spec], 4, 0.0)[0]
        assert bound == pytest.approx(critical_path(spec) + 30.0 / 4)

    def test_validation(self):
        spec = make_spec()
        with pytest.raises(ValueError):
            offline_flowtime_bound(spec, -1.0, 4, 0.0)
        with pytest.raises(ValueError):
            offline_flowtime_bound(spec, 1.0, 0, 0.0)
        with pytest.raises(ValueError):
            offline_flowtime_bound(spec, 1.0, 4, -1.0)


class TestLowerBounds:
    def test_critical_path_is_the_serial_lower_bound(self):
        assert critical_path(make_spec(mean=10.0)) == pytest.approx(20.0)
        assert critical_path(make_spec(reduces=0)) == pytest.approx(10.0)

    def test_equal_priority_jobs_run_one_after_another_in_the_relaxation(self):
        # Two 2 s single-task jobs of weight 0.5 on one machine: one
        # finishes at 2 s and the other at 4 s, a weighted flowtime of 3.
        # Charging each job the whole tie's 4 s made the bound 4.
        specs = [make_spec(job_id=i, weight=0.5, maps=1, reduces=0, mean=2.0)
                 for i in range(2)]
        assert srpt_relaxation_lower_bound(specs, 1) == 3.0
        assert weighted_flowtime_lower_bound(specs, 1) == 3.0
        result = SimulationEngine(
            Trace(specs), make_scheduler("FIFO"), 1, seed=0
        ).run()
        assert result.total_weighted_flowtime == 3.0

    def test_srpt_relaxation_scales_with_machines(self):
        specs = [make_spec(job_id=i) for i in range(3)]
        few = srpt_relaxation_lower_bound(specs, 2)
        many = srpt_relaxation_lower_bound(specs, 20)
        assert few == pytest.approx(10 * many)

    def test_weighted_lower_bound_is_max_of_components(self):
        specs = [make_spec(job_id=i) for i in range(3)]
        combined = weighted_flowtime_lower_bound(specs, 2)
        serial = sum(s.weight * critical_path(s) for s in specs)
        relaxation = srpt_relaxation_lower_bound(specs, 2)
        assert combined == pytest.approx(max(serial, relaxation))

    def test_empirical_competitive_ratio(self):
        specs = [make_spec(job_id=i) for i in range(2)]
        lower = weighted_flowtime_lower_bound(specs, 4)
        assert empirical_competitive_ratio(2.0 * lower, specs, 4) == pytest.approx(2.0)

    def test_empirical_competitive_ratio_validation(self):
        specs = [make_spec()]
        with pytest.raises(ValueError):
            empirical_competitive_ratio(-1.0, specs, 4)

    def test_srpt_relaxation_validation(self):
        with pytest.raises(ValueError):
            srpt_relaxation_lower_bound([make_spec()], 0)


class TestOnlineBound:
    def test_formula(self):
        assert online_competitive_bound(0.5, max_copies=2) == pytest.approx(
            (2 + 1 + 0.5) / 0.25
        )

    def test_decreasing_in_epsilon(self):
        assert online_competitive_bound(0.9) < online_competitive_bound(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            online_competitive_bound(0.0)
        with pytest.raises(ValueError):
            online_competitive_bound(1.0)
        with pytest.raises(ValueError):
            online_competitive_bound(0.5, max_copies=0)


class TestChainRegressions:
    """One job whose stages run 1 s, 10 s and 100 s, one after another.

    A two-phase summary read the chain as one 1 s map task and two 10 s
    reduce tasks: an 11 s serial bound, a Theorem 1 bound 72.25 s below
    the optimal 111 s flowtime, task statistics of mean 7 s and maximum
    10 s, and no sight of the last stage's variance.
    """

    DURATIONS = (1.0, 10.0, 100.0)
    MACHINES = 4

    def _offline_report(self, spec, r):
        trace = Trace([spec])
        result = SimulationEngine(
            trace, make_scheduler("Offline", r=r), self.MACHINES, seed=0
        ).run()
        return result, offline_bound_check(result, trace, self.MACHINES, r=r)

    def test_critical_path_is_111(self):
        assert critical_path(chain_spec(self.DURATIONS)) == 111.0

    def test_offline_bound_check_is_tight_on_an_optimal_schedule(self):
        result, report = self._offline_report(chain_spec(self.DURATIONS), 0.0)
        assert result.records[0].flowtime == 111.0
        assert (report.num_satisfying_bound, report.num_jobs) == (1, 1)
        assert report.max_bound_violation == 0.0
        assert report.empirical_competitive_ratio == 1.0
        assert report.theoretical_probability == 1.0

    def test_trace_statistics_read_every_stage(self):
        trace = Trace([chain_spec(self.DURATIONS)])
        for stats in (trace.statistics(), trace.statistics(np.random.default_rng(0))):
            assert stats.average_task_duration == 37.0
            assert stats.max_task_duration == 100.0
            assert stats.min_task_duration == 1.0

    def test_a_noisy_last_stage_reports_theorem1_probability(self):
        spec = chain_spec(self.DURATIONS, last_std=20.0)
        _, report = self._offline_report(spec, 3.0)
        assert report.theoretical_probability == theorem1_probability(3.0)
        assert report.theoretical_probability < 1.0
