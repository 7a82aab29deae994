"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.allocation import fractional_shares, integer_shares
from repro.core.bounds import theorem1_probability, lemma1_probability
from repro.core.effective_workload import (
    accumulated_higher_priority_workload,
    total_effective_workload,
)
from repro.core.speedup import LogSpeedup, ParetoSpeedup, PowerSpeedup
from repro.core.srptms_c import SRPTMSCScheduler
from repro.policies.redundancy import CheckpointRedundancy
from repro.scenarios import MachineFailures, ScenarioSpec, TopologySpec
from repro.schedulers.fifo import FIFOScheduler
from repro.simulation.engine import SimulationEngine
from repro.simulation.scheduler_api import ComposedScheduler
from repro.workload.distributions import BoundedPareto, Deterministic, LogNormal
from repro.workload.job import JobSpec, StageSpec
from repro.workload.trace import Trace


# --------------------------------------------------------------------------- strategies

positive_weights = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)


@st.composite
def job_weight_lists(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    return [(i, draw(positive_weights)) for i in range(n)]


@st.composite
def job_spec_lists(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    specs = []
    for i in range(n):
        mean = draw(st.floats(min_value=1.0, max_value=50.0))
        cv = draw(st.floats(min_value=0.0, max_value=1.0))
        duration = LogNormal(mean, cv * mean) if cv > 0 else LogNormal(mean, 0.0)
        specs.append(
            JobSpec(
                job_id=i,
                arrival_time=draw(st.floats(min_value=0.0, max_value=30.0)),
                weight=draw(st.floats(min_value=0.5, max_value=10.0)),
                num_map_tasks=draw(st.integers(min_value=1, max_value=6)),
                num_reduce_tasks=draw(st.integers(min_value=0, max_value=3)),
                map_duration=duration,
                reduce_duration=duration,
            )
        )
    return specs


# --------------------------------------------------------------------------- allocation

class TestAllocationProperties:
    @given(pairs=job_weight_lists(),
           machines=st.integers(min_value=1, max_value=500),
           epsilon=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_fractional_shares_sum_to_m_and_are_nonnegative(self, pairs, machines,
                                                            epsilon):
        shares = fractional_shares(pairs, machines, epsilon)
        assert all(share >= -1e-9 for share in shares.values())
        assert sum(shares.values()) == pytest.approx(machines, rel=1e-6)

    @given(pairs=job_weight_lists(),
           machines=st.integers(min_value=1, max_value=500),
           epsilon=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_integer_shares_sum_to_m(self, pairs, machines, epsilon):
        fractional = fractional_shares(pairs, machines, epsilon)
        order = [job_id for job_id, _ in pairs]
        integers = integer_shares(fractional, order, machines)
        assert sum(integers.values()) == machines
        assert all(value >= 0 for value in integers.values())

    @given(pairs=job_weight_lists(), machines=st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_epsilon_one_is_weight_proportional(self, pairs, machines):
        shares = fractional_shares(pairs, machines, 1.0)
        total_weight = sum(weight for _, weight in pairs)
        for job_id, weight in pairs:
            assert shares[job_id] == pytest.approx(
                machines * weight / total_weight, rel=1e-6
            )

    @given(pairs=job_weight_lists(),
           machines=st.integers(min_value=1, max_value=200),
           epsilon=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_higher_priority_jobs_never_get_less_per_weight(self, pairs, machines,
                                                            epsilon):
        shares = fractional_shares(pairs, machines, epsilon)
        per_weight = [shares[job_id] / weight for job_id, weight in pairs]
        # Walking down the priority order, the share per unit weight never
        # increases (top jobs are served first).
        for earlier, later in zip(per_weight, per_weight[1:]):
            assert later <= earlier + 1e-9


# --------------------------------------------------------------------------- speedup

class TestSpeedupProperties:
    @given(alpha=st.floats(min_value=1.5, max_value=10.0),
           x=st.integers(min_value=1, max_value=200))
    @settings(max_examples=80, deadline=None)
    def test_pareto_speedup_bounds(self, alpha, x):
        # alpha >= 1.5 is the regime where the paper's s(x) <= x holds.
        speedup = ParetoSpeedup(alpha=alpha)
        value = speedup(x)
        assert 1.0 - 1e-12 <= value <= x + 1e-9
        # Monotone in x.
        assert speedup(x + 1) >= value - 1e-12

    @given(alpha=st.floats(min_value=1.05, max_value=1.45),
           x=st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_pareto_speedup_stays_concave_below_threshold(self, alpha, x):
        # Below alpha = 1.5 the s(x) <= x property can fail (documented
        # paper subtlety) but monotonicity and s(1) = 1 still hold.
        speedup = ParetoSpeedup(alpha=alpha)
        assert speedup(1) == pytest.approx(1.0)
        assert speedup(x + 1) >= speedup(x) - 1e-12

    @given(beta=st.floats(min_value=0.05, max_value=1.0),
           x=st.integers(min_value=1, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_power_speedup_bounds(self, beta, x):
        value = PowerSpeedup(beta=beta)(x)
        assert 1.0 - 1e-12 <= value <= x + 1e-9

    @given(scale=st.floats(min_value=0.05, max_value=1.0),
           x=st.integers(min_value=1, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_log_speedup_bounds(self, scale, x):
        value = LogSpeedup(scale=scale)(x)
        assert 1.0 - 1e-12 <= value <= x + 1e-9


# --------------------------------------------------------------------------- distributions

class TestDistributionProperties:
    @given(minimum=st.floats(min_value=0.5, max_value=50.0),
           ratio=st.floats(min_value=1.5, max_value=100.0),
           alpha=st.floats(min_value=0.3, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_bounded_pareto_mean_inside_support(self, minimum, ratio, alpha):
        dist = BoundedPareto(minimum, minimum * ratio, alpha)
        assert minimum <= dist.mean <= minimum * ratio
        assert dist.std >= 0

    @given(mean=st.floats(min_value=0.5, max_value=1000.0),
           cv=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_lognormal_reports_requested_moments(self, mean, cv):
        dist = LogNormal(mean, cv * mean)
        assert dist.mean == pytest.approx(mean)
        assert dist.std == pytest.approx(cv * mean)

    @given(minimum=st.floats(min_value=0.5, max_value=20.0),
           ratio=st.floats(min_value=1.5, max_value=50.0),
           alpha=st.floats(min_value=0.3, max_value=4.0),
           u=st.lists(st.floats(min_value=0.0, max_value=0.999), min_size=2,
                      max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_bounded_pareto_quantile_monotone(self, minimum, ratio, alpha, u):
        dist = BoundedPareto(minimum, minimum * ratio, alpha)
        ordered = sorted(u)
        values = dist.quantile(np.array(ordered))
        assert np.all(np.diff(values) >= -1e-9)


# --------------------------------------------------------------------------- theory

class TestTheoryProperties:
    @given(r=st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_probabilities_are_valid_and_ordered(self, r):
        lemma = lemma1_probability(r)
        theorem = theorem1_probability(r)
        assert 0.0 <= theorem <= lemma <= 1.0

    @given(specs=job_spec_lists(), r=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_accumulated_workload_dominates_own_workload(self, specs, r):
        accumulated = accumulated_higher_priority_workload(specs, r)
        total = sum(total_effective_workload(spec, r) for spec in specs)
        for spec in specs:
            own = total_effective_workload(spec, r)
            assert accumulated[spec.job_id] >= own - 1e-9
            assert accumulated[spec.job_id] <= total + 1e-9


# --------------------------------------------------------------------------- simulation

class TestSimulationProperties:
    @given(specs=job_spec_lists(),
           machines=st.integers(min_value=1, max_value=20),
           use_srptms=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_workloads_complete_with_invariants(self, specs, machines,
                                                       use_srptms, seed):
        trace = Trace(specs)
        scheduler = (
            SRPTMSCScheduler(epsilon=0.6, r=1.0) if use_srptms else FIFOScheduler()
        )
        engine = SimulationEngine(trace, scheduler, num_machines=machines,
                                  seed=seed, check_invariants=True)
        result = engine.run()
        assert result.num_jobs == len(specs)
        assert engine.cluster.num_free == machines
        assert result.over_requests == 0
        for record in result.records:
            assert record.completion_time >= record.arrival_time
        # Conservation: useful work equals the sum of winning-copy durations.
        winning = sum(
            copy.finish_time - copy.start_time
            for job in engine._jobs
            for task in job.all_tasks()
            for copy in task.copies
            if copy.is_finished
        )
        assert result.useful_work == pytest.approx(winning)


# --------------------------------------------------------------------------- stage DAGs

@st.composite
def dag_stage_tuples(draw, duration):
    """A random valid stage DAG: every dependency points at an earlier stage."""
    num_stages = draw(st.integers(min_value=1, max_value=4))
    stages = []
    for index in range(num_stages):
        deps = ()
        if index > 0:
            deps = tuple(sorted(draw(st.sets(
                st.integers(min_value=0, max_value=index - 1),
                min_size=0, max_size=index,
            ))))
        # Stage 0 carries at least one task; later stages may be empty
        # (an empty stage completes the instant it becomes ready).
        num_tasks = draw(
            st.integers(min_value=1 if index == 0 else 0, max_value=3)
        )
        stages.append(StageSpec(name=f"s{index}", num_tasks=num_tasks,
                                duration=duration, deps=deps))
    return tuple(stages)


@st.composite
def dag_spec_lists(draw, deterministic=False):
    n = draw(st.integers(min_value=1, max_value=4))
    specs = []
    for i in range(n):
        if deterministic:
            duration = Deterministic(draw(st.floats(min_value=2.0,
                                                    max_value=20.0)))
        else:
            mean = draw(st.floats(min_value=1.0, max_value=30.0))
            cv = draw(st.floats(min_value=0.0, max_value=1.0))
            duration = LogNormal(mean, cv * mean)
        specs.append(JobSpec.from_stages(
            job_id=i,
            arrival_time=draw(st.floats(min_value=0.0, max_value=20.0)),
            weight=draw(st.floats(min_value=0.5, max_value=5.0)),
            stages=draw(dag_stage_tuples(duration)),
        ))
    return specs


class TestDagProperties:
    """Random stage-DAG workloads through the composed policy kernel."""

    @given(specs=dag_spec_lists(),
           machines=st.integers(min_value=1, max_value=12),
           use_srpt=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_topological_order_respected(self, specs, machines, use_srpt, seed):
        # No copy of a stage's task may start before every predecessor
        # stage has completed -- the gating invariant of the DAG model.
        trace = Trace(specs)
        scheduler = ComposedScheduler(
            "srpt" if use_srpt else "fifo", "greedy", "none", r=3.0
        )
        engine = SimulationEngine(trace, scheduler, num_machines=machines,
                                  seed=seed, check_invariants=True)
        result = engine.run()
        assert result.num_jobs == len(specs)
        for job in engine._jobs:
            for stage, tasks in enumerate(job.stage_tasks):
                gates = [
                    job.stage_completion_time(dep)
                    for dep in job.stage_specs[stage].deps
                ]
                for task in tasks:
                    for copy in task.copies:
                        assert copy.start_time is not None
                        for gate in gates:
                            assert gate is not None
                            assert copy.start_time >= gate - 1e-9

    @given(specs=dag_spec_lists(deterministic=True),
           machines=st.integers(min_value=2, max_value=8),
           interval=st.floats(min_value=0.5, max_value=7.0),
           rate=st.floats(min_value=0.005, max_value=0.05),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_checkpoint_resume_conserves_work(self, specs, machines, interval,
                                              rate, seed):
        # With deterministic workloads on unit-speed machines, every task
        # contributes exactly its workload W to useful_work no matter how
        # often failures kill it: each kill's checkpointed increment counts
        # as useful, and the winning copy runs W minus the saved total.
        trace = Trace(specs)
        scheduler = ComposedScheduler(
            "fifo", "greedy", CheckpointRedundancy(interval=interval)
        )
        scenario = ScenarioSpec(
            failures=MachineFailures(rate=rate, mean_repair=2.0)
        )
        engine = SimulationEngine(trace, scheduler, num_machines=machines,
                                  seed=seed, scenario=scenario,
                                  check_invariants=True)
        result = engine.run()
        assert result.num_jobs == len(specs)
        expected = sum(
            stage.num_tasks * stage.duration.mean
            for spec in specs
            for stage in spec.stages
        )
        assert result.useful_work == pytest.approx(expected)
        if result.checkpoint_resumes:
            assert result.work_saved_by_checkpointing > 0.0

    @given(specs=dag_spec_lists(),
           machines=st.integers(min_value=1, max_value=10),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_redundancy_none_never_launches_second_copy(self, specs, machines,
                                                        seed):
        trace = Trace(specs)
        scheduler = ComposedScheduler("srpt", "greedy", "none", r=3.0)
        engine = SimulationEngine(trace, scheduler, num_machines=machines,
                                  seed=seed, check_invariants=True)
        result = engine.run()
        assert result.num_jobs == len(specs)
        assert result.redundant_copies_launched == 0
        for job in engine._jobs:
            for task in job.all_tasks():
                assert len(task.copies) == 1


# --------------------------------------------------------------------------- topology

class TestTopologyProperties:
    """Rack locality (PR 8): delay scheduling and remote pricing."""

    @given(specs=job_spec_lists(),
           racks=st.integers(min_value=2, max_value=4),
           machines=st.integers(min_value=4, max_value=16),
           locality_wait=st.floats(min_value=0.1, max_value=10.0),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_delay_never_waits_longer_than_locality_wait(self, specs, racks,
                                                         machines,
                                                         locality_wait, seed):
        # The delay policy's own instrumentation: the longest any deferred
        # task sat waiting for a local slot before dispatch is bounded by
        # the configured wait.
        trace = Trace(specs)
        scheduler = ComposedScheduler("srpt", "delay", "none", r=3.0,
                                      locality_wait=locality_wait)
        scenario = ScenarioSpec(
            topology=TopologySpec(racks=racks, remote_slowdown=2.0)
        )
        engine = SimulationEngine(trace, scheduler, num_machines=machines,
                                  seed=seed, scenario=scenario,
                                  check_invariants=True)
        result = engine.run()
        assert result.num_jobs == len(specs)
        assert scheduler.allocation.max_deferred_wait <= locality_wait + 1e-9

    @given(specs=job_spec_lists(),
           racks=st.integers(min_value=2, max_value=4),
           machines=st.integers(min_value=4, max_value=12),
           rate=st.floats(min_value=0.005, max_value=0.05),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_failed_host_never_rehosts_the_same_task(self, specs, racks,
                                                     machines, rate, seed):
        # With redundancy 'none' every killed copy is a failure kill, so
        # the delay policy's per-task blacklist must keep every relaunch
        # off the machines the task already died on -- unless the task
        # has died on *every* machine, in which case the blacklist is
        # forgiven (refusing the whole cluster forever would deadlock).
        trace = Trace(specs)
        scheduler = ComposedScheduler("srpt", "delay", "none", r=3.0)
        scenario = ScenarioSpec(
            failures=MachineFailures(rate=rate, mean_repair=5.0),
            topology=TopologySpec(racks=racks, remote_slowdown=2.0),
        )
        engine = SimulationEngine(trace, scheduler, num_machines=machines,
                                  seed=seed, scenario=scenario,
                                  check_invariants=True)
        result = engine.run()
        assert result.num_jobs == len(specs)
        for job in engine._jobs:
            for task in job.all_tasks():
                for copy in task.copies:
                    blacklisted = {
                        other.machine_id
                        for other in task.copies
                        if other is not copy
                        and other.killed_at is not None
                        and other.killed_at <= copy.start_time
                    }
                    assert (
                        copy.machine_id not in blacklisted
                        or len(blacklisted) >= machines
                    )

    def test_delay_deadline_rounding_to_now_does_not_deadlock(self):
        # Counterexample Hypothesis found for the property above: at
        # t~64.83 a deferred task's ``first_seen + locality_wait`` rounds
        # down to ``now``.  Deferring it would leave a zero wake-up hint
        # the engine ignores, and the run would stop with "scheduler made
        # no progress"; the task must take its remote slot instead.
        specs = [
            JobSpec(job_id=job_id, arrival_time=9.0, weight=1.0,
                    num_map_tasks=maps, num_reduce_tasks=0,
                    map_duration=LogNormal(mean, 0.0),
                    reduce_duration=LogNormal(mean, 0.0))
            for job_id, maps, mean in ((0, 3, 14.0), (1, 1, 1.0))
        ]
        scheduler = ComposedScheduler("srpt", "delay", "none", r=3.0)
        scenario = ScenarioSpec(
            failures=MachineFailures(rate=0.03381618239312417,
                                     mean_repair=5.0),
            topology=TopologySpec(racks=2, remote_slowdown=2.0),
        )
        engine = SimulationEngine(Trace(specs), scheduler, num_machines=9,
                                  seed=10, scenario=scenario,
                                  check_invariants=True)
        result = engine.run()
        assert result.num_jobs == 2
        assert result.makespan > 64.83

    def test_delay_tick_hint_goes_stale_while_no_machine_is_free(self):
        # Counterexample Hypothesis found for
        # test_delay_never_waits_longer_than_locality_wait: at t~0.75 a
        # deferred task's deadline lies 1e-12 ahead, then every machine
        # fills up.  The policy is not consulted while nothing is free; had
        # its 1e-12 wake-up hint stayed in force, the engine would tick
        # every 1e-12 s until a copy finishes, tens of seconds later.
        specs = [
            JobSpec(job_id=0, arrival_time=1.6207932128612031e-22,
                    weight=7.0730146165739285, num_map_tasks=5,
                    num_reduce_tasks=0,
                    map_duration=LogNormal(31.027, 20.072),
                    reduce_duration=LogNormal(31.027, 20.072)),
            JobSpec(job_id=1, arrival_time=1e-12, weight=6.93850927488957,
                    num_map_tasks=2, num_reduce_tasks=1,
                    map_duration=LogNormal(37.046, 16.818),
                    reduce_duration=LogNormal(37.046, 16.818)),
        ]
        scheduler = ComposedScheduler("srpt", "delay", "none", r=3.0,
                                      locality_wait=0.75)
        decide = scheduler.schedule
        decisions = []

        def counted(view):
            decisions.append(view.time)
            assert len(decisions) < 1000, f"tick crawl near t={view.time}"
            return decide(view)

        scheduler.schedule = counted
        scenario = ScenarioSpec(
            topology=TopologySpec(racks=3, remote_slowdown=2.0)
        )
        engine = SimulationEngine(Trace(specs), scheduler, num_machines=5,
                                  seed=2161, scenario=scenario,
                                  check_invariants=True)
        result = engine.run()
        assert result.num_jobs == 2
        assert scheduler.allocation.max_deferred_wait <= 0.75

    @given(specs=dag_spec_lists(deterministic=True),
           racks=st.integers(min_value=2, max_value=4),
           machines=st.integers(min_value=4, max_value=12),
           slowdown=st.floats(min_value=1.0, max_value=4.0),
           use_delay=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_remote_slowdown_never_raises_the_effective_rate(self, specs,
                                                             racks, machines,
                                                             slowdown,
                                                             use_delay, seed):
        # On a quiet homogeneous cluster with deterministic workloads, a
        # copy on its preferred rack runs for exactly its workload W and a
        # remote copy for exactly W * remote_slowdown -- the penalty can
        # only ever stretch a copy, never shrink it.
        trace = Trace(specs)
        scheduler = ComposedScheduler(
            "srpt", "delay" if use_delay else "greedy", "none", r=3.0
        )
        scenario = ScenarioSpec(
            topology=TopologySpec(racks=racks, remote_slowdown=slowdown)
        )
        engine = SimulationEngine(trace, scheduler, num_machines=machines,
                                  seed=seed, scenario=scenario,
                                  check_invariants=True)
        result = engine.run()
        assert result.num_jobs == len(specs)
        topology_active = slowdown > 1.0
        for job in engine._jobs:
            for stage, tasks in enumerate(job.stage_tasks):
                workload = job.stage_specs[stage].duration.mean
                for task in tasks:
                    for copy in task.copies:
                        if not copy.is_finished:
                            continue
                        local = (
                            not topology_active
                            or copy.machine_id % racks == task.preferred_rack
                        )
                        expected = workload if local else workload * slowdown
                        duration = copy.finish_time - copy.start_time
                        assert duration == pytest.approx(expected)
                        assert duration >= workload - 1e-9
