"""Unit tests for effective workloads (Eqs. 2-4), f_i^s and SRPT priorities."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import epsilon_shares
from repro.core.effective_workload import accumulated_higher_priority_workload
from repro.core.priority import (
    offline_priority,
    online_priority,
    sort_jobs_by_remaining_priority,
    sort_specs_by_priority,
    srpt_priority,
)
from repro.policies.ordering import SRPTOrdering
from repro.workload.distributions import Deterministic, LogNormal
from repro.workload.job import Job, JobSpec, StageSpec, TaskCopy


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


class TestEffectiveTaskWorkload:
    """The per-task term ``E + r sigma``, read through a one-task job."""

    def test_formula(self):
        spec = make_spec(maps=1, reduces=0, mean=10.0, std=2.0)
        assert spec.effective_workload(3.0) == pytest.approx(16.0)
        assert Job.from_spec(spec).remaining_effective_workload(3.0) == (
            pytest.approx(16.0)
        )

    def test_r_zero(self):
        spec = make_spec(maps=1, reduces=0, mean=10.0, std=100.0)
        assert spec.effective_workload(0.0) == 10.0
        assert Job.from_spec(spec).remaining_effective_workload(0.0) == 10.0

    @pytest.mark.parametrize("mean,std,r", [(-1, 0, 0), (1, -1, 0), (1, 0, -1)])
    def test_validation(self, mean, std, r):
        with pytest.raises(ValueError):
            make_spec(maps=1, reduces=0, mean=mean, std=std).effective_workload(r)


class TestTotalAndRemainingWorkload:
    def test_total_matches_spec_method(self):
        # At arrival nothing is scheduled, so U_i equals phi_i exactly.
        spec = make_spec(maps=3, reduces=2, mean=10.0, std=2.0)
        job = Job.from_spec(spec)
        assert job.remaining_effective_workload(3.0) == spec.effective_workload(3.0)
        assert spec.effective_workload(3.0) == pytest.approx(5 * (10.0 + 3.0 * 2.0))

    def test_remaining_shrinks_as_tasks_are_scheduled(self):
        spec = make_spec(maps=2, reduces=1, mean=10.0)
        job = Job.from_spec(spec)
        before = job.remaining_effective_workload(0.0)
        copy = TaskCopy(copy_id=0, task=job.stage_tasks[0][0], machine_id=0,
                        launch_time=0.0, workload=10.0)
        job.stage_tasks[0][0].add_copy(copy)
        after = job.remaining_effective_workload(0.0)
        assert after == pytest.approx(before - 10.0)


def chain_spec(job_id=0, durations=(1.0, 10.0, 100.0)) -> JobSpec:
    """A one-task-per-stage chain whose stages run ``durations`` seconds."""
    stages = [
        StageSpec(f"s{index}", 1, Deterministic(duration),
                  deps=() if index == 0 else (index - 1,))
        for index, duration in enumerate(durations)
    ]
    return JobSpec.from_stages(
        job_id=job_id, arrival_time=0.0, weight=1.0, stages=stages
    )


class TestStageExactWorkload:
    """Every stage is priced at its own moments, not at stage 1's."""

    def test_chain_phi_and_u_sum_every_stage(self):
        spec = chain_spec()
        job = Job.from_spec(spec)
        assert spec.effective_workload(0.0) == 111.0
        assert job.remaining_effective_workload(0.0) == 111.0
        assert offline_priority(spec, 0.0) == 1.0 / 111.0
        assert online_priority(job, 0.0) == 1.0 / 111.0

    def test_chain_u_drops_by_the_launched_stage(self):
        job = Job.from_spec(chain_spec())
        task = job.stage_tasks[0][0]
        task.add_copy(TaskCopy(copy_id=0, task=task, machine_id=0,
                               launch_time=0.0, workload=1.0))
        assert online_priority(job, 0.0) == 1.0 / 110.0

    def test_accumulated_workload_uses_stage_exact_phi(self):
        accumulated = accumulated_higher_priority_workload([chain_spec()], 0.0)
        assert accumulated[0] == 111.0

    def test_srpt_ranks_a_shorter_two_stage_job_ahead_of_the_chain(self):
        # 30 s + 30 s = 60 s of work against the chain's 111 s.  Pricing the
        # chain's later stages at stage 1's 10 s would make it 21 s and
        # rank it first.
        chain = Job.from_spec(chain_spec(job_id=0))
        pair = Job.from_spec(make_spec(job_id=1, maps=1, reduces=1, mean=30.0))
        ordered = SRPTOrdering(r=0.0).order(None, [chain, pair])
        assert [job.job_id for job in ordered] == [1, 0]
        assert sort_jobs_by_remaining_priority([chain, pair], 0.0) == ordered
        shares = epsilon_shares([chain, pair], num_machines=10, epsilon=0.5, r=0.0)
        assert shares == {1: 10, 0: 0}


# The two-phase expressions the stage-exact methods replaced: stage 0 at
# the map moments, every later task at the reduce (stage 1) moments.


def two_phase_total(spec: JobSpec, r: float) -> float:
    return spec.num_map_tasks * (
        spec.map_duration.mean + r * spec.map_duration.std
    ) + spec.num_reduce_tasks * (
        spec.reduce_duration.mean + r * spec.reduce_duration.std
    )


def two_phase_remaining(job: Job, r: float) -> float:
    spec = job.spec
    return job.num_unscheduled_stage_tasks(0) * (
        spec.map_duration.mean + r * spec.map_duration.std
    ) + job.num_unscheduled_stage_tasks(1) * (
        spec.reduce_duration.mean + r * spec.reduce_duration.std
    )


durations = st.one_of(
    st.floats(min_value=0.01, max_value=1e4).map(Deterministic),
    st.tuples(
        st.floats(min_value=0.01, max_value=1e4),
        st.floats(min_value=0.0, max_value=1e4),
    ).map(lambda moments: LogNormal(*moments)),
)


@st.composite
def two_stage_jobs(draw):
    maps = draw(st.integers(min_value=0, max_value=8))
    reduces = draw(st.integers(min_value=0 if maps else 1, max_value=8))
    map_duration, reduce_duration = draw(durations), draw(durations)
    weight = draw(st.floats(min_value=0.1, max_value=100.0))
    if draw(st.booleans()):
        spec = JobSpec(
            job_id=0, arrival_time=0.0, weight=weight, num_map_tasks=maps,
            num_reduce_tasks=reduces, map_duration=map_duration,
            reduce_duration=reduce_duration,
        )
    else:
        spec = JobSpec.from_stages(
            job_id=0, arrival_time=0.0, weight=weight, stages=[
                StageSpec("map", maps, map_duration),
                StageSpec("reduce", reduces, reduce_duration, deps=(0,)),
            ],
        )
    job = Job.from_spec(spec)
    tasks = list(job.all_tasks())
    launched = draw(st.lists(st.sampled_from(tasks), unique=True)) if tasks else []
    for task in launched:
        task.add_copy(TaskCopy(copy_id=0, task=task, machine_id=0,
                               launch_time=0.0, workload=1.0))
    return job


@settings(max_examples=300, deadline=None)
@given(
    job=two_stage_jobs(),
    r=st.floats(min_value=0.0, max_value=10.0) | st.sampled_from([0.0, 3.0]),
)
def test_two_stage_priorities_match_the_two_phase_expressions(job, r):
    spec = job.spec
    assert spec.effective_workload(r).hex() == two_phase_total(spec, r).hex()
    assert job.remaining_effective_workload(r).hex() == (
        two_phase_remaining(job, r).hex()
    )
    assert offline_priority(spec, r) == srpt_priority(
        spec.weight, two_phase_total(spec, r)
    )
    assert online_priority(job, r) == srpt_priority(
        job.weight, two_phase_remaining(job, r)
    )


class TestAccumulatedWorkload:
    def test_single_job_counts_itself(self):
        spec = make_spec(job_id=0, maps=2, reduces=1, mean=10.0)
        accumulated = accumulated_higher_priority_workload([spec], 0.0)
        assert accumulated[0] == pytest.approx(30.0)

    def test_ordering_by_priority(self):
        # Job 0: phi=30 weight=1 -> priority 1/30.  Job 1: phi=10*11=110...
        small = make_spec(job_id=0, weight=1.0, maps=2, reduces=1)   # phi = 30
        large = make_spec(job_id=1, weight=1.0, maps=9, reduces=2)   # phi = 110
        accumulated = accumulated_higher_priority_workload([small, large], 0.0)
        assert accumulated[0] == pytest.approx(30.0)
        assert accumulated[1] == pytest.approx(140.0)

    def test_weights_change_the_order(self):
        small = make_spec(job_id=0, weight=1.0, maps=2, reduces=1)   # prio 1/30
        large = make_spec(job_id=1, weight=10.0, maps=9, reduces=2)  # prio 10/110
        accumulated = accumulated_higher_priority_workload([small, large], 0.0)
        # The weighted large job now has higher priority than the small one.
        assert accumulated[1] == pytest.approx(110.0)
        assert accumulated[0] == pytest.approx(140.0)

    def test_ties_count_each_other(self):
        a = make_spec(job_id=0, maps=2, reduces=1)
        b = make_spec(job_id=1, maps=2, reduces=1)
        accumulated = accumulated_higher_priority_workload([a, b], 0.0)
        assert accumulated[0] == accumulated[1] == pytest.approx(60.0)

    def test_r_increases_accumulated_workload(self):
        spec = make_spec(job_id=0, mean=10.0, std=2.0)
        low = accumulated_higher_priority_workload([spec], 0.0)[0]
        high = accumulated_higher_priority_workload([spec], 3.0)[0]
        assert high > low


class TestPriorities:
    def test_srpt_priority_formula(self):
        assert srpt_priority(2.0, 10.0) == pytest.approx(0.2)

    def test_srpt_priority_zero_workload_is_infinite(self):
        assert srpt_priority(1.0, 0.0) == float("inf")

    def test_srpt_priority_validation(self):
        with pytest.raises(ValueError):
            srpt_priority(0.0, 1.0)
        with pytest.raises(ValueError):
            srpt_priority(1.0, -1.0)

    def test_offline_priority_prefers_small_jobs(self):
        small = make_spec(job_id=0, maps=1, reduces=0)
        large = make_spec(job_id=1, maps=10, reduces=0)
        assert offline_priority(small, 0.0) > offline_priority(large, 0.0)

    def test_online_priority_rises_as_job_progresses(self):
        job = Job.from_spec(make_spec(maps=3, reduces=1))
        before = online_priority(job, 0.0)
        copy = TaskCopy(copy_id=0, task=job.stage_tasks[0][0], machine_id=0,
                        launch_time=0.0, workload=10.0)
        job.stage_tasks[0][0].add_copy(copy)
        assert online_priority(job, 0.0) > before

    def test_sort_specs_by_priority(self):
        small = make_spec(job_id=5, maps=1, reduces=0)
        large = make_spec(job_id=3, maps=20, reduces=0)
        ordered = sort_specs_by_priority([large, small], 0.0)
        assert [spec.job_id for spec in ordered] == [5, 3]

    def test_sort_jobs_breaks_ties_by_id(self):
        jobs = [Job.from_spec(make_spec(job_id=i)) for i in (4, 2, 9)]
        ordered = sort_jobs_by_remaining_priority(jobs, 0.0)
        assert [job.job_id for job in ordered] == [2, 4, 9]
