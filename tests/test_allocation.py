"""Unit tests for the epsilon-fraction machine-sharing rule (Section V-A)."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import epsilon_shares, fractional_shares, ranked_shares
from repro.policies.redundancy import PaperCloning
from repro.simulation.scheduler_api import LaunchRequest
from repro.workload.distributions import Deterministic
from repro.workload.job import Job, JobSpec, TaskCopy


def make_job(job_id: int, weight: float, tasks: int = 4) -> Job:
    spec = JobSpec(
        job_id=job_id,
        arrival_time=0.0,
        weight=weight,
        num_map_tasks=tasks,
        num_reduce_tasks=0,
        map_duration=Deterministic(10.0 * tasks),
        reduce_duration=Deterministic(10.0),
    )
    return Job.from_spec(spec)


class TestFractionalShares:
    def test_shares_sum_to_machine_count(self):
        pairs = [(0, 3.0), (1, 2.0), (2, 1.0), (3, 4.0)]
        shares = fractional_shares(pairs, num_machines=100, epsilon=0.5)
        assert sum(shares.values()) == pytest.approx(100.0)

    def test_epsilon_one_is_weight_proportional_fair_sharing(self):
        pairs = [(0, 3.0), (1, 1.0)]
        shares = fractional_shares(pairs, num_machines=40, epsilon=1.0)
        assert shares[0] == pytest.approx(30.0)
        assert shares[1] == pytest.approx(10.0)

    def test_small_epsilon_concentrates_on_top_priority(self):
        pairs = [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]
        shares = fractional_shares(pairs, num_machines=100, epsilon=0.25)
        # One job's weight is exactly a 0.25 fraction: the highest-priority
        # job takes all machines.
        assert shares[0] == pytest.approx(100.0)
        assert shares[1] == shares[2] == shares[3] == 0.0

    def test_partial_share_for_straddling_job(self):
        pairs = [(0, 1.0), (1, 1.0)]
        shares = fractional_shares(pairs, num_machines=60, epsilon=0.75)
        # W = 2, threshold = 0.5.  Job 0 (top): W_0 = 2, W_0 - w_0 = 1 >= 0.5
        # -> full share 1*60/(0.75*2) = 40.  Job 1: W_1 = 1 > 0.5 but
        # W_1 - w_1 = 0 < 0.5 -> partial (1 - 0.5)*60/1.5 = 20.
        assert shares[0] == pytest.approx(40.0)
        assert shares[1] == pytest.approx(20.0)

    def test_zero_share_below_threshold(self):
        pairs = [(0, 5.0), (1, 1.0), (2, 1.0)]
        shares = fractional_shares(pairs, num_machines=70, epsilon=0.5)
        assert shares[2] == 0.0

    def test_empty_input(self):
        assert fractional_shares([], 10, 0.5) == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            fractional_shares([(0, 1.0)], 0, 0.5)
        with pytest.raises(ValueError):
            fractional_shares([(0, 1.0)], 10, 0.0)
        with pytest.raises(ValueError):
            fractional_shares([(0, 1.0)], 10, 1.5)
        with pytest.raises(ValueError):
            fractional_shares([(0, 0.0)], 10, 0.5)


class TestIntegerShares:
    """The rounding half of :func:`ranked_shares`.

    With ``epsilon = 1`` and weights summing to ``M`` the scale is 1, so
    the weights are the real shares.
    """

    def test_integers_sum_to_machine_count(self):
        integers, _ = ranked_shares([33.4, 33.3, 33.3], 100, 1.0)
        assert sum(integers) == 100
        assert all(isinstance(value, int) for value in integers)

    def test_largest_remainder_wins_the_leftover(self):
        integers, fractions = ranked_shares([1.6, 1.4], 3, 1.0)
        assert fractions == [1.6, 1.4]
        assert integers == [2, 1]

    def test_zero_fractional_share_stays_zero(self):
        integers, fractions = ranked_shares([1.0, 1.0], 10, 0.5)
        assert fractions == [10.0, 0.0]
        assert integers[1] == 0

    def test_ties_favour_higher_priority(self):
        integers, fractions = ranked_shares([1.5, 1.5], 3, 1.0)
        assert fractions == [1.5, 1.5]
        assert integers[0] == 2
        assert integers[1] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ranked_shares([1.0], 0, 0.5)
        with pytest.raises(ValueError):
            ranked_shares([1.0], 10, 0.0)


# The dict pipeline ranked_shares replaced, as it stood: its reference.


def reference_fractional_shares(
    jobs_by_priority: Sequence[Tuple[int, float]], num_machines: int, epsilon: float
) -> Dict[int, float]:
    weights = [weight for _, weight in jobs_by_priority]
    total_weight = float(sum(weights))
    threshold = (1.0 - epsilon) * total_weight
    shares: Dict[int, float] = {}
    cumulative = 0.0
    cumulative_from_low: List[float] = [0.0] * len(jobs_by_priority)
    for index in range(len(jobs_by_priority) - 1, -1, -1):
        cumulative += weights[index]
        cumulative_from_low[index] = cumulative
    scale = num_machines / (epsilon * total_weight)
    for index, (job_id, weight) in enumerate(jobs_by_priority):
        w_i = cumulative_from_low[index]
        if w_i - weight >= threshold:
            shares[job_id] = weight * scale
        elif w_i < threshold:
            shares[job_id] = 0.0
        else:
            shares[job_id] = (w_i - threshold) * scale
    return shares


def reference_integer_shares(
    fractional: Dict[int, float], ordered_job_ids: Sequence[int], num_machines: int
) -> Dict[int, int]:
    floors = {job_id: int(fractional.get(job_id, 0.0)) for job_id in ordered_job_ids}
    remainders = {
        job_id: fractional.get(job_id, 0.0) - floors[job_id]
        for job_id in ordered_job_ids
    }
    leftover = num_machines - sum(floors.values())
    if leftover < 0:
        leftover = 0
    by_remainder = sorted(
        (job_id for job_id in ordered_job_ids if fractional.get(job_id, 0.0) > 0.0),
        key=lambda job_id: -remainders[job_id],
    )
    for job_id in by_remainder:
        if leftover <= 0:
            break
        floors[job_id] += 1
        leftover -= 1
    return floors


@st.composite
def ranked_weights(draw):
    """Positive weights: arbitrary ratios up to 1e6, equal ones, or a coarse grid."""
    count = draw(st.integers(min_value=1, max_value=40))
    kind = draw(st.sampled_from(["ratios", "equal", "grid", "integers"]))
    if kind == "ratios":
        low = draw(st.floats(min_value=1e-3, max_value=1e3))
        return [
            low * draw(st.floats(min_value=1.0, max_value=1e6)) for _ in range(count)
        ]
    if kind == "equal":
        return [draw(st.floats(min_value=1e-3, max_value=1e3))] * count
    if kind == "grid":
        # Few distinct values: many equal remainders.
        return [draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])) for _ in range(count)]
    return [draw(st.integers(min_value=1, max_value=10)) for _ in range(count)]


class TestRankedSharesMatchTheDictPipeline:
    @given(
        weights=ranked_weights(),
        machines=st.integers(min_value=1, max_value=12_000),
        epsilon=st.one_of(
            st.just(1.0),
            st.sampled_from([0.25, 0.5, 0.6, 0.75]),
            st.floats(min_value=1e-6, max_value=1.0),
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_one_pass_equals_fractional_then_integer_shares(
        self, weights, machines, epsilon
    ):
        pairs = list(enumerate(weights))
        fractional = reference_fractional_shares(pairs, machines, epsilon)
        integer = reference_integer_shares(fractional, range(len(pairs)), machines)
        shares, fractions = ranked_shares(weights, machines, epsilon)
        assert [fraction.hex() for fraction in fractions] == [
            fractional[index].hex() for index in range(len(pairs))
        ]
        assert shares == [integer[index] for index in range(len(pairs))]
        assert sum(shares) == machines
        # A zero g_i(l) stays zero; a positive one may round down to zero
        # (weights [1, 1], M = 1, epsilon = 1 give [1, 0]).
        for share, fraction in zip(shares, fractions):
            if fraction == 0.0:
                assert share == 0
            else:
                assert int(fraction) <= share <= int(fraction) + 1


# PaperCloning.expand_grant as it stood before its one-pass rewrite.


def reference_expand_grant(policy, candidates, machines, rng):
    def copies_for(task, desired):
        copies = desired if policy.enabled else 1
        if policy.max_copies_per_task > 0:
            existing = task.num_active_copies
            copies = min(copies, max(0, policy.max_copies_per_task - existing))
        return copies

    if not candidates or machines <= 0:
        return [], 0
    count = len(candidates)
    requests = []
    used = 0
    if machines >= count:
        base_copies = machines // count
        extras = machines - base_copies * count
        extra_indices = set(
            int(i) for i in rng.choice(count, size=extras, replace=False)
        ) if extras > 0 else set()
        for index, task in enumerate(candidates):
            desired = base_copies + (1 if index in extra_indices else 0)
            copies = copies_for(task, desired)
            if copies <= 0:
                continue
            requests.append(LaunchRequest(task=task, num_copies=copies))
            used += copies
            policy.copies_launched += copies - 1
    else:
        chosen = rng.choice(count, size=machines, replace=False)
        for index in sorted(int(i) for i in chosen):
            requests.append(LaunchRequest(task=candidates[index], num_copies=1))
            used += 1
    return requests, used


@pytest.mark.parametrize("enabled", [True, False], ids=["cloning", "no-cloning"])
@pytest.mark.parametrize("cap", [0, 1, 2, 3], ids=lambda cap: f"cap{cap}")
def test_expand_grant_matches_the_per_task_walk(cap, enabled):
    job = make_job(0, 1.0, tasks=7)
    candidates = job.stage_tasks[0]
    # Some candidates already run copies, so the cap bites unevenly.
    for index, task in enumerate(candidates[:3]):
        for copy_id in range(index + 1):
            task.add_copy(TaskCopy(copy_id=copy_id, task=task, machine_id=copy_id,
                                   launch_time=0.0, workload=1.0))
    for machines in (0, 1, 3, 6, 7, 9, 15, 22, 50):
        for seed in range(3):
            new_policy = PaperCloning(enabled=enabled, max_copies_per_task=cap)
            old_policy = PaperCloning(enabled=enabled, max_copies_per_task=cap)
            new_rng = np.random.default_rng(seed)
            old_rng = np.random.default_rng(seed)
            requests, used = new_policy.expand_grant(job, candidates, machines, new_rng)
            expected, expected_used = reference_expand_grant(
                old_policy, candidates, machines, old_rng
            )
            assert [(r.task, r.num_copies) for r in requests] == [
                (r.task, r.num_copies) for r in expected
            ]
            assert used == expected_used
            assert new_policy.copies_launched == old_policy.copies_launched
            assert new_rng.bit_generator.state == old_rng.bit_generator.state


class TestEpsilonShares:
    def test_end_to_end_sums_to_m(self):
        jobs = [make_job(0, 2.0, tasks=1), make_job(1, 1.0, tasks=4),
                make_job(2, 1.0, tasks=8)]
        shares = epsilon_shares(jobs, num_machines=50, epsilon=0.6, r=0.0)
        assert sum(shares.values()) == 50

    def test_highest_priority_job_gets_largest_share(self):
        # Job 0 has one short task -> highest w/U priority.
        jobs = [make_job(0, 1.0, tasks=1), make_job(1, 1.0, tasks=10)]
        shares = epsilon_shares(jobs, num_machines=30, epsilon=0.6, r=0.0)
        assert shares[0] > shares[1]

    def test_epsilon_one_matches_weight_ratio(self):
        jobs = [make_job(0, 3.0, tasks=2), make_job(1, 1.0, tasks=2)]
        shares = epsilon_shares(jobs, num_machines=40, epsilon=1.0, r=0.0)
        assert shares[0] == 30
        assert shares[1] == 10

    def test_empty_job_list(self):
        assert epsilon_shares([], 10, 0.5, 0.0) == {}
