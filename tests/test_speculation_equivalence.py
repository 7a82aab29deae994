"""Differential lockdown of the one-pass LATE and Mantri speculation rules.

``SchedulerView.running_copies`` reads each machine's resident copy, and
both speculation policies make a single :meth:`SpeculationEstimator
.estimate` pass per decision point.  The reference policies below keep the
earlier implementation verbatim: a scan of every task of every alive job
for the running copies, per-copy estimator arithmetic through
``TaskCopy.elapsed`` / ``TaskCopy.progress``, ``np.percentile`` for
LATE's threshold and Mantri samples keyed by ``(job, phase)``.  Every case must
produce a byte-identical :class:`~repro.simulation.metrics.SimulationResult`
fingerprint under both.

Small deterministic-duration traces make exact ties in time left common,
so the order ties break in is part of the result: the new policies sort
by the explicit key ``(-time_left, job arrival index, stage, task index,
copy id)``, which reproduces the old scan order.  ``TIE_SENSITIVE_CASES``
were found by search as cases whose result changes when that key is
reduced to ``-time_left`` over machine order, for both policies (Mantri
needs slow machines to speculate at all on deterministic durations).

The percentile helper is checked against ``np.percentile`` bit for bit by
a hypothesis property.
"""

from __future__ import annotations

import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.policies.redundancy import (
    LATESpeculation,
    MantriSpeculation,
    _linear_percentile,
)
from repro.policies.speculation import SpeculationEstimator
from repro.scenarios import BimodalSpeeds, MachineFailures, ScenarioSpec
from repro.simulation import run_simulation
from repro.simulation.scheduler_api import ComposedScheduler, LaunchRequest
from repro.workload.distributions import Deterministic
from repro.workload.job import JobSpec, StageSpec
from repro.workload.trace import Trace

# --------------------------------------------------------------- reference


def _scanned_running_copies(view):
    """The earlier view: every active copy of every alive job, in job order."""
    for job in view.alive_jobs:
        for task in job.all_tasks():
            for copy in task.copies:
                if copy.is_active:
                    yield copy


def _remaining_time(view, copy, estimator):
    """The earlier per-copy ``t_rem`` estimate."""
    if not copy.is_active or copy.is_blocked:
        return None
    elapsed = copy.elapsed(view.time)
    progress = copy.progress(view.time)
    if elapsed < estimator.min_elapsed or progress < estimator.min_progress:
        return None
    return elapsed * (1.0 - progress) / progress


class ReferenceLATE(LATESpeculation):
    """LATE's earlier two-scan decision with ``np.percentile``."""

    def _speculate(self, view, free):
        if free <= 0:
            return []
        budget = min(free, int(self.speculative_cap * view.num_machines))
        if budget <= 0:
            return []
        rates = {}
        for copy in _scanned_running_copies(view):
            elapsed = copy.elapsed(view.time)
            if elapsed < self.estimator.min_elapsed:
                continue
            rates[id(copy)] = copy.progress(view.time) / elapsed
        if not rates:
            return []
        threshold = float(
            np.percentile(list(rates.values()), self.slow_task_percentile)
        )
        candidates = []
        for copy in _scanned_running_copies(view):
            key = id(copy)
            if key not in rates or rates[key] > threshold:
                continue
            if copy.task.num_active_copies >= 2:
                continue
            time_left = _remaining_time(view, copy, self.estimator)
            if time_left is None:
                continue
            candidates.append((-time_left, copy))
        candidates.sort(key=lambda item: item[0])
        requests = []
        duplicated = set()
        for _, copy in candidates:
            if budget <= 0:
                break
            task = copy.task
            if id(task) in duplicated:
                continue
            requests.append(LaunchRequest(task=task, num_copies=1))
            duplicated.add(id(task))
            self.copies_launched += 1
            budget -= 1
        return requests


class ReferenceMantri(MantriSpeculation):
    """Mantri's earlier per-copy decision, samples keyed by ``(job, phase)``."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.phase_samples = {}

    def on_task_completion(self, task, time):
        winner = next((c for c in task.copies if c.is_finished), None)
        if winner is None or winner.start_time is None:
            return
        bucket = self.phase_samples.setdefault(
            (task.job.job_id, task.phase),
            deque(maxlen=SpeculationEstimator.max_samples),
        )
        bucket.append(winner.finish_time - winner.start_time)

    def _speculate(self, view, free):
        if free <= 0:
            return []
        scored = []
        for copy in _scanned_running_copies(view):
            task = copy.task
            if task.num_active_copies >= self.max_copies_per_task:
                continue
            t_rem = _remaining_time(view, copy, self.estimator)
            if t_rem is None:
                continue
            durations = self.phase_samples.get((task.job.job_id, task.phase))
            if durations is None or len(durations) < self.estimator.min_samples:
                continue
            hits = sum(1 for duration in durations if 2.0 * duration < t_rem)
            if hits / len(durations) <= self.delta:
                continue
            scored.append((-t_rem, copy))
        scored.sort(key=lambda item: item[0])
        requests = []
        duplicated = set()
        for _, copy in scored:
            if free <= 0:
                break
            task = copy.task
            if id(task) in duplicated:
                continue
            requests.append(LaunchRequest(task=task, num_copies=1))
            duplicated.add(id(task))
            self.copies_launched += 1
            free -= 1
        return requests


# ------------------------------------------------------------------ cases

#: Policy parameters of every case: a short tick and a generous cap make
#: the small traces speculate often.
LATE_KWARGS = {"speculative_cap": 0.5, "tick_interval": 1.0}
MANTRI_KWARGS = {"tick_interval": 1.0, "min_samples": 2}

SCENARIOS = {
    "uniform": None,
    "bimodal": ScenarioSpec(
        speeds=BimodalSpeeds(slow_fraction=0.3, slow_speed=0.25)
    ),
    # Failure kills and relaunches put copies of one stage out of task
    # index order in launch order.
    "failures": ScenarioSpec(
        speeds=BimodalSpeeds(slow_fraction=0.3, slow_speed=0.25),
        failures=MachineFailures(rate=0.01, mean_repair=5.0),
    ),
}


def small_trace(seed, shape="two-phase"):
    """A small trace of deterministic-duration jobs, and its machine count.

    Integer arrival times and a handful of durations make exact ties in
    progress and time left common.  Job ids are shuffled, so id order is
    not arrival order.  ``shape="diamond"`` gives every job a fan-out /
    fan-in stage DAG whose two middle stages run side by side.
    """
    rng = random.Random(seed)
    num_jobs = rng.randint(3, 8)
    job_ids = rng.sample(range(100), num_jobs)
    specs = []
    arrival = 0.0
    for job_id in job_ids:
        arrival += rng.choice((0.0, 1.0, 2.0, 5.0))
        first = Deterministic(rng.choice((2.0, 4.0, 10.0)))
        later = Deterministic(rng.choice((3.0, 5.0)))
        if shape == "diamond":
            stages = (
                StageSpec("split", rng.randint(1, 4), first),
                StageSpec("left", rng.randint(1, 3), later, deps=(0,)),
                StageSpec("right", rng.randint(1, 3), later, deps=(0,)),
                StageSpec("join", rng.randint(0, 2), first, deps=(1, 2)),
            )
            specs.append(JobSpec.from_stages(
                job_id=job_id, arrival_time=arrival,
                weight=float(rng.randint(1, 3)), stages=stages,
            ))
            continue
        specs.append(
            JobSpec(
                job_id=job_id,
                arrival_time=arrival,
                weight=float(rng.randint(1, 3)),
                num_map_tasks=rng.randint(1, 6),
                num_reduce_tasks=rng.randint(0, 3),
                map_duration=first,
                reduce_duration=later,
            )
        )
    return Trace(specs), rng.randint(4, 12)


def _run(policy_cls, ordering, scenario, seed, shape="two-phase", **options):
    trace, machines = small_trace(seed, shape)
    kwargs = LATE_KWARGS if issubclass(policy_cls, LATESpeculation) else MANTRI_KWARGS
    scheduler = ComposedScheduler(
        ordering, "greedy", policy_cls(**kwargs), **options
    )
    return run_simulation(
        trace, scheduler, num_machines=machines, seed=seed,
        scenario=SCENARIOS[scenario], check_invariants=True,
    )


def assert_identical(policy, ordering, scenario, seed, shape="two-phase", **options):
    """The new policy and its reference give byte-identical results."""
    new_cls, reference_cls = {
        "late": (LATESpeculation, ReferenceLATE),
        "mantri": (MantriSpeculation, ReferenceMantri),
    }[policy]
    new = _run(new_cls, ordering, scenario, seed, shape, **options)
    reference = _run(reference_cls, ordering, scenario, seed, shape, **options)
    assert new.redundant_copies_launched == reference.redundant_copies_launched
    assert new.fingerprint() == reference.fingerprint()
    return new


ORDERINGS = ("fair", "fifo", "srpt")

#: (policy, ordering, scenario, seed, shape) cases whose result changes when
#: the tie key is reduced to ``-time_left`` over machine order.  Most also
#: change when it is reduced to ``(-time_left, copy id)``, or when the job
#: arrival index is dropped from it or replaced by the job id.
TIE_SENSITIVE_CASES = (
    ("late", "fair", "uniform", 8, "two-phase"),
    ("late", "srpt", "uniform", 24, "two-phase"),
    ("late", "fifo", "uniform", 14, "two-phase"),
    ("late", "fair", "bimodal", 34, "two-phase"),
    ("late", "fifo", "bimodal", 13, "two-phase"),
    ("late", "srpt", "failures", 54, "two-phase"),
    ("late", "srpt", "uniform", 29, "diamond"),
    ("late", "fifo", "uniform", 48, "diamond"),
    ("mantri", "fair", "bimodal", 262, "two-phase"),
    ("mantri", "srpt", "bimodal", 182, "two-phase"),
    ("mantri", "fair", "bimodal", 238, "two-phase"),
    ("mantri", "srpt", "failures", 533, "two-phase"),
    ("mantri", "fair", "failures", 197, "two-phase"),
    ("mantri", "fifo", "failures", 150, "two-phase"),
)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("scenario", ["uniform", "bimodal"])
@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("policy", ["late", "mantri"])
def test_matches_reference(policy, ordering, scenario, seed):
    assert_identical(policy, ordering, scenario, seed)


@pytest.mark.parametrize(
    "case", TIE_SENSITIVE_CASES, ids=lambda case: "-".join(map(str, case))
)
def test_tie_sensitive_case_matches_reference(case):
    policy, ordering, scenario, seed, shape = case
    result = assert_identical(policy, ordering, scenario, seed, shape)
    assert result.redundant_copies_launched > 0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("policy", ["late", "mantri"])
def test_matches_reference_with_failures_and_parked_copies(policy, seed):
    # Failure kills free machines mid-copy; allow_early_reduce parks reduce
    # copies (on a machine, no progress) until their map stage completes.
    assert_identical(policy, "fair", "failures", seed, allow_early_reduce=True)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("scenario", ["uniform", "bimodal"])
def test_late_matches_reference_on_stage_dags(scenario, seed):
    # Side-by-side stages; LATE reads no samples, so the phase-keyed
    # reference stays exact on DAG jobs.
    assert_identical("late", "srpt", scenario, seed, "diamond")


@settings(max_examples=300, deadline=None)
@example(values=[3.5], q=25.0)
@example(values=[1.0, 2.0, 2.0, 2.0, 7.0], q=50.0)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=40,
    )
    | st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.5]), min_size=1, max_size=12),
    q=st.floats(min_value=0.0, max_value=100.0, exclude_min=True, exclude_max=True)
    | st.sampled_from([25.0, 50.0, 75.0, 99.0]),
)
def test_linear_percentile_matches_numpy_bit_for_bit(values, q):
    # Zeros of both signs compare equal, and numpy's partition leaves equal
    # values in unspecified order, so signed zeros are normalised first.
    values = [value + 0.0 for value in values]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(np.percentile(values, q))
    got = _linear_percentile(values, q)
    assert isinstance(got, float)
    assert got.hex() == expected.hex() or (math.isnan(got) and math.isnan(expected))
