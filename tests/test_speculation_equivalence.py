"""Differential lockdown of the lean LATE and Mantri speculation passes.

``SchedulerView.running_copies`` reads each machine's resident copy, and
each speculation policy makes one pass of its own per decision point:
LATE collects every estimable rate and computes ``time_left`` only for
the possible candidates at or below its threshold, and Mantri's
:meth:`SpeculationEstimator.straggler_estimates` skips every copy whose
task is at the copy cap or whose ``(job, stage)`` has fewer than
``min_samples`` samples before doing any float work.  The reference
policies below keep the earlier implementation verbatim: a scan of every
task of every alive job for the running copies, per-copy estimator
arithmetic through ``TaskCopy.elapsed`` / ``TaskCopy.progress``,
``np.percentile`` for LATE's threshold and Mantri samples keyed by
``(job, phase)``.  Every case must produce a byte-identical
:class:`~repro.simulation.metrics.SimulationResult` fingerprint under both.

Small deterministic-duration traces make exact ties in time left common,
so the order ties break in is part of the result: the new policies sort
by the explicit key ``(-time_left, job arrival index, stage, task index,
copy id)``, which reproduces the old scan order.  ``TIE_SENSITIVE_CASES``
were found by search as cases whose result changes when that key is
reduced to ``-time_left`` over machine order, for both policies (Mantri
needs slow machines to speculate at all on deterministic durations).

The boundary cases check, by instrumenting the run, that the decisions
they compare really reach each edge of the lean passes: a ``(job, stage)``
one sample short of ``min_samples`` and one exactly at it, tasks one copy
below the cap and at it, LATE decisions where no copy has reached
``min_progress``, and copies slowed mid-run by straggler onsets.  In an
engine run a started copy never outlives its workload (its finish, or its
task's completion, ends it first), so the ``progress = 1`` clamp is
reached only by the decision-level property, which builds cluster states
directly and compares the two policies' launch requests.

The percentile helper is checked against ``np.percentile`` bit for bit by
a hypothesis property.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.stragglers import DynamicStragglers
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
from repro.workload.job import Job, JobSpec, StageSpec, TaskCopy
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
    """Mantri's earlier per-copy decision, samples keyed by ``(job, stage > 0)``.

    The key is the two-phase partition (stage 0, then every later stage
    together) that this reference was frozen with.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.phase_samples = {}

    def on_task_completion(self, task, time):
        winner = next((c for c in task.copies if c.is_finished), None)
        if winner is None or winner.start_time is None:
            return
        bucket = self.phase_samples.setdefault(
            (task.job.job_id, task.stage > 0),
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
            durations = self.phase_samples.get((task.job.job_id, task.stage > 0))
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

#: Far beyond every run below: an engine fault that loses a decision fails
#: the run instead of ticking forever.
MAX_TIME = 1e6

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
    # Slowdown onsets and recoveries re-estimate running copies' workloads
    # mid-run, so a copy's progress rate changes while it runs.
    "stragglers": ScenarioSpec(
        stragglers=DynamicStragglers(onset_rate=0.1, mean_duration=5.0, factor=4.0)
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


def _run(policy, ordering, scenario, seed, shape="two-phase", **options):
    trace, machines = small_trace(seed, shape)
    scheduler = ComposedScheduler(ordering, "greedy", policy, **options)
    return run_simulation(
        trace, scheduler, num_machines=machines, seed=seed,
        scenario=SCENARIOS[scenario], max_time=MAX_TIME, check_invariants=True,
    )


def assert_identical(policy, ordering, scenario, seed, shape="two-phase",
                     kwargs=None, probe=None, **options):
    """The new policy (or ``probe``, an instance of a subclass of it built
    from the same ``kwargs``) and its reference give byte-identical results."""
    new_cls, reference_cls = {
        "late": (LATESpeculation, ReferenceLATE),
        "mantri": (MantriSpeculation, ReferenceMantri),
    }[policy]
    if kwargs is None:
        kwargs = LATE_KWARGS if policy == "late" else MANTRI_KWARGS
    new = _run(probe or new_cls(**kwargs), ordering, scenario, seed, shape,
               **options)
    reference = _run(reference_cls(**kwargs), ordering, scenario, seed, shape,
                     **options)
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


# --------------------------------------------------------------- boundaries


class BoundaryLATE(LATESpeculation):
    """LATE, counting the decisions at which no estimable copy has reached
    ``min_progress`` and the copies a straggler slowdown stretched."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.edges = Counter()

    def _candidates(self, view):
        now = view.time
        progress = []
        for copy in view.running_copies():
            start = copy.start_time
            if start is None or now - start < self.estimator.min_elapsed:
                continue
            if now > start:
                progress.append(min(1.0, (now - start) / copy.workload))
            if copy.workload != copy.work / view.machine_speed(copy.machine_id):
                self.edges["slowed copy"] += 1
        if progress and max(progress) < self.estimator.min_progress:
            self.edges["none at min_progress"] += 1
        return super()._candidates(view)


class BoundaryMantri(MantriSpeculation):
    """Mantri, counting running copies at the edges of its structural checks."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.edges = Counter()

    def _speculate(self, view, free):
        if free > 0:
            min_samples = self.estimator.min_samples
            cap = self.max_copies_per_task
            for copy in view.running_copies():
                task = copy.task
                count = len(self.estimator.recorded_durations(task.job, task.stage))
                if count == min_samples - 1:
                    self.edges["one sample short"] += 1
                elif count == min_samples:
                    self.edges["at min_samples"] += 1
                if count >= min_samples:
                    if task.num_active_copies == cap - 1:
                        self.edges["one copy below cap"] += 1
                    elif task.num_active_copies == cap:
                        self.edges["at cap"] += 1
        return super()._speculate(view, free)


#: Mantri with a copy cap of 3, so a task one copy below the cap already
#: holds a duplicate, and a low delta so duplicates are common.
BOUNDARY_MANTRI_KWARGS = {
    "tick_interval": 1.0, "min_samples": 3, "max_copies_per_task": 3, "delta": 0.1,
}
#: LATE with a high min_progress, so many decisions see no possible candidate.
BOUNDARY_LATE_KWARGS = {"speculative_cap": 0.5, "tick_interval": 1.0, "min_progress": 0.6}


@pytest.mark.parametrize("scenario", ["bimodal", "failures", "stragglers"])
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_mantri_sample_and_cap_boundaries_match_reference(ordering, scenario):
    edges = Counter()
    for seed in range(6):
        probe = BoundaryMantri(**BOUNDARY_MANTRI_KWARGS)
        assert_identical("mantri", ordering, scenario, seed,
                         kwargs=BOUNDARY_MANTRI_KWARGS, probe=probe)
        edges += probe.edges
    assert set(edges) == {
        "one sample short", "at min_samples", "one copy below cap", "at cap"
    }


@pytest.mark.parametrize("scenario", ["uniform", "stragglers"])
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_late_min_progress_boundary_matches_reference(ordering, scenario):
    edges = Counter()
    for seed in range(4):
        probe = BoundaryLATE(**BOUNDARY_LATE_KWARGS)
        assert_identical("late", ordering, scenario, seed,
                         kwargs=BOUNDARY_LATE_KWARGS, probe=probe)
        edges += probe.edges
    assert edges["none at min_progress"] > 0
    assert (edges["slowed copy"] > 0) == (scenario == "stragglers")


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("policy", ["late", "mantri"])
def test_matches_reference_with_stragglers_and_parked_copies(policy, seed):
    assert_identical(policy, "srpt", "stragglers", seed, allow_early_reduce=True)


# ---------------------------------------------------------- decision level

#: The view time of every built cluster state, and the values its copies
#: and samples draw from: small sets, so time left ties exactly with
#: ``2 d`` and between copies, and a copy started at 0 with workload 10
#: has outlived its workload (progress clamps to 1).
NOW = 12.0
STARTS = (0.0, 2.0, 8.0, 11.5, 12.0)
WORKLOADS = (4.0, 10.0, 16.0, 20.0, 48.0)
DURATIONS = (1.0, 2.0, 4.0, 6.0)


class _StateView:
    """The view members both policy generations read, over a built state."""

    def __init__(self, jobs, copies, num_machines):
        self.time = NOW
        self.alive_jobs = jobs
        self.num_machines = num_machines
        self._copies = copies

    def running_copies(self):
        return list(self._copies)


def _build_state(plans):
    """Jobs in arrival order, their running copies and their finished tasks.

    ``plans`` holds one ``(maps, reduces, tasks)`` per job, with one entry
    per task in stage order: ``("pending",)``, ``("finished", duration)`` or
    ``("running", copies)`` where each copy is ``None`` (parked) or
    ``(start, workload)``.  Copy ids grow in creation order.
    """
    jobs, running, finished = [], [], []
    copy_ids = iter(range(10_000))
    for job_id, (maps, reduces, tasks) in enumerate(plans):
        job = Job.from_spec(JobSpec(
            job_id=job_id, arrival_time=0.0, weight=1.0, num_map_tasks=maps,
            num_reduce_tasks=reduces, map_duration=Deterministic(1.0),
            reduce_duration=Deterministic(1.0),
        ))
        job.arrival_index = job_id
        jobs.append(job)
        for task, (kind, *detail) in zip(job.all_tasks(), tasks):
            if kind == "finished":
                copy = TaskCopy(next(copy_ids), task, machine_id=-1,
                                launch_time=0.0, workload=detail[0], start_time=0.0)
                task.add_copy(copy)
                copy.finish(detail[0])
                finished.append(task)
            elif kind == "running":
                for plan in detail[0]:
                    start, workload = plan if plan is not None else (None, 1.0)
                    copy = TaskCopy(next(copy_ids), task, machine_id=-1,
                                    launch_time=start or 0.0, workload=workload,
                                    start_time=start)
                    task.add_copy(copy)
                    running.append(copy)
    return jobs, running, finished


@st.composite
def cluster_states(draw):
    """``plans`` for :func:`_build_state`: one to three two-phase jobs."""
    copy_plan = st.none() | st.tuples(st.sampled_from(STARTS), st.sampled_from(WORKLOADS))
    task_plan = (
        st.just(("pending",))
        | st.tuples(st.just("finished"), st.sampled_from(DURATIONS))
        | st.tuples(st.just("running"), st.lists(copy_plan, min_size=1, max_size=3))
    )
    plans = []
    for _ in range(draw(st.integers(1, 3))):
        maps, reduces = draw(st.integers(1, 5)), draw(st.integers(0, 2))
        tasks = draw(st.lists(task_plan, min_size=maps + reduces, max_size=maps + reduces))
        plans.append((maps, reduces, tasks))
    return plans


#: ``(min_samples, cap, delta, min_progress, min_elapsed, percentile)``.
KNOBS = st.tuples(
    st.integers(1, 3), st.integers(2, 3), st.sampled_from([0.1, 0.25, 0.5]),
    st.sampled_from([0.05, 0.3, 0.6]), st.sampled_from([0.5, 1.0, 4.0]),
    st.sampled_from([25.0, 50.0, 75.0]),
)

_RUN = ("running", [(0.0, 48.0)])
_DONE = ("finished", 1.0)


@settings(max_examples=300, deadline=None)
# One (job, stage) one sample short of min_samples, one exactly at it.
@example(plans=[(4, 0, [_DONE, _DONE, _RUN, _RUN]), (4, 0, [_DONE, _DONE, _DONE, _RUN])],
         knobs=(3, 2, 0.25, 0.05, 1.0, 25.0), free=2, order_seed=0)
# A task one copy below a cap of 3 and one at it, in a sampled stage.
@example(plans=[(3, 0, [_DONE, ("running", [(0.0, 48.0), (2.0, 48.0)]),
                        ("running", [(0.0, 48.0), (2.0, 48.0), (8.0, 48.0)])])],
         knobs=(1, 3, 0.25, 0.05, 1.0, 50.0), free=3, order_seed=1)
# No copy has reached min_progress.
@example(plans=[(3, 1, [("running", [(8.0, 48.0)]), ("running", [(2.0, 48.0)]),
                        _DONE, ("running", [None])])],
         knobs=(1, 2, 0.1, 0.6, 1.0, 75.0), free=2, order_seed=2)
# A copy that outlived its workload: its progress clamps to 1, which
# lowers its rate to 1 / elapsed and makes it LATE's only candidate.
@example(plans=[(2, 0, [("running", [(0.0, 10.0)]), ("running", [(2.0, 10.0)])])],
         knobs=(1, 2, 0.1, 0.05, 1.0, 25.0), free=2, order_seed=3)
@given(plans=cluster_states(), knobs=KNOBS, free=st.integers(1, 4),
       order_seed=st.integers(0, 2**16))
def test_decisions_match_reference(plans, knobs, free, order_seed):
    min_samples, cap, delta, min_progress, min_elapsed, percentile = knobs
    jobs, running, finished = _build_state(plans)
    random.Random(order_seed).shuffle(running)  # machine order
    view = _StateView(jobs, running, num_machines=len(running) + free)
    progress = {"min_progress": min_progress, "min_elapsed": min_elapsed}
    late = {"slow_task_percentile": percentile, "speculative_cap": 0.5, **progress}
    mantri = {"delta": delta, "max_copies_per_task": cap, "min_samples": min_samples,
              **progress}
    for new, reference in (
        (LATESpeculation(**late), ReferenceLATE(**late)),
        (MantriSpeculation(**mantri), ReferenceMantri(**mantri)),
    ):
        for task in finished:
            new.on_task_completion(task, task.copies[0].finish_time)
            reference.on_task_completion(task, task.copies[0].finish_time)
        got = [(r.task.task_id, r.num_copies) for r in new._speculate(view, free)]
        want = [(r.task.task_id, r.num_copies) for r in reference._speculate(view, free)]
        assert got == want
        assert new.copies_launched == reference.copies_launched


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
