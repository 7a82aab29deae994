"""Quiet ticks: LATE and Mantri decision points skipped by certificate.

When a decision point launches nothing, LATE's and Mantri's passes leave a
certificate, ``quiet_until``: a time before which repeating the decision
in the same state provably launches nothing.  The engine then skips the
tick-only decision points before that time (the tick is still popped and
re-armed).  These tests pin the skip from five sides:

* long-duration differential cases, where a copy reaches ``min_progress``
  well after ``min_elapsed`` (``0.05 * workload > min_elapsed``), so the
  ``min_progress`` edge of the certificate is the one that binds;
* a decision-level property over the speculation suite's built cluster
  states: whenever a pass launches nothing and certifies ``X``, rerunning
  it at later times in ``(now, X)`` launches nothing either.  The later
  times include the floats just after ``now`` and just before ``X``,
  where a computed rate, progress or time left can still move by an ulp;
* the speculation suite's reference policies compute no certificate, so
  the engine never skips them and they stay an oracle of the unskipped
  engine;
* a composition whose allocation reads the clock (delay scheduling)
  forwards no certificate;
* on the policy-grid LATE and Mantri cells, the ``schedule()`` calls
  counted by an instance-level wrapper fall, with identical fingerprints.

Runs pass a ``max_time``, so a skip that loses a decision fails instead of
ticking forever.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.policies.redundancy import LATESpeculation, MantriSpeculation
from repro.policies.speculation import QUIET_MARGIN
from repro.scenarios import ScenarioSpec, TopologySpec
from repro.simulation import run_simulation
from repro.simulation.experiment_runner import _resolve_trace
from repro.simulation.scheduler_api import ComposedScheduler
from repro.study import load_study
from repro.workload.distributions import Deterministic, LogNormal
from repro.workload.job import JobSpec
from repro.workload.trace import Trace

from test_speculation_equivalence import (
    KNOBS,
    NOW,
    SCENARIOS,
    ReferenceLATE,
    ReferenceMantri,
    _build_state,
    _StateView,
    cluster_states,
    small_trace,
)

#: Far beyond every run below: a lost decision fails here, not by hanging.
MAX_TIME = 1e6

POLICY_GRID = Path(__file__).resolve().parents[1] / "examples" / "studies" / "policy_grid.toml"


def counted(scheduler):
    """``scheduler`` with an instance-level ``schedule()`` wrapper; returns the
    list of ``(time, launched, quiet_until)`` per call."""
    calls = []
    inner = scheduler.schedule

    def schedule(view):
        requests = inner(view)
        calls.append((view.time, len(requests), scheduler.quiet_until))
        return requests

    object.__setattr__(scheduler, "schedule", schedule)
    return calls


# ------------------------------------------------------- long-duration traces


def long_trace(seed):
    """Small trace whose tasks run 40-400 s, and its machine count.

    With ``min_elapsed = 1`` and ``min_progress = 0.05`` a copy becomes
    estimable long before it reaches ``min_progress``, so that edge is the
    one a certificate stops at.  Deterministic durations keep exact ties
    in rate and time left; log-normal ones spread them.
    """
    rng = random.Random(seed)
    specs = []
    arrival = 0.0
    for job_id in rng.sample(range(100), rng.randint(3, 7)):
        arrival += rng.choice((0.0, 3.0, 10.0, 40.0))
        first, later = (
            (Deterministic(rng.choice((40.0, 100.0, 200.0))), Deterministic(60.0))
            if rng.random() < 0.5
            else (LogNormal(rng.choice((60.0, 150.0)), 40.0), LogNormal(80.0, 30.0))
        )
        specs.append(JobSpec(
            job_id=job_id, arrival_time=arrival, weight=float(rng.randint(1, 3)),
            num_map_tasks=rng.randint(1, 6), num_reduce_tasks=rng.randint(0, 3),
            map_duration=first, reduce_duration=later,
        ))
    return Trace(specs), rng.randint(4, 10)


#: A two-sample minimum and a low delta make Mantri duplicate often; LATE
#: gets a generous cap.  Both tick every second.
LONG_KWARGS = {
    "late": {"speculative_cap": 0.5, "tick_interval": 1.0},
    "mantri": {"tick_interval": 1.0, "min_samples": 2, "delta": 0.1},
}


class EdgeProbe:
    """Counts the calls whose certificate stops at a ``min_progress`` edge."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.edges = Counter()

    def _speculate(self, view, free):
        requests = super()._speculate(view, free)
        quiet = self.quiet_until
        if not requests and view.time < quiet < math.inf:
            estimator = self.estimator
            for copy in view.running_copies():
                if copy.start_time is None or copy.task._num_active != 1:
                    continue
                edge = copy.start_time + estimator.min_progress * copy.workload
                if edge > view.time and quiet == edge * (1.0 - QUIET_MARGIN):
                    self.edges["min_progress edge binds"] += 1
                    break
        return requests


class LATEEdgeProbe(EdgeProbe, LATESpeculation):
    """LATE with :class:`EdgeProbe`."""


class MantriEdgeProbe(EdgeProbe, MantriSpeculation):
    """Mantri with :class:`EdgeProbe`."""


def _long_run(policy, ordering, scenario, seed):
    trace, machines = long_trace(seed)
    scheduler = ComposedScheduler(ordering, "greedy", policy)
    calls = counted(scheduler)
    result = run_simulation(
        trace, scheduler, num_machines=machines, seed=seed,
        scenario=SCENARIOS[scenario], max_time=MAX_TIME, check_invariants=True,
    )
    return result, len(calls)


@pytest.mark.parametrize("scenario", ["uniform", "bimodal", "failures", "stragglers"])
@pytest.mark.parametrize("policy", ["late", "mantri"])
def test_long_durations_match_reference(policy, scenario):
    kwargs = LONG_KWARGS[policy]
    probe_cls, reference_cls = {
        "late": (LATEEdgeProbe, ReferenceLATE),
        "mantri": (MantriEdgeProbe, ReferenceMantri),
    }[policy]
    edges = Counter()
    skipped = 0
    for ordering in ("fair", "fifo", "srpt"):
        for seed in range(4):
            probe = probe_cls(**kwargs)
            new, new_calls = _long_run(probe, ordering, scenario, seed)
            reference, reference_calls = _long_run(
                reference_cls(**kwargs), ordering, scenario, seed
            )
            assert new.fingerprint() == reference.fingerprint(), (ordering, seed)
            edges += probe.edges
            skipped += reference_calls - new_calls
    assert skipped > 0
    # Failure kills relaunch tasks late in a sampled stage, so there the
    # edge binds for Mantri too (LATE reaches it in every scenario).
    if policy == "late" or scenario == "failures":
        assert edges["min_progress edge binds"] > 0


# ------------------------------------------------------------ decision level


def later_times(now, until, fractions):
    """Times in ``(now, until)``: the 16 floats after ``now`` and the 16
    before ``until``, where a computed rate, progress or time left can still
    move by an ulp, then ``fractions`` of the way to ``until`` (to ``now +
    100`` when ``until`` is ``inf``)."""
    times = []
    for start, direction in ((now, math.inf), (until, -math.inf)):
        t = start
        for _ in range(16 if math.isfinite(start) else 0):
            t = math.nextafter(t, direction)
            times.append(t)
    horizon = (until if until < math.inf else now + 100.0) - now
    times += [now + horizon * fraction for fraction in fractions]
    return [t for t in times if now < t < until]


def _policies(knobs):
    min_samples, cap, delta, min_progress, min_elapsed, percentile = knobs
    progress = {"min_progress": min_progress, "min_elapsed": min_elapsed}
    return (
        LATESpeculation(slow_task_percentile=percentile, speculative_cap=0.5, **progress),
        MantriSpeculation(delta=delta, max_copies_per_task=cap,
                          min_samples=min_samples, **progress),
    )


#: A running copy whose time left at ``NOW`` is exactly 36 and rises by an
#: ulp two floats later, next to a finished task whose doubled duration is
#: exactly 36: the sample sits just above the copy's time left.
_AT_36 = [(2, 0, [("finished", 18.0), ("running", [(0.0, 48.0)])])]


@settings(max_examples=300, deadline=None)
@example(plans=_AT_36, knobs=(1, 2, 0.5, 0.05, 1.0, 25.0), free=1, order_seed=0,
         fractions=[0.5])
# A deterministic near-tie: both copies' rates are 1 / 48 up to an ulp, so
# the possible one (started at 7) sits an ulp above the 25th percentile at
# NOW and on it one float later.  The other reaches min_progress at 12.4.
@example(plans=[(2, 0, [("running", [(10.0, 48.0)]), ("running", [(7.0, 48.0)])])],
         knobs=(1, 2, 0.25, 0.05, 1.0, 25.0), free=2, order_seed=0, fractions=[0.5])
# A copy in a sampled stage that reaches min_elapsed at 12.5, and becomes
# every pass's candidate soon after.
@example(plans=[(2, 0, [("finished", 1.0), ("running", [(11.5, 48.0)])])],
         knobs=(1, 2, 0.1, 0.05, 1.0, 25.0), free=1, order_seed=0, fractions=[0.1])
# The float just below this copy's computed min_progress edge (8.3 + 0.6 *
# 9.9) already reads progress 0.6: the edge needs its margin.
@example(plans=[(2, 0, [("finished", 1.0), ("running", [(8.3, 9.9)])])],
         knobs=(1, 2, 0.25, 0.6, 1.0, 25.0), free=1, order_seed=0, fractions=[0.03])
# The possible copy reaches progress 1 at 13; after that its rate, 1 /
# elapsed, keeps falling until it drops below the duplicated task's 1 / 40.
@example(plans=[(2, 0, [("running", [(0.0, 13.0)]),
                        ("running", [(2.0, 40.0), (2.0, 40.0)])])],
         knobs=(1, 2, 0.25, 0.05, 1.0, 25.0), free=2, order_seed=0, fractions=[0.95])
# A copy that outlived its workload (progress clamps to 1), and one that
# has not reached min_elapsed.
@example(plans=[(3, 0, [("running", [(0.0, 10.0)]), ("running", [(2.0, 48.0)]),
                        ("running", [(11.5, 20.0)])])],
         knobs=(1, 2, 0.1, 0.05, 1.0, 25.0), free=2, order_seed=3, fractions=[0.5])
@given(plans=cluster_states(), knobs=KNOBS, free=st.integers(0, 4),
       order_seed=st.integers(0, 2**16),
       fractions=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          max_size=4))
def test_a_certified_decision_stays_quiet(plans, knobs, free, order_seed, fractions):
    jobs, running, finished = _build_state(plans)
    random.Random(order_seed).shuffle(running)  # machine order
    view = _StateView(jobs, running, num_machines=len(running) + free)
    for policy in _policies(knobs):
        for task in finished:
            policy.on_task_completion(task, task.copies[0].finish_time)
        view.time = NOW
        if policy._speculate(view, free):
            assert policy.quiet_until == -math.inf
            continue
        until = policy.quiet_until
        for time in later_times(NOW, until, fractions):
            view.time = time
            assert policy._speculate(view, free) == [], (type(policy).__name__, time, until)


def test_near_tie_leaves_no_certificate():
    # Without the margin the sample at exactly 36 would not count at NOW,
    # but two floats later the copy's computed time left is 36 + 1 ulp.
    jobs, running, finished = _build_state(_AT_36)
    view = _StateView(jobs, running, num_machines=2)
    mantri = MantriSpeculation(delta=0.5, min_samples=1)
    for task in finished:
        mantri.on_task_completion(task, task.copies[0].finish_time)
    assert mantri._speculate(view, 1) == []
    assert mantri.quiet_until == -math.inf
    view.time = math.nextafter(math.nextafter(NOW, math.inf), math.inf)
    assert len(mantri._speculate(view, 1)) == 1


# ------------------------------------------------------------ references


@pytest.mark.parametrize("scenario", ["uniform", "bimodal", "stragglers"])
@pytest.mark.parametrize("policy", ["late", "mantri"])
def test_reference_policies_are_never_skipped(policy, scenario, monkeypatch):
    reference_cls, new_cls, kwargs = {
        "late": (ReferenceLATE, LATESpeculation, LONG_KWARGS["late"]),
        "mantri": (ReferenceMantri, MantriSpeculation, LONG_KWARGS["mantri"]),
    }[policy]

    def calls_of(policy_obj, seed):
        trace, machines = small_trace(seed)
        scheduler = ComposedScheduler("srpt", "greedy", policy_obj)
        calls = counted(scheduler)
        run_simulation(trace, scheduler, num_machines=machines, seed=seed,
                       scenario=SCENARIOS[scenario], max_time=MAX_TIME)
        return calls

    for seed in range(3):
        reference = calls_of(reference_cls(**kwargs), seed)
        # The reference's _speculate leaves no certificate ...
        assert {quiet for _, _, quiet in reference} == {-math.inf}
        new = calls_of(new_cls(**kwargs), seed)
        with monkeypatch.context() as patch:
            patch.setattr(ComposedScheduler, "quiet_until", -math.inf)
            # ... so it is consulted exactly as often as an engine that
            # never skips, which is how often the new policy is consulted
            # there too.
            assert len(calls_of(reference_cls(**kwargs), seed)) == len(reference)
            assert len(calls_of(new_cls(**kwargs), seed)) == len(reference)
        assert len(new) <= len(reference)


@pytest.mark.parametrize("policy", ["late", "mantri"])
def test_clock_reading_compositions_are_never_skipped(policy):
    # Delay scheduling reads the clock: a deferred task's wait can run out
    # between two ticks.  Its composition forwards no certificate, so it is
    # consulted at every tick and matches its reference.
    new_cls, reference_cls = {
        "late": (LATESpeculation, ReferenceLATE),
        "mantri": (MantriSpeculation, ReferenceMantri),
    }[policy]
    scenario = ScenarioSpec(topology=TopologySpec(racks=2, remote_slowdown=2.0))
    for seed in range(9):
        fingerprints = []
        for cls in (new_cls, reference_cls):
            trace, machines = small_trace(seed)
            scheduler = ComposedScheduler(
                "srpt", "delay", cls(**LONG_KWARGS[policy]), locality_wait=0.5
            )
            calls = counted(scheduler)
            result = run_simulation(trace, scheduler, num_machines=machines, seed=seed,
                                    scenario=scenario, max_time=MAX_TIME)
            assert {quiet for _, _, quiet in calls} == {-math.inf}
            fingerprints.append(result.fingerprint())
        assert fingerprints[0] == fingerprints[1], seed


# ------------------------------------------------------------ policy grid


def _policy_grid_cells():
    study = dataclasses.replace(load_study(POLICY_GRID), seeds=(1,))
    return [spec for spec in study.compile()
            if spec.scheduler().redundancy.name in ("late", "mantri")]


def _replay(spec):
    scheduler = spec.scheduler()
    calls = counted(scheduler)
    result = run_simulation(
        _resolve_trace(spec.trace), scheduler, spec.num_machines, seed=spec.seed,
        machine_speed=spec.machine_speed, scenario=spec.scenario, max_time=MAX_TIME,
    )
    return scheduler.redundancy.name, result.fingerprint(), len(calls)


def test_policy_grid_cells_skip_most_ticks(monkeypatch):
    cells = _policy_grid_cells()
    assert sorted(spec.scheduler().redundancy.name for spec in cells) == [
        "late", "late", "mantri", "mantri"
    ]
    quiet = [_replay(spec) for spec in cells]
    monkeypatch.setattr(ComposedScheduler, "quiet_until", -math.inf)
    full = [_replay(spec) for spec in cells]
    assert [fingerprint for _, fingerprint, _ in quiet] == [
        fingerprint for _, fingerprint, _ in full
    ]
    for name in ("late", "mantri"):
        kept = sum(calls for policy, _, calls in quiet if policy == name)
        total = sum(calls for policy, _, calls in full if policy == name)
        # Over 80% of these cells' decision points are quiet ticks.
        assert kept <= 0.3 * total, (name, kept, total)
