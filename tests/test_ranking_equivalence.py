"""Differential lockdown of the psi^s(l)-only walks of ``greedy`` and ``delay``.

Both walks hand their ordering only ``psi^s(l)``, the alive jobs with
launchable unscheduled tasks (:func:`repro.policies.gating.schedulable_jobs`).
The reference allocations below keep the earlier walks: rank *every* alive
job, then skip the ones with nothing launchable inside the loop.  Both
sides rank with the same stage-exact ``U_i(l)``, so the only difference
under test is the set handed to the ordering.  ``fifo`` keeps arrival
order, and ``fair`` and ``srpt`` sort by a per-job key with a job-id
tie-break, so ranking the subset must give the same launches: every
composition of {fifo, fair, srpt} x {greedy, delay} x {none, clone, late}
x ``allow_early_reduce`` {off, on} must produce a byte-identical
:class:`~repro.simulation.metrics.SimulationResult` fingerprint on a small
Google-like trace, a Poisson trace and chain / diamond DAG jobs with
unequal stage durations, each flat and on a 2-rack topology.
"""

from __future__ import annotations

import heapq
import itertools
import random
from functools import lru_cache

import pytest

from repro.policies.allocation import DelayScheduling, GreedyAllocation
from repro.policies.gating import launchable_tasks, schedulable_jobs
from repro.policies.redundancy import LATESpeculation
from repro.scenarios import ScenarioSpec, TopologySpec
from repro.simulation import run_simulation
from repro.simulation.scheduler_api import ComposedScheduler, LaunchRequest
from repro.workload.distributions import LogNormal
from repro.workload.generators import poisson_trace
from repro.workload.google_trace import GoogleTraceConfig, GoogleTraceGenerator
from repro.workload.job import JobSpec, StageSpec
from repro.workload.trace import Trace

# --------------------------------------------------------------- reference


def nothing_launchable(job, allow_early_reduce):
    """The walks' earlier in-loop skip test on the raw counters."""
    return job._unscheduled_ready == 0 and not (
        allow_early_reduce and job._unscheduled_total > 0
    )


class ReferenceGreedy(GreedyAllocation):
    """The earlier greedy walks: every alive job, filtered in the loop."""

    @staticmethod
    def _static_walk(view, ordering, free, allow_early_reduce):
        requests = []
        for job in ordering.order(view, view.alive_jobs):
            if free <= 0:
                break
            if nothing_launchable(job, allow_early_reduce):
                continue
            for task in launchable_tasks(job, allow_early_reduce):
                if free <= 0:
                    break
                requests.append(LaunchRequest(task))
                free -= 1
        return requests

    @staticmethod
    def _water_fill(view, ordering, free, allow_early_reduce):
        candidates, jobs = {}, {}
        for job in view.alive_jobs:
            if nothing_launchable(job, allow_early_reduce):
                continue
            candidates[job.job_id] = launchable_tasks(job, allow_early_reduce)
            jobs[job.job_id] = job
        heap, counter, occupied = [], itertools.count(), {}
        for job_id, job in jobs.items():
            occupied[job_id] = job.num_running_copies
            key = ordering.fill_key(job, occupied[job_id])
            heapq.heappush(heap, (key, next(counter), job_id))
        requests = []
        while free > 0 and heap:
            _, _, job_id = heapq.heappop(heap)
            tasks = candidates[job_id]
            if not tasks:
                continue
            requests.append(LaunchRequest(task=tasks.pop(0), num_copies=1))
            free -= 1
            occupied[job_id] += 1
            if tasks:
                key = ordering.fill_key(jobs[job_id], occupied[job_id])
                heapq.heappush(heap, (key, next(counter), job_id))
        return requests


class ReferenceDelay(DelayScheduling):
    """The earlier delay walk: every alive job ranked, filtered in the loop."""

    def allocate(self, view, ordering, redundancy, rng, allow_early_reduce=False):
        free = view.num_free_machines
        if free <= 0:
            return [], 0
        if not view.topology_active or self.locality_wait <= 0.0:
            self.tick_interval = None
            walk = ReferenceGreedy._water_fill if ordering.dynamic else (
                ReferenceGreedy._static_walk
            )
            requests = walk(view, ordering, free, allow_early_reduce)
            return requests, len(requests)
        now, wait = view.time, self.locality_wait
        rack_of = view.machine_racks
        free_pool = view.free_machine_ids()
        requests = []
        first_seen = self._first_seen
        next_deadline = None
        for job in ordering.order(view, view.alive_jobs):
            if not free_pool:
                break
            if nothing_launchable(job, allow_early_reduce):
                continue
            for task in launchable_tasks(job, allow_early_reduce):
                if not free_pool:
                    break
                blacklist = self._blacklist(task)
                if blacklist is not None and len(blacklist) >= view.num_machines:
                    blacklist = None
                preferred = task.preferred_rack
                eligible = [
                    machine for machine in free_pool
                    if blacklist is None or machine not in blacklist
                ]
                key = (job.job_id, task.stage, task.index)
                if any(rack_of[machine] == preferred for machine in eligible):
                    self._take_machine(free_pool, rack_of, preferred, blacklist)
                    first_seen.pop(key, None)
                    requests.append(LaunchRequest(task))
                    continue
                seen = first_seen.setdefault(key, now)
                deadline = now + wait if not eligible else seen + wait
                if not eligible or now < deadline:
                    if next_deadline is None or deadline < next_deadline:
                        next_deadline = deadline
                    continue
                self._take_machine(free_pool, rack_of, preferred, blacklist)
                first_seen.pop(key, None)
                requests.append(LaunchRequest(task))
        self.tick_interval = None if next_deadline is None else max(
            next_deadline - now, 0.0
        )
        return requests, len(requests)


# ------------------------------------------------------------------ cases


def _chain_or_diamond(rng, job_id, arrival, shape):
    """A DAG job whose stages have unequal (log-normal) durations."""

    def duration():
        return LogNormal(rng.choice((1.0, 3.0, 8.0, 20.0)), rng.choice((0.0, 2.0)))

    if shape == "chain":
        stages = [
            StageSpec(f"round{index}", rng.randint(1, 4), duration(),
                      deps=() if index == 0 else (index - 1,))
            for index in range(rng.randint(2, 4))
        ]
    else:
        stages = [
            StageSpec("split", rng.randint(1, 3), duration()),
            StageSpec("left", rng.randint(1, 3), duration(), deps=(0,)),
            StageSpec("right", rng.randint(1, 3), duration(), deps=(0,)),
            StageSpec("join", rng.randint(0, 2), duration(), deps=(1, 2)),
        ]
    return JobSpec.from_stages(
        job_id=job_id, arrival_time=arrival,
        weight=float(rng.randint(1, 3)), stages=stages,
    )


@lru_cache(maxsize=None)
def workload(name):
    """``(trace, machines)`` of one small workload (cached, never mutated)."""
    if name == "google":
        config = GoogleTraceConfig(
            num_jobs=24, job_scale=1.0, size_scale=0.05, trace_duration=60.0,
            min_task_duration=1.0, max_task_duration=100.0,
            mean_task_duration=8.0,
        )
        return GoogleTraceGenerator(config).generate(seed=1), 4
    if name == "poisson":
        return poisson_trace(
            18, arrival_rate=0.5, mean_tasks_per_job=4.0, mean_duration=6.0,
            seed=2,
        ), 6
    rng = random.Random(name)
    job_ids = rng.sample(range(100), 10)
    specs, arrival = [], 0.0
    for job_id in job_ids:
        arrival += rng.choice((0.0, 1.0, 3.0))
        specs.append(_chain_or_diamond(rng, job_id, arrival, name))
    return Trace(specs), 6


WORKLOADS = ("google", "poisson", "chain", "diamond")
#: Far beyond every run below: a lost decision fails the run instead of
#: ticking forever (the LATE cells tick every 2 s).
MAX_TIME = 1e6
#: A short delay-scheduling wait, so deferred tasks do launch remotely.
LOCALITY_WAIT = 2.0
SCENARIOS = {
    "flat": None,
    "racks": ScenarioSpec(topology=TopologySpec(racks=2, remote_slowdown=1.5)),
}
COMPOSITIONS = [
    (ordering, allocation, redundancy, early)
    for ordering in ("fifo", "fair", "srpt")
    for allocation in ("greedy", "delay")
    for redundancy in ("none", "clone", "late")
    for early in (False, True)
]


def _run(allocation, ordering, redundancy, early, name, scenario):
    trace, machines = workload(name)
    if redundancy == "late":
        redundancy = LATESpeculation(speculative_cap=0.5, tick_interval=2.0)
    scheduler = ComposedScheduler(
        ordering, allocation, redundancy, r=1.0, seed=3,
        allow_early_reduce=early, locality_wait=LOCALITY_WAIT,
    )
    return run_simulation(
        trace, scheduler, num_machines=machines, seed=5,
        scenario=SCENARIOS[scenario], max_time=MAX_TIME, check_invariants=True,
    )


@pytest.mark.parametrize(
    "composition", COMPOSITIONS,
    ids=lambda c: f"{c[0]}+{c[1]}+{c[2]}" + ("-early" if c[3] else ""),
)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("name", WORKLOADS)
def test_psi_walk_matches_full_ranking_reference(composition, scenario, name):
    ordering, allocation, redundancy, early = composition
    reference = {
        "greedy": ReferenceGreedy(),
        "delay": ReferenceDelay(locality_wait=LOCALITY_WAIT),
    }[allocation]
    new = _run(allocation, ordering, redundancy, early, name, scenario)
    reference = _run(reference, ordering, redundancy, early, name, scenario)
    assert new.num_jobs == len(workload(name)[0])
    assert new.fingerprint() == reference.fingerprint()


# ------------------------------------------------------- the set contract


class RecordingOrdering:
    """Wraps an ordering and records every job set it is asked to rank."""

    def __init__(self, inner, early):
        self.inner, self.early = inner, early
        self.name, self.dynamic = inner.name, inner.dynamic
        self.fill_key = inner.fill_key
        self.ranked = 0

    def order(self, view, jobs):
        assert list(jobs) == schedulable_jobs(view.alive_jobs, self.early)
        self.ranked += len(jobs)
        return self.inner.order(view, jobs)


@pytest.mark.parametrize("early", [False, True])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("allocation", ["greedy", "delay", "share"])
def test_every_allocation_ranks_psi_only(allocation, scenario, early):
    # The walks rank exactly psi^s(l), in arrival order, like `share` does.
    scheduler = ComposedScheduler(
        "srpt", allocation, "none", allow_early_reduce=early,
        locality_wait=LOCALITY_WAIT,
    )
    scheduler.ordering = RecordingOrdering(scheduler.ordering, early)
    trace, machines = workload("poisson")
    run_simulation(trace, scheduler, num_machines=machines, seed=5,
                   scenario=SCENARIOS[scenario], max_time=MAX_TIME)
    assert scheduler.ordering.ranked > 0
