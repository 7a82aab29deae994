"""Consistency tests for the O(1) incremental job/task counters.

The hot-path overhaul replaced every scan-based scheduler query
(``num_unscheduled_stage_tasks``, ``num_running_copies``, ``is_scheduled``,
``num_remaining_tasks``) with counters maintained at copy/task state
transitions.  These tests assert, at every scheduler decision point of
full runs -- including clone kills, blocked reduce copies and
failure-driven re-dispatch -- that the counters equal what a fresh scan
of the task lists reports.
"""

from __future__ import annotations

from repro.policies import make_scheduler
from repro.scenarios import MachineFailures, ScenarioSpec
from repro.simulation import run_simulation
from repro.simulation.scheduler_api import ComposedScheduler
from repro.workload.generators import poisson_trace
from repro.workload.job import Job


def scanned_counters(job: Job) -> dict:
    """Recompute every incremental counter by scanning the task lists."""
    return {
        "unscheduled": [
            sum(
                1 for t in tasks
                if not t.is_completed and not any(c.is_active for c in t.copies)
            )
            for tasks in job.stage_tasks
        ],
        "incomplete": [
            sum(1 for t in tasks if not t.is_completed) for tasks in job.stage_tasks
        ],
        "remaining": sum(1 for t in job.all_tasks() if not t.is_completed),
        # A kept copy of a static multi-copy request stands for its
        # request's other copies too.
        "active_copies": sum(
            sum(c.num_copies for c in t.copies if c.is_active)
            for t in job.all_tasks()
        ),
        "copies_launched": sum(
            sum(c.num_copies for c in t.copies) for t in job.all_tasks()
        ),
    }


def counter_values(job: Job) -> dict:
    """The incrementally maintained counters, via the public API."""
    stages = range(job.num_stages)
    return {
        "unscheduled": [job.num_unscheduled_stage_tasks(s) for s in stages],
        "incomplete": [job.num_incomplete_stage_tasks(s) for s in stages],
        "remaining": job.num_remaining_tasks,
        "active_copies": job.num_running_copies,
        "copies_launched": job.total_copies_launched(),
    }


class CheckingScheduler(ComposedScheduler):
    """A composition that cross-checks every alive job's counters per decision."""

    checked = 0

    def schedule(self, view):
        for job in view.alive_jobs:
            assert counter_values(job) == scanned_counters(job), (
                f"counter drift on job {job.job_id} at t={view.time}"
            )
            type(self).checked += 1
        return super().schedule(view)


def test_counters_match_scans_throughout_a_cloning_run():
    CheckingScheduler.checked = 0
    trace = poisson_trace(40, 0.8, seed=11)
    result = run_simulation(
        trace, CheckingScheduler("srpt", "share", "clone", epsilon=0.6, r=3.0), 24, seed=4
    )
    assert result.num_jobs == 40
    assert CheckingScheduler.checked > 100


def test_counters_match_scans_under_machine_failures():
    """Failure kills revert tasks to unscheduled -- the trickiest transition."""
    CheckingScheduler.checked = 0
    trace = poisson_trace(25, 0.5, seed=2)
    scenario = ScenarioSpec(
        failures=MachineFailures(rate=2e-3, mean_repair=20.0)
    )
    scheduler = CheckingScheduler("fair", "greedy", "none")  # the single-copy path
    result = run_simulation(trace, scheduler, 12, seed=6, scenario=scenario)
    assert result.num_jobs == 25
    assert result.machine_failures > 0
    assert CheckingScheduler.checked > 50


def test_recount_is_idempotent_after_a_run():
    """_recount() from scratch reproduces the incrementally maintained state."""
    from repro.simulation.engine import SimulationEngine

    trace = poisson_trace(30, 0.8, seed=7)
    engine = SimulationEngine(
        trace, make_scheduler("SRPTMS+C", epsilon=0.6, r=3.0), 16, seed=3
    )
    engine.run()
    for job in engine._jobs:
        before = counter_values(job)
        job._recount()
        assert counter_values(job) == before == scanned_counters(job)
