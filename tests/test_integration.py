"""End-to-end integration tests: every scheduler against shared workloads,
with cross-cutting invariants checked on the final simulation state."""

from __future__ import annotations

import pytest

from repro.core.bounds import critical_path
from repro.policies import make_scheduler
from repro.simulation.engine import SimulationEngine
from repro.workload.generators import bimodal_trace


def all_schedulers():
    return [
        make_scheduler("SRPTMS+C", epsilon=0.6, r=3.0),
        make_scheduler("SRPTMS+C", epsilon=1.0, r=0.0),
        make_scheduler("SRPTMS+C", epsilon=0.2, r=0.0, cloning_enabled=False),
        make_scheduler("Offline", r=0.0),
        make_scheduler("Offline", r=3.0, park_reduce_tasks=False),
        make_scheduler("FIFO"),
        make_scheduler("Fair"),
        make_scheduler("SRPT"),
        make_scheduler("Mantri"),
        make_scheduler("LATE"),
        make_scheduler("SCA"),
    ]


SCHEDULER_IDS = [
    "srptms_c", "srptms_c_eps1", "srptms_noclone", "offline", "offline_nopark",
    "fifo", "fair", "srpt", "mantri", "late", "sca",
]


@pytest.mark.parametrize("scheduler", all_schedulers(), ids=SCHEDULER_IDS)
def test_end_to_end_invariants(scheduler, small_online_trace):
    """Every policy completes the trace while respecting the system invariants."""
    engine = SimulationEngine(
        small_online_trace, scheduler, num_machines=10, seed=1, check_invariants=True
    )
    result = engine.run()

    # Every job completed exactly once and machines all freed at the end.
    assert result.num_jobs == small_online_trace.num_jobs
    assert engine.cluster.num_free == engine.cluster.num_machines

    specs = {spec.job_id: spec for spec in small_online_trace}
    for record in result.records:
        spec = specs[record.job_id]
        # Completion after arrival, and no faster than one map plus one
        # reduce task could possibly run (deterministic lower bound is not
        # valid per-sample for noisy durations, so use a loose factor).
        assert record.completion_time >= record.arrival_time
        assert record.flowtime > 0
        if record.map_phase_completion_time is not None:
            assert record.map_phase_completion_time <= record.completion_time
        assert record.copies_launched >= spec.total_tasks

    # Work accounting: every logical task ran exactly one winning copy.
    assert result.total_copies >= small_online_trace.total_tasks
    assert result.useful_work > 0
    assert result.makespan >= max(r.completion_time for r in result.records) - 1e-9
    assert result.makespan == pytest.approx(
        max(r.completion_time for r in result.records)
    )

    # The engine state agrees with the per-job records.
    for job in engine._jobs:
        assert job.is_complete
        for task in job.all_tasks():
            assert task.is_completed
            finished = [copy for copy in task.copies if copy.is_finished]
            assert len(finished) == 1
            for copy in task.copies:
                assert not copy.is_active


@pytest.mark.parametrize("scheduler", all_schedulers(), ids=SCHEDULER_IDS)
def test_deterministic_workload_flowtimes_respect_lower_bounds(
    scheduler, deterministic_online_trace
):
    engine = SimulationEngine(
        deterministic_online_trace, scheduler, num_machines=8, seed=0
    )
    result = engine.run()
    specs = {spec.job_id: spec for spec in deterministic_online_trace}
    for record in result.records:
        lower = critical_path(specs[record.job_id])
        assert record.flowtime >= lower - 1e-9


def test_srpt_ordering_beats_fifo_on_mixed_workload():
    """The motivating comparison: SRPT-style policies protect small jobs."""
    trace = bimodal_trace(15, 3, small_tasks=2, large_tasks=40,
                          small_duration=5.0, large_duration=60.0, cv=0.4,
                          horizon=100.0, seed=11)
    fifo = SimulationEngine(trace, make_scheduler("FIFO"), num_machines=25, seed=0).run()
    srptms = SimulationEngine(
        trace, make_scheduler("SRPTMS+C", epsilon=0.6, r=1.0), num_machines=25, seed=0
    ).run()
    assert srptms.mean_flowtime < fifo.mean_flowtime
    # Small jobs (2 tasks) specifically should be much faster under SRPTMS+C.
    small_ids = {spec.job_id for spec in trace if spec.total_tasks <= 3}
    small_fifo = [r.flowtime for r in fifo.records if r.job_id in small_ids]
    small_srptms = [r.flowtime for r in srptms.records if r.job_id in small_ids]
    assert sum(small_srptms) < sum(small_fifo)


def test_results_identical_for_identical_seeds(small_online_trace):
    a = SimulationEngine(small_online_trace, make_scheduler("SRPTMS+C"), 12, seed=5).run()
    b = SimulationEngine(small_online_trace, make_scheduler("SRPTMS+C"), 12, seed=5).run()
    assert [r.completion_time for r in a.records] == [
        r.completion_time for r in b.records
    ]


def test_larger_cluster_does_not_hurt(small_online_trace):
    small = SimulationEngine(
        small_online_trace, make_scheduler("SRPTMS+C"), num_machines=6, seed=3
    ).run()
    large = SimulationEngine(
        small_online_trace, make_scheduler("SRPTMS+C"), num_machines=30, seed=3
    ).run()
    assert large.mean_flowtime <= small.mean_flowtime * 1.05
