"""Unit tests for the Trace container, its statistics and the workload generators."""

from __future__ import annotations

import pytest

from repro.workload.distributions import Deterministic
from repro.workload.generators import (
    bimodal_trace,
    bulk_arrival_trace,
    poisson_trace,
    uniform_trace,
)
from repro.simulation.experiment_runner import RunSpec, SchedulerSpec
from repro.simulation.results_store import run_spec_fingerprint
from repro.workload.job import JobSpec
from repro.workload.stream import stream_dag_chain_jobs
from repro.workload.trace import Trace


def make_spec(job_id: int, arrival: float, tasks: int = 2) -> JobSpec:
    return JobSpec(
        job_id=job_id,
        arrival_time=arrival,
        weight=1.0,
        num_map_tasks=tasks,
        num_reduce_tasks=1,
        map_duration=Deterministic(10.0),
        reduce_duration=Deterministic(5.0),
    )


class TestTrace:
    def test_jobs_sorted_by_arrival(self):
        trace = Trace([make_spec(0, 20.0), make_spec(1, 5.0), make_spec(2, 10.0)])
        arrivals = [spec.arrival_time for spec in trace]
        assert arrivals == sorted(arrivals)

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(ValueError):
            Trace([make_spec(0, 0.0), make_spec(0, 1.0)])

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            Trace([])

    def test_container_protocol(self):
        trace = Trace([make_spec(0, 0.0), make_spec(1, 1.0)])
        assert len(trace) == 2
        assert trace[0].job_id == 0
        assert [spec.job_id for spec in trace] == [0, 1]

    def test_derived_quantities(self):
        trace = Trace([make_spec(0, 0.0, tasks=2), make_spec(1, 30.0, tasks=4)])
        assert trace.num_jobs == 2
        assert trace.total_tasks == (2 + 1) + (4 + 1)
        assert trace.first_arrival == 0.0
        assert trace.last_arrival == 30.0
        assert trace.duration == 30.0
        assert trace.total_expected_work == pytest.approx(
            (2 * 10 + 5) + (4 * 10 + 5)
        )

    def test_expected_load(self):
        trace = Trace([make_spec(0, 0.0), make_spec(1, 100.0)])
        load = trace.expected_load(num_machines=10)
        assert load == pytest.approx(trace.total_expected_work / (10 * 100.0))
        with pytest.raises(ValueError):
            trace.expected_load(0)

    def test_filter_and_head(self):
        trace = Trace([make_spec(i, float(i)) for i in range(5)])
        small = trace.filter(lambda spec: spec.job_id < 2)
        assert small.num_jobs == 2
        assert trace.head(3).num_jobs == 3
        with pytest.raises(ValueError):
            trace.filter(lambda spec: False)
        with pytest.raises(ValueError):
            trace.head(0)

    def test_shifted_and_bulk(self):
        trace = Trace([make_spec(0, 10.0), make_spec(1, 20.0)])
        shifted = trace.shifted(5.0)
        assert shifted.first_arrival == 15.0
        bulk = trace.as_bulk_arrival()
        assert all(spec.arrival_time == 0.0 for spec in bulk)

    def test_shifted_and_bulk_keep_stage_dags(self):
        # Both rebuilt each spec from its summary fields, so a 3-stage chain
        # job came back as a 2-stage map->reduce job.
        trace = Trace(list(stream_dag_chain_jobs(3, num_rounds=3)))
        for moved in (trace.shifted(5.0), trace.as_bulk_arrival()):
            for before, after in zip(trace, moved):
                assert after.num_stages == before.num_stages == 3
                assert after.stage_specs == before.stage_specs

    def test_shifted_and_bulk_keep_a_two_phase_cache_key(self):
        def key(trace):
            spec = RunSpec(trace=trace, scheduler=SchedulerSpec("FIFO"), num_machines=2)
            return run_spec_fingerprint(spec)

        trace = Trace([make_spec(0, 10.0), make_spec(1, 20.0)])
        assert key(trace.shifted(5.0)) == key(Trace([make_spec(0, 15.0), make_spec(1, 25.0)]))
        assert key(trace.as_bulk_arrival()) == key(Trace([make_spec(0, 0.0), make_spec(1, 0.0)]))

    def test_statistics_deterministic(self):
        trace = Trace([make_spec(0, 0.0, tasks=2), make_spec(1, 50.0, tasks=2)])
        stats = trace.statistics()
        assert stats.total_jobs == 2
        assert stats.average_tasks_per_job == pytest.approx(3.0)
        assert stats.min_task_duration == 5.0
        assert stats.max_task_duration == 10.0
        assert stats.trace_duration == 50.0

    def test_statistics_sampled(self, rng):
        trace = Trace([make_spec(0, 0.0), make_spec(1, 10.0)])
        stats = trace.statistics(rng=rng)
        assert stats.total_tasks == trace.total_tasks
        assert stats.average_task_duration > 0

    def test_statistics_render_contains_rows(self):
        trace = Trace([make_spec(0, 0.0)])
        text = trace.statistics().render()
        assert "Total number of Jobs" in text
        assert "Average task duration" in text


class TestGenerators:
    def test_uniform_trace_shape(self):
        trace = uniform_trace(5, tasks_per_job=3, reduce_tasks_per_job=1,
                              mean_duration=7.0, inter_arrival=2.0)
        assert trace.num_jobs == 5
        assert all(spec.num_map_tasks == 3 for spec in trace)
        assert all(spec.num_reduce_tasks == 1 for spec in trace)
        assert trace[1].arrival_time == pytest.approx(2.0)

    def test_uniform_trace_validation(self):
        with pytest.raises(ValueError):
            uniform_trace(0)
        with pytest.raises(ValueError):
            uniform_trace(1, tasks_per_job=0)
        with pytest.raises(ValueError):
            uniform_trace(1, cv=-0.1)

    def test_bulk_arrival_trace(self):
        trace = bulk_arrival_trace([2, 10], weights=[1.0, 3.0], reduce_fraction=0.5)
        assert all(spec.arrival_time == 0.0 for spec in trace)
        assert trace[0].total_tasks == 2
        assert trace[1].total_tasks == 10
        assert trace[1].weight == 3.0
        # reduce_fraction=0.5 of 10 tasks -> 5 reduce tasks.
        assert trace[1].num_reduce_tasks == 5

    def test_bulk_arrival_single_task_job_has_no_reduce(self):
        trace = bulk_arrival_trace([1])
        assert trace[0].num_map_tasks == 1
        assert trace[0].num_reduce_tasks == 0

    def test_bulk_arrival_validation(self):
        with pytest.raises(ValueError):
            bulk_arrival_trace([])
        with pytest.raises(ValueError):
            bulk_arrival_trace([2], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            bulk_arrival_trace([0])

    def test_poisson_trace_reproducible(self):
        a = poisson_trace(20, arrival_rate=1.0, seed=3)
        b = poisson_trace(20, arrival_rate=1.0, seed=3)
        assert [s.arrival_time for s in a] == [s.arrival_time for s in b]
        assert [s.total_tasks for s in a] == [s.total_tasks for s in b]

    def test_poisson_trace_weights_in_range(self):
        trace = poisson_trace(30, arrival_rate=1.0, max_weight=4, seed=1)
        assert all(1.0 <= spec.weight <= 4.0 for spec in trace)

    def test_poisson_trace_validation(self):
        with pytest.raises(ValueError):
            poisson_trace(0, 1.0)
        with pytest.raises(ValueError):
            poisson_trace(1, 0.0)
        with pytest.raises(ValueError):
            poisson_trace(1, 1.0, mean_tasks_per_job=0.5)

    def test_bimodal_trace_mixes_sizes(self):
        trace = bimodal_trace(3, 2, small_tasks=4, large_tasks=50, seed=0)
        sizes = sorted(spec.total_tasks for spec in trace)
        assert sizes[:3] == [4, 4, 4]
        assert sizes[-1] == 50

    def test_bimodal_trace_validation(self):
        with pytest.raises(ValueError):
            bimodal_trace(0, 0)
        with pytest.raises(ValueError):
            bimodal_trace(-1, 2)
