"""Unit tests for metrics (SimulationResult / JobRecord) and the run helper."""

from __future__ import annotations

import pytest

from repro.simulation.metrics import JobRecord, SimulationResult
from repro.simulation import run_simulation
from repro.policies import make_scheduler


def record(job_id=0, arrival=0.0, completion=10.0, weight=1.0, maps=2, reduces=1,
           copies=3) -> JobRecord:
    return JobRecord(
        job_id=job_id,
        arrival_time=arrival,
        completion_time=completion,
        weight=weight,
        num_map_tasks=maps,
        num_reduce_tasks=reduces,
        copies_launched=copies,
        map_phase_completion_time=arrival + 5.0,
    )


class TestJobRecord:
    def test_derived_properties(self):
        rec = record(arrival=3.0, completion=13.0, weight=2.0)
        assert rec.flowtime == 10.0
        assert rec.weighted_flowtime == 20.0
        assert rec.num_tasks == 3
        assert rec.map_phase_duration == 5.0

    def test_map_phase_duration_none(self):
        rec = JobRecord(job_id=0, arrival_time=0.0, completion_time=5.0, weight=1.0,
                        num_map_tasks=0, num_reduce_tasks=1, copies_launched=1)
        assert rec.map_phase_duration is None


class TestSimulationResult:
    def make_result(self) -> SimulationResult:
        result = SimulationResult(scheduler_name="test", num_machines=10,
                                  total_tasks=9)
        result.add_record(record(job_id=0, completion=10.0, weight=1.0))
        result.add_record(record(job_id=1, completion=20.0, weight=3.0))
        result.add_record(record(job_id=2, completion=40.0, weight=1.0))
        result.total_copies = 12
        result.useful_work = 60.0
        result.wasted_work = 20.0
        result.makespan = 40.0
        return result

    def test_flowtime_aggregates(self):
        result = self.make_result()
        assert result.num_jobs == 3
        assert result.total_flowtime == pytest.approx(70.0)
        assert result.mean_flowtime == pytest.approx(70.0 / 3)
        assert result.total_weighted_flowtime == pytest.approx(10 + 60 + 40)
        assert result.weighted_mean_flowtime == pytest.approx(110.0 / 5.0)
        assert result.max_flowtime == 40.0
        assert result.median_flowtime == 20.0

    def test_percentiles(self):
        result = self.make_result()
        assert result.percentile_flowtime(0) == 10.0
        assert result.percentile_flowtime(100) == 40.0
        with pytest.raises(ValueError):
            result.percentile_flowtime(101)

    def test_cdf_helpers(self):
        result = self.make_result()
        assert result.fraction_completed_within(10.0) == pytest.approx(1 / 3)
        assert result.fraction_completed_within(100.0) == 1.0
        cdf = result.flowtime_cdf([5.0, 15.0, 25.0, 45.0])
        assert list(cdf) == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0])
        in_range = result.records_in_flowtime_range(15.0, 45.0)
        assert [r.job_id for r in in_range] == [1, 2]

    def test_efficiency_metrics(self):
        result = self.make_result()
        assert result.cloning_ratio == pytest.approx(12 / 9)
        assert result.redundant_work_fraction == pytest.approx(20 / 80)
        assert result.average_utilization == pytest.approx(80 / (10 * 40))

    def test_empty_result_is_safe(self):
        empty = SimulationResult(scheduler_name="empty", num_machines=1)
        assert empty.mean_flowtime == 0.0
        assert empty.weighted_mean_flowtime == 0.0
        assert empty.fraction_completed_within(10.0) == 0.0
        assert empty.cloning_ratio == 0.0
        assert list(empty.flowtime_cdf([1.0])) == [0.0]

    def test_summary_and_compare(self):
        result = self.make_result()
        summary = result.summary()
        assert summary["scheduler"] == "test"
        assert summary["num_jobs"] == 3
        rows = SimulationResult.compare([result, result])
        assert len(rows) == 2


class TestRunner:
    def test_run_simulation_fills_runtime_and_seed(self, deterministic_online_trace):
        result = run_simulation(
            deterministic_online_trace, make_scheduler("FIFO"), num_machines=6, seed=3
        )
        assert result.num_jobs == deterministic_online_trace.num_jobs
        assert result.runtime_seconds > 0
        assert result.seed == 3


class TestRunnerShimRemoved:
    """The repro.simulation.runner deprecation shim (PR 4) is gone."""

    def test_shim_module_no_longer_importable(self):
        import importlib.util

        assert importlib.util.find_spec("repro.simulation.runner") is None
