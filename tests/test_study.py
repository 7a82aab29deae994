"""Tests for the declarative study API (repro.study.core / resultset)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.cluster.stragglers import DynamicStragglers
from repro.policies.allocation import DelayScheduling
from repro.policies.ordering import SRPTOrdering
from repro.policies.redundancy import (
    CheckpointRedundancy,
    LATESpeculation,
    MantriSpeculation,
)
from repro.scenarios import (
    BimodalSpeeds,
    MachineFailures,
    TopologySpec,
    UniformSpeeds,
    ZipfSpeeds,
    scenario_preset,
)
from repro.simulation.experiment_runner import ExperimentRunner
from repro.study import (
    ResultSet,
    ScenarioRef,
    SchedulerRef,
    Study,
    StudySpecError,
    WorkloadRef,
    study_from_json,
)

#: A tiny bulk-arrival workload: every run takes milliseconds.
BULK = {"kind": "bulk", "job_sizes": [2, 3, 4], "mean_duration": 5.0, "cv": 0.0}


def tiny_study(**overrides) -> Study:
    kwargs = dict(
        name="tiny",
        schedulers=("FIFO", "SCA"),
        workloads=(BULK,),
        seeds=(0, 1),
        machines=4,
    )
    kwargs.update(overrides)
    return Study(**kwargs)


class TestStudyConstruction:
    def test_refs_are_normalised(self):
        study = tiny_study()
        assert all(isinstance(ref, SchedulerRef) for ref in study.schedulers)
        assert all(isinstance(ref, ScenarioRef) for ref in study.scenarios)
        assert all(isinstance(ref, WorkloadRef) for ref in study.workloads)
        assert study.scenarios[0].label == "none"

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            tiny_study(schedulers=("NotAPolicy",))

    def test_unknown_scalar_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown scalar axis"):
            tiny_study(axes={"bogus": (1.0, 2.0)})

    def test_seeds_axis_redirected(self):
        with pytest.raises(ValueError, match="seeds="):
            tiny_study(axes={"seeds": (0, 1)})

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            tiny_study(axes={"epsilon": (0.5, 0.5)})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate scheduler labels"):
            tiny_study(schedulers=("FIFO", "FIFO"))

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            tiny_study(seeds=())

    @pytest.mark.parametrize("fraction", [0.0, -0.5])
    def test_non_positive_machine_fraction_rejected(self, fraction):
        with pytest.raises(ValueError, match=r"machine_fraction must lie in \(0, 1\]"):
            tiny_study(axes={"machine_fraction": (fraction, 1.0)})
        spec = json.dumps(
            {
                "study": {
                    "name": "bad",
                    "scale": 0.002,
                    "axes": {"machine_fraction": [fraction, 1.0]},
                }
            }
        )
        with pytest.raises(StudySpecError, match=r"machine_fraction must lie in \(0, 1\]"):
            study_from_json(spec)

    def test_empty_scheduler_axis_allowed(self):
        study = tiny_study(schedulers=())
        assert study.num_points() == 0
        assert study.compile() == []

    def test_scheduler_kwargs_and_labels(self):
        ref = SchedulerRef.coerce({"name": "SRPT", "r": 2.0})
        assert ref.kwargs == (("r", 2.0),)
        assert ref.label == "SRPT(r=2.0)"
        assert SchedulerRef.coerce("FIFO").label == "FIFO"

    def test_scenario_table_builds_spec(self):
        ref = ScenarioRef.coerce({"speed_spread": 0.5})
        assert ref.spec.speeds == UniformSpeeds(0.5, 1.5)
        assert ref.spec.normalize_mean_speed
        assert ScenarioRef.coerce("failures").spec == scenario_preset("failures")
        assert ScenarioRef.coerce(None).spec is None

    def test_scenario_table_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            ScenarioRef.coerce({"sped_spread": 0.5})

    def test_scenario_orphan_detail_rejected(self):
        with pytest.raises(ValueError, match="failure_rate"):
            ScenarioRef.coerce({"mean_repair": 10.0})

    @pytest.mark.parametrize(
        "knobs, message",
        [
            pytest.param(
                {"failure_rate": -0.001},
                "failure_rate must be non-negative",
                id="negative-failure-rate",
            ),
            pytest.param(
                {"slowdown_rate": -0.5},
                "slowdown_rate must be non-negative",
                id="negative-slowdown-rate",
            ),
            pytest.param({"racks": 0}, "racks must be an integer >= 1", id="zero-racks"),
            pytest.param({"racks": -2}, "racks must be an integer >= 1", id="negative-racks"),
            pytest.param(
                {"racks": 2.5}, "racks must be an integer >= 1", id="fractional-racks"
            ),
            pytest.param(
                {"failure_rate": math.inf}, "failure_rate must be non-negative and finite",
                id="inf-failure-rate",
            ),
            pytest.param(
                {"failure_rate": 1e-4, "mean_repair": math.nan},
                "mean_repair must be positive and finite",
                id="nan-mean-repair",
            ),
            pytest.param(
                {"slowdown_rate": 0.05, "slowdown_duration": math.nan},
                "slowdown_duration must be positive and finite",
                id="nan-slowdown-duration",
            ),
            pytest.param(
                {"slowdown_rate": 0.05, "slowdown_factor": math.nan},
                "slowdown_factor must exceed 1 and be finite",
                id="nan-slowdown-factor",
            ),
            pytest.param(
                {"racks": 2, "remote_slowdown": math.nan},
                "remote_slowdown must be >= 1.0 and finite",
                id="nan-remote-slowdown",
            ),
        ],
    )
    def test_scenario_invalid_knob_rejected(self, knobs, message):
        with pytest.raises(ValueError, match=message):
            ScenarioRef.coerce(knobs)
        spec = json.dumps(
            {"study": {"name": "bad", "scale": 0.002, "scenarios": [knobs]}}
        )
        with pytest.raises(StudySpecError, match=message):
            study_from_json(spec)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: MachineFailures(rate=math.inf, mean_repair=300.0),
                         id="inf-failure-rate"),
            pytest.param(lambda: MachineFailures(rate=1e-4, mean_repair=math.nan),
                         id="nan-mean-repair"),
            pytest.param(lambda: MachineFailures(rate=1e-4, mean_repair=math.inf),
                         id="inf-mean-repair"),
            pytest.param(lambda: DynamicStragglers(math.nan, 200.0, 4.0),
                         id="nan-onset-rate"),
            pytest.param(lambda: DynamicStragglers(math.inf, 200.0, 4.0),
                         id="inf-onset-rate"),
            pytest.param(lambda: DynamicStragglers(0.05, math.nan, 4.0),
                         id="nan-slowdown-duration"),
            pytest.param(lambda: DynamicStragglers(0.05, math.inf, 4.0),
                         id="inf-slowdown-duration"),
            pytest.param(lambda: DynamicStragglers(0.05, 200.0, math.nan),
                         id="nan-slowdown-factor"),
            pytest.param(lambda: DynamicStragglers(0.05, 200.0, math.inf),
                         id="inf-slowdown-factor"),
            pytest.param(lambda: TopologySpec(racks=2, remote_slowdown=math.nan),
                         id="nan-remote-slowdown"),
            pytest.param(lambda: TopologySpec(racks=2, remote_slowdown=math.inf),
                         id="inf-remote-slowdown"),
            pytest.param(lambda: UniformSpeeds(math.nan, 1.5), id="nan-uniform-low"),
            pytest.param(lambda: UniformSpeeds(0.5, math.nan), id="nan-uniform-high"),
            pytest.param(lambda: UniformSpeeds(0.5, math.inf), id="inf-uniform-high"),
            pytest.param(lambda: BimodalSpeeds(slow_speed=math.nan), id="nan-slow-speed"),
            pytest.param(lambda: BimodalSpeeds(fast_speed=math.nan), id="nan-fast-speed"),
            pytest.param(lambda: BimodalSpeeds(fast_speed=math.inf), id="inf-fast-speed"),
            pytest.param(lambda: ZipfSpeeds(alpha=math.nan), id="nan-zipf-alpha"),
            pytest.param(lambda: ZipfSpeeds(alpha=math.inf), id="inf-zipf-alpha"),
            pytest.param(lambda: SRPTOrdering(r=math.nan), id="nan-r"),
            pytest.param(lambda: SRPTOrdering(r=math.inf), id="inf-r"),
            pytest.param(lambda: DelayScheduling(locality_wait=math.nan),
                         id="nan-locality-wait"),
            pytest.param(lambda: DelayScheduling(locality_wait=math.inf),
                         id="inf-locality-wait"),
            pytest.param(lambda: LATESpeculation(tick_interval=math.nan),
                         id="nan-late-tick-interval"),
            pytest.param(lambda: MantriSpeculation(tick_interval=math.inf),
                         id="inf-mantri-tick-interval"),
            pytest.param(lambda: LATESpeculation(min_elapsed=math.inf),
                         id="inf-late-min-elapsed"),
            pytest.param(lambda: MantriSpeculation(min_elapsed=math.nan),
                         id="nan-mantri-min-elapsed"),
            pytest.param(lambda: CheckpointRedundancy(interval=math.nan),
                         id="nan-checkpoint-interval"),
            pytest.param(lambda: CheckpointRedundancy(interval=math.inf),
                         id="inf-checkpoint-interval"),
        ],
    )
    def test_non_finite_knob_rejected_at_construction(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()

    @pytest.mark.parametrize(
        "study",
        [
            pytest.param({"r": math.nan}, id="nan-r"),
            pytest.param({"epsilon": math.inf}, id="inf-epsilon"),
            pytest.param({"axes": {"r": [1.0, math.nan]}}, id="nan-r-axis"),
        ],
    )
    def test_non_finite_study_scalar_rejected(self, study):
        spec = json.dumps({"study": {"name": "bad", "scale": 0.002, **study}})
        with pytest.raises(StudySpecError, match="finite"):
            study_from_json(spec)


class TestCompile:
    def test_product_order_and_coords(self):
        study = tiny_study(axes={"epsilon": (0.2, 0.8)})
        specs = study.compile()
        assert len(specs) == study.num_points() == 2 * 2 * 2
        # Axis order: workload, scenario, scheduler, epsilon, seed (fastest).
        tags = [spec.tag for spec in specs]
        assert tags[0] == (
            ("workload", "bulk"),
            ("scenario", "none"),
            ("scheduler", "FIFO"),
            ("epsilon", 0.2),
            ("seed", 0),
        )
        assert tags[1][-1] == ("seed", 1)
        assert tags[2][-2] == ("epsilon", 0.8)
        assert [spec.seed for spec in specs[:2]] == [0, 1]

    def test_machines_derived_from_scale(self):
        study = tiny_study(machines=None, scale=0.01)
        assert {spec.num_machines for spec in study.compile()} == {120}

    def test_machine_fraction_axis(self):
        study = tiny_study(axes={"machine_fraction": (0.5, 1.0)})
        counts = sorted({spec.num_machines for spec in study.compile()})
        assert counts == [2, 4]

    def test_srptms_c_reads_point_epsilon_r(self):
        study = tiny_study(
            schedulers=("SRPTMS+C",), axes={"epsilon": (0.3, 0.9)}, r=5.0
        )
        kwargs = [dict(spec.scheduler.kwargs) for spec in study.compile()]
        assert {k["epsilon"] for k in kwargs} == {0.3, 0.9}
        assert {k["r"] for k in kwargs} == {5.0}

    def test_specs_are_cacheable(self):
        from repro.simulation.results_store import run_spec_fingerprint

        fingerprints = {run_spec_fingerprint(s) for s in tiny_study().compile()}
        assert len(fingerprints) == tiny_study().num_points()

    def test_a_scheduler_key_holds_only_the_point_parameters_it_reads(self):
        """A scheduler that does not read epsilon keeps one cache key across
        an epsilon axis, so a sweep over it runs each of its cells once."""
        from repro.simulation.results_store import run_spec_fingerprint

        study = tiny_study(
            schedulers=("SRPTMS+C", "SCA", "LATE", "Offline", "srpt+greedy+late"),
            axes={"epsilon": (0.4, 0.6, 0.8)},
        )
        keys = {}
        for point in study.points():
            scheduler = dict(point.coords)["scheduler"]
            keys.setdefault(scheduler, set()).add(run_spec_fingerprint(point.to_run_spec()))
        # One key per (epsilon, seed) for the schedulers that read epsilon ...
        assert len(keys["SRPTMS+C"]) == len(keys["srpt+greedy+late"]) == 3 * 2
        # ... and one per seed for those that do not (Offline reads r and seed).
        assert len(keys["SCA"]) == len(keys["LATE"]) == len(keys["Offline"]) == 2
        assert len(set().union(*keys.values())) == 2 * 6 + 3 * 2

    def test_the_adversity_example_compiles_to_thirty_keys(self):
        from pathlib import Path

        from repro.simulation.results_store import run_spec_fingerprint
        from repro.study import load_study

        path = Path(__file__).parent.parent / "examples" / "studies" / "clone_vs_adversity.toml"
        specs = load_study(path).compile()
        # SRPTMS+C: 3 scenarios x 3 epsilons x 2 seeds; SCA and LATE: 3 x 2 each.
        assert len(specs) == 54
        assert len({run_spec_fingerprint(spec) for spec in specs}) == 18 + 6 + 6


class TestOneRunPerKey:
    """A study whose specs share cache keys runs each key once per call."""

    def test_the_adversity_example_executes_thirty_keys(self, tmp_path):
        from pathlib import Path

        from repro.study import StudyRun, load_study

        path = Path(__file__).parent.parent / "examples" / "studies" / "clone_vs_adversity.toml"
        study = load_study(path)
        alone = ResultSet(
            [
                StudyRun(point.coords, ExperimentRunner(workers=1).run([point.to_run_spec()])[0])
                for point in study.points()
            ],
            name=study.name,
        )
        runner = ExperimentRunner(workers=1, cache_dir=str(tmp_path))
        hits = []
        cold = study.run_incremental(lambda point, result, hit: hits.append(hit), runner=runner)
        assert runner.last_run_stats == {"executed": 30, "cache_hits": 0, "uncacheable": 0}
        assert hits == [False] * 54  # one callback per spec
        assert cold.fingerprint() == alone.fingerprint()
        assert cold.to_csv() == alone.to_csv()
        warm = study.run(runner=runner)
        assert runner.last_run_stats == {"executed": 0, "cache_hits": 54, "uncacheable": 0}
        assert warm.to_csv() == alone.to_csv()


class TestExecution:
    def test_serial_and_pooled_are_bit_identical(self):
        study = tiny_study()
        serial = study.run(workers=1)
        pooled = study.run(workers=2)
        assert serial.fingerprint() == pooled.fingerprint()
        assert len(serial) == study.num_points()

    def test_workers_zero_means_all_cpus(self):
        study = tiny_study(seeds=(0,))
        assert study.run(workers=0).fingerprint() == study.run(workers=1).fingerprint()

    def test_select_runs_only_chosen_points(self):
        study = tiny_study()
        subset = study.run(
            select=lambda point: dict(point.coords)["scheduler"] == "FIFO"
        )
        assert len(subset) == 2
        assert subset.coordinates("scheduler") == ["FIFO"]
        full = study.run()
        assert subset.fingerprint() == full.filter(scheduler="FIFO").fingerprint()

    def test_cache_serves_second_run(self, tmp_path):
        study = tiny_study()
        runner = ExperimentRunner(workers=1, cache_dir=str(tmp_path))
        cold = study.run(runner=runner)
        assert runner.last_run_stats["executed"] == study.num_points()
        warm = study.run(runner=runner)
        assert runner.last_run_stats["executed"] == 0
        assert runner.last_run_stats["cache_hits"] == study.num_points()
        assert cold.fingerprint() == warm.fingerprint()

    def test_run_incremental_streams_every_point(self, tmp_path):
        study = tiny_study()
        events = []
        streamed = study.run_incremental(
            lambda point, result, hit: events.append((point, result, hit)),
            cache_dir=str(tmp_path),
        )
        assert [p for p, _, _ in events] == study.points()
        assert [r for _, r, _ in events] == [run.result for run in streamed]
        assert all(hit is False for _, _, hit in events)
        assert streamed.fingerprint() == study.run().fingerprint()
        # A warm incremental run streams the same points as cache hits.
        hits = []
        study.run_incremental(
            lambda point, result, hit: hits.append(hit), cache_dir=str(tmp_path)
        )
        assert hits == [True] * study.num_points()

    def test_run_incremental_select_subsets_the_stream(self):
        study = tiny_study()
        events = []
        subset = study.run_incremental(
            lambda point, result, hit: events.append(point),
            select=lambda point: dict(point.coords)["scheduler"] == "FIFO",
        )
        assert len(events) == len(subset) == 2
        assert all(dict(p.coords)["scheduler"] == "FIFO" for p in events)
        assert subset.fingerprint() == study.run().filter(
            scheduler="FIFO"
        ).fingerprint()


class TestResultSet:
    @pytest.fixture(scope="class")
    def results(self) -> ResultSet:
        return tiny_study().run()

    def test_coords_attached(self, results):
        assert results.axis_names == ("workload", "scenario", "scheduler", "seed")
        assert results.coordinates("scheduler") == ["FIFO", "SCA"]
        assert results.coordinates("seed") == [0, 1]

    def test_filter(self, results):
        fifo = results.filter(scheduler="FIFO")
        assert len(fifo) == 2
        assert all(run.coords["scheduler"] == "FIFO" for run in fifo)
        assert len(results.filter(scheduler=("FIFO", "SCA"))) == 4
        assert len(results.filter(lambda run: run.coords["seed"] == 0)) == 2

    def test_filter_unknown_axis_raises(self, results):
        with pytest.raises(KeyError, match="unknown axes"):
            results.filter(flavour="spicy")

    def test_group_by(self, results):
        groups = results.group_by("scheduler")
        assert list(groups) == [("FIFO",), ("SCA",)]
        assert all(len(group) == 2 for group in groups.values())

    def test_aggregate_matches_numpy(self, results):
        rows = results.aggregate(
            ("mean_flowtime",), stats=("mean", "std", "count")
        )
        assert len(rows) == 2  # one per scheduler
        fifo = rows[0]
        values = np.array(results.filter(scheduler="FIFO").values("mean_flowtime"))
        assert fifo["scheduler"] == "FIFO"
        assert fifo["mean_flowtime_mean"] == float(values.mean())
        assert fifo["mean_flowtime_std"] == float(values.std(ddof=0))
        assert fifo["mean_flowtime_count"] == 2.0

    def test_aggregate_bare_mean_column(self, results):
        rows = results.aggregate(("mean_flowtime",), stats=("mean",))
        assert "mean_flowtime" in rows[0]
        assert "mean_flowtime_mean" not in rows[0]

    def test_to_records_csv_json(self, results, tmp_path):
        records = results.to_records()
        assert len(records) == 4
        assert records[0]["scheduler"] == "FIFO"
        assert "mean_flowtime" in records[0]

        csv_path = tmp_path / "out.csv"
        text = results.to_csv(str(csv_path))
        assert csv_path.read_text() == text
        header = text.splitlines()[0]
        assert header.startswith("workload,scenario,scheduler,seed,")

        json_path = tmp_path / "out.json"
        json_text = results.to_json(str(json_path))
        assert json_path.read_text() == json_text
        import json as json_module

        assert len(json_module.loads(json_text)) == 4

    def test_fingerprint_is_stable_and_discriminating(self, results):
        again = tiny_study().run()
        assert results.fingerprint() == again.fingerprint()
        other = tiny_study(seeds=(0,)).run()
        assert results.fingerprint() != other.fingerprint()


class TestRenderResultset:
    def test_generic_renderer_shape(self):
        from repro.experiments.report import render_resultset

        results = tiny_study().run()
        text = render_resultset(results, title="tiny report")
        lines = text.splitlines()
        assert lines[0] == "tiny report"
        assert lines[1].startswith("workload")
        assert "mean_flowtime" in lines[1]
        # One row per (workload, scenario, scheduler) cell: seeds collapsed.
        assert len(lines) == 2 + 2

    def test_empty_resultset(self):
        from repro.experiments.report import render_resultset

        assert "empty" in render_resultset(ResultSet([]))
