"""Cache-correctness tests for the RunSpec-keyed results store."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cluster.stragglers import DynamicStragglers
from repro.scenarios import (
    BimodalSpeeds,
    MachineFailures,
    ScenarioSpec,
    TopologySpec,
    UniformSpeeds,
)
from repro.policies import make_scheduler
from repro.simulation import (
    ExperimentRunner,
    ResultsStore,
    RunSpec,
    SchedulerSpec,
    UncacheableSpecError,
    run_spec_fingerprint,
)
from repro.simulation.experiment_runner import TraceSpec
from repro.simulation.results_store import canonical_spec_description
from repro.workload.generators import poisson_trace
from repro.workload.stream import StreamSpec, stream_poisson_jobs


def make_spec(**overrides) -> RunSpec:
    defaults = dict(
        trace=TraceSpec(factory=poisson_trace, kwargs={"num_jobs": 40,
                                                       "arrival_rate": 1.0,
                                                       "seed": 5}),
        scheduler=SchedulerSpec("SRPTMS+C", {"epsilon": 0.6, "r": 3.0}),
        num_machines=16,
        seed=7,
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


class TestFingerprint:
    def test_stable_across_equal_specs(self):
        assert run_spec_fingerprint(make_spec()) == run_spec_fingerprint(make_spec())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": 8},
            {"num_machines": 17},
            {"machine_speed": 1.5},
            {"max_time": 1e6},
            {"scheduler": SchedulerSpec("SRPTMS+C", {"epsilon": 0.61, "r": 3.0})},
            {"scheduler": SchedulerSpec("FIFO")},
            {"trace": TraceSpec(factory=poisson_trace,
                                kwargs={"num_jobs": 40, "arrival_rate": 1.0,
                                        "seed": 6})},
            {"trace": StreamSpec(factory=stream_poisson_jobs, num_jobs=40,
                                 kwargs={"arrival_rate": 1.0, "seed": 5})},
            {"scenario": ScenarioSpec(speeds=UniformSpeeds(0.5, 1.5))},
        ],
        ids=["seed", "machines", "speed", "max_time", "scheduler-kwargs",
             "scheduler-class", "trace-kwargs", "trace-kind", "scenario"],
    )
    def test_every_result_relevant_field_changes_the_key(self, overrides):
        assert run_spec_fingerprint(make_spec()) != run_spec_fingerprint(
            make_spec(**overrides)
        )

    def test_nested_scenario_fields_change_the_key(self):
        """Any knob inside ScenarioSpec -- including nested process specs --
        must invalidate the key."""
        base = make_spec(scenario=ScenarioSpec(
            speeds=UniformSpeeds(0.5, 1.5),
            normalize_mean_speed=True,
            stragglers=DynamicStragglers(onset_rate=5e-4, mean_duration=200.0,
                                         factor=4.0),
            failures=MachineFailures(rate=5e-5, mean_repair=300.0),
        ))
        variants = [
            dataclasses.replace(base.scenario,
                                speeds=UniformSpeeds(0.4, 1.6)),
            dataclasses.replace(base.scenario,
                                speeds=BimodalSpeeds()),
            dataclasses.replace(base.scenario, normalize_mean_speed=False),
            dataclasses.replace(base.scenario,
                                stragglers=DynamicStragglers(
                                    onset_rate=5e-4, mean_duration=200.0,
                                    factor=4.5)),
            dataclasses.replace(base.scenario,
                                failures=MachineFailures(rate=5e-5,
                                                         mean_repair=301.0)),
            dataclasses.replace(base.scenario,
                                failures=MachineFailures(rate=5e-5,
                                                         mean_repair=300.0,
                                                         fixed_repair=True)),
        ]
        keys = {run_spec_fingerprint(base)}
        for scenario in variants:
            keys.add(run_spec_fingerprint(
                dataclasses.replace(base, scenario=scenario)))
        assert len(keys) == len(variants) + 1

    def test_tag_is_excluded(self):
        assert run_spec_fingerprint(make_spec()) == run_spec_fingerprint(
            make_spec(tag="sweep-point-3")
        )

    def test_materialised_trace_hashed_by_content(self):
        trace_a = poisson_trace(20, 1.0, seed=3)
        trace_b = poisson_trace(20, 1.0, seed=3)
        trace_c = poisson_trace(20, 1.0, seed=4)
        assert run_spec_fingerprint(make_spec(trace=trace_a)) == (
            run_spec_fingerprint(make_spec(trace=trace_b))
        )
        assert run_spec_fingerprint(make_spec(trace=trace_a)) != (
            run_spec_fingerprint(make_spec(trace=trace_c))
        )

    def test_lambdas_are_uncacheable(self):
        spec = make_spec(scheduler=lambda: make_scheduler("FIFO"))
        with pytest.raises(UncacheableSpecError):
            run_spec_fingerprint(spec)

    def test_canonical_description_text_is_pinned(self):
        """Every key line of a fully populated spec, byte for byte: field
        order, float rendering and the scheduler's registry name cannot
        drift without rotating every stored key."""
        spec = make_spec(
            machine_speed=1.5,
            max_time=1e6,
            scenario=ScenarioSpec(
                speeds=BimodalSpeeds(slow_fraction=0.25, slow_speed=0.25),
                normalize_mean_speed=True,
                stragglers=DynamicStragglers(
                    onset_rate=1e-3, mean_duration=200.0, factor=4.0
                ),
                failures=MachineFailures(rate=5e-5, mean_repair=300.0),
                topology=TopologySpec(racks=2, remote_slowdown=2.0),
            ),
        )
        assert canonical_spec_description(spec).splitlines() == [
            "format=5",
            "trace=repro.simulation.experiment_runner.TraceSpec("
            "factory=function:repro.workload.generators.poisson_trace, "
            "kwargs={'arrival_rate': 1.0, 'num_jobs': 40, 'seed': 5})",
            "scheduler=repro.simulation.experiment_runner.SchedulerSpec("
            "name='SRPTMS+C', kwargs={'epsilon': 0.6, 'r': 3.0})",
            "num_machines=16",
            "seed=7",
            "machine_speed=1.5",
            "scenario=repro.scenarios.ScenarioSpec("
            "speeds=repro.scenarios.BimodalSpeeds("
            "slow_fraction=0.25, slow_speed=0.25, fast_speed=1.0), "
            "normalize_mean_speed=True, "
            "stragglers=repro.cluster.stragglers.DynamicStragglers("
            "onset_rate=0.001, mean_duration=200.0, factor=4.0), "
            "failures=repro.scenarios.MachineFailures("
            "rate=5e-05, mean_repair=300.0, fixed_repair=False), "
            "topology=repro.scenarios.TopologySpec(racks=2, remote_slowdown=2.0))",
            "max_time=1000000.0",
        ]
        assert run_spec_fingerprint(spec) == (
            "bbf582c1250d5cd934f4860a233f41d5cdf8946e6cf1685130014c772c127034"
        )


class TestResultsStore:
    def test_hit_returns_byte_equal_result(self, tmp_path):
        store = ResultsStore(tmp_path)
        spec = make_spec()
        key = run_spec_fingerprint(spec)
        fresh = spec.execute()
        store.store(key, canonical_spec_description(spec), fresh)
        loaded = store.load(key)
        assert loaded is not None
        assert loaded.fingerprint() == fresh.fingerprint()
        assert loaded.canonical_dict() == fresh.canonical_dict()
        assert loaded.summary() == fresh.summary()
        assert loaded.runtime_seconds == fresh.runtime_seconds

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = ResultsStore(tmp_path)
        assert store.load("0" * 64) is None
        assert store.misses == 1 and store.hits == 0

    @pytest.mark.parametrize(
        "corruption",
        ["truncate", "garbage", "tamper", "format"],
    )
    def test_corrupted_entries_are_recomputed_not_trusted(self, tmp_path,
                                                          corruption):
        store = ResultsStore(tmp_path)
        spec = make_spec()
        key = run_spec_fingerprint(spec)
        fresh = spec.execute()
        path = store.store(key, canonical_spec_description(spec), fresh)

        if corruption == "truncate":
            path.write_text(path.read_text()[: len(path.read_text()) // 2])
        elif corruption == "garbage":
            path.write_text("not json at all{{{")
        elif corruption == "tamper":
            entry = json.loads(path.read_text())
            entry["result"]["makespan"] += 1.0  # flips the fingerprint
            path.write_text(json.dumps(entry))
        elif corruption == "format":
            entry = json.loads(path.read_text())
            entry["format"] = 999
            path.write_text(json.dumps(entry))

        assert store.load(key) is None
        assert store.corrupt == 1

        # A cached runner recomputes and heals the entry.
        runner = ExperimentRunner(workers=1, store=store)
        (recomputed,) = runner.run([spec])
        assert runner.last_run_stats["executed"] == 1
        assert recomputed.fingerprint() == fresh.fingerprint()
        assert store.load(key).fingerprint() == fresh.fingerprint()

    def test_v2_format_entries_are_stale_and_recomputed(self, tmp_path):
        """Pre-DAG (v2) entries -- no per-record ``num_stages`` column, no
        checkpoint counters -- are detected as stale and recomputed, never
        rebuilt with silently-defaulted fields."""
        from repro.simulation.results_store import FORMAT_VERSION

        assert FORMAT_VERSION == 5
        store = ResultsStore(tmp_path)
        spec = make_spec()
        key = run_spec_fingerprint(spec)
        fresh = spec.execute()
        path = store.store(key, canonical_spec_description(spec), fresh)

        # Rewrite the entry the way pre-DAG code would have written it:
        # format 2, record rows without the trailing num_stages column,
        # and no checkpoint counters in the payload.
        entry = json.loads(path.read_text())
        entry["format"] = 2
        payload = entry["result"]
        del payload["checkpoint_resumes"]
        del payload["work_saved_by_checkpointing"]
        payload["records"] = [row[:-1] for row in payload["records"]]
        path.write_text(json.dumps(entry))

        assert store.load(key) is None
        assert store.corrupt == 1 and store.misses == 1 and store.hits == 0

        # A cached runner recomputes the cell and heals it to the current
        # format.
        runner = ExperimentRunner(workers=1, store=store)
        (recomputed,) = runner.run([spec])
        assert runner.last_run_stats["executed"] == 1
        assert recomputed.fingerprint() == fresh.fingerprint()
        healed = store.load(key)
        assert healed is not None
        assert healed.fingerprint() == fresh.fingerprint()
        assert all(record.num_stages == 2 for record in healed.records)

    def test_v3_format_entries_are_stale_and_recomputed(self, tmp_path):
        """FORMAT_VERSION 4 (rack-locality counters): a pre-topology v3
        entry -- no ``local_launches``/``remote_launches`` in the payload
        -- is detected as stale and recomputed, never rebuilt with
        silently-defaulted counters."""
        store = ResultsStore(tmp_path)
        spec = make_spec()
        key = run_spec_fingerprint(spec)
        fresh = spec.execute()
        path = store.store(key, canonical_spec_description(spec), fresh)

        # Rewrite the entry the way pre-topology code would have written
        # it: format 3 and no locality counters in the payload.
        entry = json.loads(path.read_text())
        entry["format"] = 3
        payload = entry["result"]
        del payload["local_launches"]
        del payload["remote_launches"]
        path.write_text(json.dumps(entry))

        assert store.load(key) is None
        assert store.corrupt == 1 and store.misses == 1 and store.hits == 0

        # A cached runner recomputes the cell and heals it to the current
        # format.
        runner = ExperimentRunner(workers=1, store=store)
        (recomputed,) = runner.run([spec])
        assert runner.last_run_stats["executed"] == 1
        assert recomputed.fingerprint() == fresh.fingerprint()
        healed = store.load(key)
        assert healed is not None
        assert healed.fingerprint() == fresh.fingerprint()
        assert healed.local_launches == 0 and healed.remote_launches == 0


class TestCachedRunner:
    def test_second_sweep_performs_zero_engine_runs(self, tmp_path):
        """The acceptance property: warm sweeps never touch the engine."""
        runner = ExperimentRunner(workers=1, cache_dir=tmp_path)
        base = make_spec()
        specs = [base.with_seed(seed) for seed in range(4)]

        cold = runner.run(specs)
        assert runner.last_run_stats == {
            "executed": 4, "cache_hits": 0, "uncacheable": 0,
        }

        warm = runner.run(specs)
        assert runner.last_run_stats == {
            "executed": 0, "cache_hits": 4, "uncacheable": 0,
        }
        assert [r.fingerprint() for r in warm] == [r.fingerprint() for r in cold]

    def test_cache_shared_across_runner_instances(self, tmp_path):
        """Resuming an interrupted sweep: a new process sees the old cells."""
        specs = [make_spec().with_seed(seed) for seed in range(3)]
        first = ExperimentRunner(workers=1, cache_dir=tmp_path)
        first.run(specs[:2])  # "interrupted" after two cells
        second = ExperimentRunner(workers=1, cache_dir=tmp_path)
        second.run(specs)
        assert second.last_run_stats["executed"] == 1
        assert second.last_run_stats["cache_hits"] == 2

    def test_partial_hits_execute_only_the_misses(self, tmp_path):
        runner = ExperimentRunner(workers=1, cache_dir=tmp_path)
        runner.run([make_spec().with_seed(0)])
        results = runner.run([make_spec().with_seed(s) for s in (0, 1)])
        assert runner.last_run_stats == {
            "executed": 1, "cache_hits": 1, "uncacheable": 0,
        }
        assert results[0].seed == 0 and results[1].seed == 1

    def test_uncacheable_specs_bypass_the_cache(self, tmp_path):
        runner = ExperimentRunner(workers=1, cache_dir=tmp_path)
        spec = make_spec(scheduler=lambda: make_scheduler("FIFO"))
        for _ in range(2):
            (result,) = runner.run([spec])
            assert result.num_jobs == 40
            assert runner.last_run_stats == {
                "executed": 1, "cache_hits": 0, "uncacheable": 1,
            }

    def test_equal_specs_in_one_call_run_once(self, tmp_path):
        """Specs sharing a key (here: equal but for the tag) run once per
        call, each spec receives that result and its own callback."""
        specs = [
            dataclasses.replace(make_spec().with_seed(seed), tag=tag)
            for tag, seed in (("a", 0), ("b", 1), ("c", 0), ("d", 0))
        ]
        for runner in (
            ExperimentRunner(workers=1),
            ExperimentRunner(workers=1, cache_dir=tmp_path),
        ):
            seen = []
            results = runner.run(specs, on_result=lambda s, r, hit: seen.append((s.tag, r, hit)))
            assert runner.last_run_stats == {
                "executed": 2, "cache_hits": 0, "uncacheable": 0,
            }
            assert results[0] is results[2] is results[3]
            # Each key's specs fire together, in spec order, as the key lands.
            assert [(tag, hit) for tag, _, hit in seen] == [
                ("a", False), ("c", False), ("d", False), ("b", False),
            ]
            assert [r for _, r, _ in seen] == [results[i] for i in (0, 2, 3, 1)]
            assert results[0].fingerprint() == make_spec().with_seed(0).execute().fingerprint()
        # Warm: one load per key, a hit per spec, reported in spec order.
        warm = []
        runner.run(specs, on_result=lambda s, r, hit: warm.append((s.tag, hit)))
        assert runner.last_run_stats == {"executed": 0, "cache_hits": 4, "uncacheable": 0}
        assert runner.store.hits == 2
        assert warm == [("a", True), ("b", True), ("c", True), ("d", True)]

    def test_equal_uncacheable_specs_each_run(self):
        spec = make_spec(scheduler=lambda: make_scheduler("FIFO"))
        runner = ExperimentRunner(workers=1)
        first, second = runner.run([spec, spec])
        assert runner.last_run_stats == {
            "executed": 2, "cache_hits": 0, "uncacheable": 2,
        }
        assert first is not second
        assert first.fingerprint() == second.fingerprint()

    def test_pooled_call_runs_each_key_once(self):
        specs = [make_spec().with_seed(seed) for seed in (0, 1, 0, 2, 1)]
        runner = ExperimentRunner(workers=2)
        results = runner.run(specs)
        assert runner.last_run_stats["executed"] == 3
        assert results[0] is results[2] and results[1] is results[4]
        alone = [ExperimentRunner(workers=1).run([spec])[0] for spec in specs]
        assert [r.fingerprint() for r in results] == [r.fingerprint() for r in alone]

    def test_pooled_cold_run_then_cached_warm_run(self, tmp_path):
        specs = [make_spec().with_seed(seed) for seed in range(3)]
        pooled = ExperimentRunner(workers=2, cache_dir=tmp_path)
        cold = pooled.run(specs)
        assert pooled.last_run_stats["executed"] == 3
        warm = ExperimentRunner(workers=1, cache_dir=tmp_path).run(specs)
        assert [r.fingerprint() for r in warm] == [r.fingerprint() for r in cold]

    def test_cache_dir_and_store_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentRunner(cache_dir=tmp_path, store=ResultsStore(tmp_path))

    def test_without_cache_every_run_executes(self):
        runner = ExperimentRunner(workers=1)
        specs = [make_spec()]
        runner.run(specs)
        assert runner.last_run_stats["executed"] == 1
        runner.run(specs)
        assert runner.last_run_stats["executed"] == 1


class TestConfigAndCli:
    def test_experiment_config_cache_dir_wires_the_store(self, tmp_path):
        from repro.experiments import ExperimentConfig

        config = ExperimentConfig(scale=0.005, seeds=(0,),
                                  cache_dir=str(tmp_path / "cache"))
        runner = config.make_runner()
        assert runner.store is not None
        assert runner.store.cache_dir == tmp_path / "cache"
        assert ExperimentConfig(scale=0.005).make_runner().store is None

    def test_cli_cache_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["figure1", "--cache-dir", "/tmp/c"])
        assert args.cache_dir == "/tmp/c" and not args.no_cache
        args = parser.parse_args(["figure1", "--cache-dir", "/tmp/c",
                                  "--no-cache"])
        assert args.no_cache

    def test_cli_no_cache_overrides_cache_dir(self, tmp_path):
        from repro.cli import _config_from_args, build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["figure1", "--cache-dir", str(tmp_path), "--no-cache"]
        )
        assert _config_from_args(args).cache_dir is None
        args = parser.parse_args(["figure1", "--cache-dir", str(tmp_path)])
        assert _config_from_args(args).cache_dir == str(tmp_path)
