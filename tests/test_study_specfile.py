"""Tests for study spec files (TOML/JSON round-trips) and the sweep CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.scenarios import ScenarioSpec, UniformSpeeds
from repro.study import (
    Study,
    StudySpecError,
    dump_study,
    load_study,
    study_from_dict,
    study_from_json,
    study_from_toml,
    study_to_dict,
    study_to_json,
    study_to_toml,
)

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    tomllib = None

needs_tomllib = pytest.mark.skipif(tomllib is None, reason="tomllib needs Python >= 3.11")

#: A study exercising every declarative feature: scheduler kwargs, scenario
#: presets/tables/labels, google and stream and bulk workloads, scalar axes.
FULL_STUDY = Study(
    name="full",
    schedulers=("SRPTMS+C", {"name": "SRPT", "r": 2.0}, "FIFO"),
    scenarios=(
        None,
        "failures",
        {"speed_spread": 0.5},
        ("storm", {"failure_rate": 1e-4, "mean_repair": 120.0}),
    ),
    workloads=(
        "google",
        {"kind": "stream", "factory": "poisson", "num_jobs": 64, "seed": 3},
        {"kind": "bulk", "job_sizes": [2, 3], "mean_duration": 5.0, "cv": 0.0},
    ),
    seeds=(0, 1, 2),
    axes={"epsilon": (0.4, 0.6), "r": (1.0, 3.0)},
    scale=0.01,
    machines=None,
    max_time=1e6,
)

#: A fast-to-run spec (bulk workload, tiny cluster) for CLI executions.
CLI_SPEC = {
    "study": {
        "name": "cli-tiny",
        "schedulers": ["FIFO", "SCA"],
        "workloads": [
            {"kind": "bulk", "job_sizes": [2, 3, 4], "mean_duration": 5.0, "cv": 0.3}
        ],
        "seeds": [0, 1],
        "machines": 4,
    }
}


class TestRoundTrips:
    def test_dict_round_trip(self):
        assert study_from_dict(study_to_dict(FULL_STUDY)) == FULL_STUDY

    @needs_tomllib
    def test_toml_round_trip(self):
        assert study_from_toml(study_to_toml(FULL_STUDY)) == FULL_STUDY

    def test_json_round_trip(self):
        assert study_from_json(study_to_json(FULL_STUDY)) == FULL_STUDY

    @needs_tomllib
    def test_file_round_trip_by_suffix(self, tmp_path):
        for suffix in (".toml", ".json"):
            path = tmp_path / f"study{suffix}"
            dump_study(FULL_STUDY, path)
            assert load_study(path) == FULL_STUDY

    @needs_tomllib
    def test_hand_written_toml(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text(
            "[study]\n"
            'name = "hand"\n'
            "scale = 0.01\n"
            "seeds = [0]\n"
            'schedulers = ["SCA", { name = "SRPT", r = 2.0 }]\n'
            'scenarios = ["none", { speed_spread = 0.25 }]\n'
            "[study.axes]\n"
            "epsilon = [0.5, 0.7]\n"
        )
        study = load_study(path)
        assert study.name == "hand"
        assert study.schedulers[1].kwargs == (("r", 2.0),)
        assert study.scenarios[1].spec.speeds == UniformSpeeds(0.75, 1.25)
        assert study.axes == (("epsilon", (0.5, 0.7)),)
        assert study.num_points() == 2 * 2 * 2 * 1


class TestStrictness:
    def test_unknown_study_key_rejected(self):
        with pytest.raises(StudySpecError, match="schedulrs"):
            study_from_dict({"study": {"name": "x", "schedulrs": ["SCA"]}})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(StudySpecError, match="top-level"):
            study_from_dict({"study": {"name": "x"}, "extra": 1})

    def test_missing_name_rejected(self):
        with pytest.raises(StudySpecError, match="name"):
            study_from_dict({"study": {"scale": 0.01}})

    def test_unknown_scheduler_name_rejected(self):
        with pytest.raises(StudySpecError, match="unknown scheduler"):
            study_from_dict({"study": {"name": "x", "schedulers": ["Bogus"]}})

    def test_unknown_scenario_key_rejected(self):
        with pytest.raises(StudySpecError, match="unknown scenario keys"):
            study_from_dict(
                {"study": {"name": "x", "scenarios": [{"sped_spread": 0.5}]}}
            )

    def test_unknown_bulk_workload_key_rejected(self):
        with pytest.raises(StudySpecError, match="unknown bulk-workload keys"):
            study_from_dict(
                {"study": {"name": "x", "workloads": [
                    {"kind": "bulk", "job_sizes": [3], "mean_durations": 5.0}
                ]}}
            )

    def test_unknown_stream_workload_key_rejected(self):
        with pytest.raises(StudySpecError, match="unknown poisson-stream keys"):
            study_from_dict(
                {"study": {"name": "x", "workloads": [
                    {"kind": "stream", "factory": "poisson", "num_jobs": 8,
                     "arrival_rates": 1.0}
                ]}}
            )

    @pytest.mark.parametrize(
        "workload, knob",
        [
            ({"kind": "stream", "factory": "poisson", "num_jobs": 20,
              "mean_duration": float("nan")}, "mean_duration"),
            ({"kind": "stream", "factory": "poisson", "num_jobs": 20,
              "arrival_rate": float("inf")}, "arrival_rate"),
            ({"kind": "stream", "factory": "dag_chain", "num_jobs": 20,
              "cv": float("-inf")}, "cv"),
            ({"kind": "google", "within_job_cv": float("inf")}, "within_job_cv"),
            ({"kind": "google", "within_job_cv": float("nan")}, "within_job_cv"),
        ],
    )
    def test_non_finite_workload_knob_rejected(self, workload, knob):
        with pytest.raises(StudySpecError, match=f"{knob} must be .*finite"):
            study_from_dict({"study": {"name": "x", "workloads": [workload]}})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_within_job_cv_rejected(self, value):
        # Used to die in trace generation: ZeroDivisionError for inf, an
        # unrelated calibration error for NaN.
        with pytest.raises(StudySpecError, match="within_job_cv must be .*finite"):
            study_from_dict({"study": {"name": "x", "within_job_cv": value}})

    def test_unknown_axis_rejected(self):
        with pytest.raises(StudySpecError, match="unknown scalar axis"):
            study_from_dict({"study": {"name": "x", "axes": {"bogus": [1.0]}}})

    def test_invalid_json_and_toml(self):
        with pytest.raises(StudySpecError, match="invalid JSON"):
            study_from_json("{nope")
        if tomllib is not None:
            with pytest.raises(StudySpecError, match="invalid TOML"):
                study_from_toml("= nope")

    def test_raw_objects_are_not_serialisable(self):
        study = Study(
            name="raw", scenarios=(ScenarioSpec(speeds=UniformSpeeds(0.5, 1.5)),)
        )
        with pytest.raises(StudySpecError, match="ScenarioSpec"):
            study_to_dict(study)

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "study.yaml"
        path.write_text("study:\n")
        with pytest.raises(StudySpecError, match="suffix"):
            load_study(path)


class TestSweepCli:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(CLI_SPEC))
        return str(path)

    def test_sweep_requires_spec(self):
        with pytest.raises(SystemExit, match="--spec"):
            main(["sweep"])

    def test_spec_only_for_sweep(self, spec_path):
        with pytest.raises(SystemExit, match="--spec"):
            main(["figure6", "--spec", spec_path])

    @pytest.mark.parametrize(
        "flags",
        [["--scale", "0.01"], ["--seeds", "0", "1"], ["--epsilon", "0.6"]],
        ids=["scale", "seeds-at-default", "epsilon-at-default"],
    )
    def test_figure_flags_rejected_for_sweep(self, spec_path, flags):
        with pytest.raises(SystemExit, match=f"{flags[0]} does not apply to 'sweep'"):
            main(["sweep", "--spec", spec_path, *flags])

    def test_scenario_flags_rejected_for_sweep(self, spec_path):
        with pytest.raises(SystemExit, match="scenario"):
            main(["sweep", "--spec", spec_path, "--scenario", "failures"])

    def test_non_finite_workload_knob_fails_before_any_run(self, tmp_path, capsys):
        # Used to exit 0 with nan in every flowtime column, and to store
        # that result in the cache for warm replays.
        path = tmp_path / "nan.json"
        study = {
            "name": "nan", "schedulers": ["FIFO"], "seeds": [0], "machines": 4,
            "workloads": [{"kind": "stream", "factory": "poisson", "num_jobs": 20,
                           "mean_duration": float("nan")}],
        }
        path.write_text(json.dumps({"study": study}))
        cache = tmp_path / "cache"
        csv_path = tmp_path / "out.csv"
        with pytest.raises(SystemExit, match="mean_duration must be .*finite"):
            main(["sweep", "--spec", str(path), "--cache-dir", str(cache),
                  "--csv", str(csv_path)])
        assert not csv_path.exists()
        assert not cache.exists() or not any(p.is_file() for p in cache.rglob("*"))

    def test_invalid_spec_is_clean_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"study": {"name": "x", "bogus": 1}}))
        with pytest.raises(SystemExit, match="bogus"):
            main(["sweep", "--spec", str(path)])

    def test_sweep_prints_report_and_exports(self, spec_path, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        exit_code = main(
            ["sweep", "--spec", spec_path, "--csv", str(csv_path),
             "--json", str(json_path)]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Study 'cli-tiny'" in output
        assert "FIFO" in output and "SCA" in output
        assert csv_path.read_text().startswith("workload,scenario,scheduler,seed")
        assert len(json.loads(json_path.read_text())) == 4

    def test_workers_zero_and_cache_reproduce_bit_identically(
        self, spec_path, tmp_path, capsys
    ):
        """Serial vs --workers 0, and cold vs warm cache, export equal bytes."""
        cache = str(tmp_path / "cache")
        outputs = {}
        for tag, extra in {
            "serial": [],
            "pool": ["--workers", "0"],
            "cold": ["--cache-dir", cache],
            "warm": ["--cache-dir", cache],
        }.items():
            csv_path = tmp_path / f"{tag}.csv"
            assert main(["sweep", "--spec", spec_path, "--csv", str(csv_path), *extra]) == 0
            outputs[tag] = (csv_path.read_bytes(), capsys.readouterr().out)
        assert outputs["serial"] == outputs["pool"]
        assert outputs["serial"] == outputs["cold"]
        assert outputs["cold"] == outputs["warm"]
