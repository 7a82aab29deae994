"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.cli import _config_from_args, build_parser, main
from repro.cluster.stragglers import DynamicStragglers
from repro.policies import NAMED_SCHEDULERS
from repro.scenarios import MachineFailures, ScenarioSpec, TopologySpec, UniformSpeeds
from repro.study.core import ScenarioRef


def _config(*flags, experiment="figure6"):
    return _config_from_args(build_parser().parse_args([experiment, *flags]))


class TestParser:
    def test_flags_not_given_take_the_config_defaults(self):
        config = _config(experiment="table2")
        assert (config.scale, config.seeds, config.epsilon, config.r) == (0.02, (0, 1), 0.6, 3.0)
        assert config.num_machines is None and config.scenario is None

    def test_overrides(self):
        args = build_parser().parse_args(
            ["figure6", "--scale", "0.01", "--seeds", "3", "4", "--epsilon", "0.4",
             "--r", "2", "--machines", "99"]
        )
        assert args.scale == 0.01
        assert args.seeds == [3, 4]
        assert args.epsilon == 0.4
        assert args.r == 2.0
        assert args.machines == 99

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit, match="invalid --scenario: unknown scenario 'bogus'"):
            main(["figure6", "--scenario", "bogus"])

    def test_non_finite_r_exits_cleanly(self):
        with pytest.raises(SystemExit, match="invalid arguments: r must be .*finite"):
            main(["figure6", "--scale", "0.003", "--seeds", "0", "--r", "nan"])

    def test_scenario_rejected_for_non_simulating_experiments(self):
        for experiment in ("table2", "offline-bound", "scenario-sweep", "all"):
            with pytest.raises(SystemExit, match="--scenario does not apply"):
                main([experiment, "--scenario", "failures"])


#: Each removed scenario-flag invocation, the ``--scenario`` value that
#: replaces it, and the ScenarioSpec the removed flags built (``None`` is
#: the homogeneous cluster), written out as recorded from those flags
#: before their removal.
SCENARIO_EQUIVALENTS = [
    ("--scenario homogeneous", "homogeneous", None),
    (
        "--failure-rate 1e-4 --repair-time 300",
        "failure_rate=1e-4,mean_repair=300",
        ScenarioSpec(failures=MachineFailures(rate=0.0001, mean_repair=300.0)),
    ),
    (
        "--scenario failures --repair-time 5",
        "failure_rate=5e-5,mean_repair=5",
        ScenarioSpec(failures=MachineFailures(rate=5e-05, mean_repair=5.0)),
    ),
    (
        "--scenario dynamic-stragglers --slowdown-factor 8",
        "slowdown_rate=0.0005,slowdown_factor=8",
        ScenarioSpec(
            stragglers=DynamicStragglers(onset_rate=0.0005, mean_duration=200.0, factor=8.0)
        ),
    ),
    (
        "--racks 4 --remote-slowdown 2",
        "racks=4,remote_slowdown=2",
        ScenarioSpec(topology=TopologySpec(racks=4, remote_slowdown=2.0)),
    ),
    (
        "--speed-spread 0.5 --slowdown-rate 1e-3 --slowdown-duration 30",
        "speed_spread=0.5,slowdown_rate=1e-3,slowdown_duration=30",
        ScenarioSpec(
            speeds=UniformSpeeds(low=0.5, high=1.5),
            normalize_mean_speed=True,
            stragglers=DynamicStragglers(onset_rate=0.001, mean_duration=30.0, factor=4.0),
        ),
    ),
    ("--scenario failures --failure-rate 0", "none", None),
]

#: Each removed ``policy`` invocation (all at ``--scale 0.005``), the
#: spec-file study that replaces it, and the per-run result fingerprints,
#: in run order, of the study the removed subcommand ran (recorded from it
#: before its removal).
POLICY_EQUIVALENTS = [
    (
        "policy --ordering srpt --allocation share --redundancy none --seeds 0",
        {"schedulers": ["srpt+share+none", "SRPTMS+C"]},
        (
            "840bef82c4a25884d11a5dd197c3bf82fa0edc19515916fadfca02ee5dd2c8cb",
            "1cf3390220318ce36c83ad9b1378718d7de25d4e760dc44fb1dc6ef4c4f450eb",
        ),
    ),
    (
        "policy --ordering srpt --allocation share --redundancy late --seeds 0",
        {"schedulers": ["srpt+share+late", "SRPTMS+C"]},
        (
            "39605ef8ba0b7ee3124e1d2c68fd0481c434e84888f39b6b2922000b5ab8fd7a",
            "1cf3390220318ce36c83ad9b1378718d7de25d4e760dc44fb1dc6ef4c4f450eb",
        ),
    ),
    (
        "policy --allocation delay --racks 4 --locality-wait 5 --seeds 0",
        {
            "schedulers": [{"name": "srpt+delay+none", "locality_wait": 5.0}, "SRPTMS+C"],
            "scenarios": ["racks=4"],
        },
        (
            "89d9cecb39fb44285fee50a6daf62ffaae85aed6702e7ba0cb785d24c5e38401",
            "86eccb6a7f9aad74471a3d88a4759d2a1b2e6de91c7e39b2de184b36cdf85a66",
        ),
    ),
    (
        "policy --ordering fair --redundancy clone --scenario failures --seeds 0 1",
        {
            "schedulers": ["fair+greedy+clone", "SRPTMS+C"],
            "scenarios": ["failures"],
            "seeds": [0, 1],
        },
        (
            "8fbe6716fa6f378f2981f7b86a6e741fc4b276bda6e02e266f79c4cc0f207eca",
            "fc7adf29be0e187a19fc6ffbe39ec691172b52b70efee1f5465dd04c77cdd001",
            "af4f46dd4581f7a5a7794f86396ab9feff6ddad9925d3d27d640e0c7f03e0df7",
            "30502f3cc4706e612430826cdf52c8bc61f8b294681f93bdec8f1259f2f3cc5d",
        ),
    ),
]

#: The twelve removed flags, each with a value it used to accept.
REMOVED_FLAGS = [
    ("--speed-spread", "0.5"),
    ("--failure-rate", "1e-4"),
    ("--repair-time", "300"),
    ("--slowdown-rate", "1e-3"),
    ("--slowdown-duration", "30"),
    ("--slowdown-factor", "8"),
    ("--racks", "4"),
    ("--remote-slowdown", "2"),
    ("--ordering", "srpt"),
    ("--allocation", "delay"),
    ("--redundancy", "late"),
    ("--locality-wait", "5"),
]


class TestRemovedFlagEquivalents:
    """Every removed invocation has a replacement that builds what it built."""

    @pytest.mark.parametrize(
        "removed, replacement, spec",
        SCENARIO_EQUIVALENTS,
        ids=[row[0] for row in SCENARIO_EQUIVALENTS],
    )
    def test_scenario_knob_list_builds_the_removed_flags_spec(
        self, removed, replacement, spec
    ):
        built = _config("--scenario", replacement).scenario
        assert built == spec
        assert repr(built) == repr(spec)  # 2 and 2.0 would key the cache apart
        # The label a report prints for the knob list is a --scenario value too.
        label = ScenarioRef.coerce(replacement).label
        assert _config("--scenario", label).scenario == spec

    @pytest.mark.parametrize(
        "removed, study, fingerprints",
        POLICY_EQUIVALENTS,
        ids=[row[0] for row in POLICY_EQUIVALENTS],
    )
    def test_spec_file_gives_the_policy_subcommands_runs(
        self, removed, study, fingerprints, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "policy.json"
        table = {"name": "policy", "scale": 0.005, "seeds": [0], **study}
        path.write_text(json.dumps({"study": table}))
        render = cli.render_resultset
        printed = []

        def capture(results, title=""):
            printed.append(results)
            return render(results, title=title)

        monkeypatch.setattr(cli, "render_resultset", capture)
        assert main(["sweep", "--spec", str(path)]) == 0
        assert tuple(result.fingerprint() for result in printed[0].results) == fingerprints
        composition = study["schedulers"][0]
        name = composition if isinstance(composition, str) else composition["name"]
        out = capsys.readouterr().out
        assert name in out and "SRPTMS+C" in out

    @pytest.mark.parametrize("flag, value", REMOVED_FLAGS, ids=[row[0] for row in REMOVED_FLAGS])
    def test_removed_flags_are_refused(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure1", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_policy_subcommand_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["policy", "--scale", "0.005", "--seeds", "0"])
        assert exc.value.code == 2
        assert "invalid choice: 'policy'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "knobs, knob",
        [
            ("failure_rate=nan", "failure_rate"),
            ("failure_rate=1e-4,mean_repair=-1", "mean_repair"),
            ("speed_spread=true", "speed_spread"),
            ("racks=4.0", "racks"),
            ("failure_rate=1e-4,bogus=1", "bogus"),
            ("slowdown_factor=8", "slowdown_factor"),
            ("racks=4,,remote_slowdown=2", "key=value"),
            ("racks=4,racks=2", "key=value"),
        ],
    )
    def test_hostile_knob_list_exits_naming_the_knob(self, knobs, knob):
        with pytest.raises(SystemExit) as exc:
            main(["figure6", "--scenario", knobs])
        message = str(exc.value.code)
        assert message.startswith("invalid --scenario: ")
        assert knob in message


class TestMain:
    def test_table2_prints_report(self, capsys):
        exit_code = main(["table2", "--scale", "0.005", "--seeds", "0"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Table II" in output

    def test_offline_bound_prints_report(self, capsys):
        exit_code = main(["offline-bound", "--scale", "0.005", "--seeds", "0"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "competitive ratio" in output

    def test_figure6_prints_comparison(self, capsys):
        exit_code = main(["figure6", "--scale", "0.005", "--seeds", "0"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "SRPTMS+C" in output and "Mantri" in output


class TestProfileCommand:
    def test_profile_smoke_names_engine_frames(self, capsys, tmp_path):
        dump = tmp_path / "engine.prof"
        exit_code = main(
            [
                "profile",
                "--workload",
                "stream:2000",
                "--scheduler",
                "FIFO",
                "--top",
                "15",
                "--dump",
                str(dump),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        # The cumulative table must surface the engine hot path by name.
        assert "cumulative" in output
        assert "engine.py" in output
        assert "_run" in output
        assert "2000 jobs" in output
        # And the raw pstats dump must be loadable.
        assert dump.exists()
        import pstats

        stats = pstats.Stats(str(dump))
        assert any("engine.py" in key[0] for key in stats.stats)

    def test_profile_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["profile", "--workload", "nonsense"])

    @pytest.mark.parametrize(
        "flags, knob",
        [
            (["--workload", "stream:abc"], "num_jobs"),
            (["--workload", "smoke:abc"], "scale"),
            (["--workload", "stream:-5"], "num_jobs"),
            (["--workload", "smoke:-1"], "scale"),
            (["--workload", "stream:200", "--machines", "0"], "machines"),
            (["--workload", "stream:200", "--seed", "-1"], "seed"),
            (["--workload", "stream:200", "--scheduler", "SRPTMS+C", "--epsilon", "2"], "epsilon"),
        ],
    )
    def test_profile_rejects_a_bad_knob_by_name(self, flags, knob):
        with pytest.raises(SystemExit) as exc:
            main(["profile", *flags])
        assert str(exc.value.code).startswith(f"invalid arguments: {knob} must ")

    @pytest.mark.parametrize("name", [*NAMED_SCHEDULERS, "srpt+greedy+late"])
    def test_profile_takes_every_registry_name(self, name, capsys):
        assert main(["profile", "--scheduler", name, "--workload", "stream:200"]) == 0
        assert "200 jobs" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["srptms+c", "fifo", "bogus+greedy+late"])
    def test_profile_rejects_unknown_scheduler_listing_the_valid_names(self, name):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--scheduler", name, "--workload", "stream:200"])
        message = str(exc.value.code)
        assert f"unknown scheduler {name!r}" in message
        assert all(known in message for known in NAMED_SCHEDULERS)
