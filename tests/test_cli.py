"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _scenario_from_args, build_parser, main
from repro.policies import NAMED_SCHEDULERS
from repro.scenarios import scenario_preset


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.experiment == "table2"
        assert args.scale == 0.02
        assert args.seeds == [0, 1]
        assert args.epsilon == 0.6

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
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure6", "--scenario", "bogus"])


class TestScenarioFlags:
    def _scenario(self, *flags, experiment="figure6"):
        return _scenario_from_args(build_parser().parse_args([experiment, *flags]))

    def test_no_flags_is_homogeneous(self):
        assert self._scenario() is None

    def test_preset_selected(self):
        assert self._scenario("--scenario", "failures") == scenario_preset("failures")

    def test_detail_flags_override_preset(self):
        spec = self._scenario("--scenario", "failures", "--repair-time", "5")
        assert spec.failures.mean_repair == 5.0
        assert spec.failures.rate == scenario_preset("failures").failures.rate
        spec = self._scenario(
            "--scenario", "dynamic-stragglers", "--slowdown-factor", "8"
        )
        assert spec.stragglers.factor == 8.0

    def test_rate_flags_create_processes(self):
        spec = self._scenario(
            "--failure-rate", "1e-4", "--slowdown-rate", "1e-3",
            "--slowdown-duration", "30", "--speed-spread", "0.5",
        )
        assert spec.failures.rate == 1e-4
        assert spec.stragglers.mean_duration == 30.0
        assert spec.speeds.low == 0.5 and spec.speeds.high == 1.5
        assert spec.normalize_mean_speed

    def test_zero_rate_disables_preset_process(self):
        assert self._scenario("--scenario", "failures", "--failure-rate", "0") is None

    def test_orphan_detail_flags_rejected(self):
        with pytest.raises(SystemExit):
            self._scenario("--repair-time", "5")
        with pytest.raises(SystemExit):
            self._scenario("--slowdown-duration", "5")
        with pytest.raises(SystemExit):
            self._scenario("--speed-spread", "1.5")

    def test_invalid_process_values_exit_cleanly(self):
        """Spec validation errors surface as SystemExit, not tracebacks."""
        with pytest.raises(SystemExit):
            self._scenario("--failure-rate", "-1")
        with pytest.raises(SystemExit):
            self._scenario("--slowdown-rate", "1e-3", "--slowdown-factor", "0.5")
        with pytest.raises(SystemExit):
            self._scenario("--scenario", "failures", "--repair-time", "0")
        with pytest.raises(SystemExit, match="invalid scenario flags: .*finite"):
            self._scenario("--slowdown-rate", "0.05", "--slowdown-duration", "nan")

    def test_non_finite_r_exits_cleanly(self):
        with pytest.raises(SystemExit, match="invalid arguments: r must be .*finite"):
            main(["figure6", "--scale", "0.003", "--seeds", "0", "--r", "nan"])

    def test_scenario_sweep_allows_bare_repair_time(self):
        assert self._scenario(
            "--repair-time", "5", experiment="scenario-sweep"
        ) is None

    def test_scenario_rejected_for_non_simulating_experiments(self):
        for experiment in ("table2", "offline-bound", "scenario-sweep", "all"):
            with pytest.raises(SystemExit):
                main([experiment, "--scenario", "failures"])


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
