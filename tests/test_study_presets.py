"""Byte-identity of the study presets against the golden reports.

``tests/golden/*.txt`` freeze every preset's report at a smoke
configuration (``tools/generate_golden_reports.py``).  Two presets
(table2, figure6) are additionally checked against an in-test
recomputation from the raw primitives, so the equivalence stays
executable rather than frozen, and every preset's results-cache keys are
pinned.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig
from repro.study import (
    STUDY_PRESETS,
    Study,
    preset_study,
    study_from_json,
    study_from_toml,
    study_to_json,
    study_to_toml,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Every paper artefact and sweep, by its CLI name.
DRIVER_NAMES = (
    "table2",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "offline-bound",
    "scenario-sweep",
    "policy-grid",
    "dag-redundancy",
    "locality",
)


#: First 12 hex digits of the sha256 of each preset's concatenated run-spec
#: fingerprints (its results-cache keys) at scale 0.005, seed 0, under
#: results-store format 5 (schedulers keyed by registry name).
CACHE_KEY_DIGESTS = {
    "table2": "e3b0c44298fc",  # no runs: the digest of the empty string
    "figure1": "fcea52f2d585",
    "figure2": "c1ba9ab3d44c",
    "figure3": "29f43f364a3a",
    "figure4": "122eba6291a3",
    "figure5": "122eba6291a3",
    "figure6": "122eba6291a3",
    "offline-bound": "7be978011f25",
    "scenario-sweep": "1f2088228698",
    "policy-grid": "d63189fa8c86",
    "dag-redundancy": "b86f340f2954",
    "locality": "d3596c3e3bfc",
}


def _golden_generator():
    """Import tools/generate_golden_reports.py (the config single source)."""
    path = Path(__file__).parent.parent / "tools" / "generate_golden_reports.py"
    spec = importlib.util.spec_from_file_location("golden_generator", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("golden_generator", module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def generated_reports():
    """Every driver's report at the golden smoke configuration (runs once)."""
    return _golden_generator().generate()


class TestGoldenReports:
    @pytest.mark.parametrize(
        "name",
        [
            "table2",
            "figure1",
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "offline_bound",
            "scenario_sweep",
            "policy_grid",
            "dag_redundancy",
            "locality",
        ],
    )
    def test_driver_report_matches_pre_study_golden(self, generated_reports, name):
        golden = (GOLDEN_DIR / f"{name}.txt").read_text().rstrip("\n")
        assert generated_reports[name] == golden, (
            f"{name} report drifted from the pre-Study golden bytes"
        )


class TestPresetRegistry:
    def test_all_drivers_are_presets(self):
        assert set(STUDY_PRESETS) == set(DRIVER_NAMES)

    @pytest.mark.parametrize("name", DRIVER_NAMES)
    def test_build_returns_a_study(self, name):
        study = preset_study(name)
        assert isinstance(study, Study)
        # Every preset study is declarative enough to round-trip spec files.
        assert study_from_json(study_to_json(study)) == study
        try:
            import tomllib  # noqa: F401 - gate: stdlib only on Python >= 3.11
        except ModuleNotFoundError:
            return
        assert study_from_toml(study_to_toml(study)) == study

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError, match="unknown preset"):
            preset_study("figure99")

    def test_run_reports_runs_a_shared_study_once(self, monkeypatch):
        from repro.study import presets

        ran = []
        run = presets.StudyPreset.run

        def counting_run(self, study, config=None):
            ran.append(study.name)
            return run(self, study, config)

        monkeypatch.setattr(presets.StudyPreset, "run", counting_run)
        names = ["figure4", "figure5", "figure6", "table2"]
        reports = presets.run_reports(names, ExperimentConfig(scale=0.005, seeds=(0,)))
        assert list(reports) == names
        assert ran == ["scheduler-comparison", "table2"]

    def test_unknown_knob_rejected(self):
        with pytest.raises(TypeError, match="unknown knobs"):
            STUDY_PRESETS["figure1"].build(epsilon=(0.5,))

    @pytest.mark.parametrize("name", DRIVER_NAMES)
    def test_results_cache_keys_are_pinned(self, name):
        """A preset's runs keep the cache keys earlier sweeps stored them under."""
        from repro.simulation.results_store import run_spec_fingerprint

        config = ExperimentConfig(scale=0.005, seeds=(0,))
        keys = "".join(
            run_spec_fingerprint(spec)
            for spec in STUDY_PRESETS[name].build(config).compile()
        )
        digest = hashlib.sha256(keys.encode("utf-8")).hexdigest()[:12]
        assert digest == CACHE_KEY_DIGESTS[name]


class TestPresetVsLegacyRecomputation:
    """Executable equivalence for table2 and figure6 against raw primitives."""

    @pytest.fixture(scope="class")
    def config(self):
        return ExperimentConfig(scale=0.005, seeds=(0,))

    def test_table2_preset_equals_legacy_computation(self, config):
        import numpy as np

        from repro.study.presets import table2_statistics

        # Generate the config's trace and compute its statistics with the
        # trace-seeded generator.
        legacy = config.make_trace().statistics(
            rng=np.random.default_rng(config.trace_seed)
        )
        assert table2_statistics(preset_study("table2", config)) == legacy
        rows = STUDY_PRESETS["table2"].report(config).splitlines()[1:]
        expected = [
            f"{legacy.total_jobs}  (paper*scale: ",
            f"{legacy.trace_duration:.1f}  (paper: ",
            f"{legacy.average_tasks_per_job:.2f}  (paper: ",
            f"{legacy.min_task_duration:.1f}  (paper: ",
            f"{legacy.max_task_duration:.1f}  (paper: ",
            f"{legacy.average_task_duration:.1f}  (paper: ",
        ]
        assert len(rows) == len(expected)
        for row, value in zip(rows, expected):
            assert value in row, (row, value)

    def test_figure6_preset_equals_legacy_computation(self, config):
        from repro.analysis.comparison import ComparisonTable
        from repro.simulation.experiment_runner import (
            ReplicatedResult,
            SchedulerSpec,
            sweep_specs,
        )

        # One tagged spec batch through the runner, grouped into
        # ReplicatedResults per policy.
        factories = {
            "SRPTMS+C": SchedulerSpec(
                "SRPTMS+C", {"epsilon": config.epsilon, "r": config.r}
            ),
            "SCA": SchedulerSpec("SCA"),
            "Mantri": SchedulerSpec("Mantri"),
        }
        specs = sweep_specs(
            config.trace_source(),
            [(name, factory, config.machines) for name, factory in factories.items()],
            config.seeds,
            scenario=config.scenario,
        )
        grouped = config.make_runner().run_grouped(specs)
        legacy = ComparisonTable.from_results(
            {
                name: ReplicatedResult(
                    scheduler_name=runs[0].scheduler_name, results=runs
                )
                for name, runs in grouped.items()
            }
        )
        header, *body, footer = STUDY_PRESETS["figure6"].report(config).splitlines()
        assert header == "Figure 6 -- average job flowtime per scheduler"
        assert "\n".join(body) == legacy.render(baseline="Mantri")
        unweighted = legacy.improvement_over("SRPTMS+C", "Mantri")
        weighted = legacy.improvement_over("SRPTMS+C", "Mantri", weighted=True)
        assert footer.startswith(
            f"SRPTMS+C vs Mantri: {unweighted:+.1f}% (unweighted), "
            f"{weighted:+.1f}% (weighted)"
        )


class TestSweepCliReproducesPreset:
    """`sweep --spec` must reproduce a preset's ResultSet bit-identically."""

    def test_figure6_spec_file_pool_and_cache_equivalence(self, tmp_path, capsys):
        from repro.cli import main
        from repro.study import dump_study

        config = ExperimentConfig(scale=0.005, seeds=(0,))
        study = preset_study("figure6", config)
        spec_path = tmp_path / "figure6.json"
        dump_study(study, spec_path)

        # Ground truth: the preset study run serially, in process.
        direct = study.run(workers=1)
        direct_csv = direct.to_csv()

        cache = str(tmp_path / "cache")
        for tag, extra in {
            "pool-cold": ["--workers", "0", "--cache-dir", cache],
            "serial-warm": ["--cache-dir", cache],
        }.items():
            csv_path = tmp_path / f"{tag}.csv"
            code = main(
                ["sweep", "--spec", str(spec_path), "--csv", str(csv_path), *extra]
            )
            capsys.readouterr()
            assert code == 0
            assert csv_path.read_text() == direct_csv, (
                f"{tag}: spec-file sweep diverged from the preset's ResultSet"
            )
