"""Declarative study API: axes-product sweeps with tidy results.

The layer every comparative evaluation goes through:

* :class:`~repro.study.core.Study` -- a named cartesian product of axes
  (schedulers x scenarios x workloads x seeds x scalar sweeps) that
  compiles to :class:`~repro.simulation.experiment_runner.RunSpec` lists
  and executes on the existing
  :class:`~repro.simulation.experiment_runner.ExperimentRunner` (pools,
  streams and the results cache included);
* :class:`~repro.study.resultset.ResultSet` -- tidy per-run records with
  axis coordinates attached (``filter``/``group_by``/``aggregate``,
  CSV/JSON export, bit-identity fingerprints);
* :mod:`~repro.study.specfile` -- strict TOML/JSON spec files, so new
  sweeps need a file rather than a driver
  (``repro-mapreduce sweep --spec study.toml``);
* :mod:`~repro.study.presets` -- every paper artefact and sweep as a
  ready-made study plus its report
  (:data:`~repro.study.presets.STUDY_PRESETS`).
"""

from repro.study.core import (
    SCALAR_AXES,
    STREAM_FACTORIES,
    ScenarioRef,
    SchedulerRef,
    Study,
    StudyPoint,
    WorkloadRef,
)
from repro.study.presets import STUDY_PRESETS, StudyPreset, preset_study, run_reports
from repro.study.resultset import AGGREGATE_STATS, DEFAULT_METRICS, ResultSet, StudyRun
from repro.study.specfile import (
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

__all__ = [
    "Study",
    "StudyPoint",
    "SchedulerRef",
    "ScenarioRef",
    "WorkloadRef",
    "STREAM_FACTORIES",
    "SCALAR_AXES",
    "ResultSet",
    "StudyRun",
    "DEFAULT_METRICS",
    "AGGREGATE_STATS",
    "StudySpecError",
    "study_to_dict",
    "study_from_dict",
    "study_to_toml",
    "study_from_toml",
    "study_to_json",
    "study_from_json",
    "load_study",
    "dump_study",
    "StudyPreset",
    "STUDY_PRESETS",
    "preset_study",
    "run_reports",
]
