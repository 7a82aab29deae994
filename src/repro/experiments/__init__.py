"""Experiment configuration and the plain-text report renderers.

:class:`ExperimentConfig` holds the knobs every paper artefact shares
(scale, seeds, the SRPTMS+C operating point, workers, scenario, cache);
:mod:`repro.experiments.report` renders tables.  The artefacts themselves
-- Table II, Figures 1-6 and the sweeps -- are the study presets of
:data:`repro.study.presets.STUDY_PRESETS`, which the command-line interface
(``python -m repro``) and the benchmark suite run.
"""

from repro.experiments.config import ExperimentConfig

__all__ = ["ExperimentConfig"]
