"""Sweep service: Studies as a long-running, resumable HTTP workload.

The serving layer over the Study API and the content-addressed results
cache: ``repro-mapreduce serve`` runs a local HTTP/JSON daemon that
accepts Study specs (the exact :mod:`repro.study.specfile` TOML/JSON
format, strict-parsed), compiles them to fingerprint-tagged
:class:`~repro.simulation.experiment_runner.RunSpec` s and schedules them
incrementally on a shared
:class:`~repro.simulation.experiment_runner.ExperimentRunner` backed by
one shared :class:`~repro.simulation.results_store.ResultsStore`.

Guarantees (the reason this exists instead of ad-hoc process spawning):

* **dedup** -- a fingerprint-keyed in-flight registry collapses identical
  RunSpecs across concurrent client studies to one engine run per unique
  fingerprint; every waiting study observes the same (byte-identical)
  result, and a later study asking for a delivered fingerprint is filled
  from memory at submit (:mod:`repro.service.registry`);
* **resume** -- results are persisted to the cache before a study
  observes them, so a killed-and-restarted daemon (same ``--cache-dir``)
  re-executes only cache misses when specs are resubmitted;
* **bit-identity** -- a study served by the daemon has the same
  `ResultSet` fingerprint, and exports byte-identical CSV/JSON, as the
  same study executed offline via :meth:`repro.study.core.Study.run`.

Layout: :mod:`~repro.service.registry` (study state machine + dedup index
+ executor threads), :mod:`~repro.service.server` (stdlib
``ThreadingHTTPServer`` endpoints), :mod:`~repro.service.client` (urllib
helpers used by the ``submit`` subcommand, the CI smoke and the tests),
:mod:`~repro.service.cli` (``serve``/``submit`` argument parsing).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.registry import (
    StudyRegistry,
    StudyState,
    StudySubmitError,
    ServiceExecutor,
)
from repro.service.server import SweepService, create_service

__all__ = [
    "ServiceClient",
    "ServiceError",
    "StudyRegistry",
    "StudyState",
    "StudySubmitError",
    "ServiceExecutor",
    "SweepService",
    "create_service",
]
