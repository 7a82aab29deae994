"""Study registry: state machine, fingerprint dedup indexes, executor pool.

The registry is the daemon's brain.  Every submitted
:class:`~repro.study.core.Study` becomes a :class:`StudyState` -- its
compiled points/specs, a result slot per point, and a status that walks
the state machine::

    queued --> running --> completed
                  \\-> failed

``queued``    compiled and registered, no result delivered yet;
``running``   at least one result slot filled;
``completed`` every slot filled (the full ResultSet is available);
``failed``    a spec's engine run raised -- the error rides on the state.

A study whose every key was already delivered is ``completed`` when
:meth:`StudyRegistry.submit` returns.

Dedup contract
--------------
Specs are keyed by
:func:`~repro.simulation.results_store.run_spec_fingerprint`, and
``submit`` looks each key up, under the registry lock, in two indexes:

* the *delivered index* holds every key whose result this registry has
  delivered: that result (an object the studies that waited for it
  already hold, so nothing is copied) and its fingerprint.  A slot whose
  key is there is filled at once and counts as served from cache.  A key
  whose run failed is never indexed, so resubmitting it runs it again.
* the *in-flight index* maps each fingerprint to the single pending
  execution and the list of ``(study, slot)`` waiters; a spec whose
  fingerprint is already in flight joins the waiter list instead of
  enqueueing a second execution.

A key in neither index enters the in-flight index and the queue.  So N
concurrent studies asking overlapping questions cost one engine run per
*unique* fingerprint, and every slot of a key holds the same result
object (byte-identical by construction).  ``submit`` never reads the
results store: the delivered index lives in memory, and a restarted
daemon, which starts with it empty, resumes through the executor's
store reads.  Cross-*process* dedup (two daemons, or a daemon next to an
offline sweep, sharing one ``cache_dir``) is handled one layer down by
:meth:`~repro.simulation.results_store.ResultsStore.shard_lock`: the
executor holds the shard lock across its miss-check-then-run window, so
the race loser re-reads the winner's entry instead of recomputing.

Fingerprints
------------
:meth:`StudyRegistry.deliver` fingerprints each result once, outside the
lock, and indexes it with the result.  A study's ResultSet fingerprint
is computed once, from those, by
:func:`~repro.study.resultset.resultset_fingerprint` in the critical
section that completes it; status summaries only read it, so polling a
completed study never re-serialises its records.

Execution
---------
:class:`ServiceExecutor` drains the registry's queue on worker threads;
each unique spec runs through a shared
:class:`~repro.simulation.experiment_runner.ExperimentRunner`, and its
result is then delivered into the registry (cache hits are recognised
there too, so a restarted daemon resumes with only misses).
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.checks import check_count
from repro.simulation.experiment_runner import ExperimentRunner, RunSpec
from repro.simulation.metrics import SimulationResult
from repro.simulation.results_store import (
    ResultsStore,
    UncacheableSpecError,
    run_spec_fingerprint,
)
from repro.study.core import Study, StudyPoint
from repro.study.resultset import ResultSet, StudyRun, resultset_fingerprint

__all__ = [
    "StudySubmitError",
    "StudyState",
    "StudyRegistry",
    "ServiceExecutor",
    "STUDY_STATES",
]

#: The study state machine's states, in lifecycle order.
STUDY_STATES: Tuple[str, ...] = ("queued", "running", "completed", "failed")


class StudySubmitError(ValueError):
    """The submitted study cannot be registered (e.g. uncacheable specs)."""


class StudyState:
    """One registered study: compiled points, result slots, lifecycle status.

    All mutation happens under the owning registry's lock; readers get
    consistent snapshots via :meth:`summary` / :meth:`result_set`.
    """

    def __init__(
        self,
        study_id: str,
        study: Study,
        points: List[StudyPoint],
        keys: List[str],
    ) -> None:
        self.study_id = study_id
        self.study = study
        self.points = points
        self.keys = keys
        self.status = "queued"
        self.error: Optional[str] = None
        self.results: List[Optional[SimulationResult]] = [None] * len(points)
        self.filled = 0
        #: Slots served straight from the results cache.
        self.slots_from_cache = 0
        #: Slots filled by a fresh engine run (a run shared with another
        #: study counts here for every waiter; the *global* engine-run
        #: count lives on the registry).
        self.slots_from_runs = 0
        #: Specs whose fingerprint was already in flight for another
        #: study (or an earlier slot) at submit time.
        self.shared_at_submit = 0
        self.created_at = time.time()
        self.finished_at: Optional[float] = None
        #: The ResultSet fingerprint, set by :meth:`complete`.
        self.fingerprint: Optional[str] = None

    @property
    def total(self) -> int:
        """Number of result slots (compiled study points)."""
        return len(self.points)

    def fill(self, index: int, result: SimulationResult, cache_hit: bool) -> bool:
        """Deliver ``result`` into slot ``index`` (registry-lock held).

        Returns whether that filled the last slot; the registry then
        calls :meth:`complete`.
        """
        if self.results[index] is not None or self.status in ("completed", "failed"):
            return False
        self.results[index] = result
        self.filled += 1
        if cache_hit:
            self.slots_from_cache += 1
        else:
            self.slots_from_runs += 1
        if self.status == "queued":
            self.status = "running"
        return self.filled == self.total

    def complete(self, fingerprint: str) -> None:
        """Move to ``completed`` with its ResultSet ``fingerprint`` (registry-lock held).

        The fingerprint is set before the status, so a reader that sees
        ``completed`` without the lock sees the fingerprint too.
        """
        self.fingerprint = fingerprint
        self.finished_at = time.time()
        self.status = "completed"

    def fail(self, error: str) -> None:
        """Move to ``failed`` with ``error`` (terminal; registry-lock held)."""
        if self.status in ("completed", "failed"):
            return
        self.status = "failed"
        self.error = error
        self.finished_at = time.time()

    def result_set(self, partial: bool = False) -> ResultSet:
        """The study's (possibly partial) tidy result set, in point order.

        With ``partial=False`` every slot must be filled; the returned
        set is then bit-identical (same
        :meth:`~repro.study.resultset.ResultSet.fingerprint`) to
        :meth:`Study.run <repro.study.core.Study.run>` of the same study.
        """
        pairs = zip(self.points, self.results)
        if partial:
            runs = [
                StudyRun(coords=point.coords, result=result)
                for point, result in pairs
                if result is not None
            ]
        else:
            if self.filled != self.total:
                raise ValueError(
                    f"study {self.study_id} is {self.status} "
                    f"({self.filled}/{self.total} results); pass partial=True"
                )
            runs = [
                StudyRun(coords=point.coords, result=result)
                for point, result in pairs
            ]
        return ResultSet(runs, name=self.study.name)

    def summary(self) -> Dict[str, Any]:
        """JSON-ready status snapshot (the ``GET /studies/{id}`` payload)."""
        status = self.status
        payload: Dict[str, Any] = {
            "id": self.study_id,
            "name": self.study.name,
            "status": status,
            "total": self.total,
            "completed": self.filled,
            "unique_specs": len(set(self.keys)),
            "slots_from_cache": self.slots_from_cache,
            "slots_from_runs": self.slots_from_runs,
            "shared_at_submit": self.shared_at_submit,
            "created_at": self.created_at,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.finished_at is not None:
            payload["finished_at"] = self.finished_at
        if status == "completed":
            payload["resultset_fingerprint"] = self.fingerprint
        return payload


class _InFlight:
    """One pending unique execution: its spec and the slots awaiting it."""

    __slots__ = ("spec", "waiters")

    def __init__(self, spec: RunSpec) -> None:
        self.spec = spec
        self.waiters: List[Tuple[str, int]] = []


class StudyRegistry:
    """Thread-safe study table + fingerprint-keyed delivered and in-flight indexes."""

    def __init__(self, store: ResultsStore) -> None:
        self.store = store
        self._lock = threading.Lock()
        self._studies: "OrderedDict[str, StudyState]" = OrderedDict()
        #: Key -> (delivered result, its fingerprint).
        self._delivered: Dict[str, Tuple[SimulationResult, str]] = {}
        self._inflight: Dict[str, _InFlight] = {}
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._ids = itertools.count(1)
        self.started_at = time.time()
        #: Unique fingerprints that went through an engine run here.
        self.engine_runs = 0
        #: Unique fingerprints served from the results cache.
        self.cache_hits = 0
        #: Submit-time dedup events (a spec joining an in-flight entry).
        self.dedup_shared = 0
        #: Slots filled at submit from the delivered index.
        self.index_hits = 0
        #: Every distinct fingerprint ever registered.
        self.unique_keys_seen = 0

    # -- submission ---------------------------------------------------------

    def submit(self, study: Study) -> StudyState:
        """Register ``study``: fill its delivered keys, enqueue its new ones.

        Raises :class:`StudySubmitError` when any compiled spec has no
        stable fingerprint (the service is content-addressed end to end;
        an uncacheable spec could be neither deduped nor resumed).
        """
        points = study.points()
        specs = [point.to_run_spec() for point in points]
        try:
            keys = [run_spec_fingerprint(spec) for spec in specs]
        except UncacheableSpecError as exc:
            raise StudySubmitError(
                f"study {study.name!r} compiles to an uncacheable spec: {exc}"
            ) from exc
        to_enqueue: List[str] = []
        with self._lock:
            study_id = f"st-{next(self._ids):06d}"
            state = StudyState(study_id, study, points, keys)
            self._studies[study_id] = state
            for index, (spec, key) in enumerate(zip(specs, keys)):
                delivered = self._delivered.get(key)
                if delivered is not None:
                    self.index_hits += 1
                    self._fill(state, index, delivered[0], cache_hit=True)
                    continue
                entry = self._inflight.get(key)
                if entry is None:
                    entry = _InFlight(spec)
                    self._inflight[key] = entry
                    self.unique_keys_seen += 1
                    to_enqueue.append(key)
                else:
                    self.dedup_shared += 1
                    state.shared_at_submit += 1
                entry.waiters.append((study_id, index))
            if not points:
                # Zero-point studies (empty scheduler axis) are complete
                # on arrival -- nothing to execute.
                self._complete(state)
        for key in to_enqueue:
            self._queue.put(key)
        return state

    # -- executor interface -------------------------------------------------

    def next_key(self, timeout: float = 0.2) -> Optional[str]:
        """Next queued unique fingerprint, or ``None`` after ``timeout``."""
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def spec_for(self, key: str) -> Optional[RunSpec]:
        """The pending spec behind ``key`` (``None`` once delivered)."""
        with self._lock:
            entry = self._inflight.get(key)
            return entry.spec if entry is not None else None

    def deliver(self, key: str, result: SimulationResult, cache_hit: bool) -> None:
        """Index ``result`` under ``key`` and fan it out to every slot waiting on it."""
        fingerprint = result.fingerprint()  # once per key, outside the lock
        with self._lock:
            entry = self._inflight.pop(key, None)
            if entry is None:
                return
            self._delivered[key] = (result, fingerprint)
            if cache_hit:
                self.cache_hits += 1
            else:
                self.engine_runs += 1
            for study_id, index in entry.waiters:
                self._fill(self._studies[study_id], index, result, cache_hit)

    def _fill(
        self, state: StudyState, index: int, result: SimulationResult, cache_hit: bool
    ) -> None:
        """Fill one slot, completing the study on its last (lock held)."""
        if state.fill(index, result, cache_hit):
            self._complete(state)

    def _complete(self, state: StudyState) -> None:
        """Complete ``state`` with its ResultSet fingerprint (lock held).

        Every slot is filled, so every key is in the delivered index, and
        the rows hash without touching a record.
        """
        delivered = self._delivered
        state.complete(
            resultset_fingerprint(
                (point.coords, delivered[key][1])
                for point, key in zip(state.points, state.keys)
            )
        )

    def fail_key(self, key: str, error: str) -> None:
        """Fail every study waiting on ``key`` (terminal for those studies)."""
        with self._lock:
            entry = self._inflight.pop(key, None)
            if entry is None:
                return
            for study_id, _ in entry.waiters:
                self._studies[study_id].fail(error)

    # -- introspection ------------------------------------------------------

    def get(self, study_id: str) -> Optional[StudyState]:
        """The state registered under ``study_id``, or ``None``."""
        with self._lock:
            return self._studies.get(study_id)

    def summaries(self) -> List[Dict[str, Any]]:
        """Status snapshots of every registered study, oldest first."""
        with self._lock:
            states = list(self._studies.values())
        return [state.summary() for state in states]

    def metrics(self) -> Dict[str, Any]:
        """Global daemon counters (the ``GET /metrics`` payload)."""
        with self._lock:
            by_status: Dict[str, int] = {}
            for state in self._studies.values():
                by_status[state.status] = by_status.get(state.status, 0) + 1
            runs = {
                "unique_keys_seen": self.unique_keys_seen,
                "engine_runs": self.engine_runs,
                "cache_hits": self.cache_hits,
                "dedup_shared": self.dedup_shared,
                "index_hits": self.index_hits,
                "in_flight": len(self._inflight),
                "queue_depth": self._queue.qsize(),
            }
            studies = {"total": len(self._studies), "by_status": by_status}
        store = {
            "hits": self.store.hits,
            "misses": self.store.misses,
            "corrupt": self.store.corrupt,
            "writes": self.store.writes,
            "cache_dir": str(self.store.cache_dir),
        }
        return {
            "uptime_seconds": time.time() - self.started_at,
            "studies": studies,
            "runs": runs,
            "store": store,
        }


class ServiceExecutor:
    """Worker threads draining the registry queue through a shared runner.

    Each unique fingerprint is executed under its shard's advisory lock:
    the runner's own load-miss-execute-store cycle runs inside the lock,
    so a concurrent process computing the same key makes this executor's
    runner *re-read* a cache hit instead of double-running the engine.
    The result is delivered to the registry after the lock is released.
    Engine runs happen in-process (the simulation is pure Python); more
    ``workers`` overlap runs across threads.
    """

    def __init__(
        self,
        registry: StudyRegistry,
        *,
        workers: int = 1,
    ) -> None:
        self.workers = check_count("executor workers", workers, 1)
        self.registry = registry
        self.runner = ExperimentRunner(workers=1, store=registry.store)
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return
        for number in range(self.workers):
            thread = threading.Thread(
                target=self._work,
                name=f"sweep-executor-{number}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, wait: bool = True) -> None:
        """Stop the workers; with ``wait`` join them (in-flight runs finish)."""
        self._stop.set()
        if wait:
            for thread in self._threads:
                thread.join()
        self._threads = []

    def _work(self) -> None:
        registry = self.registry
        store = registry.store
        while not self._stop.is_set():
            key = registry.next_key()
            if key is None:
                continue
            spec = registry.spec_for(key)
            if spec is None:
                continue
            landed: List[Tuple[SimulationResult, bool]] = []

            def land(spec: RunSpec, result: SimulationResult, cache_hit: bool) -> None:
                landed.append((result, cache_hit))

            try:
                # The shard lock brackets the runner's whole
                # load -> execute -> store cycle: a concurrent process
                # computing the same key serialises here, and the loser's
                # load() inside run() re-reads the winner's entry.
                with store.shard_lock(key):
                    self.runner.run([spec], on_result=land)
                # Persisted before run() returned; delivered (and
                # fingerprinted) once the shard lock is released.
                registry.deliver(key, *landed[0])
            except Exception as exc:  # noqa: BLE001 - surfaced on the study
                registry.fail_key(key, f"{type(exc).__name__}: {exc}")
