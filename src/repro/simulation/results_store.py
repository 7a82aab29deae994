"""Content-addressed results store: skip simulation runs already computed.

Replication sweeps re-execute the same ``(trace, scheduler, scenario,
seed)`` cells over and over -- across figure drivers, across CLI
invocations, across interrupted-and-restarted sweeps.  Every
:class:`~repro.simulation.experiment_runner.RunSpec` is a pure function of
its fields (the seeding contract), so its
:class:`~repro.simulation.metrics.SimulationResult` can be cached on disk
and replayed instead of recomputed.

Keying
------
:func:`run_spec_fingerprint` derives a SHA-256 key from a *canonical
description* of the spec: every field that can influence the result --
trace contents or recipe, scheduler registry name + kwargs, seed, cluster
size and speed, scenario (including every nested process spec), max_time --
rendered with exact float round-tripping (``repr``), bypassing any class
``__repr__`` that rounds.  The ``tag`` field is *excluded*: it is a
grouping label and does not affect execution.  Change any other field --
even a nested ``ScenarioSpec`` process parameter -- and the key changes;
keep them identical and a sweep resumes from cache.

Specs that cannot be described stably (lambdas, closures, locally defined
classes) raise :class:`UncacheableSpecError`; the experiment runner treats
such specs as cache-bypass and simply executes them.

Integrity
---------
A cache entry stores the canonical spec description and the result's
:meth:`~repro.simulation.metrics.SimulationResult.fingerprint`.  On load
the result is rebuilt and its fingerprint recomputed; any mismatch (bit
rot, truncated write, hash collision, format drift) makes the entry a
*miss* -- corrupted entries are recomputed, never trusted.  A hit is
therefore byte-equal to the result a fresh run would produce (the
wall-clock ``runtime_seconds`` of the original run is preserved; it is
excluded from the fingerprint by design).

Concurrency
-----------
One ``cache_dir`` may be shared by many writers at once -- pool worker
processes, several CLI sweeps, and the ``repro-mapreduce serve`` daemon.
Two mechanisms make that safe:

* *atomic same-destination writes*: every entry is written to a temp file
  in the destination shard and ``os.replace``-d into place, so a reader
  observes either the old entry or the new one, never a torn mix (and two
  writers racing on one key leave whichever complete entry landed last --
  both are byte-identical by the purity contract anyway);
* *per-shard advisory locks* (:meth:`ResultsStore.shard_lock`): an
  ``fcntl.flock`` over ``<shard>/.lock`` (with a portable
  create-exclusive fallback where ``fcntl`` is unavailable) serialises
  the miss-then-compute window.  :meth:`ResultsStore.load_or_compute`
  packages the protocol -- acquire the lock, *re-read* (the race loser
  finds the winner's entry and skips its own engine run), compute and
  store on a true miss -- so identical specs cost one engine run per
  unique fingerprint even across independent processes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import re
import tempfile
import time
import weakref
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple, Union

try:
    import fcntl
except ModuleNotFoundError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.simulation.metrics import JobRecord, SimulationResult
from repro.workload.distributions import DurationDistribution
from repro.workload.trace import Trace

__all__ = [
    "UncacheableSpecError",
    "canonical_spec_description",
    "run_spec_fingerprint",
    "ResultsStore",
    "cache_stats",
    "prune_stale",
]

#: Bump when the canonical description or the entry format changes
#: incompatibly; old entries then miss (and are recomputed) instead of
#: being misinterpreted.  Version 2 added
#: ``SimulationResult.redundant_copies_launched`` to the payload.
#: Version 3 added the stage-DAG fields (``JobRecord.num_stages`` in every
#: record row, ``checkpoint_resumes`` and ``work_saved_by_checkpointing``)
#: to ``canonical_dict``; v2 entries are detected as stale and recomputed
#: rather than rebuilt with silently-defaulted fields.
#: Version 4 added the rack-locality counters (``local_launches`` and
#: ``remote_launches``) for topology-aware runs; pre-topology v3 entries
#: are likewise stale.
#: Version 5 keys a scheduler by its registry name instead of a class
#: path and drops the constant ``straggler_factory=None`` line; results
#: are unchanged, but every v4 key rotates.
FORMAT_VERSION = 5


class UncacheableSpecError(ValueError):
    """The spec contains a component with no stable canonical description."""


# ------------------------------------------------------------- canonicalisation


def _classpath(cls: type) -> str:
    path = f"{cls.__module__}.{cls.__qualname__}"
    if "<" in path:
        raise UncacheableSpecError(
            f"locally defined class {path!r} has no stable identity; "
            "define it at module level to make specs cacheable"
        )
    return path


def _canon(value: Any) -> str:
    """Render ``value`` as a canonical, collision-averse string.

    Floats go through ``repr`` (exact round-trip); container iteration is
    order-normalised; objects are rendered as *class path + exact instance
    state* so a lossy ``__repr__`` (e.g. the distributions' 3-decimal one)
    can never alias two different specs to one key.
    """
    if value is None or value is True or value is False:
        return repr(value)
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, int):
        return repr(int(value))
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, (list, tuple)):
        items = ", ".join(_canon(item) for item in value)
        return f"[{items}]"
    if isinstance(value, Mapping):
        items = ", ".join(
            f"{_canon(key)}: {_canon(value[key])}" for key in sorted(value)
        )
        return f"{{{items}}}"
    if isinstance(value, type):
        return f"class:{_classpath(value)}"
    if dataclasses.is_dataclass(value):
        fields = ", ".join(
            f"{f.name}={_canon(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{_classpath(type(value))}({fields})"
    if isinstance(value, DurationDistribution):
        state = ", ".join(
            f"{k}={_canon(v)}" for k, v in sorted(vars(value).items())
        )
        return f"{_classpath(type(value))}({state})"
    if callable(value):
        qualname = getattr(value, "__qualname__", "")
        module = getattr(value, "__module__", "")
        if not qualname or not module or "<" in qualname:
            raise UncacheableSpecError(
                f"{value!r} (a lambda, closure or other non-module-level "
                "callable) has no stable identity; use SchedulerSpec / "
                "TraceSpec / a module-level function to make the spec "
                "cacheable"
            )
        return f"function:{module}.{qualname}"
    raise UncacheableSpecError(
        f"cannot canonically describe {value!r} of type {type(value).__name__}"
    )


#: Digest memo keyed by Trace object: a sweep fingerprints many specs that
#: share one trace, and Traces are immutable, so canonicalising the job
#: list once per object (not once per spec) keeps warm-cache lookups cheap.
_TRACE_DIGEST_MEMO: "weakref.WeakKeyDictionary[Trace, str]" = (
    weakref.WeakKeyDictionary()
)


def _trace_digest(trace: Trace) -> str:
    """Content digest of a materialised trace (one line per job spec)."""
    cached = _TRACE_DIGEST_MEMO.get(trace)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for spec in trace:
        digest.update(_canon(spec).encode("utf-8"))
        digest.update(b"\n")
    value = digest.hexdigest()
    _TRACE_DIGEST_MEMO[trace] = value
    return value


def canonical_spec_description(spec: "RunSpec") -> str:  # noqa: F821
    """The canonical, key-defining description of a run spec.

    Every result-influencing field participates; ``tag`` (a grouping
    label) does not.  Raises :class:`UncacheableSpecError` when any
    component lacks a stable description.
    """
    trace = spec.trace
    if isinstance(trace, Trace):
        trace_part = f"trace-content:{_trace_digest(trace)}"
    else:
        # TraceSpec / StreamSpec: dataclasses, canonicalised recursively
        # (factory identity + kwargs + declared job count).
        trace_part = _canon(trace)
    parts = [
        f"format={FORMAT_VERSION}",
        f"trace={trace_part}",
        f"scheduler={_canon(spec.scheduler)}",
        f"num_machines={_canon(spec.num_machines)}",
        f"seed={_canon(spec.seed)}",
        f"machine_speed={_canon(spec.machine_speed)}",
        f"scenario={_canon(spec.scenario)}",
        f"max_time={_canon(spec.max_time)}",
    ]
    return "\n".join(parts)


def run_spec_fingerprint(spec: "RunSpec") -> str:  # noqa: F821
    """SHA-256 cache key of ``spec`` (equal keys <=> equal canonical specs)."""
    description = canonical_spec_description(spec)
    return hashlib.sha256(description.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- serialisation


def _result_to_payload(result: SimulationResult) -> Dict[str, Any]:
    """JSON-serialisable dump of a result (canonical dict + wall clock)."""
    payload = result.canonical_dict()
    payload["runtime_seconds"] = result.runtime_seconds
    return payload


def _payload_fingerprint(payload: Dict[str, Any]) -> str:
    """Result fingerprint computed from the raw stored payload.

    Equals ``_result_from_payload(payload).fingerprint()`` -- record rows
    round-trip exactly through ``JobRecord``, and ``json.dumps`` renders
    the loaded row lists identically to the tuples ``canonical_dict``
    emits -- but needs only the aggregates plus the raw rows, so integrity
    checks never re-materialise (and re-serialise) a million-record list.
    Missing keys raise ``KeyError``, handled by the caller as corruption.
    """
    canonical = {
        key: payload[key] for key in SimulationResult.CANONICAL_KEYS
    }
    digest = json.dumps(canonical, sort_keys=True)
    return hashlib.sha256(digest.encode("utf-8")).hexdigest()


def _result_from_payload(payload: Dict[str, Any]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`_result_to_payload`."""
    result = SimulationResult(
        scheduler_name=payload["scheduler_name"],
        num_machines=payload["num_machines"],
        total_copies=payload["total_copies"],
        total_tasks=payload["total_tasks"],
        redundant_copies_launched=payload["redundant_copies_launched"],
        wasted_work=payload["wasted_work"],
        useful_work=payload["useful_work"],
        makespan=payload["makespan"],
        over_requests=payload["over_requests"],
        machine_failures=payload["machine_failures"],
        copies_killed_by_failure=payload["copies_killed_by_failure"],
        checkpoint_resumes=payload["checkpoint_resumes"],
        work_saved_by_checkpointing=payload["work_saved_by_checkpointing"],
        straggler_onsets=payload["straggler_onsets"],
        local_launches=payload["local_launches"],
        remote_launches=payload["remote_launches"],
        runtime_seconds=payload["runtime_seconds"],
        seed=payload["seed"],
    )
    # Direct append: a freshly built result has no metric caches to
    # invalidate, so the per-record ``add_record`` bookkeeping is skipped.
    append = result.records.append
    for row in payload["records"]:
        append(JobRecord(*row))
    return result


# -------------------------------------------------------------- advisory locks

#: Name of the per-shard advisory lock file (never a cache entry).
_LOCK_BASENAME = ".lock"

#: Fallback-lock staleness horizon: a ``.lock.excl`` file older than this
#: is treated as an orphan of a crashed process and stolen.
_FALLBACK_LOCK_STALE_SECONDS = 300.0


@contextlib.contextmanager
def _advisory_file_lock(lock_path: Path) -> Iterator[None]:
    """Hold an exclusive advisory lock on ``lock_path`` for the block.

    POSIX: ``fcntl.flock`` on the (created-if-missing) lock file --
    advisory locks attach to the open file description, so threads and
    processes contend alike and a crashed holder releases implicitly.
    Elsewhere: a create-exclusive spin lock on ``<lock_path>.excl`` with a
    staleness horizon so an orphaned lock file cannot wedge the cache
    forever.
    """
    if fcntl is not None:
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)
        return
    # Portable fallback: O_CREAT|O_EXCL is atomic on every mainstream
    # filesystem; poll until the current holder removes the file.
    excl = Path(str(lock_path) + ".excl")
    while True:
        try:
            fd = os.open(excl, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            break
        except FileExistsError:
            try:
                age = time.time() - excl.stat().st_mtime
            except OSError:
                continue  # holder released between open and stat; retry
            if age > _FALLBACK_LOCK_STALE_SECONDS:
                try:
                    excl.unlink()
                except OSError:
                    pass
                continue
            time.sleep(0.01)
    try:
        os.close(fd)
        yield
    finally:
        try:
            excl.unlink()
        except OSError:  # pragma: no cover - already stolen as stale
            pass


# --------------------------------------------------------------------- the store


class ResultsStore:
    """Disk-backed, content-addressed store of simulation results.

    Entries live under ``cache_dir/<key[:2]>/<key>.json`` (sharded so a
    million-cell sweep does not produce a million-entry directory).  Writes
    are atomic (temp file + rename), so a killed sweep never leaves a
    half-written entry that a resume would trust -- and even if it did,
    the load-time fingerprint check would reject it.
    """

    def __init__(self, cache_dir: Union[str, os.PathLike]) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        #: Cache hits served since this store was created.
        self.hits = 0
        #: Lookups that found no (valid) entry.
        self.misses = 0
        #: Entries rejected by the integrity check and treated as misses.
        self.corrupt = 0
        #: Entries written.
        self.writes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultsStore({str(self.cache_dir)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )

    def path_for(self, key: str) -> Path:
        """Filesystem location of the entry with cache key ``key``."""
        return self.cache_dir / key[:2] / f"{key}.json"

    @contextlib.contextmanager
    def shard_lock(self, key: str) -> Iterator[None]:
        """Exclusive advisory lock over ``key``'s shard for the ``with`` block.

        Serialises the miss-then-compute window against every other
        process (and thread) locking the same shard of the same
        ``cache_dir``; see the module docstring's concurrency contract.
        Reads and atomic writes do *not* need the lock -- it exists so
        concurrent computations of one key collapse to a single engine
        run (:meth:`load_or_compute`).
        """
        shard = self.cache_dir / key[:2]
        shard.mkdir(parents=True, exist_ok=True)
        with _advisory_file_lock(shard / _LOCK_BASENAME):
            yield

    def load_or_compute(
        self,
        key: str,
        description: str,
        compute: Callable[[], SimulationResult],
    ) -> Tuple[SimulationResult, bool]:
        """Serve ``key`` from the store, computing it at most once per race.

        Acquires the shard lock, *re-reads* the entry (a concurrent winner
        may have stored it while this caller waited -- the loser must
        reuse that byte-identical result, not recompute), and only on a
        true miss calls ``compute`` and persists its result.  Returns
        ``(result, cache_hit)``.
        """
        with self.shard_lock(key):
            cached = self.load(key)
            if cached is not None:
                return cached, True
            result = compute()
            self.store(key, description, result)
            return result, False

    def load(self, key: str) -> Optional[SimulationResult]:
        """Return the stored result for ``key``, or ``None`` on miss.

        Any unreadable, unparsable, format-mismatched or
        fingerprint-mismatched entry counts as a miss (and as ``corrupt``
        when the file existed); the caller recomputes and overwrites it.
        """
        path = self.path_for(key)
        try:
            raw = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            entry = json.loads(raw)
            if entry["format"] != FORMAT_VERSION:
                raise ValueError(f"format {entry['format']} != {FORMAT_VERSION}")
            # Integrity first, straight off the raw payload: rebuilding the
            # records only to re-serialise them for hashing would walk a
            # large result's record list three times instead of once.
            if _payload_fingerprint(entry["result"]) != entry["fingerprint"]:
                raise ValueError("stored fingerprint does not match content")
            result = _result_from_payload(entry["result"])
        except (ValueError, KeyError, TypeError, IndexError):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, key: str, description: str, result: SimulationResult) -> Path:
        """Atomically persist ``result`` under ``key`` and return its path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Build the payload once and fingerprint it directly: going through
        # ``result.fingerprint()`` would render the record rows a second
        # time (``canonical_dict`` per call), which dominates store() cost
        # for large results.  ``_payload_fingerprint`` is defined to equal
        # the result's own fingerprint.
        payload_dict = _result_to_payload(result)
        entry = {
            "format": FORMAT_VERSION,
            "spec": description,
            "fingerprint": _payload_fingerprint(payload_dict),
            "result": payload_dict,
        }
        payload = json.dumps(entry, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.writes += 1
        return path


# ---------------------------------------------------------- cache maintenance

#: Entry filenames are exactly ``<sha256-hex>.json`` inside a 2-hex shard;
#: everything else in a cache dir (lock files, temp files) is not an entry.
_ENTRY_NAME_RE = re.compile(r"^[0-9a-f]{64}\.json$")


def _iter_entry_paths(cache_dir: Path) -> Iterator[Path]:
    """Every cache-entry file under ``cache_dir``, sorted for determinism."""
    if not cache_dir.is_dir():
        return
    for shard in sorted(cache_dir.iterdir()):
        if not (shard.is_dir() and re.fullmatch(r"[0-9a-f]{2}", shard.name)):
            continue
        for path in sorted(shard.iterdir()):
            if _ENTRY_NAME_RE.match(path.name):
                yield path


def _entry_format(path: Path) -> Optional[int]:
    """The entry's ``format`` version, or ``None`` when unreadable."""
    try:
        entry = json.loads(path.read_text())
        return int(entry["format"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def cache_stats(cache_dir: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Inventory of an existing ``cache_dir`` (the ``cache stats`` command).

    Returns entry count, total bytes, a histogram of entry format
    versions (key ``"unreadable"`` for files that do not parse as
    entries), and how many entries are *stale* -- readable but written
    under a format other than the current :data:`FORMAT_VERSION`, so
    they can only ever miss.
    """
    cache_dir = Path(cache_dir)
    entries = 0
    total_bytes = 0
    formats: Dict[str, int] = {}
    stale = 0
    for path in _iter_entry_paths(cache_dir):
        entries += 1
        try:
            total_bytes += path.stat().st_size
        except OSError:
            pass
        version = _entry_format(path)
        label = "unreadable" if version is None else str(version)
        formats[label] = formats.get(label, 0) + 1
        if version != FORMAT_VERSION:
            stale += 1
    return {
        "cache_dir": str(cache_dir),
        "entries": entries,
        "total_bytes": total_bytes,
        "formats": formats,
        "format_version": FORMAT_VERSION,
        "stale": stale,
    }


def prune_stale(cache_dir: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Delete stale entries (``format != FORMAT_VERSION``) from ``cache_dir``.

    Unreadable entry files are pruned too -- like format-mismatched ones
    they can never be hits, only disk weight.  Each shard is pruned under
    its advisory lock so a concurrent writer's fresh entry is never
    swept.  Returns ``{"scanned", "removed", "removed_bytes", "kept"}``.
    """
    cache_dir = Path(cache_dir)
    scanned = removed = removed_bytes = 0
    for path in _iter_entry_paths(cache_dir):
        scanned += 1
        with _advisory_file_lock(path.parent / _LOCK_BASENAME):
            version = _entry_format(path)
            if version == FORMAT_VERSION:
                continue
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
        removed += 1
        removed_bytes += size
    return {
        "cache_dir": str(cache_dir),
        "scanned": scanned,
        "removed": removed,
        "removed_bytes": removed_bytes,
        "kept": scanned - removed,
    }
