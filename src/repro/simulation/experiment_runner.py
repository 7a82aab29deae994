"""The execution path: single runs and parallel batches of runs.

This module is the *one* place simulations are executed from.
:func:`run_simulation` performs a single engine run;
:class:`ExperimentRunner` executes whole batches of runs.  Replications,
sweeps and their aggregation are a :class:`~repro.study.core.Study` and
its :class:`~repro.study.resultset.ResultSet`, which compile to and run on
this module.

The paper's evaluation protocol (Section VI) repeats every simulation ten
times per configuration and sweeps epsilon, r and the cluster size --
hundreds of independent engine runs.  Each run is described by a picklable
:class:`RunSpec` (trace source + scheduler spec + seed + cluster
parameters); :class:`ExperimentRunner` executes a batch of specs either
serially (``workers=1``) or on a ``multiprocessing`` pool, in both cases
returning results in spec order.

Seeding contract
----------------
Every worker builds its *own* trace, scheduler and engine from the spec and
runs it with the spec's seed, exactly as the serial path does.  All
randomness inside a run flows from ``numpy.random.default_rng(seed)`` owned
by the engine, so a run's :class:`~repro.simulation.metrics.SimulationResult`
is a pure function of its spec -- parallel execution is bit-identical to
serial execution for the same seeds (only the wall-clock
``runtime_seconds`` field differs; it is excluded from
:meth:`SimulationResult.fingerprint`).

Everything a spec carries must be picklable: scheduler registry names
plus keyword arguments (:class:`SchedulerSpec`) rather than closures, and a
:class:`~repro.workload.trace.Trace` instance, a :class:`TraceSpec` naming
a module-level factory, or a :class:`~repro.workload.stream.StreamSpec`
recipe for a lazily generated stream.  Lambdas work with ``workers=1``
only.

Results cache
-------------
Because a run is a pure function of its spec, the runner can skip runs it
has already executed: construct it with ``cache_dir`` (or pass a
:class:`~repro.simulation.results_store.ResultsStore`) and every executed
spec is content-addressed by :func:`~repro.simulation.results_store.
run_spec_fingerprint` and persisted; subsequent :meth:`ExperimentRunner.run`
calls over the same specs return byte-equal results without touching the
engine (``last_run_stats`` records how many keys were executed vs specs
served from cache -- the zero-runs-on-second-sweep property is asserted in
``tests/test_results_store.py``).  Specs containing lambdas or other
unstable components simply bypass the cache and execute normally.

The same key also dedupes within one call, cache or no cache: specs
whose canonical descriptions are equal (a sweep axis the scheduler
ignores, say) run once, and every one of them receives that result.

Streaming progress
------------------
Long sweeps should not need to poll the cache directory to see progress:
pass ``on_result`` (to the constructor, or per-call to :meth:`ExperimentRunner.run`)
and the runner invokes ``on_result(spec, result, cache_hit)`` for every
spec as its result lands -- cache hits first (in spec order, with
``cache_hit=True``), then executed specs as their key's run completes
(keys in order of their first spec on both the serial and the batched
pool path, and the specs of one key in spec order).  On the miss path the
result is persisted to the store *before* the callbacks fire, so an observer
that saw a result can rely on a killed-and-restarted sweep finding it in
the cache.  The ``repro-mapreduce serve`` daemon's study registry is the
first consumer (:mod:`repro.service`).
"""

from __future__ import annotations

import math
import os
import threading
import time as _time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import multiprocessing

from repro.checks import check_count, check_real
from repro.scenarios import ScenarioSpec
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import SimulationResult
from repro.simulation.results_store import (
    ResultsStore,
    UncacheableSpecError,
    canonical_spec_description,
    run_spec_fingerprint,
)
from repro.simulation.scheduler_api import Scheduler
from repro.workload.stream import StreamSpec, TraceStream
from repro.workload.trace import Trace

__all__ = [
    "SchedulerSpec",
    "TraceSpec",
    "RunSpec",
    "ResultCallback",
    "ExperimentRunner",
    "default_workers",
    "normalize_workers",
    "execute_run_spec",
    "run_simulation",
]


def default_workers() -> int:
    """Number of workers a ``workers=None`` runner uses (the usable CPUs)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def normalize_workers(workers: Optional[int]) -> Optional[int]:
    """Normalise a worker-count knob to the library convention.

    The library and the CLI historically disagreed on "use every CPU"
    (``workers=None`` vs ``--workers 0``); this is the single place the
    mapping lives.  ``None`` and ``0`` both mean "all usable CPUs" and
    normalise to ``None``; any count >= 1 means exactly that many worker
    processes (1 = serial, in-process); negative counts are rejected.
    """
    if workers is None or workers == 0:
        return None
    return check_count("workers", workers, 1)


def run_simulation(
    trace: Trace,
    scheduler: Scheduler,
    num_machines: int,
    *,
    seed: int = 0,
    machine_speed: float = 1.0,
    scenario: Optional[ScenarioSpec] = None,
    max_time: Optional[float] = None,
    check_invariants: bool = False,
) -> SimulationResult:
    """Run one simulation and return its metrics.

    Parameters mirror :class:`~repro.simulation.engine.SimulationEngine`;
    ``seed`` controls both the workload sampling and any randomised
    tie-breaking inside the engine (scenario processes draw from dedicated
    streams derived from the same seed).
    """
    engine = SimulationEngine(
        trace=trace,
        scheduler=scheduler,
        num_machines=num_machines,
        seed=seed,
        machine_speed=machine_speed,
        scenario=scenario,
        max_time=max_time,
        check_invariants=check_invariants,
    )
    started = _time.perf_counter()
    result = engine.run()
    result.runtime_seconds = _time.perf_counter() - started
    return result


@dataclass(frozen=True)
class SchedulerSpec:
    """A picklable recipe for constructing a scheduler in a worker process.

    Holds a scheduler registry name -- a named scheduler such as
    ``"SRPTMS+C"`` or a composition triple such as ``"srpt+greedy+late"``
    (see :mod:`repro.policies`) -- plus its keyword arguments; the results
    cache keys on both.  An unknown name is rejected with the list of
    valid ones.  Instances are callable so they can stand in anywhere a
    zero-argument scheduler factory is expected.
    """

    name: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Deferred, like build(): repro.policies imports this package.
        from repro.policies import scheduler_entry

        scheduler_entry(self.name)

    def build(self) -> Scheduler:
        """Build the registered scheduler with the stored kwargs."""
        from repro.policies import make_scheduler

        return make_scheduler(self.name, **self.kwargs)

    def __call__(self) -> Scheduler:
        return self.build()


@dataclass(frozen=True)
class TraceSpec:
    """A picklable recipe for constructing a trace in a worker process.

    ``factory`` must be a module-level callable (picklable by reference);
    workers call ``factory(**kwargs)``.  Shipping a recipe instead of the
    trace itself keeps the per-task pickle payload small for large traces
    and lets workers memoise construction (the factory must be
    deterministic in its arguments -- true for every generator in
    :mod:`repro.workload`, which all take explicit seeds).
    """

    factory: Callable[..., Trace]
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def build(self) -> Trace:
        """Build the trace by calling the stored factory."""
        trace = self.factory(**dict(self.kwargs))
        if not isinstance(trace, Trace):
            raise TypeError(
                f"trace factory {self.factory!r} returned {type(trace).__name__}, "
                "expected a Trace"
            )
        return trace

    def cache_key(self) -> str:
        """Stable per-process memoisation key (factory identity + arguments)."""
        factory = self.factory
        name = f"{getattr(factory, '__module__', '?')}.{getattr(factory, '__qualname__', repr(factory))}"
        items = ", ".join(f"{k}={self.kwargs[k]!r}" for k in sorted(self.kwargs))
        return f"{name}({items})"


TraceSource = Union[Trace, TraceSpec, StreamSpec]

#: Per-process memo of traces built from :class:`TraceSpec` recipes, so a
#: process handling many runs of the same sweep builds the trace once.
#: Bounded LRU (a long-lived parent process sweeping many configs must not
#: retain every trace it ever built).  Guarded by a lock: the serve
#: daemon's executor threads resolve traces concurrently.
_TRACE_CACHE: "OrderedDict[str, Trace]" = OrderedDict()
_TRACE_CACHE_MAX = 8
_TRACE_CACHE_LOCK = threading.Lock()


def _resolve_trace(source: TraceSource) -> Union[Trace, TraceStream]:
    if isinstance(source, Trace):
        return source
    if isinstance(source, TraceSpec):
        key = source.cache_key()
        with _TRACE_CACHE_LOCK:
            trace = _TRACE_CACHE.get(key)
            if trace is not None:
                _TRACE_CACHE.move_to_end(key)
                return trace
        trace = source.build()
        with _TRACE_CACHE_LOCK:
            _TRACE_CACHE[key] = trace
            while len(_TRACE_CACHE) > _TRACE_CACHE_MAX:
                _TRACE_CACHE.popitem(last=False)
        return trace
    if isinstance(source, StreamSpec):
        # Streams are one-shot consumables: build a fresh one per run,
        # never memoise (a consumed stream cannot be replayed).
        return source.build()
    raise TypeError(
        f"trace source must be a Trace, TraceSpec or StreamSpec, got {source!r}"
    )


@dataclass(frozen=True)
class RunSpec:
    """Everything one simulation run needs, in picklable form.

    Attributes
    ----------
    trace:
        A :class:`Trace` (pickled wholesale), a :class:`TraceSpec`
        (rebuilt, and memoised, inside the worker), or a
        :class:`~repro.workload.stream.StreamSpec` (a fresh lazily
        generated stream is built for every run; pass the *spec*, never a
        consumed :class:`~repro.workload.stream.TraceStream` instance).
    scheduler:
        A zero-argument factory; use :class:`SchedulerSpec` when the spec
        must cross a process boundary.
    seed:
        Drives *all* randomness of the run (workload sampling, randomised
        tie-breaking, and -- through dedicated streams -- the scenario's
        speed sampling, failure/slowdown timelines and input placement).
    scenario:
        Cluster environment (heterogeneous speeds such as permanently slow
        machines, dynamic stragglers, failures, rack topology); ``None`` is
        the paper's homogeneous static cluster.
        :class:`~repro.scenarios.ScenarioSpec` is a frozen dataclass, so it
        pickles across the pool like every other spec field.
    tag:
        The run's coordinates in its study (one ``(axis, label)`` pair
        per axis, set by :meth:`repro.study.core.StudyPoint.to_run_spec`);
        excluded from the cache key and never read by the run.
    """

    trace: TraceSource
    scheduler: Callable[[], Scheduler]
    num_machines: int
    seed: int = 0
    machine_speed: float = 1.0
    scenario: Optional[ScenarioSpec] = None
    max_time: Optional[float] = None
    tag: Optional[Hashable] = None

    def __post_init__(self) -> None:
        check_count("num_machines", self.num_machines, 1)
        check_count("seed", self.seed)
        check_real("machine_speed", self.machine_speed, positive=True)
        if self.max_time is not None and self.max_time != math.inf:  # inf: no limit
            check_real("max_time", self.max_time, positive=True)
        if not callable(self.scheduler):
            raise TypeError(f"scheduler must be callable, got {self.scheduler!r}")
        if self.scenario is not None and not isinstance(self.scenario, ScenarioSpec):
            raise TypeError(
                f"scenario must be a ScenarioSpec, got {self.scenario!r}"
            )
        if isinstance(self.trace, TraceStream):
            raise TypeError(
                "RunSpec.trace must not be a TraceStream (streams are "
                "one-shot); pass its StreamSpec so every run builds a fresh "
                "stream"
            )

    def with_seed(self, seed: int) -> "RunSpec":
        """Copy of this spec with a different replication seed."""
        from dataclasses import replace

        return replace(self, seed=seed)

    def execute(self) -> SimulationResult:
        """Build the trace/scheduler/engine and run the simulation."""
        return run_simulation(
            _resolve_trace(self.trace),
            self.scheduler(),
            self.num_machines,
            seed=self.seed,
            machine_speed=self.machine_speed,
            scenario=self.scenario,
            max_time=self.max_time,
        )


def execute_run_spec(spec: RunSpec) -> SimulationResult:
    """Module-level worker entry point (must be picklable by reference)."""
    return spec.execute()


#: Worker-process results store, set by :func:`_init_worker_store` when the
#: parent runner has a cache configured.  ``None`` in the parent (the
#: initializer only runs inside pool workers) and in store-less pools.
_WORKER_STORE: Optional[ResultsStore] = None


def _init_worker_store(cache_dir: str) -> None:
    """Pool initializer: open the shared results store in this worker."""
    global _WORKER_STORE
    _WORKER_STORE = ResultsStore(cache_dir)


def _execute_batch(
    batch: List[RunSpec],
) -> Tuple[int, List[SimulationResult]]:
    """Pool entry point: run a whole batch of specs in one dispatch.

    Returns the executing worker's PID alongside the results so the
    parent can account dispatches per worker
    (:attr:`ExperimentRunner.last_dispatch_stats`).  Shipping batches --
    rather than relying on ``pool.map`` chunking of single specs --
    keeps one IPC round-trip (and one results pickle) per *batch* of
    small runs instead of per run.

    When the pool was initialised with a results store, each cacheable
    result is persisted *here*, before it crosses back to the parent:
    store writes (row rendering, canonical JSON, hashing) then scale out
    with the workers instead of serialising on the parent, and the
    persist-before-observe guarantee of
    :meth:`ExperimentRunner.run` holds a fortiori.  The store's atomic
    same-destination writes make concurrent workers safe by design.
    """
    store = _WORKER_STORE
    results = []
    for spec in batch:
        result = spec.execute()
        if store is not None:
            try:
                key = run_spec_fingerprint(spec)
            except UncacheableSpecError:
                pass
            else:
                store.store(key, canonical_spec_description(spec), result)
        results.append(result)
    return os.getpid(), results


#: Signature of a streaming progress observer: ``(spec, result, cache_hit)``.
ResultCallback = Callable[["RunSpec", SimulationResult, bool], None]


class ExperimentRunner:
    """Executes batches of :class:`RunSpec` serially or on a process pool.

    Parameters
    ----------
    workers:
        ``1`` runs every spec in-process (no pool, no pickling
        constraints).  ``N > 1`` fans specs out over ``N`` worker
        processes.  ``None`` and ``0`` both use every usable CPU (see
        :func:`normalize_workers`).
    mp_context:
        ``multiprocessing`` start-method name (``"fork"``/``"spawn"``) or
        context object; defaults to the platform default.
    chunksize:
        Specs batched into one worker dispatch; defaults to a heuristic
        that balances scheduling overhead against load balance (see
        :meth:`_execute`).
    cache_dir:
        Directory of a :class:`~repro.simulation.results_store.ResultsStore`.
        When set, every executed spec's result is persisted there and
        subsequent runs of the same spec are served from disk byte-equal,
        with zero engine runs (see the module docstring).  ``None`` (the
        default) disables caching.
    store:
        An existing :class:`ResultsStore` to use instead of ``cache_dir``
        (mutually exclusive with it).
    on_result:
        Default streaming observer, invoked as ``on_result(spec, result,
        cache_hit)`` for every spec of every :meth:`run` call as its
        result lands (see the module docstring); a per-call ``on_result``
        overrides it.  ``None`` (the default) disables streaming.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        *,
        mp_context: Union[str, Any, None] = None,
        chunksize: Optional[int] = None,
        cache_dir: Union[str, "os.PathLike[str]", None] = None,
        store: Optional[ResultsStore] = None,
        on_result: Optional[ResultCallback] = None,
    ) -> None:
        workers = normalize_workers(workers)
        if workers is None:
            workers = default_workers()
        self.workers = int(workers)
        self._mp_context = mp_context
        if chunksize is not None:
            check_count("chunksize", chunksize, 1)
        self._chunksize = chunksize
        if cache_dir is not None and store is not None:
            raise ValueError("pass either cache_dir or store, not both")
        self.store = ResultsStore(cache_dir) if cache_dir is not None else store
        self.on_result = on_result
        #: Stats of the most recent :meth:`run` call:
        #: ``executed`` engine runs (one per distinct key), ``cache_hits``
        #: specs served from the store, ``uncacheable`` specs without a
        #: stable key (each run on its own).
        self.last_run_stats: Dict[str, int] = {
            "executed": 0,
            "cache_hits": 0,
            "uncacheable": 0,
        }
        #: Dispatch accounting of the most recent :meth:`run`: number of
        #: ``batches`` shipped, the ``batch_size`` used, ``per_worker`` --
        #: batches handled per worker PID (the parent's own PID on the
        #: serial path) -- and ``cache_hits``, the specs that never needed
        #: a dispatch because the store served them.  A benchmark that
        #: claims throughput must show ``cache_hits == 0`` here (see
        #: ``benchmarks/test_runner_parallel.py``).
        self.last_dispatch_stats: Dict[str, Any] = {
            "batches": 0,
            "batch_size": 0,
            "per_worker": {},
            "cache_hits": 0,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExperimentRunner(workers={self.workers})"

    # -- execution -----------------------------------------------------------------

    def _execute(
        self,
        specs: List[RunSpec],
        on_each: Optional[Callable[[int, SimulationResult], None]] = None,
        worker_store_dir: Optional[str] = None,
    ) -> List[SimulationResult]:
        """Run every spec (serially or on the pool), no cache involved.

        Pool dispatch is **batched**: specs are grouped into contiguous
        batches of ``chunksize`` (default: a few batches per worker) and
        each batch crosses the process boundary as one task, so a sweep
        of many small runs pays one pickle/IPC round-trip per batch, not
        per run.  Results come back in spec order either way;
        :attr:`last_dispatch_stats` records the batch count and the
        batches-per-worker distribution.  ``on_each(position, result)``
        fires as results land, in spec order on both paths (the pool path
        consumes batches as they complete via ``imap``, so the hook
        streams instead of waiting for the whole sweep).

        ``worker_store_dir`` (pool path only) makes every worker open the
        results store at that directory and persist its own results
        before shipping them back -- see :func:`_execute_batch`.
        """
        if not specs:
            self.last_dispatch_stats = {
                "batches": 0,
                "batch_size": 0,
                "per_worker": {},
                "cache_hits": 0,
            }
            return []
        pool_size = min(self.workers, len(specs))
        if pool_size == 1:
            self.last_dispatch_stats = {
                "batches": 1,
                "batch_size": len(specs),
                "per_worker": {os.getpid(): 1},
                "cache_hits": 0,
            }
            results = []
            for position, spec in enumerate(specs):
                result = spec.execute()
                results.append(result)
                if on_each is not None:
                    on_each(position, result)
            return results
        context = self._mp_context
        if not isinstance(context, multiprocessing.context.BaseContext):
            context = multiprocessing.get_context(context)
        batch_size = self._chunksize
        if batch_size is None:
            # A few batches per worker: amortise IPC without starving anyone.
            batch_size = max(1, len(specs) // (pool_size * 4))
        batches = [
            specs[start : start + batch_size]
            for start in range(0, len(specs), batch_size)
        ]
        per_worker: Dict[int, int] = {}
        results: List[SimulationResult] = []
        initializer = _init_worker_store if worker_store_dir else None
        initargs = (worker_store_dir,) if worker_store_dir else ()
        with context.Pool(
            processes=pool_size, initializer=initializer, initargs=initargs
        ) as pool:
            for pid, batch_results in pool.imap(_execute_batch, batches, chunksize=1):
                per_worker[pid] = per_worker.get(pid, 0) + 1
                for result in batch_results:
                    if on_each is not None:
                        on_each(len(results), result)
                    results.append(result)
        self.last_dispatch_stats = {
            "batches": len(batches),
            "batch_size": batch_size,
            "per_worker": per_worker,
            "cache_hits": 0,
        }
        return results

    def run(
        self,
        specs: Sequence[RunSpec],
        on_result: Optional[ResultCallback] = None,
    ) -> List[SimulationResult]:
        """Execute every spec and return results in spec order.

        Specs sharing a cache key (equal canonical descriptions, e.g. one
        SCA point per epsilon of a sweep SCA ignores) run once: the one
        result is handed to every spec of the key, exactly as a results
        cache would serve it.  With a results store configured, keys
        already cached are served from disk (byte-equal to a fresh run);
        only the remaining keys touch the engine, and their results are
        persisted for the next invocation.  Uncacheable specs have no key
        and each runs on its own.  ``on_result`` (or the constructor
        default) streams every spec's result as it lands -- cache hits
        first, then executions, each persisted before its callbacks fire.
        """
        specs = list(specs)
        callback = self.on_result if on_result is None else on_result
        stats = {"executed": 0, "cache_hits": 0, "uncacheable": 0}
        self.last_run_stats = stats
        if not specs:
            return []
        store = self.store
        results: List[Optional[SimulationResult]] = [None] * len(specs)
        # One group per cache key, in order of its first spec; an
        # uncacheable spec is a group of its own.
        groups: List[Tuple[Optional[str], List[int]]] = []
        group_of: Dict[str, List[int]] = {}
        for index, spec in enumerate(specs):
            try:
                key = run_spec_fingerprint(spec)
            except UncacheableSpecError:
                stats["uncacheable"] += 1
                groups.append((None, [index]))
                continue
            members = group_of.get(key)
            if members is None:
                members = group_of[key] = []
                groups.append((key, members))
            members.append(index)

        pending: List[Tuple[Optional[str], List[int]]] = []
        for key, members in groups:
            cached = store.load(key) if store is not None and key is not None else None
            if cached is None:
                pending.append((key, members))
                continue
            stats["cache_hits"] += len(members)
            for index in members:
                results[index] = cached
        if callback is not None and stats["cache_hits"]:
            for spec, result in zip(specs, results):
                if result is not None:
                    callback(spec, result, True)

        # On the pool path, delegate persistence to the workers themselves
        # (they store each result before shipping it back, so writes scale
        # out instead of serialising on the parent).  Only a store the
        # workers can faithfully reopen by path qualifies; a custom
        # subclass keeps the parent-side write.  The serial path and
        # custom stores persist in ``on_each`` below, preserving the
        # persist-before-observe ordering either way.
        pooled = self.workers > 1 and len(pending) > 1
        workers_persist = pooled and type(store) is ResultsStore
        worker_store_dir = str(store.cache_dir) if workers_persist else None

        def on_each(position: int, result: SimulationResult) -> None:
            # Persist before observing: a callback consumer that saw this
            # result may rely on a restarted sweep finding it in the cache.
            key, members = pending[position]
            if store is not None and key is not None and not workers_persist:
                store.store(key, canonical_spec_description(specs[members[0]]), result)
            stats["executed"] += 1
            for index in members:
                results[index] = result
                if callback is not None:
                    callback(specs[index], result, False)

        self._execute(
            [specs[members[0]] for _, members in pending],
            on_each,
            worker_store_dir=worker_store_dir,
        )
        self.last_dispatch_stats["cache_hits"] = stats["cache_hits"]
        return results  # type: ignore[return-value]
