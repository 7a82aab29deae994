"""The benchmark's workloads: two engine replays and one sweep on two paths.

``paper-google`` and ``fifo-stream`` replay one input through the engine;
``sweep`` runs two spec files through the daemon and offline.  Each
workload class builds its inputs from the benchmark seed in :meth:`setup`
(the part ``setup_s`` times), then either measures untraced
(:meth:`measure`: the end-to-end metrics) or traced (:meth:`traced`: the
per-layer metrics).  Both return an :class:`Outcome`.
Every operation -- one engine replay, or one study leg -- is checked; a
check that fails, or an exception, counts the operation as failed instead
of aborting the run.  See ``interaction_map.json`` for why each workload
exists and which layers it stresses or bypasses.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import pickle
import time
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from harness import ROOT, UNTRACED, HostSpeed, Tracer, median, peak_rss_mb, percentile

#: The paper's operating point for SRPTMS+C (Section V: epsilon 0.6, r 3).
EPSILON = 0.6
R = 3.0
#: Scale of the synthetic Google-like trace (1356 jobs on 600 machines).
#: Large enough to time SRPTMS+C well past the 858-job smoke trace, small
#: enough that the traced run can replay it under all seven named
#: compositions (LATE alone takes minutes at scale 0.2).
PAPER_SCALE = 0.05
#: FIFO stream: single-task jobs one second apart on 16 machines.
STREAM_JOBS = 1_000_000
STREAM_MACHINES = 16
#: The sweep's spec files, relative to the checkout root.
SWEEP_SPECS = (
    "examples/studies/policy_grid.toml",
    "examples/studies/dag_redundancy.toml",
)
#: Warm legs are short, so each is repeated this often per iteration.
WARM_REPEATS = 5
#: Fixed interval of the closed-loop client's status polls.
POLL_INTERVAL_S = 0.01
#: A served leg that takes longer than this counts as failed.
SERVED_TIMEOUT_S = 120.0


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


@dataclasses.dataclass
class Outcome:
    """What one run measured: metrics, the detail report, and op counts."""

    metrics: Dict[str, float]
    report: Dict[str, Any]
    attempted: int = 0
    failed: int = 0


class Ops:
    """Counts operations and records why any of them failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def run(self, label: str, fn: Callable[[], Any]) -> Any:
        """Run one operation; ``None`` (and a recorded failure) if it fails."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            self.failures.append(f"{label}: {detail}")
            return None


def repeat(seconds: float, ops: Ops, step: Callable[[], Any]) -> None:
    """Run ``step`` once, then again while another one still fits in ``seconds``.

    A step starts only if, taking as long as the last one, it ends by the
    deadline, so a run lasts about ``seconds`` however fast the host is.
    Stops early when every operation of a step failed.
    """
    deadline = perf_counter() + seconds
    while True:
        attempted, failed = ops.attempted, len(ops.failures)
        started = perf_counter()
        step()
        took = perf_counter() - started
        if len(ops.failures) - failed == ops.attempted - attempted:
            return
        if perf_counter() + took > deadline:
            return


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


def _same_fingerprint(seen: Dict[str, str], label: str, fingerprint: str) -> None:
    reference = seen.setdefault(label, fingerprint)
    require(
        fingerprint == reference,
        f"{label} fingerprint {fingerprint[:12]} differs from the first run's {reference[:12]}",
    )


# ------------------------------------------------------------------ per-layer helpers

#: The seven NAMED_COMPOSITIONS the traced paper-google run replays.  A
#: traced run returns only the per-layer metrics it measured; ``run.py``
#: reports every other metric ``BENCHMARK.json`` declares as 0 (a layer the
#: workload bypasses, see ``interaction_map.json``).
COMPOSITIONS = ("fifo", "fair", "srpt", "sca", "late", "mantri", "srptms_c")


def engine_layers(result: Any, run_s: float, decision_s: float) -> Dict[str, float]:
    """The engine and redundancy metrics of one replay."""
    copies = result.total_copies
    self_s = run_s - decision_s
    work = result.useful_work + result.wasted_work
    return {
        "engine.run_s": run_s,
        "engine.self_s": self_s,
        "engine.self_us_per_copy": self_s / copies * 1e6 if copies else 0.0,
        "engine.copies": copies,
        "engine.copies_per_task": result.cloning_ratio,
        "engine.over_requests": result.over_requests,
        "redundancy.useful_work_ratio": result.useful_work / work if work else 0.0,
        "redundancy.redundant_copies": result.redundant_copies_launched,
    }


def decision_layers(tracer: Tracer) -> Dict[str, float]:
    """Call count, total time, latency percentiles and fan-out of schedule()."""
    durations = tracer.durations.get("decision.schedule", [])
    requests = tracer.counts.get("decision.schedule", [])
    return {
        "decision.calls": len(durations),
        "decision.total_s": sum(durations),
        "decision.p50_us": percentile(durations, 50) * 1e6,
        "decision.p99_us": percentile(durations, 99) * 1e6,
        "decision.requests_per_call": sum(requests) / len(requests) if requests else 0.0,
    }


def result_layers(tracer: Tracer, results: List[Any]) -> Dict[str, float]:
    """Pickle size and time (what pool IPC ships) and fingerprint time."""
    size = 0
    for result in results:
        size += len(tracer.call("result", "result.pickle", pickle.dumps, result))
        tracer.call("result", "result.fingerprint", result.fingerprint)
    return {
        "result.pickle_bytes": size,
        "result.pickle_s": tracer.total("result.pickle"),
        "result.fingerprint_s": tracer.total("result.fingerprint"),
    }


def accounting(tracer: Tracer) -> float:
    """Share of the traced windows' wall time that no layer claims."""
    wall = tracer.total(ROOT)
    return tracer.self_s.get(ROOT, 0.0) / wall if wall else 0.0


# ------------------------------------------------------------------ workloads


class Workload:
    """Base class: the seed, the size switch and a private scratch directory."""

    name = ""

    def __init__(self, seed: int, tiny: bool, root: Path, work_dir: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.root = root
        self.work_dir = work_dir

    def sizes(self) -> Dict[str, Any]:
        """The workload's size parameters (recorded in every report)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Import the program and build the inputs (timed as ``setup_s``)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started."""

    def measure(self, seconds: float) -> Outcome:
        """Untraced run: the end-to-end metrics."""
        raise NotImplementedError

    def traced(self, seconds: float) -> Outcome:
        """Traced run: the per-layer metrics."""
        raise NotImplementedError


class EngineWorkload(Workload):
    """A workload that is one engine replay of one input, repeated."""

    machines = 0
    #: Whether a repeat answer can reuse the built input: a trace can, a
    #: one-shot stream cannot (its warm_s is its cold_s).
    reusable_input = True
    #: Peak RSS read right after the first replay, before any output check.
    first_rss_mb: Optional[float] = None

    def build_input(self) -> Any:
        """A fresh replay input (trace or stream) for this seed."""
        raise NotImplementedError

    def warm_input(self) -> Any:
        """The input a repeat replay uses."""
        raise NotImplementedError

    def scheduler(self, name: str = "") -> Any:
        """A fresh scheduler of this workload's composition (or ``name``)."""
        raise NotImplementedError

    def replay(self, source: Any, scheduler: Any, tracer: Any = UNTRACED):
        """Run the engine once; returns ``(result, seconds inside run())``."""
        from repro.simulation.engine import SimulationEngine

        tracer.wrap(scheduler, "schedule", "decision", size=len)
        engine = SimulationEngine(source, scheduler, self.machines, seed=self.seed)
        tracer.wrap(engine, "run", "engine")
        started = perf_counter()
        result = engine.run()
        elapsed = perf_counter() - started
        if self.first_rss_mb is None:
            self.first_rss_mb = peak_rss_mb()
        return result, elapsed

    def window(self, kind: str, tracer: Any = UNTRACED):
        """One timed replay: ``(result, window seconds, run seconds)``.

        A cold window builds the input first; a warm one reuses it.
        """
        started = perf_counter()
        with tracer.window():
            if kind == "cold":
                source = tracer.call("workload", "workload.build", self.build_input)
            else:
                source = self.warm_input()
            result, run_s = self.replay(source, self.scheduler(), tracer)
        return result, perf_counter() - started, run_s

    def checked(self, fingerprints: Dict[str, str], result: Any) -> Any:
        """``result``, once every job completed and it repeats the first replay."""
        require(
            result.num_jobs == self.jobs,
            f"{result.num_jobs} of {self.jobs} jobs completed",
        )
        _same_fingerprint(fingerprints, "replay", result.fingerprint())
        return result

    def measure(self, seconds: float) -> Outcome:
        """Cold (and, if the input is reusable, warm) replays until time is up."""
        ops = Ops()
        host = HostSpeed()
        samples: Dict[str, List[float]] = {"cold": [], "warm": []}
        raw: Dict[str, List[float]] = {"cold": [], "warm": []}
        rates: List[float] = []
        fingerprints: Dict[str, str] = {}
        last: Dict[str, Any] = {}

        def op(kind: str) -> None:
            result, window, run_s = self.window(kind)
            factor = host.factor()
            last["result"] = self.checked(fingerprints, result)
            raw[kind].append(window)
            samples[kind].append(window * factor)
            rates.append(self.jobs / (run_s * factor))

        kinds = ("cold", "warm") if self.reusable_input else ("cold",)

        def step() -> None:
            for kind in kinds:
                ops.run(f"{kind} replay", lambda: op(kind))
                gc.collect()

        repeat(seconds, ops, step)
        result = last.get("result")
        warm = samples["warm"] if self.reusable_input else samples["cold"]
        # Medians of the rescaled repeats (see harness.HostSpeed): a fastest
        # repeat would pick out the extremes of the rescaling's own noise.
        metrics = {
            "jobs_per_s": median(rates),
            "weighted_flowtime_mean": result.weighted_mean_flowtime if result else 0.0,
            "flowtime_p99": result.percentile_flowtime(99) if result else 0.0,
            "cold_s": median(samples["cold"]),
            "warm_s": median(warm),
            "peak_rss_mb": self.first_rss_mb or 0.0,
        }
        report = {
            "samples_s": samples,
            "raw_samples_s": raw,
            "kernel_readings_s": host.readings,
            "jobs_per_s_samples": rates,
            "jobs": self.jobs,
            "fingerprint": fingerprints.get("replay"),
            "copies": result.total_copies if result else None,
            "failures": ops.failures,
        }
        return Outcome(metrics, report, ops.attempted, len(ops.failures))

    def traced(self, seconds: float) -> Outcome:
        """Interleaved untraced and traced cold replays, then a drain of the input."""
        ops = Ops()
        untraced: List[float] = []
        samples: List[Any] = []
        fingerprints: Dict[str, str] = {}

        def untraced_op() -> None:
            result, window, _ = self.window("cold")
            self.checked(fingerprints, result)
            untraced.append(window)
            gc.collect()

        def traced_op() -> None:
            tracer = Tracer()
            result, window, _ = self.window("cold", tracer)
            samples.append((window, tracer, self.checked(fingerprints, result)))
            gc.collect()

        for _ in range(self.traced_pairs()):
            ops.run("untraced replay", untraced_op)
            ops.run("traced replay", traced_op)
        layers: Dict[str, float] = {}
        if samples:
            # Layers come from the fastest traced replay, so they add up to
            # one window (host noise only ever adds time).
            window, tracer, result = min(samples, key=lambda entry: entry[0])
            layers["workload.build_s"] = tracer.total("workload.build")
            layers.update(decision_layers(tracer))
            layers.update(
                engine_layers(result, tracer.total("engine.run"), layers["decision.total_s"])
            )
            layers["trace.unattributed_frac"] = accounting(tracer)
            if untraced:
                layers["trace.overhead_frac"] = window / min(untraced) - 1.0
            layers.update(result_layers(tracer, [result]))
            del samples[:], result
            gc.collect()

            def drain_op() -> None:
                count = tracer.call(
                    "workload", "workload.drain", lambda: sum(1 for _ in self.warm_input())
                )
                require(count == self.jobs, f"input yielded {count} of {self.jobs} job specs")

            ops.run("drain", drain_op)
            layers["workload.drain_s"] = tracer.total("workload.drain")
        report = {
            "untraced_walls_s": untraced,
            "fingerprint": fingerprints.get("replay"),
            **self.traced_extra(ops, layers),
            "failures": ops.failures,
        }
        return Outcome(layers, report, ops.attempted, len(ops.failures))

    def traced_pairs(self) -> int:
        """How many untraced/traced replay pairs the traced run makes."""
        return 1

    def traced_extra(self, ops: Ops, layers: Dict[str, float]) -> Dict[str, Any]:
        """Workload-specific traced measurements; returns extra report entries."""
        return {}


class PaperGoogle(EngineWorkload):
    """SRPTMS+C (epsilon 0.6, r 3) on the synthetic Google-like trace."""

    name = "paper-google"

    def sizes(self) -> Dict[str, Any]:
        """Trace scale and the SRPTMS+C operating point."""
        return {
            "scale": 0.005 if self.tiny else PAPER_SCALE,
            "trace_seed": 0,
            "replication_seed": self.seed,
            "epsilon": EPSILON,
            "r": R,
        }

    def setup(self) -> None:
        """Build the fixed trace; the seed draws every task duration."""
        from repro.experiments import ExperimentConfig

        self.config = ExperimentConfig(scale=self.sizes()["scale"], epsilon=EPSILON, r=R)
        self.machines = self.config.machines
        self.trace = self.config.make_trace()
        self.jobs = self.trace.num_jobs

    def build_input(self) -> Any:
        """Regenerate the trace (what a cold replay pays)."""
        return self.config.make_trace()

    def warm_input(self) -> Any:
        """The trace built at set-up."""
        return self.trace

    def scheduler(self, name: str = "srptms_c") -> Any:
        """A named composition at the paper's operating point."""
        from repro.policies import NAMED_COMPOSITIONS
        from repro.simulation.scheduler_api import ComposedScheduler

        ordering, allocation, redundancy = NAMED_COMPOSITIONS[name]
        return ComposedScheduler(
            ordering, allocation, redundancy, epsilon=EPSILON, r=R, seed=self.seed
        )

    def traced_pairs(self) -> int:
        """Three pairs: the replay is short."""
        return 1 if self.tiny else 3

    def traced_extra(self, ops: Ops, layers: Dict[str, float]) -> Dict[str, Any]:
        """The trace replayed under each of the seven named compositions."""
        compositions: Dict[str, Any] = {}
        for name in COMPOSITIONS:

            def composition_op(name: str = name) -> None:
                tracer = Tracer()
                result, run_s = self.replay(self.trace, self.scheduler(name), tracer)
                require(result.num_jobs == self.jobs, f"{name}: jobs left incomplete")
                decision = decision_layers(tracer)
                engine = engine_layers(result, run_s, decision["decision.total_s"])
                calls = decision["decision.calls"]
                layers[f"decision.{name}.us_per_call"] = (
                    decision["decision.total_s"] / calls * 1e6 if calls else 0.0
                )
                layers[f"engine.{name}.self_us_per_copy"] = engine["engine.self_us_per_copy"]
                compositions[name] = {
                    "run_s": run_s,
                    "decision_calls": calls,
                    "copies": engine["engine.copies"],
                    "fingerprint": result.fingerprint(),
                }

            ops.run(f"{name} replay", composition_op)
        return {"compositions": compositions}


class FifoStream(EngineWorkload):
    """FIFO on a lazily generated single-task stream of about 1M jobs."""

    name = "fifo-stream"
    machines = STREAM_MACHINES
    reusable_input = False

    def sizes(self) -> Dict[str, Any]:
        """Stream length, machines, and the seed-drawn job duration."""
        rng = np.random.default_rng([0x5EED, self.seed])
        return {
            "num_jobs": 5_000 if self.tiny else STREAM_JOBS,
            "machines": STREAM_MACHINES,
            "inter_arrival": 1.0,
            # Load stays below one (duration / (16 machines * 1 s)), so the
            # stream never queues; the seed moves every job's duration.
            "mean_duration": float(rng.uniform(9.9, 10.1)),
        }

    def setup(self) -> None:
        """Describe the stream (it is generated lazily during each replay)."""
        from repro.workload.stream import StreamSpec, stream_uniform_jobs

        sizes = self.sizes()
        self.spec = StreamSpec(
            factory=stream_uniform_jobs,
            num_jobs=sizes["num_jobs"],
            kwargs={
                "tasks_per_job": 1,
                "reduce_tasks_per_job": 0,
                "mean_duration": sizes["mean_duration"],
                "inter_arrival": sizes["inter_arrival"],
            },
            name=f"fifo-stream-{sizes['num_jobs']}",
        )
        self.jobs = self.spec.num_jobs

    def build_input(self) -> Any:
        """A fresh one-shot stream."""
        return self.spec.build()

    warm_input = build_input

    def scheduler(self, name: str = "") -> Any:
        """The fifo+greedy+none composition (the engine's inlined fast lane)."""
        from repro.simulation.scheduler_api import ComposedScheduler

        return ComposedScheduler("fifo", "greedy", "none", seed=self.seed)

    def traced_extra(self, ops: Ops, layers: Dict[str, float]) -> Dict[str, Any]:
        """The instance-level schedule() wrapper must leave the fast lane on."""

        def fast_lane_op() -> None:
            require(layers.get("decision.calls") == 0, "schedule() ran outside the FIFO fast lane")

        ops.run("fast lane", fast_lane_op)
        return {}


class Sweep(Workload):
    """Two spec files, served through the daemon and run offline, cold then warm."""

    name = "sweep"
    service: Any = None
    #: Leg kinds: the offline path (``Study.run``) and the served path, each
    #: cold on a fresh cache and warm against the cache the cold leg filled.
    KINDS = ("sweep_cold", "sweep_warm", "served_cold", "served_warm")

    def sizes(self) -> Dict[str, Any]:
        """Spec files, the seeds axis, worker counts and leg repeats."""
        return {
            "specs": list(SWEEP_SPECS),
            "seeds": [self.seed],
            "workers": self.workers,
            "warm_repeats": WARM_REPEATS,
            "poll_interval_s": POLL_INTERVAL_S,
            "trimmed": self.tiny,
        }

    #: Offline runner processes and daemon executor threads.  One: with two
    #: of each, both legs span both CPUs of a shared host, and the pool's
    #: slowest worker or the executor threads' contention for the
    #: interpreter lock turn a neighbour's load on either CPU into 35-45%
    #: run-to-run spread, beyond the largest regression bound allowed.
    workers = 1

    def study(self, path: str) -> Any:
        """Load a spec file with its seeds axis set to the benchmark seed."""
        from repro.study import load_study

        study = dataclasses.replace(load_study(self.root / path), seeds=(self.seed,))
        if self.tiny:
            study = dataclasses.replace(
                study, schedulers=study.schedulers[:1], scenarios=study.scenarios[:1]
            )
        return study

    def setup(self) -> None:
        """Import, load both spec files and boot the daemon until it answers."""
        import repro.simulation.experiment_runner  # noqa: F401 - setup_s pays for imports
        import repro.study  # noqa: F401

        self._dirs = itertools.count()
        for path in SWEEP_SPECS:
            self.study(path)
        self.boot()

    def boot(self) -> float:
        """Start a daemon on a fresh cache; returns seconds until /healthz answers."""
        from repro.service import ServiceClient, create_service

        started = perf_counter()
        self.service = create_service(cache_dir=self.fresh_dir("served"), workers=self.workers)
        self.http_thread = self.service.serve_background()
        self.client = ServiceClient(self.service.url, timeout=SERVED_TIMEOUT_S)
        self.client.wait_healthy(timeout=30.0, interval=0.005)
        return perf_counter() - started

    def stop(self) -> None:
        """Stop the daemon and wait for its threads."""
        if self.service is not None:
            self.service.stop(wait=True)
            self.http_thread.join(timeout=30.0)
            self.service = None

    close = stop

    def fresh_dir(self, label: str) -> Path:
        """A new, empty cache directory inside the scratch directory."""
        path = self.work_dir / f"{label}-{next(self._dirs)}"
        path.mkdir(parents=True)
        return path

    def prepare(self) -> Dict[str, Any]:
        """Per-run bookkeeping: declared job counts, reference fingerprints."""
        expected = {}
        for path in SWEEP_SPECS:
            counts = []
            for spec in self.study(path).compile():
                declared = getattr(spec.trace, "num_jobs", None)  # Trace or StreamSpec
                counts.append(declared if declared is not None else spec.trace.build().num_jobs)
            expected[path] = counts
        return {"expected": expected, "fingerprints": {}}

    # -- legs ------------------------------------------------------------

    def offline_leg(self, path: str, cache: Path, tracer: Any = UNTRACED):
        """Spec file to CSV bytes through ``Study.run``; returns (csv, set, runner, s)."""
        from repro.simulation.experiment_runner import ExperimentRunner

        started = perf_counter()
        with tracer.window():
            study = tracer.call("study", "study.load", self.study, path)
            runner = ExperimentRunner(workers=self.workers, cache_dir=str(cache))
            tracer.wrap(runner, "run", "runner")
            tracer.wrap(runner.store, "load", "store")
            tracer.wrap(runner.store, "store", "store")
            result_set = tracer.call("study", "study.run", study.run, runner=runner)
            csv = tracer.call("study", "study.export", result_set.to_csv).encode("utf-8")
        return csv, result_set, runner, perf_counter() - started

    def served_leg(self, path: str, state: Dict[str, Any], tracer: Any = UNTRACED):
        """Spec file to CSV bytes in hand from the daemon; returns (csv, study id, s)."""
        call, client = tracer.call, self.client
        started = perf_counter()
        with tracer.window():
            study = call("study", "study.load", self.study, path)
            sid = call("service", "service.submit", client.submit, study)["id"]
            while True:
                status = call("service", "service.poll", client.status, sid)["status"]
                state["polls"] += 1
                if status == "completed":
                    break
                if status == "failed":
                    raise CheckFailed(f"served study {sid} failed")
                if perf_counter() - started > SERVED_TIMEOUT_S:
                    raise CheckFailed(
                        f"served study {sid} still {status} after {SERVED_TIMEOUT_S}s"
                    )
                call("service", "service.wait", time.sleep, POLL_INTERVAL_S)
            csv = call("service", "service.results", client.results, sid)
        return csv, sid, perf_counter() - started

    def engine_runs(self) -> int:
        """Engine runs the daemon has executed so far (its /metrics counter)."""
        return int(self.client.metrics()["runs"]["engine_runs"])

    def check_cold(self, state: Dict[str, Any], path: str, result_set: Any) -> None:
        """Every job of every run completed, and the results repeat exactly."""
        expected = state["expected"][path]
        got = [result.num_jobs for result in result_set.results]
        require(got == expected, f"jobs completed {got} != declared {expected}")
        _same_fingerprint(state["fingerprints"], path, result_set.fingerprint())

    def iteration(
        self,
        ops: Ops,
        state: Dict[str, Any],
        host: Optional[HostSpeed] = None,
        tracer: Any = UNTRACED,
    ):
        """Every leg: served (one daemon), then offline (no daemon threads left).

        Returns ``{kind: {spec path: [seconds, ...]}}``, each leg rescaled
        by ``host`` if given (traced runs pass none: per-layer times stay
        raw); the offline cold result sets, the offline runners and every
        store of the iteration are left in ``state`` for the metrics.
        """
        legs: Dict[str, Dict[str, List[float]]] = {kind: {} for kind in self.KINDS}
        state.update(cold_sets=[], runners=[], polls=0)
        if self.service is None:
            state.setdefault("boot_s", []).append(self.boot())
        state["stores"] = [self.service.store]
        tracer.wrap(self.service.store, "load", "store")
        tracer.wrap(self.service.store, "store", "store")
        tracer.wrap(self.service.executor.runner, "run", "service", "service.executor_run")

        def leg(kind: str, path: str, fn: Callable[[], float]) -> None:
            # Garbage from earlier legs is collected first, so no leg pays
            # for a full collection of its predecessors' objects (as a
            # fresh ``sweep`` or ``submit`` process would not).
            tracer.phase = kind
            gc.collect()
            elapsed = ops.run(f"{kind} {path}", fn)
            factor = host.factor() if host is not None else 1.0
            if elapsed is not None:
                legs[kind].setdefault(path, []).append(elapsed * factor)

        served: Dict[str, bytes] = {}
        try:
            for path in SWEEP_SPECS:

                def served_cold(path: str = path) -> float:
                    csv, sid, elapsed = self.served_leg(path, state, tracer)
                    self.check_cold(state, path, self.service.registry.get(sid).result_set())
                    served[path] = csv
                    return elapsed

                def served_warm(path: str = path) -> float:
                    runs = self.engine_runs()
                    csv, _, elapsed = self.served_leg(path, state, tracer)
                    require(self.engine_runs() == runs, "served warm leg ran the engine")
                    require(csv == served.get(path), "served warm CSV differs from served cold")
                    return elapsed

                leg("served_cold", path, served_cold)
                for _ in range(WARM_REPEATS):
                    leg("served_warm", path, served_warm)
        finally:
            tracer.phase = None
            self.stop()
        for path in SWEEP_SPECS:
            cache = self.fresh_dir("offline")
            offline: Dict[str, bytes] = {}

            def sweep_cold(path: str = path, cache: Path = cache) -> float:
                csv, result_set, runner, elapsed = self.offline_leg(path, cache, tracer)
                state["runners"].append(runner)
                require(
                    runner.last_run_stats["executed"] == len(state["expected"][path]),
                    "cold leg hit a cache",
                )
                self.check_cold(state, path, result_set)
                require(csv == served.get(path), "served CSV differs from the offline CSV")
                state["cold_sets"].append(result_set)
                offline[path] = csv
                return elapsed

            def sweep_warm(path: str = path, cache: Path = cache) -> float:
                csv, _, runner, elapsed = self.offline_leg(path, cache, tracer)
                state["runners"].append(runner)
                require(runner.last_run_stats["executed"] == 0, "warm leg ran the engine")
                require(csv == offline.get(path), "warm CSV differs from the cold CSV")
                return elapsed

            leg("sweep_cold", path, sweep_cold)
            for _ in range(WARM_REPEATS):
                leg("sweep_warm", path, sweep_warm)
        tracer.phase = None
        state["stores"] += [runner.store for runner in state["runners"]]
        return legs

    def measure(self, seconds: float) -> Outcome:
        """Whole iterations until time is up; each leg's median repeat counts."""
        ops = Ops()
        host = HostSpeed()
        state = self.prepare()
        legs: Dict[str, Dict[str, List[float]]] = {kind: {} for kind in self.KINDS}
        results: List[Any] = []

        def step() -> None:
            nonlocal results
            for kind, samples in self.iteration(ops, state, host).items():
                for path, values in samples.items():
                    legs[kind].setdefault(path, []).extend(values)
            if len(state["cold_sets"]) == len(SWEEP_SPECS):
                results = [r for result_set in state["cold_sets"] for r in result_set.results]

        repeat(seconds, ops, step)
        walls = per_kind(legs)
        cold_s = walls["sweep_cold"] + walls["served_cold"]
        # Every job of both specs, computed once offline and once served.
        cold_jobs = 2 * sum(sum(counts) for counts in state["expected"].values())
        metrics = {
            # Sweep throughput, not engine throughput: the host speed is read
            # only at the ends of a leg seconds long, so the engine runs'
            # rescaled runtime_seconds spread 0.20 over ten seeds on a
            # shared 2-vCPU VM, against 0.06 for the legs' own wall time.
            "jobs_per_s": cold_jobs / cold_s if cold_s else 0.0,
            "weighted_flowtime_mean": (
                sum(r.weighted_mean_flowtime for r in results) / len(results) if results else 0.0
            ),
            # Over every run's jobs pooled, interpolated as SimulationResult does.
            "flowtime_p99": (
                float(np.percentile(np.concatenate([r.flowtimes for r in results]), 99))
                if results
                else 0.0
            ),
            "cold_s": cold_s,
            "warm_s": walls["sweep_warm"] + walls["served_warm"],
            "peak_rss_mb": peak_rss_mb(),
        }
        report = {
            "legs_s": legs,
            "runs_per_iteration": sum(len(v) for v in state["expected"].values()),
            "fingerprints": state["fingerprints"],
            "daemon_boot_s": state.get("boot_s", []),
            "kernel_readings_s": host.readings,
            "failures": ops.failures,
        }
        return Outcome(metrics, report, ops.attempted, len(ops.failures))

    def traced(self, seconds: float) -> Outcome:
        """One untraced and one traced iteration; layers from the traced one."""
        ops = Ops()
        state = self.prepare()
        untraced = per_kind(self.iteration(ops, state))
        tracer = Tracer()
        traced = per_kind(self.iteration(ops, state, tracer=tracer))
        runners, stores = state["runners"], state["stores"]
        results = [r for result_set in state["cold_sets"] for r in result_set.results]
        engine_busy = sum(result.runtime_seconds for result in results)
        runner_cold = tracer.total("runner.run@sweep_cold")
        executor_busy = tracer.total("service.executor_run@served_cold")
        lookups = sum(store.hits + store.misses for store in stores)
        entries = [path.stat().st_size for path in self.work_dir.rglob("*.json")]
        durations = tracer.durations
        compile_tracer = Tracer()
        for path in SWEEP_SPECS:
            compile_tracer.call("study", "study.compile", self.study(path).compile)
        layers = {
            "runner.run_s": runner_cold,
            "runner.engine_busy_s": engine_busy,
            "runner.parallel_efficiency": (
                engine_busy / (self.workers * runner_cold) if runner_cold else 0.0
            ),
            "runner.executed": sum(r.last_run_stats["executed"] for r in runners),
            "runner.cache_hits": sum(r.last_run_stats["cache_hits"] for r in runners),
            "store.load_p50_ms": median(
                durations.get("store.load@sweep_warm", [])
                + durations.get("store.load@served_warm", [])
            ) * 1e3,
            "store.hit_ratio": sum(store.hits for store in stores) / lookups if lookups else 0.0,
            "store.store_p50_ms": median(durations.get("store.store", [])) * 1e3,
            "store.entry_bytes": sum(entries) / len(entries) if entries else 0.0,
            "study.load_s": median(durations.get("study.load", [])),
            "study.compile_s": median(compile_tracer.durations.get("study.compile", [])),
            "study.export_s": median(durations.get("study.export", [])),
            "service.submit_ms": median(durations.get("service.submit", [])) * 1e3,
            "service.results_ms": median(durations.get("service.results", [])) * 1e3,
            "service.polls": state["polls"],
            "service.executor_busy_s": executor_busy,
            "service.parallel_efficiency": (
                executor_busy / (self.workers * traced["served_cold"])
                if traced["served_cold"]
                else 0.0
            ),
            "service.vs_offline": (
                traced["served_cold"] / traced["sweep_cold"] if traced["sweep_cold"] else 0.0
            ),
            "legs.sweep_cold_s": traced["sweep_cold"],
            "legs.sweep_warm_s": traced["sweep_warm"],
            "legs.served_cold_s": traced["served_cold"],
            "legs.served_warm_s": traced["served_warm"],
            "trace.unattributed_frac": accounting(tracer),
            "trace.overhead_frac": sum(traced.values()) / sum(untraced.values()) - 1.0,
        }
        if results:
            layers.update(engine_layers(_SummedResult(results), engine_busy, 0.0))
            layers.update(result_layers(tracer, results))
        report = {
            "untraced_legs_s": untraced,
            "traced_legs_s": traced,
            "fingerprints": state["fingerprints"],
            "self_s": dict(tracer.self_s),
            "failures": ops.failures,
        }
        return Outcome(layers, report, ops.attempted, len(ops.failures))


def per_kind(legs: Dict[str, Dict[str, List[float]]]) -> Dict[str, float]:
    """Per leg kind, the sum over specs of each spec's median leg."""
    return {
        kind: sum(median(values) for values in per_spec.values()) for kind, per_spec in legs.items()
    }


class _SummedResult:
    """Counter totals over many results, shaped like one for :func:`engine_layers`."""

    def __init__(self, results: List[Any]) -> None:
        self.total_copies = sum(r.total_copies for r in results)
        tasks = sum(r.total_tasks for r in results)
        self.cloning_ratio = self.total_copies / tasks if tasks else 0.0
        self.over_requests = sum(r.over_requests for r in results)
        self.useful_work = sum(r.useful_work for r in results)
        self.wasted_work = sum(r.wasted_work for r in results)
        self.redundant_copies_launched = sum(r.redundant_copies_launched for r in results)


WORKLOADS = {cls.name: cls for cls in (PaperGoogle, FifoStream, Sweep)}
