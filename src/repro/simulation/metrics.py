"""Per-job records and aggregate metrics of one simulation run.

The paper's headline metrics are the weighted and unweighted averages of job
flowtime and the flowtime CDFs over two ranges (small jobs, Figure 4; big
jobs, Figure 5).  :class:`SimulationResult` computes all of them, plus the
bookkeeping quantities the ablation benchmarks use (copies launched, wasted
clone work, machine utilisation).

Scale notes: :class:`JobRecord` is a compact ``__slots__`` object (a
million-job run stores a million of them), and the flowtime/weight arrays
backing every aggregate are built **once** per batch of records and cached
-- ``add_record`` invalidates the cache, so metric queries after a run
never rebuild the arrays (batched metric accumulation)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["JobRecord", "SimulationResult"]


class JobRecord:
    """Immutable-by-convention record of one completed job (engine-written)."""

    __slots__ = (
        "job_id",
        "arrival_time",
        "completion_time",
        "weight",
        "num_map_tasks",
        "num_reduce_tasks",
        "copies_launched",
        "map_phase_completion_time",
        "num_stages",
    )

    def __init__(
        self,
        job_id: int,
        arrival_time: float,
        completion_time: float,
        weight: float,
        num_map_tasks: int,
        num_reduce_tasks: int,
        copies_launched: int,
        map_phase_completion_time: Optional[float] = None,
        num_stages: int = 2,
    ) -> None:
        self.job_id = job_id
        self.arrival_time = arrival_time
        self.completion_time = completion_time
        self.weight = weight
        self.num_map_tasks = num_map_tasks
        self.num_reduce_tasks = num_reduce_tasks
        self.copies_launched = copies_launched
        self.map_phase_completion_time = map_phase_completion_time
        self.num_stages = num_stages

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobRecord(job_id={self.job_id}, arrival_time={self.arrival_time}, "
            f"completion_time={self.completion_time}, weight={self.weight})"
        )

    @property
    def flowtime(self) -> float:
        """``f_i - a_i``."""
        return self.completion_time - self.arrival_time

    @property
    def weighted_flowtime(self) -> float:
        """``w_i (f_i - a_i)``."""
        return self.weight * self.flowtime

    @property
    def num_tasks(self) -> int:
        """``m_i + r_i`` of the recorded job."""
        return self.num_map_tasks + self.num_reduce_tasks

    @property
    def map_phase_duration(self) -> Optional[float]:
        """Elapsed time of the map phase (arrival to last map completion)."""
        if self.map_phase_completion_time is None:
            return None
        return self.map_phase_completion_time - self.arrival_time


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulation run."""

    scheduler_name: str
    num_machines: int
    records: List[JobRecord] = field(default_factory=list)
    #: Total copies launched (originals + clones) across all jobs.
    total_copies: int = 0
    #: Total logical tasks across all jobs (copies beyond this are clones).
    total_tasks: int = 0
    #: Copies launched for tasks that already had an active copy -- clones
    #: (SRPTMS+C, SCA) and speculative duplicates (LATE, Mantri) alike.
    #: Replacement copies of failure-killed tasks are *not* redundant (the
    #: killed copy no longer occupies a machine).  Engine-maintained, so the
    #: counter is comparable across all schedulers and policy compositions.
    redundant_copies_launched: int = 0
    #: Processing time consumed by copies that were killed (redundant work).
    wasted_work: float = 0.0
    #: Processing time consumed by copies that completed (useful work).
    useful_work: float = 0.0
    #: Simulated time at which the last job completed.
    makespan: float = 0.0
    #: Copies requested by the scheduler beyond the free-machine supply.
    over_requests: int = 0
    #: Machine failures that occurred during the run (scenario-driven).
    machine_failures: int = 0
    #: Copies killed because their hosting machine failed (each is
    #: re-dispatched exactly once through the normal scheduling path).
    copies_killed_by_failure: int = 0
    #: Relaunches that resumed from a checkpoint instead of from zero
    #: (checkpoint redundancy policy only).
    checkpoint_resumes: int = 0
    #: Raw work durably saved by checkpointing across failure kills.
    work_saved_by_checkpointing: float = 0.0
    #: Dynamic straggler slowdown periods that began during the run.
    straggler_onsets: int = 0
    #: Copies launched on a machine of their task's preferred rack (only
    #: counted while a non-degenerate topology is active; 0 on flat runs).
    local_launches: int = 0
    #: Copies launched off their task's preferred rack (these pay the
    #: topology's remote-read slowdown on their effective rate).
    remote_launches: int = 0
    #: Wall-clock seconds the simulation took (filled by the runner).
    runtime_seconds: float = 0.0
    #: Seed used for the run (filled by the runner).
    seed: int = 0

    # -- ingestion (engine-only) ----------------------------------------------------

    def add_record(self, record: JobRecord) -> None:
        """Append one completed job (invalidates the cached metric arrays)."""
        self.records.append(record)
        self.__dict__.pop("_flowtimes_cache", None)
        self.__dict__.pop("_weights_cache", None)

    # -- pickling -----------------------------------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        """Row-packed pickle form: records as plain tuples, caches dropped.

        Pool workers ship whole run results across the process boundary;
        pickling the per-record ``__slots__`` objects individually costs
        several times the packed-row form (one state dict per record), and
        the metric caches are derived data the receiver can rebuild.
        """
        state = dict(self.__dict__)
        state.pop("_flowtimes_cache", None)
        state.pop("_weights_cache", None)
        state["records"] = [
            (
                r.job_id,
                r.arrival_time,
                r.completion_time,
                r.weight,
                r.num_map_tasks,
                r.num_reduce_tasks,
                r.copies_launched,
                r.map_phase_completion_time,
                r.num_stages,
            )
            for r in self.records
        ]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        rows = state.pop("records")
        self.__dict__.update(state)
        self.records = [JobRecord(*row) for row in rows]

    # -- basic aggregates --------------------------------------------------------------

    @property
    def num_jobs(self) -> int:
        """Number of completed jobs recorded."""
        return len(self.records)

    @property
    def flowtimes(self) -> np.ndarray:
        """Array of job flowtimes in job-completion order (cached)."""
        cached = self.__dict__.get("_flowtimes_cache")
        if cached is None or len(cached) != len(self.records):
            cached = np.array([r.flowtime for r in self.records], dtype=float)
            self.__dict__["_flowtimes_cache"] = cached
        return cached

    @property
    def weights(self) -> np.ndarray:
        """Array of job weights in job-completion order (cached)."""
        cached = self.__dict__.get("_weights_cache")
        if cached is None or len(cached) != len(self.records):
            cached = np.array([r.weight for r in self.records], dtype=float)
            self.__dict__["_weights_cache"] = cached
        return cached

    @property
    def total_flowtime(self) -> float:
        """Unweighted sum of job flowtimes."""
        return float(self.flowtimes.sum()) if self.records else 0.0

    @property
    def total_weighted_flowtime(self) -> float:
        """The paper's objective: ``sum_i w_i (f_i - a_i)``."""
        if not self.records:
            return 0.0
        return float((self.flowtimes * self.weights).sum())

    @property
    def mean_flowtime(self) -> float:
        """Unweighted average job flowtime (Figures 1-3, 6)."""
        if not self.records:
            return 0.0
        return float(self.flowtimes.mean())

    @property
    def weighted_mean_flowtime(self) -> float:
        """Weighted average ``sum w_i f_i / sum w_i`` (Figures 1-3, 6)."""
        if not self.records:
            return 0.0
        weights = self.weights
        return float((self.flowtimes * weights).sum() / weights.sum())

    @property
    def max_flowtime(self) -> float:
        """Largest job flowtime of the run."""
        if not self.records:
            return 0.0
        return float(self.flowtimes.max())

    @property
    def median_flowtime(self) -> float:
        """Median job flowtime of the run."""
        if not self.records:
            return 0.0
        return float(np.median(self.flowtimes))

    def percentile_flowtime(self, q: float) -> float:
        """q-th percentile of the flowtime distribution (q in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.records:
            return 0.0
        return float(np.percentile(self.flowtimes, q))

    # -- CDFs (Figures 4 and 5) -----------------------------------------------------------

    def fraction_completed_within(self, limit: float) -> float:
        """Fraction of all jobs whose flowtime is at most ``limit``."""
        if not self.records:
            return 0.0
        return float(np.mean(self.flowtimes <= limit))

    def flowtime_cdf(self, points: Sequence[float]) -> np.ndarray:
        """Empirical CDF of job flowtime evaluated at ``points``."""
        pts = np.asarray(list(points), dtype=float)
        if not self.records:
            return np.zeros_like(pts)
        flowtimes = np.sort(self.flowtimes)
        return np.searchsorted(flowtimes, pts, side="right") / len(flowtimes)

    def records_in_flowtime_range(
        self, low: float, high: float
    ) -> List[JobRecord]:
        """Jobs whose flowtime falls in ``[low, high]`` (Figure 4/5 slices)."""
        return [r for r in self.records if low <= r.flowtime <= high]

    @property
    def locality_fraction(self) -> float:
        """Fraction of topology-priced launches that ran rack-local."""
        total = self.local_launches + self.remote_launches
        if total == 0:
            return 0.0
        return self.local_launches / total

    # -- cloning / efficiency accounting ------------------------------------------------------

    @property
    def cloning_ratio(self) -> float:
        """Copies launched per logical task (1.0 means no cloning at all)."""
        if self.total_tasks == 0:
            return 0.0
        return self.total_copies / self.total_tasks

    @property
    def redundant_work_fraction(self) -> float:
        """Fraction of consumed machine time spent on killed clones."""
        total = self.useful_work + self.wasted_work
        if total == 0:
            return 0.0
        return self.wasted_work / total

    @property
    def average_utilization(self) -> float:
        """Machine-time consumed divided by ``M * makespan``."""
        if self.makespan <= 0:
            return 0.0
        return (self.useful_work + self.wasted_work) / (
            self.num_machines * self.makespan
        )

    # -- determinism fingerprinting -----------------------------------------------------------

    #: Keys of :meth:`canonical_dict`.  The results store hashes raw stored
    #: payloads over exactly these keys (record rows kept as loaded), so
    #: integrity checks skip the row -> JobRecord -> row round trip; any
    #: key added to :meth:`canonical_dict` must be added here too (the
    #: store's load-time fingerprint check fails loudly on drift).
    CANONICAL_KEYS = (
        "scheduler_name",
        "num_machines",
        "seed",
        "total_copies",
        "total_tasks",
        "redundant_copies_launched",
        "wasted_work",
        "useful_work",
        "makespan",
        "over_requests",
        "machine_failures",
        "copies_killed_by_failure",
        "checkpoint_resumes",
        "work_saved_by_checkpointing",
        "straggler_onsets",
        "local_launches",
        "remote_launches",
        "records",
    )

    def canonical_dict(self) -> Dict[str, object]:
        """Deterministic, JSON-serialisable dump of everything the simulation
        computed -- every per-job record plus all counters -- *excluding*
        wall-clock ``runtime_seconds``.

        Two runs of the same (trace, scheduler, seed) configuration produce
        equal canonical dicts regardless of where they executed; the
        parallel-vs-serial equivalence tests compare these.
        """
        return {
            "scheduler_name": self.scheduler_name,
            "num_machines": self.num_machines,
            "seed": self.seed,
            "total_copies": self.total_copies,
            "total_tasks": self.total_tasks,
            "redundant_copies_launched": self.redundant_copies_launched,
            "wasted_work": self.wasted_work,
            "useful_work": self.useful_work,
            "makespan": self.makespan,
            "over_requests": self.over_requests,
            "machine_failures": self.machine_failures,
            "copies_killed_by_failure": self.copies_killed_by_failure,
            "checkpoint_resumes": self.checkpoint_resumes,
            "work_saved_by_checkpointing": self.work_saved_by_checkpointing,
            "straggler_onsets": self.straggler_onsets,
            "local_launches": self.local_launches,
            "remote_launches": self.remote_launches,
            "records": [
                (
                    r.job_id,
                    r.arrival_time,
                    r.completion_time,
                    r.weight,
                    r.num_map_tasks,
                    r.num_reduce_tasks,
                    r.copies_launched,
                    r.map_phase_completion_time,
                    r.num_stages,
                )
                for r in self.records
            ],
        }

    def fingerprint(self) -> str:
        """SHA-256 over :meth:`canonical_dict` (byte-identical ⇔ equal hash).

        Floats are serialised through ``repr`` (exact round-trip), so even
        an ULP-level difference changes the fingerprint.
        """
        import hashlib
        import json

        payload = json.dumps(self.canonical_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- reporting ----------------------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of the headline metrics, for tables and tests."""
        return {
            "scheduler": self.scheduler_name,
            "num_machines": self.num_machines,
            "num_jobs": self.num_jobs,
            "mean_flowtime": self.mean_flowtime,
            "weighted_mean_flowtime": self.weighted_mean_flowtime,
            "median_flowtime": self.median_flowtime,
            "max_flowtime": self.max_flowtime,
            "makespan": self.makespan,
            "cloning_ratio": self.cloning_ratio,
            "redundant_copies_launched": self.redundant_copies_launched,
            "redundant_work_fraction": self.redundant_work_fraction,
            "average_utilization": self.average_utilization,
            "over_requests": self.over_requests,
            "machine_failures": self.machine_failures,
            "copies_killed_by_failure": self.copies_killed_by_failure,
            "checkpoint_resumes": self.checkpoint_resumes,
            "work_saved_by_checkpointing": self.work_saved_by_checkpointing,
            "straggler_onsets": self.straggler_onsets,
            "local_launches": self.local_launches,
            "remote_launches": self.remote_launches,
        }

    @staticmethod
    def compare(results: Iterable["SimulationResult"]) -> List[Dict[str, float]]:
        """Summaries of several runs, ordered as given."""
        return [result.summary() for result in results]
