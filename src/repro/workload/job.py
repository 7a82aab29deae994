"""Job / Task / TaskCopy data model with a stage-DAG precedence state machine.

The model generalises Section III of the paper:

* A job ``J_i`` arrives at time ``a_i`` with weight ``w_i`` and a DAG of
  *stages*.  Each stage carries its own task list and duration
  distribution; a stage's tasks may not make progress until every
  *predecessor* stage has completed.  The paper's map→reduce job is the
  canonical 2-node DAG: stage 0 ("map", no predecessors) and stage 1
  ("reduce", depends on stage 0) -- constraint (1g) is exactly the
  2-node instance of the general rule.
* Task workloads within a stage are i.i.d. with known mean ``E_i^c`` and
  standard deviation ``sigma_i^c`` (carried here as a
  :class:`~repro.workload.distributions.DurationDistribution` per stage).
* A *copy* of a not-yet-ready stage's task may be placed on a machine
  early; it then occupies the machine without doing work ("parked"),
  exactly as described for reduce copies at the end of Section IV-A.
* A task finishes when its earliest-finishing copy finishes (speedup via
  cloning, Section III-A); the remaining copies are killed and their
  machines are reclaimed.

``JobSpec`` is the immutable description found in a trace.  Legacy
map→reduce specs (``num_map_tasks`` / ``num_reduce_tasks``) compile to the
canonical 2-node DAG; :meth:`JobSpec.from_stages` builds arbitrary DAGs.
Those two-phase fields are builders only: everything downstream of a spec
(runtime state, schedulers, bounds, trace statistics) reads the stages
through :attr:`JobSpec.stage_specs` and stage indices.
``Job``, ``Task`` and ``TaskCopy`` are the mutable runtime objects owned by
the simulation engine.

Performance invariants (the engine hot path depends on these)
-------------------------------------------------------------
``Job``, ``Task`` and ``TaskCopy`` are ``__slots__`` classes, and the
scheduler-facing counters -- unscheduled tasks per stage (the paper's
``m_i(l)`` / ``r_i(l)`` for the 2-node DAG), running copies ``sigma_i(l)``,
incomplete tasks per stage -- are maintained *incrementally* on every
copy/task state transition instead of being recomputed by scanning task
lists.  A task is counted "unscheduled" exactly while it is not completed
and has no active copy; the transitions that preserve this invariant are:

* :meth:`Task.add_copy`    -- ``0 -> 1`` active copies: leave unscheduled;
* copy finish/kill         -- ``1 -> 0`` active copies on an incomplete
  task: re-enter unscheduled (this is how a failure-killed copy's task
  becomes schedulable again, exactly once);
* :meth:`Task.complete`    -- an unscheduled-counted task leaving via
  completion is removed from the count.

A stage only ever becomes *ready* (all predecessors complete), never
un-ready, so the aggregate ``_unscheduled_ready`` counter -- unscheduled
tasks whose stage is ready -- stays O(1) to maintain and gives the gating
helpers an O(1) "has launchable work" test.  Consequently
``Job.remaining_effective_workload`` (Equation (4), stage-exact) and every
priority computation built on it cost O(stages) per job, which is what
makes the per-event scheduler consultations affordable at million-job
scale.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.checks import check_count, check_real
from repro.workload.distributions import DurationDistribution

__all__ = ["TaskStatus", "StageSpec", "JobSpec", "Job", "Task", "TaskCopy"]


class TaskStatus(enum.Enum):
    """Lifecycle of a task (not of an individual copy)."""

    #: No copy has been launched yet.
    PENDING = "pending"
    #: At least one copy has been launched and the task is not finished.
    RUNNING = "running"
    #: The earliest copy finished; the task (and all clones) are done.
    COMPLETED = "completed"


@dataclass(frozen=True)
class StageSpec:
    """One node of a job's stage DAG.

    Attributes
    ----------
    name:
        Stage label, unique within the job (task ids embed it).
    num_tasks:
        Number of tasks in the stage (may be 0: the stage completes the
        instant it becomes ready).
    duration:
        Task duration distribution of the stage.
    deps:
        Indices of predecessor stages.  Every dependency must point at an
        *earlier* stage (``dep < index``), so any stage tuple is
        topologically ordered by construction.
    """

    name: str
    num_tasks: int
    duration: DurationDistribution
    deps: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stage name must be non-empty")
        check_count(f"stage {self.name!r}: num_tasks", self.num_tasks)
        if len(set(self.deps)) != len(self.deps):
            raise ValueError(f"stage {self.name!r}: duplicate dependencies")


#: Successor adjacency of the canonical 2-node map→reduce DAG: the map
#: stage feeds the reduce stage, which feeds nothing.
_LEGACY_DEPENDENTS: Tuple[Tuple[int, ...], ...] = ((1,), ())

def _legacy_stages(
    num_map: int,
    num_reduce: int,
    map_duration: DurationDistribution,
    reduce_duration: DurationDistribution,
) -> Tuple[StageSpec, ...]:
    """The canonical 2-node map→reduce DAG of a legacy (stage-less) spec.

    The tuple reuses the spec's duration distribution objects, so sampling
    through the DAG path consumes RNG state identically to the pre-DAG
    engine.
    """
    return (
        StageSpec(name="map", num_tasks=num_map, duration=map_duration, deps=()),
        StageSpec(
            name="reduce", num_tasks=num_reduce, duration=reduce_duration, deps=(0,)
        ),
    )


def _new_task(job: "Job", stage: int, index: int) -> "Task":
    """Build a fresh :class:`Task` without constructor overhead.

    Pure field assignment -- equivalent to ``Task(job, stage, index)`` for
    a task with no copies; used on the job-materialisation hot path.
    """
    task = Task.__new__(Task)
    task.job = job
    task.stage = stage
    task.index = index
    task.copies = []
    task.completion_time = None
    task.checkpoint_work = 0.0
    task.preferred_rack = None
    task._num_active = 0
    return task


def _fast_legacy_spec(
    job_id: int,
    arrival_time: float,
    weight: float,
    num_map_tasks: int,
    num_reduce_tasks: int,
    map_duration: DurationDistribution,
    reduce_duration: DurationDistribution,
    stage_specs: Optional[Tuple[StageSpec, ...]] = None,
) -> "JobSpec":
    """Construct a legacy :class:`JobSpec` bypassing dataclass ``__init__``.

    The frozen-dataclass constructor routes every field through
    ``object.__setattr__`` and re-validates; stream factories construct
    millions of specs from parameters they have already validated, so they
    use this direct-``__dict__`` path instead.  This is the one unchecked
    way to build a spec: its callers check their knobs and the arrival
    times they derive from them.  Semantically identical to
    ``JobSpec(...)`` with ``stages=None`` for valid inputs (equality, hash
    and repr all read the same fields).  ``stage_specs``, when given, is
    the spec's :func:`_legacy_stages` tuple (a factory whose jobs share
    their durations builds it once); otherwise :attr:`JobSpec.stage_specs`
    derives it on first use.
    """
    spec = object.__new__(JobSpec)
    # One dict literal swapped in wholesale (through object.__setattr__,
    # since the frozen dataclass intercepts plain assignment): cheaper
    # than building a kwargs dict and update()-ing it into the instance
    # dict.
    object.__setattr__(
        spec,
        "__dict__",
        {
            "job_id": job_id,
            "arrival_time": arrival_time,
            "weight": weight,
            "num_map_tasks": num_map_tasks,
            "num_reduce_tasks": num_reduce_tasks,
            "map_duration": map_duration,
            "reduce_duration": reduce_duration,
            "stages": None,
            "_stage_specs_cache": stage_specs,
        },
    )
    return spec


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of one job in a trace.

    Attributes
    ----------
    job_id:
        Unique identifier within the trace.
    arrival_time:
        ``a_i`` -- the time (seconds) the job enters the cluster.
    weight:
        ``w_i`` -- the job priority/weight used by weighted flowtime.
    num_map_tasks / num_reduce_tasks:
        ``m_i`` and ``r_i`` of a legacy spec.  For a DAG job they are
        builder fields only: stage 0's task count and the total of all
        later stages (read the stages through :attr:`stage_specs`).
    map_duration / reduce_duration:
        Task duration distributions of a legacy spec's two stages.  The
        schedulers may only read ``mean`` and ``std``; the simulator
        samples actual workloads.
    stages:
        Optional explicit stage DAG.  ``None`` (the legacy map→reduce
        case) compiles to the canonical 2-node DAG -- stage ``"map"`` with
        no predecessors and stage ``"reduce"`` depending on it -- which is
        behaviourally bit-identical to the pre-DAG model.  Build DAG specs
        with :meth:`from_stages` so the summary fields stay consistent.
    """

    job_id: int
    arrival_time: float
    weight: float
    num_map_tasks: int
    num_reduce_tasks: int
    map_duration: DurationDistribution
    reduce_duration: DurationDistribution
    stages: Optional[Tuple[StageSpec, ...]] = None

    def __post_init__(self) -> None:
        check_real("arrival_time", self.arrival_time)
        check_real("weight", self.weight, positive=True)
        check_count("num_map_tasks", self.num_map_tasks)
        check_count("num_reduce_tasks", self.num_reduce_tasks)
        if self.num_map_tasks + self.num_reduce_tasks == 0:
            raise ValueError(f"job {self.job_id} has no tasks")
        if self.stages is not None:
            self._validate_stages()

    def _validate_stages(self) -> None:
        stages = self.stages
        if not stages:
            raise ValueError(f"job {self.job_id}: stages must be non-empty")
        names = set()
        total = 0
        for index, stage in enumerate(stages):
            if stage.name in names:
                raise ValueError(
                    f"job {self.job_id}: duplicate stage name {stage.name!r}"
                )
            names.add(stage.name)
            for dep in stage.deps:
                if not 0 <= dep < index:
                    raise ValueError(
                        f"job {self.job_id}: stage {stage.name!r} depends on "
                        f"stage {dep}, which is not an earlier stage"
                    )
            total += stage.num_tasks
        if self.num_map_tasks != stages[0].num_tasks:
            raise ValueError(
                f"job {self.job_id}: num_map_tasks must equal stage 0's task "
                "count (use JobSpec.from_stages)"
            )
        if self.num_map_tasks + self.num_reduce_tasks != total:
            raise ValueError(
                f"job {self.job_id}: summary task counts disagree with the "
                "stage DAG (use JobSpec.from_stages)"
            )

    @classmethod
    def from_stages(
        cls,
        *,
        job_id: int,
        arrival_time: float,
        weight: float,
        stages: Sequence[StageSpec],
    ) -> "JobSpec":
        """Build a DAG job spec, deriving the legacy summary fields.

        ``num_map_tasks`` becomes stage 0's task count, ``num_reduce_tasks``
        the total of all later stages, and the two durations come from the
        first (and, when present, second) stage.  Those fields only keep
        the spec's equality, hash and validation as they were; every
        consumer reads :attr:`stage_specs`.
        """
        stage_tuple = tuple(stages)
        if not stage_tuple:
            raise ValueError("stages must be non-empty")
        first = stage_tuple[0]
        rest_total = sum(stage.num_tasks for stage in stage_tuple[1:])
        reduce_duration = (
            stage_tuple[1].duration if len(stage_tuple) > 1 else first.duration
        )
        return cls(
            job_id=job_id,
            arrival_time=arrival_time,
            weight=weight,
            num_map_tasks=first.num_tasks,
            num_reduce_tasks=rest_total,
            map_duration=first.duration,
            reduce_duration=reduce_duration,
            stages=stage_tuple,
        )

    @property
    def stage_specs(self) -> Tuple[StageSpec, ...]:
        """The job's stage DAG; legacy specs compile to the 2-node map→reduce DAG.

        A legacy spec derives its tuple (see :func:`_legacy_stages`) once
        and caches it on itself, as :attr:`stage_dependents` does.
        """
        if self.stages is not None:
            return self.stages
        cached = self.__dict__.get("_stage_specs_cache")
        if cached is None:
            cached = _legacy_stages(
                self.num_map_tasks,
                self.num_reduce_tasks,
                self.map_duration,
                self.reduce_duration,
            )
            self.__dict__["_stage_specs_cache"] = cached
        return cached

    @property
    def stage_dependents(self) -> Tuple[Tuple[int, ...], ...]:
        """Adjacency of the stage DAG: for each stage, its successor stages."""
        if self.stages is None:
            return _LEGACY_DEPENDENTS
        cached = self.__dict__.get("_stage_dependents_cache")
        if cached is None:
            stages = self.stage_specs
            dependents: List[List[int]] = [[] for _ in stages]
            for index, stage in enumerate(stages):
                for dep in stage.deps:
                    dependents[dep].append(index)
            cached = tuple(tuple(successors) for successors in dependents)
            self.__dict__["_stage_dependents_cache"] = cached
        return cached

    @property
    def num_stages(self) -> int:
        """Number of stages in the job's DAG (2 for legacy map→reduce)."""
        return 2 if self.stages is None else len(self.stages)

    @property
    def total_tasks(self) -> int:
        """``m_i + r_i`` -- total tasks across every stage."""
        return self.num_map_tasks + self.num_reduce_tasks

    @property
    def expected_total_work(self) -> float:
        """Expected sum of task workloads over all stages."""
        if self.stages is None:
            return (
                self.num_map_tasks * self.map_duration.mean
                + self.num_reduce_tasks * self.reduce_duration.mean
            )
        return sum(
            stage.num_tasks * stage.duration.mean for stage in self.stages
        )

    def effective_workload(self, r: float) -> float:
        """``phi_i`` of Equation (2): the variance-adjusted total workload.

        Generalised to DAGs as the sum over stages of
        ``n_s * (E_s + r * sigma_s)`` -- for the canonical 2-node DAG this
        is exactly the paper's two-term expression.
        """
        if r < 0:
            raise ValueError(f"r must be non-negative, got {r}")
        if self.stages is None:
            return self.num_map_tasks * (
                self.map_duration.mean + r * self.map_duration.std
            ) + self.num_reduce_tasks * (
                self.reduce_duration.mean + r * self.reduce_duration.std
            )
        total = 0.0
        for stage in self.stages:
            if stage.num_tasks:
                total += stage.num_tasks * (
                    stage.duration.mean + r * stage.duration.std
                )
        return total


class TaskCopy:
    """One physical copy (the original or a clone) of a task on a machine.

    In a static run (no failures, no slowdowns) a launch request of
    several copies on a ready stage builds one object only: its *kept*
    copy, the copy that finishes first (the first in launch order on a
    tie).  Its task completes at that finish or earlier, and completion
    kills the request's other copies, so they never finish; they are
    recorded as the machines they hold (``other_machines``), and each of
    those machines' ``current_copy`` is the kept copy.  Such an object
    stands for :attr:`num_copies` copies.  The engine alone launches, kills
    and frees it (see :meth:`repro.simulation.engine.SimulationEngine
    ._launch_copies`); :meth:`finish` and :meth:`kill` act on one copy.

    Attributes
    ----------
    start_time:
        Time at which the copy actually starts consuming CPU.  Equals
        ``launch_time`` for copies of ready stages; for copies parked
        behind incomplete predecessor stages it is the readiness instant
        and stays ``None`` while the copy is blocked.
    work:
        Raw work units of this copy (post straggler inflation, before the
        hosting machine's speed is applied).  Engine-managed; lets dynamic
        scenarios recompute the wall-clock ``workload`` when the machine's
        effective speed changes.
    finish_version:
        Version of the copy's currently valid finish event
        (engine-managed).  A queued finish event with a smaller version is
        stale.  A started copy may have no queued entry at all: in a
        static run only the earliest-finishing copy of each launch request
        gets one (see :meth:`repro.simulation.engine.SimulationEngine
        ._launch_copies`).
    remote_penalty:
        Remote-read slowdown factor priced into this copy's rate: 1.0 for
        a copy on its task's preferred rack (or when no topology is
        active), the scenario's ``remote_slowdown`` otherwise.  Fixed at
        launch -- the copy's data does not move.
    other_machines:
        ``None``, or, on a kept copy, the machines of its launch request's
        other copies in launch order.  They started with the kept copy and
        end with it: freed at its task's completion, each adding its time
        since the start to the wasted work.
    launch_position:
        How many of ``other_machines`` were launched before the kept copy
        (its place in the request's launch order).  The kept copy's
        ``copy_id`` is the id it drew there: the request consumed one id
        per copy.
    """

    __slots__ = (
        "copy_id",
        "task",
        "machine_id",
        "launch_time",
        "workload",
        "start_time",
        "finish_time",
        "killed_at",
        "work",
        "finish_version",
        "remote_penalty",
        "other_machines",
        "launch_position",
    )

    def __init__(
        self,
        copy_id: int,
        task: "Task",
        machine_id: int,
        launch_time: float,
        workload: float,
        start_time: Optional[float] = None,
        finish_time: Optional[float] = None,
        killed_at: Optional[float] = None,
        work: Optional[float] = None,
        finish_version: int = 0,
        remote_penalty: float = 1.0,
        other_machines: Optional[List[int]] = None,
        launch_position: int = 0,
    ) -> None:
        if workload <= 0:
            raise ValueError(f"copy workload must be positive, got {workload}")
        if launch_time < 0:
            raise ValueError(f"launch_time must be >= 0, got {launch_time}")
        self.copy_id = copy_id
        self.task = task
        self.machine_id = machine_id
        self.launch_time = launch_time
        self.workload = workload
        self.start_time = start_time
        self.finish_time = finish_time
        self.killed_at = killed_at
        self.work = work
        self.finish_version = finish_version
        self.remote_penalty = remote_penalty
        self.other_machines = other_machines
        self.launch_position = launch_position

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskCopy(copy_id={self.copy_id}, task={self.task.task_id!r}, "
            f"machine_id={self.machine_id}, launch_time={self.launch_time}, "
            f"workload={self.workload})"
        )

    @property
    def num_copies(self) -> int:
        """Copies this object stands for: 1, plus its ``other_machines``."""
        others = self.other_machines
        return 1 if others is None else 1 + len(others)

    @property
    def machine_ids(self) -> List[int]:
        """The machines of the copies this object stands for, in launch order."""
        others = self.other_machines
        if others is None:
            return [self.machine_id]
        position = self.launch_position
        return others[:position] + [self.machine_id] + others[position:]

    @property
    def is_finished(self) -> bool:
        """True once the copy has run to completion (and was not killed)."""
        return self.finish_time is not None and self.killed_at is None

    @property
    def is_killed(self) -> bool:
        """True once the copy has been killed (clone lost the race, etc.)."""
        return self.killed_at is not None

    @property
    def is_active(self) -> bool:
        """True while the copy occupies a machine (running or blocked)."""
        return self.finish_time is None and self.killed_at is None

    @property
    def is_blocked(self) -> bool:
        """True for a copy parked behind incomplete predecessor stages."""
        return self.is_active and self.start_time is None

    def start(self, time: float) -> None:
        """Mark the instant processing begins (engine-only)."""
        if not self.is_active:
            raise ValueError(f"cannot start inactive copy {self.copy_id}")
        if self.start_time is not None:
            raise ValueError(f"copy {self.copy_id} already started")
        if time < self.launch_time:
            raise ValueError(
                f"start time {time} precedes launch time {self.launch_time}"
            )
        self.start_time = time

    def finish(self, time: float) -> None:
        """Mark the copy as finished (engine-only)."""
        if not self.is_active:
            raise ValueError(f"cannot finish inactive copy {self.copy_id}")
        if self.start_time is None:
            raise ValueError(f"copy {self.copy_id} finished without starting")
        self.finish_time = time
        self.task._copy_deactivated()

    def kill(self, time: float) -> None:
        """Kill the copy (its sibling finished first, or the scheduler preempted it)."""
        if not self.is_active:
            raise ValueError(f"cannot kill inactive copy {self.copy_id}")
        self.killed_at = time
        self.task._copy_deactivated()

    @property
    def expected_finish_time(self) -> Optional[float]:
        """``start_time + workload`` if the copy has started, else ``None``."""
        if self.start_time is None:
            return None
        return self.start_time + self.workload

    def elapsed(self, time: float) -> float:
        """Processing time consumed by this copy up to ``time``."""
        if self.start_time is None:
            return 0.0
        end = self.finish_time if self.finish_time is not None else time
        if self.killed_at is not None:
            end = min(end if end is not None else self.killed_at, self.killed_at)
        return max(0.0, min(end, time) - self.start_time)

    def progress(self, time: float) -> float:
        """Fraction of the copy's workload processed by ``time``, in [0, 1]."""
        return min(1.0, self.elapsed(time) / self.workload)

    def remaining_work(self, time: float) -> float:
        """Workload still to be processed at ``time`` (0 once finished)."""
        if self.is_finished:
            return 0.0
        return self.workload - self.elapsed(time)


class Task:
    """One logical task ``delta_i^{c,j}`` of one stage.

    A task may have several :class:`TaskCopy` instances running at once;
    it completes when the first of them completes.  ``copies`` lists the
    copy objects in launch order; in a static run a multi-copy launch
    request adds one object, its kept copy, which stands for the request's
    other copies too (:attr:`TaskCopy.num_copies`).  The active-copy count
    counts copies, not objects, and is maintained incrementally (see the
    module docstring) so that ``is_scheduled`` / ``num_active_copies`` are
    O(1).

    ``checkpoint_work`` is the raw work durably saved by the checkpoint
    redundancy policy: when a failure kills a copy, the engine rounds the
    work it completed down to a checkpoint-interval multiple, and the next
    launched copy of the task resumes from there instead of zero.

    ``preferred_rack`` is the rack holding the task's input split under an
    active :class:`~repro.scenarios.TopologySpec` (engine-assigned at job
    arrival from the placement stream); ``None`` when no topology is
    active, i.e. any slot is as good as any other.
    """

    __slots__ = (
        "job",
        "stage",
        "index",
        "copies",
        "completion_time",
        "checkpoint_work",
        "preferred_rack",
        "_num_active",
    )

    def __init__(
        self,
        job: "Job",
        stage: int,
        index: int,
        copies: Optional[List[TaskCopy]] = None,
        completion_time: Optional[float] = None,
    ) -> None:
        self.job = job
        self.stage = stage
        self.index = index
        self.copies: List[TaskCopy] = [] if copies is None else copies
        self.completion_time = completion_time
        self.checkpoint_work = 0.0
        self.preferred_rack: Optional[int] = None
        self._num_active = (
            sum(copy.num_copies for copy in self.copies if copy.is_active)
            if self.copies
            else 0
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.task_id!r}, copies={len(self.copies)})"

    @property
    def stage_name(self) -> str:
        """Name of the owning stage (from the job's stage DAG)."""
        return self.job._stages[self.stage].name

    @property
    def task_id(self) -> str:
        """Stable human-readable identifier, e.g. ``"7:map:3"``."""
        return f"{self.job.job_id}:{self.stage_name}:{self.index}"

    @property
    def status(self) -> TaskStatus:
        """The task's coarse lifecycle state (pending/running/completed)."""
        if self.completion_time is not None:
            return TaskStatus.COMPLETED
        if self._num_active > 0:
            return TaskStatus.RUNNING
        # Either no copy was ever launched, or all copies were killed
        # (e.g. preempted); the task is pending again.
        return TaskStatus.PENDING

    @property
    def is_completed(self) -> bool:
        """True once the earliest copy has finished."""
        return self.completion_time is not None

    @property
    def is_scheduled(self) -> bool:
        """True if at least one copy currently occupies a machine (O(1))."""
        return self._num_active > 0

    @property
    def active_copies(self) -> List[TaskCopy]:
        """Copy objects currently occupying machines (a kept copy once)."""
        return [copy for copy in self.copies if copy.is_active]

    @property
    def num_active_copies(self) -> int:
        """Copies currently occupying machines, a kept copy's others included (O(1))."""
        return self._num_active

    @property
    def duration_distribution(self) -> DurationDistribution:
        """The owning stage's task duration distribution."""
        return self.job._stages[self.stage].duration

    def add_copy(self, copy: TaskCopy) -> None:
        """Attach a newly launched copy (engine-only)."""
        if self.completion_time is not None:
            raise ValueError(f"cannot add a copy to completed task {self.task_id}")
        self.copies.append(copy)
        job = self.job
        if self._num_active == 0:
            # PENDING -> RUNNING: the task leaves the unscheduled set.
            job._unscheduled_delta(self.stage, -1)
        self._num_active += 1
        job._active_copies += 1
        job._copies_launched += 1

    def _copy_deactivated(self) -> None:
        """Bookkeeping hook called by :meth:`TaskCopy.finish` / ``kill``."""
        self._num_active -= 1
        job = self.job
        job._active_copies -= 1
        if self._num_active == 0 and self.completion_time is None:
            # All copies gone without completion (kill/preemption/failure):
            # the task reverts to unscheduled and may be re-dispatched.
            job._unscheduled_delta(self.stage, 1)

    def complete(self, time: float) -> List[TaskCopy]:
        """Mark the task completed at ``time`` and kill surviving clones.

        Returns the copies that were killed so the engine can free their
        machines.
        """
        if self.completion_time is not None:
            raise ValueError(f"task {self.task_id} already completed")
        self.completion_time = time
        if self._num_active == 0:
            # The winning copy already deactivated (its finish re-entered the
            # task into the unscheduled count); completion removes it again.
            self.job._unscheduled_delta(self.stage, -1)
        killed: List[TaskCopy] = []
        for copy in self.copies:
            if copy.is_active:
                copy.kill(time)
                killed.append(copy)
        self.job._task_completed(self.stage)
        return killed

    def first_launch_time(self) -> Optional[float]:
        """Time the first copy of this task was launched, if any."""
        if not self.copies:
            return None
        return min(copy.launch_time for copy in self.copies)


class Job:
    """Runtime state of one job, owning the task lists of its stage DAG.

    All scheduler-facing counters (unscheduled and incomplete tasks per
    stage, ``sigma_i(l)``, ready-stage unscheduled tasks) are
    maintained incrementally by the task / copy state transitions, making
    every priority and allocation query O(1) per job (see the module
    docstring for the invariant).

    ``arrival_index`` (the job's 0-based position in arrival order) is
    stamped by the engine at arrival.
    """

    __slots__ = (
        "spec",
        "arrival_index",
        "stage_tasks",
        "completion_time",
        "_stages",
        "_dependents",
        "_stage_completion",
        "_stage_ready",
        "_unscheduled",
        "_incomplete",
        "_unscheduled_ready",
        "_unscheduled_total",
        "_incomplete_total",
        "_incomplete_stages",
        "_newly_ready",
        "_active_copies",
        "_copies_launched",
        "_workloads",
    )

    def __init__(
        self,
        spec: JobSpec,
        completion_time: Optional[float] = None,
    ) -> None:
        self.spec = spec
        stages = spec.stage_specs
        self._stages = stages
        self._dependents = spec.stage_dependents
        self.stage_tasks: List[List[Task]] = [[] for _ in stages]
        self._stage_completion: List[Optional[float]] = [None] * len(stages)
        self.completion_time = completion_time
        self._newly_ready: List[int] = []
        # Engine-owned pre-sampled workload buffers, one reversed list per
        # stage (see SimulationEngine._handle_arrival); None until the job
        # arrives in an engine.  Living on the job, the buffers die with it
        # -- no per-job cleanup in a global dict.
        self._workloads: Optional[List[List[float]]] = None
        self._recount()

    def _recount(self) -> None:
        """(Re)derive every incremental counter from the task lists.

        Idempotent: never mutates stage/job completion times, only the
        counters derived from them and from the per-task copy state.
        """
        num_stages = len(self._stages)
        self._unscheduled = [0] * num_stages
        self._incomplete = [0] * num_stages
        self._active_copies = 0
        self._copies_launched = 0
        for stage, tasks in enumerate(self.stage_tasks):
            for task in tasks:
                if task.completion_time is None:
                    self._incomplete[stage] += 1
                    if task._num_active == 0:
                        self._unscheduled[stage] += 1
                self._active_copies += task._num_active
                for copy in task.copies:
                    self._copies_launched += copy.num_copies
        completion = self._stage_completion
        self._stage_ready = [
            all(completion[dep] is not None for dep in self._stages[s].deps)
            for s in range(num_stages)
        ]
        self._unscheduled_ready = sum(
            count
            for stage, count in enumerate(self._unscheduled)
            if self._stage_ready[stage]
        )
        self._unscheduled_total = sum(self._unscheduled)
        self._incomplete_total = sum(self._incomplete)
        self._incomplete_stages = sum(1 for t in completion if t is None)

    @classmethod
    def from_spec(cls, spec: JobSpec) -> "Job":
        """Instantiate the runtime job and its task objects from a spec.

        Bypasses ``__init__``/``_recount``: fresh tasks are pending with no
        copies, so every counter is known in one forward pass over the
        stages.  Readiness settles in the same pass -- sources are ready
        immediately, an empty ready stage completes on the spot (a job with
        no map tasks has a trivially completed map phase), and deps point
        at earlier stages, so the pass cascades through empty prefixes.
        """
        job = cls.__new__(cls)
        job.spec = spec
        if spec.stages is None:
            # Legacy 2-node fast path: the readiness pass collapses to "is
            # the map stage empty?" (stage 0 is a source; stage 1 depends
            # only on it, and JobSpec validation guarantees at least one
            # task overall).  The cached stage tuple is read inline (one
            # dict get per job; stage_specs derives it on the first use).
            num_map = spec.num_map_tasks
            num_reduce = spec.num_reduce_tasks
            stages = spec.__dict__.get("_stage_specs_cache")
            job._stages = stages if stages is not None else spec.stage_specs
            job._dependents = _LEGACY_DEPENDENTS
            job.completion_time = None
            job._newly_ready = []
            job._workloads = None
            if num_map == 1 and num_reduce == 0:
                # The dominant stream shape (one single-task map-only job
                # per arrival): fully unrolled task construction, no
                # comprehension frames.
                task = Task.__new__(Task)
                task.job = job
                task.stage = 0
                task.index = 0
                task.copies = []
                task.completion_time = None
                task.checkpoint_work = 0.0
                task.preferred_rack = None
                task._num_active = 0
                job.stage_tasks = [[task], []]
                job._unscheduled = [1, 0]
                job._incomplete = [1, 0]
                job._unscheduled_total = job._incomplete_total = 1
                job._stage_completion = [None, None]
                job._stage_ready = [True, False]
                job._unscheduled_ready = 1
                job._incomplete_stages = 2
                job._active_copies = 0
                job._copies_launched = 0
                return job
            job.stage_tasks = [
                [_new_task(job, 0, j) for j in range(num_map)] if num_map else [],
                [_new_task(job, 1, j) for j in range(num_reduce)]
                if num_reduce
                else [],
            ]
            job._unscheduled = [num_map, num_reduce]
            job._incomplete = [num_map, num_reduce]
            job._unscheduled_total = job._incomplete_total = num_map + num_reduce
            if num_map:
                job._stage_completion = [None, None]
                job._stage_ready = [True, False]
                job._unscheduled_ready = num_map
                job._incomplete_stages = 2
            else:
                # An empty map phase completes at arrival; the reduce stage
                # is ready immediately.
                job._stage_completion = [spec.arrival_time, None]
                job._stage_ready = [True, True]
                job._unscheduled_ready = num_reduce
                job._incomplete_stages = 1
            job._active_copies = 0
            job._copies_launched = 0
            return job
        stages = spec.stages
        dependents = spec.stage_dependents
        num_stages = len(stages)
        arrival = spec.arrival_time
        job._stages = stages
        job._dependents = dependents
        job.completion_time = None
        job._newly_ready = []
        job._workloads = None
        stage_tasks: List[List[Task]] = []
        unscheduled = [0] * num_stages
        incomplete = [0] * num_stages
        completion: List[Optional[float]] = [None] * num_stages
        ready = [False] * num_stages
        total = 0
        unscheduled_ready = 0
        incomplete_stages = num_stages
        for stage_index, stage in enumerate(stages):
            count = stage.num_tasks
            stage_tasks.append(
                [_new_task(job, stage_index, j) for j in range(count)]
            )
            unscheduled[stage_index] = count
            incomplete[stage_index] = count
            total += count
            if all(completion[dep] is not None for dep in stage.deps):
                ready[stage_index] = True
                unscheduled_ready += count
                if count == 0:
                    completion[stage_index] = arrival
                    incomplete_stages -= 1
        job.stage_tasks = stage_tasks
        job._stage_completion = completion
        job._stage_ready = ready
        job._unscheduled = unscheduled
        job._incomplete = incomplete
        job._unscheduled_ready = unscheduled_ready
        job._unscheduled_total = total
        job._incomplete_total = total
        job._incomplete_stages = incomplete_stages
        job._active_copies = 0
        job._copies_launched = 0
        return job

    # -- identity and static attributes ------------------------------------

    @property
    def job_id(self) -> int:
        """Unique identifier of the job within its trace."""
        return self.spec.job_id

    @property
    def arrival_time(self) -> float:
        """``a_i`` -- the time the job entered the cluster."""
        return self.spec.arrival_time

    @property
    def weight(self) -> float:
        """``w_i`` -- the job's weight in the flowtime objective."""
        return self.spec.weight

    @property
    def num_stages(self) -> int:
        """Number of stages in the job's DAG (2 for legacy map→reduce)."""
        return len(self._stages)

    @property
    def stage_specs(self) -> Tuple[StageSpec, ...]:
        """The job's stage DAG (shared with the spec)."""
        return self._stages

    def all_tasks(self) -> Iterator[Task]:
        """Iterate over every task in stage order."""
        for tasks in self.stage_tasks:
            yield from tasks

    # -- precedence state machine -------------------------------------------

    def stage_is_ready(self, stage: int) -> bool:
        """True once every predecessor of ``stage`` has completed (O(1))."""
        return self._stage_ready[stage]

    def stage_completion_time(self, stage: int) -> Optional[float]:
        """Completion time of ``stage``, or ``None`` while incomplete."""
        return self._stage_completion[stage]

    @property
    def is_complete(self) -> bool:
        """True once every task of the job has completed."""
        return self.completion_time is not None

    def notify_task_completion(self, task: Task, time: float) -> bool:
        """Update stage/job completion after ``task`` finished at ``time``.

        Returns ``True`` when this completion finished the whole job.
        The engine calls this exactly once per task completion.  Stages
        that become *ready* as a consequence are buffered for
        :meth:`take_newly_ready_stages` (the engine unparks their copies).
        """
        if task.job is not self:
            raise ValueError("task does not belong to this job")
        if self.completion_time is not None:
            raise ValueError(f"job {self.job_id} already complete")
        stage = task.stage
        if (
            self._incomplete[stage] == 0
            and self._stage_completion[stage] is None
            and self._stage_ready[stage]
        ):
            self._complete_stage(stage, time)
        return self.completion_time is not None

    def _complete_stage(self, stage: int, time: float) -> None:
        """Mark ``stage`` complete and cascade readiness to its successors.

        A successor whose predecessors are now all complete becomes ready
        (recorded in the newly-ready buffer); if it is ready *and empty*
        it completes immediately, continuing the cascade.  The job
        completes when its last stage does.
        """
        completion = self._stage_completion
        stages = self._stages
        dependents = self._dependents
        ready = self._stage_ready
        # The pending list is allocated lazily: most completions cascade
        # through at most one empty successor (the 2-node DAG's empty
        # reduce stage), walked with a plain local instead.
        pending = None
        current = stage
        while True:
            completion[current] = time
            self._incomplete_stages -= 1
            for successor in dependents[current]:
                if ready[successor]:
                    continue
                # for/else instead of all(<genexpr>): this cascade runs on
                # every stage completion, and the generator frame dominates
                # it for the typical 1-2 dependency case.
                for dep in stages[successor].deps:
                    if completion[dep] is None:
                        break
                else:
                    ready[successor] = True
                    self._unscheduled_ready += self._unscheduled[successor]
                    self._newly_ready.append(successor)
                    if self._incomplete[successor] == 0:
                        if pending is None:
                            pending = [successor]
                        else:
                            pending.append(successor)
            if not pending:
                break
            current = pending.pop()
        if self._incomplete_stages == 0:
            self.completion_time = time

    def take_newly_ready_stages(self) -> List[int]:
        """Drain the stages that became ready since the last call (engine-only)."""
        stages = self._newly_ready
        if stages:
            self._newly_ready = []
        return stages

    # -- counter bookkeeping (task/copy transition hooks) ----------------------

    def _unscheduled_delta(self, stage: int, delta: int) -> None:
        """Adjust the unscheduled-task count of ``stage`` (transition hook)."""
        self._unscheduled[stage] += delta
        self._unscheduled_total += delta
        if self._stage_ready[stage]:
            self._unscheduled_ready += delta

    def _task_completed(self, stage: int) -> None:
        """Record one task of ``stage`` completing (transition hook)."""
        self._incomplete[stage] -= 1
        self._incomplete_total -= 1

    # -- scheduler-facing counters -------------------------------------------

    def unscheduled_stage_tasks(self, stage: int) -> List[Task]:
        """Tasks of ``stage`` that are neither completed nor occupying machines."""
        return [
            task
            for task in self.stage_tasks[stage]
            if task.completion_time is None and task._num_active == 0
        ]

    def num_unscheduled_stage_tasks(self, stage: int) -> int:
        """Unscheduled tasks of ``stage`` (O(1))."""
        return self._unscheduled[stage]

    @property
    def num_unscheduled_ready_tasks(self) -> int:
        """Unscheduled tasks whose stage is ready to run (O(1)).

        The gating helpers' launchability test: positive exactly when the
        job has work that could start making progress right now.
        """
        return self._unscheduled_ready

    def num_incomplete_stage_tasks(self, stage: int) -> int:
        """Tasks of ``stage`` not yet completed (O(1))."""
        return self._incomplete[stage]

    @property
    def num_remaining_tasks(self) -> int:
        """Tasks (any stage) not yet completed (O(1))."""
        return self._incomplete_total

    @property
    def num_running_copies(self) -> int:
        """``sigma_i(l)``: machines currently occupied by this job's copies (O(1))."""
        return self._active_copies

    def remaining_effective_workload(self, r: float) -> float:
        """``U_i(l)`` of Equation (4), based on *unscheduled* task counts.

        Each stage's unscheduled count is priced at that stage's own
        ``E + r * sigma``.  A task with a running copy no longer counts: its
        machines are accounted for separately via ``sigma_i(l)``.
        """
        if r < 0:
            raise ValueError(f"r must be non-negative, got {r}")
        total = 0.0
        unscheduled = self._unscheduled
        for stage_index, stage in enumerate(self._stages):
            count = unscheduled[stage_index]
            if count:
                duration = stage.duration
                total += count * (duration.mean + r * duration.std)
        return total

    # -- metrics ---------------------------------------------------------------

    @property
    def flowtime(self) -> Optional[float]:
        """``f_i - a_i``: elapsed time between arrival and completion."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    @property
    def weighted_flowtime(self) -> Optional[float]:
        """``w_i * (f_i - a_i)``."""
        if self.flowtime is None:
            return None
        return self.weight * self.flowtime

    def total_copies_launched(self) -> int:
        """Number of copies (originals plus clones) launched for this job."""
        return self._copies_launched

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Job(id={self.job_id}, arrival={self.arrival_time:.1f}, "
            f"weight={self.weight}, stages={self.num_stages}, "
            f"tasks={self.spec.total_tasks}, "
            f"complete={self.is_complete})"
        )
