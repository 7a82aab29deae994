"""Event types and the indexed event heap of the discrete-event engine.

Events are totally ordered by ``(time, priority, sequence)``.  At equal
timestamps copy completions are processed before anything else, so a copy
that finishes at the exact instant its machine fails (or slows down) still
completes -- the work was done by then.  Machine repairs precede failures
and slowdown transitions so a machine returning at a decision point is
visible to that decision; job arrivals come next; ticks come last because
they exist only to wake progress-monitoring schedulers.

The heap (:class:`EventHeap`) stores plain ``(time, priority, sequence,
payload, version)`` tuples so every comparison during sift-up/down happens
at C speed -- and the two per-job event kinds (arrivals, copy finishes)
carry their :class:`~repro.workload.job.Job` / :class:`~repro.workload.job
.TaskCopy` payload *directly* in the tuple, so the hot path never
allocates an :class:`Event` at all.  ``Event`` objects still exist as the
payload of the rare event kinds (machine failures/repairs, slowdown
transitions, ticks) and for tests and analysis code (they define
``__lt__`` for direct sorting); the uniqueness of ``sequence`` guarantees
tuple comparisons never reach the payload slot.

Same-timestamp batches
----------------------
All events at one timestamp form a single *batch*: the engine drains them
all -- in ``(priority, sequence)`` order -- before consulting the
scheduler, so :class:`~repro.simulation.scheduler_api.ComposedScheduler`
sees exactly one decision point per unique simulated time no matter how
many events coincide there.  The drain is inlined in the engine loop
(:meth:`~repro.simulation.engine.SimulationEngine._run`), which pops and
handles each entry directly from :attr:`EventHeap._entries`.

Decrease-key semantics
----------------------
Copy-finish events carry a ``version`` and the copy itself carries
``finish_version`` -- together they form the heap's *index*: the currently
valid finish entry of a copy is exactly the one whose version matches.
Under dynamic scenarios the engine re-estimates a running copy's finish
time whenever its machine's effective speed changes; the re-estimate is an
O(log n) decrease-key (or increase-key) implemented the standard ``heapq``
way: push a fresh entry with the bumped version and let the engine's
drain drop the superseded one when it reaches the head, exactly like the
finish event of a killed clone.  Stale entries therefore never reach an
event handler, never form an event batch on their own, and never cause a
scheduler consultation.
"""

from __future__ import annotations

import enum
import heapq
from typing import List, Optional, Tuple

from repro.workload.job import Job, TaskCopy

__all__ = ["EventType", "Event", "EventHeap"]


class EventType(enum.IntEnum):
    """Kinds of events; the integer value doubles as the same-time priority."""

    COPY_FINISH = 0
    MACHINE_REPAIR = 1
    MACHINE_FAILURE = 2
    MACHINE_SLOWDOWN_START = 3
    MACHINE_SLOWDOWN_END = 4
    JOB_ARRIVAL = 5
    TICK = 6


class Event:
    """One schedulable event (see the module docstring for the ordering)."""

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "event_type",
        "job",
        "copy",
        "machine_id",
        "version",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        event_type: EventType,
        job: Optional[Job] = None,
        copy: Optional[TaskCopy] = None,
        machine_id: Optional[int] = None,
        version: int = 0,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.event_type = event_type
        self.job = job
        self.copy = copy
        self.machine_id = machine_id
        #: Finish-event version (see module docstring); 0 for other types.
        self.version = version

    def __lt__(self, other: "Event") -> bool:
        """Order by ``(time, priority, sequence)`` -- the heap contract."""
        return (self.time, self.priority, self.sequence) < (
            other.time,
            other.priority,
            other.sequence,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Event({self.event_type.name}, t={self.time}, "
            f"seq={self.sequence}, version={self.version})"
        )

    @classmethod
    def arrival(cls, time: float, sequence: int, job: Job) -> "Event":
        """A job entering the cluster."""
        return cls(time, _JOB_ARRIVAL, sequence, EventType.JOB_ARRIVAL, job)

    @classmethod
    def copy_finish(
        cls, time: float, sequence: int, copy: TaskCopy, version: int = 0
    ) -> "Event":
        """A task copy running to completion on its machine."""
        return cls(
            time, _COPY_FINISH, sequence, EventType.COPY_FINISH, None, copy,
            None, version,
        )

    @classmethod
    def tick(cls, time: float, sequence: int) -> "Event":
        """A periodic wake-up requested by the scheduler."""
        return cls(time, _TICK, sequence, EventType.TICK)

    @classmethod
    def machine_failure(cls, time: float, sequence: int, machine_id: int) -> "Event":
        """A machine going down, killing its resident copy."""
        return cls(
            time=time,
            priority=int(EventType.MACHINE_FAILURE),
            sequence=sequence,
            event_type=EventType.MACHINE_FAILURE,
            machine_id=machine_id,
        )

    @classmethod
    def machine_repair(cls, time: float, sequence: int, machine_id: int) -> "Event":
        """A failed machine returning to service."""
        return cls(
            time=time,
            priority=int(EventType.MACHINE_REPAIR),
            sequence=sequence,
            event_type=EventType.MACHINE_REPAIR,
            machine_id=machine_id,
        )

    @classmethod
    def slowdown_start(cls, time: float, sequence: int, machine_id: int) -> "Event":
        """A dynamic straggler period beginning on one machine."""
        return cls(
            time=time,
            priority=int(EventType.MACHINE_SLOWDOWN_START),
            sequence=sequence,
            event_type=EventType.MACHINE_SLOWDOWN_START,
            machine_id=machine_id,
        )

    @classmethod
    def slowdown_end(cls, time: float, sequence: int, machine_id: int) -> "Event":
        """A dynamic straggler period ending (the machine recovers)."""
        return cls(
            time=time,
            priority=int(EventType.MACHINE_SLOWDOWN_END),
            sequence=sequence,
            event_type=EventType.MACHINE_SLOWDOWN_END,
            machine_id=machine_id,
        )


#: Plain-int priorities, bound once (IntEnum -> int conversion per event
#: creation is measurable on the hot path).
_COPY_FINISH = int(EventType.COPY_FINISH)
_JOB_ARRIVAL = int(EventType.JOB_ARRIVAL)
_TICK = int(EventType.TICK)


#: A heap entry: ``(time, priority, sequence, payload, version)``.  The
#: payload is a :class:`~repro.workload.job.Job` for arrivals, a
#: :class:`~repro.workload.job.TaskCopy` for copy finishes, and an
#: :class:`Event` for everything else; ``version`` is the finish-event
#: version (0 for all other kinds).
HeapEntry = Tuple[float, int, int, object, int]


class EventHeap:
    """Min-heap of events keyed by ``(time, priority, sequence)``.

    Entries are plain tuples so heap comparisons run at C speed, with the
    per-job payloads stored directly in the tuple (no :class:`Event`
    allocation on the hot path); the engine pops ``_entries`` itself and
    drops stale copy-finish entries (killed copies, superseded finish
    estimates) lazily at the head -- see the module docstring for why this
    is an O(log n) decrease-key.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: List[HeapEntry] = []

    def __len__(self) -> int:
        """Number of entries, including not-yet-dropped stale ones."""
        return len(self._entries)

    def __bool__(self) -> bool:
        """True while any entry (possibly stale) remains."""
        return bool(self._entries)

    def push(self, event: Event) -> None:
        """Insert ``event``; its ``sequence`` must already be assigned."""
        heapq.heappush(
            self._entries,
            (event.time, event.priority, event.sequence, event, event.version),
        )

    def push_finish(self, copy: TaskCopy, time: float, sequence: int) -> None:
        """Queue the (only currently valid) finish event of ``copy``.

        Bumping ``copy.finish_version`` invalidates any queued finish entry
        of the same copy -- this is the decrease-key operation used when a
        machine's effective rate changes mid-run.  The copy itself is the
        entry payload (no :class:`Event` allocation; this runs once per
        launched copy).
        """
        version = copy.finish_version + 1
        copy.finish_version = version
        heapq.heappush(
            self._entries, (time, _COPY_FINISH, sequence, copy, version)
        )
