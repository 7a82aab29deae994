"""Machine model.

The paper assumes identical machines that each hold at most one map or
reduce task at any time and run at unit speed; variation in task completion
times is folded into the task *workload* instead of the machine speed
(Section III).  The :class:`Machine` class nevertheless carries a ``speed``
attribute so that the resource-augmentation analysis of Section V-C (the
algorithm running on ``(1 + eps)``-speed machines) and the slow-machine
straggler model can both be expressed directly.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.checks import check_count, check_range, check_real

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.workload.job import TaskCopy

__all__ = ["Machine"]


class Machine:
    """One machine (processor, core or VM) of the cluster.

    Attributes
    ----------
    machine_id:
        Index of the machine within the cluster, ``0 .. M-1``.
    speed:
        Base processing speed; a task copy with workload ``p`` takes
        ``p / speed`` time units on this machine at full health.  Defaults
        to the paper's unit speed; heterogeneous scenarios assign each
        machine its own value.
    slowdown:
        Current dynamic straggler divisor (``>= 1``); the engine raises it
        at slowdown onset and resets it to 1 at recovery.
    is_down:
        True while the machine is failed; a down machine hosts no copies.
    current_copy:
        The task copy occupying this machine, or ``None`` when idle.
    failures:
        Number of failures this machine has suffered.
    """

    __slots__ = (
        "machine_id",
        "speed",
        "slowdown",
        "is_down",
        "current_copy",
        "failures",
    )

    def __init__(
        self,
        machine_id: int,
        speed: float = 1.0,
        slowdown: float = 1.0,
        is_down: bool = False,
        current_copy: Optional["TaskCopy"] = None,
        failures: int = 0,
    ) -> None:
        check_count("machine_id", machine_id)
        check_real("machine speed", speed, positive=True)
        check_range("slowdown", slowdown, 1)
        self.machine_id = machine_id
        self.speed = speed
        self.slowdown = slowdown
        self.is_down = is_down
        self.current_copy = current_copy
        self.failures = failures

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Machine(machine_id={self.machine_id}, speed={self.speed}, "
            f"slowdown={self.slowdown}, is_down={self.is_down})"
        )

    @property
    def is_free(self) -> bool:
        """True when no task copy occupies the machine."""
        return self.current_copy is None

    @property
    def effective_speed(self) -> float:
        """Current processing rate: base speed divided by any active slowdown.

        Returns ``speed`` *exactly* (no division) while healthy, so static
        scenarios reproduce pre-scenario results bit for bit.
        """
        if self.is_down:
            return 0.0
        if self.slowdown == 1.0:
            return self.speed
        return self.speed / self.slowdown

    def assign(self, copy: "TaskCopy") -> None:
        """Place ``copy`` on this machine."""
        if self.is_down:
            raise ValueError(f"machine {self.machine_id} is down")
        if not self.is_free:
            raise ValueError(
                f"machine {self.machine_id} is already running a copy"
            )
        self.current_copy = copy

    def release(self) -> "TaskCopy":
        """Free the machine and return the copy that was occupying it."""
        if self.current_copy is None:
            raise ValueError(f"machine {self.machine_id} is already free")
        copy = self.current_copy
        self.current_copy = None
        return copy

    def processing_time(self, workload: float) -> float:
        """Wall-clock time to process ``workload`` at the *current* rate.

        Under a dynamic scenario this is an estimate that the engine revises
        whenever the machine's effective speed changes.
        """
        if workload <= 0:
            raise ValueError(f"workload must be positive, got {workload}")
        if self.is_down:
            raise ValueError(f"machine {self.machine_id} is down")
        return workload / self.effective_speed
