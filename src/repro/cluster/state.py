"""Cluster occupancy bookkeeping.

:class:`ClusterState` tracks which machines are free, busy or down, which
task copy runs where (a static run's kept copy sits on the machines of its
launch request's other copies too, see :class:`~repro.workload.job
.TaskCopy`), and, under a rack topology, how many copies each rack runs.
Machines may carry *individual* speeds (heterogeneous scenarios); all speed
queries go through :meth:`speed_of` rather than a single cluster-wide
scalar, so heterogeneity can never silently read the wrong rate.  The
simulation engine is the only writer; schedulers receive a read-only view
through :class:`repro.simulation.scheduler_api.SchedulerView`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.checks import check_count, check_real
from repro.cluster.machine import Machine
from repro.workload.job import TaskCopy

__all__ = ["ClusterState"]


class ClusterState:
    """Tracks machine occupancy for a cluster of ``num_machines`` machines."""

    def __init__(
        self,
        num_machines: int,
        machine_speed: float = 1.0,
        *,
        speeds: Optional[Sequence[float]] = None,
    ) -> None:
        check_count("num_machines", num_machines, 1)
        check_real("machine_speed", machine_speed, positive=True)
        if speeds is None:
            per_machine = [machine_speed] * num_machines
        else:
            per_machine = [float(s) for s in speeds]
            if len(per_machine) != num_machines:
                raise ValueError(
                    f"speeds has {len(per_machine)} entries for "
                    f"{num_machines} machines"
                )
        self._machines: List[Machine] = [
            Machine(machine_id=i, speed=per_machine[i]) for i in range(num_machines)
        ]
        self._free_ids: List[int] = list(range(num_machines - 1, -1, -1))
        self._num_down = 0
        # Rack topology (None unless configure_topology() was called):
        # machine -> rack, and running-copy counts per rack.
        self._rack_of: Optional[List[int]] = None
        self._rack_running: Optional[List[int]] = None

    # -- basic accessors ---------------------------------------------------------

    @property
    def num_machines(self) -> int:
        """``M`` -- the total machine count (up or down)."""
        return len(self._machines)

    @property
    def num_free(self) -> int:
        """Machines currently idle and up."""
        return len(self._free_ids)

    @property
    def num_down(self) -> int:
        """Machines currently failed."""
        return self._num_down

    @property
    def num_busy(self) -> int:
        """Machines currently running (or holding a blocked) copy."""
        return self.num_machines - self.num_free - self.num_down

    def machine(self, machine_id: int) -> Machine:
        """Look up a machine by id."""
        return self._machines[machine_id]

    def speed_of(self, machine_id: int) -> float:
        """Base speed of one machine (heterogeneity-safe speed query)."""
        return self._machines[machine_id].speed

    @property
    def speeds(self) -> List[float]:
        """Base speed of every machine, in machine-id order."""
        return [machine.speed for machine in self._machines]

    @property
    def mean_speed(self) -> float:
        """Average base speed across all machines."""
        return sum(self.speeds) / self.num_machines

    @property
    def machines(self) -> List[Machine]:
        """All machines (the engine may mutate them; schedulers must not)."""
        return self._machines

    @property
    def utilization(self) -> float:
        """Fraction of machines currently occupied."""
        return self.num_busy / self.num_machines

    # -- topology ------------------------------------------------------------------

    def configure_topology(self, rack_of: Sequence[int]) -> None:
        """Install a machine→rack map and start per-rack occupancy counts.

        Called once by the engine before any placement when a
        non-degenerate :class:`~repro.scenarios.TopologySpec` is active;
        without it every rack query answers as if the cluster were flat.
        """
        rack_map = [int(r) for r in rack_of]
        if len(rack_map) != self.num_machines:
            raise ValueError(
                f"rack_of has {len(rack_map)} entries for "
                f"{self.num_machines} machines"
            )
        num_racks = max(rack_map) + 1 if rack_map else 0
        if any(r < 0 for r in rack_map):
            raise ValueError("rack ids must be non-negative")
        self._rack_of = rack_map
        self._rack_running = [0] * num_racks

    @property
    def num_racks(self) -> int:
        """Number of racks (1 when no topology is configured)."""
        if self._rack_running is None:
            return 1
        return len(self._rack_running)

    def rack_of(self, machine_id: int) -> int:
        """Rack hosting ``machine_id`` (0 when no topology is configured)."""
        if self._rack_of is None:
            return 0
        return self._rack_of[machine_id]

    def num_running_on_rack(self, rack: int) -> int:
        """Copies currently occupying machines of ``rack`` (O(1))."""
        if self._rack_running is None:
            return self.num_busy if rack == 0 else 0
        return self._rack_running[rack]

    # -- placement -----------------------------------------------------------------

    def has_free_machine(self) -> bool:
        """True while at least one machine is idle and up."""
        return bool(self._free_ids)

    def peek_free_machine(self) -> Optional[int]:
        """Id of the machine the next placement would use (or ``None``)."""
        return self._free_ids[-1] if self._free_ids else None

    def place(self, copy: TaskCopy) -> Machine:
        """Occupy a free machine with ``copy`` and return that machine.

        The copy must already carry the machine id chosen by
        :meth:`peek_free_machine`; this keeps the machine choice visible to
        the straggler model before the copy object is created.
        """
        if not self._free_ids:
            raise ValueError("no free machine available")
        machine_id = self._free_ids.pop()
        if copy.machine_id != machine_id:
            # The engine must place copies on the machine it peeked.
            self._free_ids.append(machine_id)
            raise ValueError(
                f"copy targets machine {copy.machine_id}, expected {machine_id}"
            )
        machine = self._machines[machine_id]
        machine.assign(copy)
        if self._rack_of is not None:
            self._rack_running[self._rack_of[machine_id]] += 1
        return machine

    def release(self, copy: TaskCopy) -> Machine:
        """Free the machine occupied by ``copy``."""
        machine_id = self.machine_of(copy)
        if machine_id is None:
            raise ValueError("copy is not placed on any machine")
        machine = self._machines[machine_id]
        machine.release()
        self._free_ids.append(machine_id)
        if self._rack_of is not None:
            self._rack_running[self._rack_of[machine_id]] -= 1
        return machine

    def machine_of(self, copy: TaskCopy) -> Optional[int]:
        """Machine id currently hosting ``copy``, or ``None``.

        Placement is derived from the hosting machine's ``current_copy``
        (the copy's ``machine_id`` names the only machine that could host
        it), so no side table has to be maintained on the placement path.
        """
        machine_id = copy.machine_id
        if machine_id is None or not 0 <= machine_id < len(self._machines):
            return None
        if self._machines[machine_id].current_copy is copy:
            return machine_id
        return None

    # -- failure state transitions ---------------------------------------------------

    def mark_down(self, machine_id: int) -> Machine:
        """Take a machine out of service (failure).

        The machine must be idle: the engine kills and releases any resident
        copy *before* marking its host down, so occupancy bookkeeping stays
        exact.  The machine leaves the free pool until :meth:`mark_up`.
        """
        machine = self._machines[machine_id]
        if machine.is_down:
            raise ValueError(f"machine {machine_id} is already down")
        if not machine.is_free:
            raise ValueError(
                f"machine {machine_id} still hosts a copy; release it first"
            )
        self._free_ids.remove(machine_id)
        machine.is_down = True
        machine.failures += 1
        self._num_down += 1
        return machine

    def mark_up(self, machine_id: int) -> Machine:
        """Return a repaired machine to the free pool."""
        machine = self._machines[machine_id]
        if not machine.is_down:
            raise ValueError(f"machine {machine_id} is not down")
        machine.is_down = False
        self._free_ids.append(machine_id)
        self._num_down -= 1
        return machine

    # -- invariants -------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if the occupancy bookkeeping is inconsistent.

        Used by the property-based tests and by the engine's debug mode.
        """
        busy_machines = [
            m for m in self._machines if not m.is_free and not m.is_down
        ]
        down_machines = [m for m in self._machines if m.is_down]
        assert len(busy_machines) == self.num_busy, "free-list inconsistent"
        assert len(down_machines) == self.num_down, "down count inconsistent"
        assert self.num_busy + self.num_free + self.num_down == self.num_machines
        for machine in down_machines:
            assert machine.is_free, "down machine still hosts a copy"
            assert machine.machine_id not in self._free_ids, "down machine in free list"
        for machine in busy_machines:
            # A busy machine holds its copy's own machine id, or exactly
            # one of a kept copy's other machines (whose own machine then
            # holds it too).
            copy = machine.current_copy
            assert copy is not None
            machine_id = machine.machine_id
            others = copy.other_machines
            if copy.machine_id != machine_id:
                assert others is not None and others.count(machine_id) == 1, (
                    "copy/machine id mismatch"
                )
                assert (
                    self._machines[copy.machine_id].current_copy is copy
                ), "kept copy left its own machine"
            elif others is not None:
                assert machine_id not in others, "kept copy listed twice"
                for other in others:
                    assert (
                        self._machines[other].current_copy is copy
                    ), "a kept copy's other machine was freed alone"
        if self._rack_of is not None:
            recount = [0] * len(self._rack_running)
            for machine in busy_machines:
                recount[self._rack_of[machine.machine_id]] += 1
            assert recount == self._rack_running, "rack occupancy inconsistent"
            assert sum(self._rack_running) == self.num_busy
