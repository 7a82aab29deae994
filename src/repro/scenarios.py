"""Scenario subsystem: heterogeneous machines, dynamic stragglers, failures.

The paper's bounds (Sections III-V) are derived for a homogeneous cluster of
``M`` unit-speed machines, but the stragglers that cloning mitigates come
from real clusters that are heterogeneous and failure-prone.  A
:class:`ScenarioSpec` describes one such cluster environment in picklable
form so it can ride inside a
:class:`~repro.simulation.experiment_runner.RunSpec` across process
boundaries:

* a **machine-speed distribution** (:class:`UniformSpeeds`,
  :class:`BimodalSpeeds`, :class:`ZipfSpeeds`) sampled once per run to give
  every machine its own static speed;
* a **dynamic straggler process**
  (:class:`~repro.cluster.stragglers.DynamicStragglers`) under which each
  machine independently alternates between normal operation and slow
  periods -- the onset/recovery events change the machine's effective speed
  *while copies are running*, so the engine re-estimates their remaining
  work;
* a **failure/restart process** (:class:`MachineFailures`) that takes
  machines down, killing the resident copy (which the scheduler then
  re-dispatches), and brings them back after a repair time.

Seeding contract
----------------
All scenario randomness is derived from the run seed through *dedicated*
streams that never touch the engine's workload-sampling generator:

* machine speeds come from ``default_rng([_SPEED_STREAM, seed])``;
* each machine's failure/slowdown event times come from
  ``default_rng([_PROCESS_STREAM, seed, machine_id])``;
* per-job input placement (the preferred rack of a job's tasks under a
  :class:`TopologySpec`) comes from ``default_rng([_PLACEMENT_STREAM,
  seed])``, consumed in job-arrival order.

Two consequences: (1) enabling a scenario never perturbs the task workloads
sampled for the equivalent homogeneous run, and (2) every scenario run is a
pure function of its :class:`RunSpec`, so pooled execution is bit-identical
to serial execution (asserted in ``tests/test_scenarios.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.checks import check_count, check_range, check_real
from repro.cluster.stragglers import DynamicStragglers

__all__ = [
    "DEFAULT_MEAN_REPAIR",
    "DEFAULT_SLOWDOWN_DURATION",
    "DEFAULT_SLOWDOWN_FACTOR",
    "DEFAULT_REMOTE_SLOWDOWN",
    "DEFAULT_LOCALITY_WAIT",
    "SpeedDistribution",
    "UniformSpeeds",
    "BimodalSpeeds",
    "ZipfSpeeds",
    "MachineFailures",
    "TopologySpec",
    "ScenarioSpec",
    "SCENARIO_PRESETS",
    "scenario_preset",
    "speed_rng",
    "machine_process_rng",
    "placement_rng",
]

#: Seed-stream tags keeping scenario randomness off the workload stream.
_SPEED_STREAM = 0x535044  # "SPD"
_PROCESS_STREAM = 0x50524F43  # "PROC"
_PLACEMENT_STREAM = 0x504C43  # "PLC"

#: Defaults shared by the presets, the CLI fallbacks and the scenario
#: sweep's failure axis -- one constant each, no drift.
DEFAULT_MEAN_REPAIR = 300.0
DEFAULT_SLOWDOWN_DURATION = 200.0
DEFAULT_SLOWDOWN_FACTOR = 4.0
DEFAULT_REMOTE_SLOWDOWN = 2.0
#: Default delay-scheduling wait, re-exported so the CLI and the Study
#: layer share one constant with the ``delay`` allocation policy.
DEFAULT_LOCALITY_WAIT = 3.0


def speed_rng(seed: int) -> np.random.Generator:
    """The dedicated generator machine speeds are sampled from."""
    return np.random.default_rng([_SPEED_STREAM, seed])


def machine_process_rng(seed: int, machine_id: int) -> np.random.Generator:
    """The dedicated generator for one machine's failure/slowdown timeline."""
    return np.random.default_rng([_PROCESS_STREAM, seed, machine_id])


def placement_rng(seed: int) -> np.random.Generator:
    """The dedicated generator per-job input placement is drawn from.

    One stream per run, consumed in job-arrival order (one draw per
    arriving job), so placement depends only on ``(seed, arrival index)``
    -- never on the scheduler or on pool sharding -- and pooled execution
    stays bit-identical to serial.
    """
    return np.random.default_rng([_PLACEMENT_STREAM, seed])


# ---------------------------------------------------------------- speed models


class SpeedDistribution(ABC):
    """Distribution the per-machine static speeds are drawn from."""

    @abstractmethod
    def sample(self, num_machines: int, rng: np.random.Generator) -> np.ndarray:
        """Draw one speed per machine (all strictly positive)."""


@dataclass(frozen=True)
class UniformSpeeds(SpeedDistribution):
    """Speeds drawn uniformly from ``[low, high]``.

    The natural one-knob heterogeneity model: centre the interval on 1 and
    widen it to raise speed variance while keeping the mean fixed.
    """

    low: float = 0.5
    high: float = 1.5

    def __post_init__(self) -> None:
        check_real("low", self.low, positive=True)
        check_range("high", self.high, self.low)

    def sample(self, num_machines: int, rng: np.random.Generator) -> np.ndarray:
        """Draw one speed per machine (see base class)."""
        return rng.uniform(self.low, self.high, size=num_machines)


@dataclass(frozen=True)
class BimodalSpeeds(SpeedDistribution):
    """A two-class cluster: a ``slow_fraction`` of machines at ``slow_speed``.

    Models a generation gap (old vs new hardware); which machines are slow
    is drawn per run.
    """

    slow_fraction: float = 0.2
    slow_speed: float = 0.5
    fast_speed: float = 1.0

    def __post_init__(self) -> None:
        check_range("slow_fraction", self.slow_fraction, 0, 1)
        check_real("slow_speed", self.slow_speed, positive=True)
        check_real("fast_speed", self.fast_speed, positive=True)
        if self.slow_speed > self.fast_speed:
            raise ValueError(
                f"slow_speed {self.slow_speed} exceeds fast_speed {self.fast_speed}"
            )

    def sample(self, num_machines: int, rng: np.random.Generator) -> np.ndarray:
        """Draw one speed per machine (see base class)."""
        slow = rng.random(num_machines) < self.slow_fraction
        return np.where(slow, self.slow_speed, self.fast_speed)


@dataclass(frozen=True)
class ZipfSpeeds(SpeedDistribution):
    """Speed tiers with Zipf-distributed membership.

    Tier ``k`` (``1 <= k <= num_tiers``) has speed ``1 / k`` and is chosen
    with probability proportional to ``k ** -alpha``: most machines land in
    the fast tier, a heavy tail of machines is progressively slower -- the
    long-tailed heterogeneity profile reported for production clusters.
    """

    alpha: float = 1.5
    num_tiers: int = 4

    def __post_init__(self) -> None:
        check_real("alpha", self.alpha, positive=True)
        check_count("num_tiers", self.num_tiers, 1)

    def sample(self, num_machines: int, rng: np.random.Generator) -> np.ndarray:
        """Draw one speed per machine (see base class)."""
        tiers = np.arange(1, self.num_tiers + 1, dtype=float)
        weights = tiers**-self.alpha
        probabilities = weights / weights.sum()
        chosen = rng.choice(self.num_tiers, size=num_machines, p=probabilities)
        return 1.0 / (chosen + 1.0)


# ---------------------------------------------------------------- failure model


@dataclass(frozen=True)
class MachineFailures:
    """A per-machine fail/repair renewal process.

    Every machine stays up for an exponential time with rate ``rate``
    (events per simulated second per machine), then goes down -- killing the
    copy it was running, which the scheduler must re-dispatch -- and comes
    back after a repair time with mean ``mean_repair`` (exponential, or
    exactly ``mean_repair`` when ``fixed_repair`` is set -- useful for
    deterministic tests).
    """

    rate: float
    mean_repair: float
    fixed_repair: bool = False

    def __post_init__(self) -> None:
        check_real("failure rate", self.rate, positive=True)
        check_real("mean_repair", self.mean_repair, positive=True)

    def draw_uptime(self, rng: np.random.Generator) -> float:
        """Time until the next failure of a machine that just came up."""
        return float(rng.exponential(1.0 / self.rate))

    def draw_repair(self, rng: np.random.Generator) -> float:
        """How long the machine stays down."""
        if self.fixed_repair:
            return self.mean_repair
        return float(rng.exponential(self.mean_repair))


# ---------------------------------------------------------------- topology


@dataclass(frozen=True)
class TopologySpec:
    """A rack topology with remote-read penalties.

    Machines are assigned to racks round-robin (machine ``m`` lives on
    rack ``m % racks``), every arriving job draws one *preferred rack*
    (the rack holding its input splits) from the dedicated
    :func:`placement_rng` stream, and a copy launched off its task's
    preferred rack pays ``remote_slowdown`` on its wall-clock duration
    (its effective processing rate is divided by the factor, composing
    multiplicatively with machine speeds, dynamic stragglers and
    checkpoint resumes).

    The degenerate topology -- one rack, or a unit slowdown factor --
    is behaviourally indistinguishable from no topology at all, and the
    engine treats it identically (bit-identical results, locality
    counters stay zero); ``tests/test_topology.py`` pins this.
    """

    racks: int = 1
    remote_slowdown: float = 1.0

    def __post_init__(self) -> None:
        check_count("racks", self.racks, 1)
        check_range("remote_slowdown", self.remote_slowdown, 1.0)

    @property
    def is_degenerate(self) -> bool:
        """True when the topology cannot affect any run (single rack or no penalty)."""
        return self.racks == 1 or self.remote_slowdown == 1.0


# ---------------------------------------------------------------- the scenario


@dataclass(frozen=True)
class ScenarioSpec:
    """Picklable description of one cluster environment.

    Attributes
    ----------
    speeds:
        Static per-machine speed distribution; ``None`` keeps the paper's
        homogeneous cluster.
    normalize_mean_speed:
        Rescale the sampled speeds so their empirical mean is exactly 1,
        isolating the *variance* of the speeds from total cluster capacity
        (the scenario sweep uses this so flowtime differences are not just
        capacity differences).
    stragglers:
        Dynamic slowdown process (intermittently slow machines); ``None``
        disables it.  Permanently slow machines are a ``speeds``
        distribution, e.g. ``BimodalSpeeds(slow_fraction=0.25,
        slow_speed=0.25)`` for a quarter of the machines at 4x slower.
    failures:
        Machine failure/restart process; ``None`` disables it.
    topology:
        Rack topology with remote-read penalties; ``None`` keeps the
        paper's flat (placement-insensitive) cluster.
    """

    speeds: Optional[SpeedDistribution] = None
    normalize_mean_speed: bool = False
    stragglers: Optional[DynamicStragglers] = None
    failures: Optional[MachineFailures] = None
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        if self.topology is not None and not isinstance(self.topology, TopologySpec):
            raise TypeError(
                f"topology must be a TopologySpec, got {self.topology!r}"
            )
        if self.speeds is not None and not isinstance(self.speeds, SpeedDistribution):
            raise TypeError(
                f"speeds must be a SpeedDistribution, got {self.speeds!r}"
            )
        if self.stragglers is not None and not isinstance(
            self.stragglers, DynamicStragglers
        ):
            raise TypeError(
                f"stragglers must be DynamicStragglers, got {self.stragglers!r}"
            )
        if self.failures is not None and not isinstance(
            self.failures, MachineFailures
        ):
            raise TypeError(
                f"failures must be MachineFailures, got {self.failures!r}"
            )

    @property
    def is_dynamic(self) -> bool:
        """True when machine rates can change while copies run."""
        return self.stragglers is not None or self.failures is not None

    @property
    def is_default(self) -> bool:
        """True when the scenario is the paper's homogeneous static cluster."""
        return (
            self.speeds is None and not self.is_dynamic and self.topology is None
        )

    def machine_speeds(self, num_machines: int, seed: int) -> Optional[np.ndarray]:
        """Sample per-machine speeds for one run (``None`` when homogeneous).

        Speeds come from the dedicated :func:`speed_rng` stream, so they
        depend only on ``(seed, speeds spec)`` -- never on the trace or the
        scheduler -- and leave the workload stream untouched.
        """
        if self.speeds is None:
            return None
        check_count("num_machines", num_machines, 1)
        sampled = np.asarray(
            self.speeds.sample(num_machines, speed_rng(seed)), dtype=float
        )
        if sampled.shape != (num_machines,):
            raise ValueError(
                f"speed distribution returned shape {sampled.shape}, "
                f"expected ({num_machines},)"
            )
        if np.any(sampled <= 0):
            raise ValueError("speed distribution produced a non-positive speed")
        if self.normalize_mean_speed:
            sampled = sampled / sampled.mean()
        return sampled


#: Named scenarios the CLI exposes through ``--scenario``.  Process rates are
#: scaled to the synthetic Google trace (tasks average ~640 s): mean machine
#: uptime stays an order of magnitude above the typical task duration, so
#: failures disturb the schedule without making task completion improbable.
SCENARIO_PRESETS: Dict[str, ScenarioSpec] = {
    "homogeneous": ScenarioSpec(),
    "uniform-hetero": ScenarioSpec(
        speeds=UniformSpeeds(0.5, 1.5), normalize_mean_speed=True
    ),
    "bimodal-hetero": ScenarioSpec(
        speeds=BimodalSpeeds(slow_fraction=0.2, slow_speed=0.5, fast_speed=1.0),
        normalize_mean_speed=True,
    ),
    "zipf-hetero": ScenarioSpec(
        speeds=ZipfSpeeds(alpha=1.5, num_tiers=4), normalize_mean_speed=True
    ),
    "dynamic-stragglers": ScenarioSpec(
        stragglers=DynamicStragglers(
            onset_rate=1.0 / 2000.0,
            mean_duration=DEFAULT_SLOWDOWN_DURATION,
            factor=DEFAULT_SLOWDOWN_FACTOR,
        )
    ),
    "failures": ScenarioSpec(
        failures=MachineFailures(rate=5e-5, mean_repair=DEFAULT_MEAN_REPAIR)
    ),
    "hostile": ScenarioSpec(
        speeds=UniformSpeeds(0.5, 1.5),
        normalize_mean_speed=True,
        stragglers=DynamicStragglers(
            onset_rate=1.0 / 2000.0,
            mean_duration=DEFAULT_SLOWDOWN_DURATION,
            factor=DEFAULT_SLOWDOWN_FACTOR,
        ),
        failures=MachineFailures(rate=5e-5, mean_repair=DEFAULT_MEAN_REPAIR),
    ),
}


def scenario_preset(name: str) -> ScenarioSpec:
    """Look up a named preset (raises ``KeyError`` with the known names)."""
    try:
        return SCENARIO_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIO_PRESETS))
        raise KeyError(f"unknown scenario {name!r}; known presets: {known}") from None
