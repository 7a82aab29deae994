"""Declarative studies: a named cartesian product of experiment axes.

A :class:`Study` describes a whole comparative evaluation -- *which
schedulers, under which cluster scenarios, on which workloads, over which
seeds and parameter sweeps* -- as data, not as a bespoke driver loop.
:meth:`Study.compile` expands the axes product into the picklable
:class:`~repro.simulation.experiment_runner.RunSpec` list the existing
:class:`~repro.simulation.experiment_runner.ExperimentRunner` executes, so
parallel pools, streaming workloads and the results cache all come for
free; :meth:`Study.run` returns a tidy
:class:`~repro.study.resultset.ResultSet` with the axis coordinates
attached to every run.

Axes
----
Four structural axes are first-class constructor arguments:

* ``schedulers`` -- policy names from :data:`SCHEDULER_NAMES` (optionally
  with keyword overrides), e.g. ``("SRPTMS+C", {"name": "SRPT", "r": 2})``;
* ``scenarios`` -- cluster environments: ``None``/``"none"`` (the paper's
  homogeneous cluster), a preset name from
  :data:`repro.scenarios.SCENARIO_PRESETS`, a table of CLI-style knobs
  (``{"speed_spread": 0.5}``), or a raw
  :class:`~repro.scenarios.ScenarioSpec`;
* ``workloads`` -- ``"google"`` (the synthetic paper trace at the study's
  scale), a ``{"kind": "stream", "factory": ...}`` recipe over
  :mod:`repro.workload.stream`, or a raw
  trace/:class:`~repro.simulation.experiment_runner.TraceSpec`/
  :class:`~repro.workload.stream.StreamSpec` object;
* ``seeds`` -- replication seeds (always the innermost axis).

Scalar knobs (``scale``, ``epsilon``, ``r``, ``machines`` ...) hold one
value each; any of them can instead be swept by listing it in ``axes``
(``axes={"epsilon": (0.1, ..., 1.0)}``), which inserts an extra product
axis.  Every run's coordinates -- one ``(axis, label)`` pair per axis --
ride along as the spec's ``tag`` and come back on the result records.

The compile contract
--------------------
Compilation is pure and deterministic: the same ``Study`` always produces
the same spec list in the same order (workloads x scenarios x schedulers x
scalar axes in declaration order x seeds, last axis fastest), and every
produced spec is cache-fingerprintable, so re-running a study against a
warm :class:`~repro.simulation.results_store.ResultsStore` touches the
engine zero times.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.experiments.config import generate_google_trace
from repro.policies import parse_composition
from repro.scenarios import (
    DEFAULT_MEAN_REPAIR,
    DEFAULT_REMOTE_SLOWDOWN,
    DEFAULT_SLOWDOWN_DURATION,
    DEFAULT_SLOWDOWN_FACTOR,
    MachineFailures,
    ScenarioSpec,
    TopologySpec,
    UniformSpeeds,
    scenario_preset,
)
from repro.simulation.experiment_runner import (
    ExperimentRunner,
    RunSpec,
    SchedulerSpec,
    TraceSource,
    TraceSpec,
)
from repro.study.resultset import ResultSet, StudyRun
from repro.workload.google_trace import TABLE_II_TARGETS, GoogleTraceConfig
from repro.workload.stream import (
    StreamSpec,
    stream_dag_chain_jobs,
    stream_dag_diamond_jobs,
    stream_heavy_tail_jobs,
    stream_poisson_jobs,
    stream_uniform_jobs,
)
from repro.workload.trace import Trace

__all__ = [
    "Study",
    "SchedulerRef",
    "ScenarioRef",
    "WorkloadRef",
    "StudyPoint",
    "SCHEDULER_NAMES",
    "STREAM_FACTORIES",
    "SCALAR_AXES",
]


def _freeze_kwargs(kwargs: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Normalise a kwargs mapping to a sorted, hashable tuple of pairs."""
    return tuple(sorted(kwargs.items()))


# ------------------------------------------------------------ scheduler axis


def _build_srptms_c(point: "StudyPoint", kwargs: Dict[str, Any]) -> SchedulerSpec:
    from repro.core.srptms_c import SRPTMSCScheduler

    return SchedulerSpec(
        SRPTMSCScheduler, {"epsilon": point.epsilon, "r": point.r, **kwargs}
    )


def _build_srpt(point: "StudyPoint", kwargs: Dict[str, Any]) -> SchedulerSpec:
    from repro.schedulers import SRPTScheduler

    return SchedulerSpec(SRPTScheduler, {"r": point.r, **kwargs})


def _build_offline(point: "StudyPoint", kwargs: Dict[str, Any]) -> SchedulerSpec:
    from repro.core.offline import OfflineSRPTScheduler

    return SchedulerSpec(
        OfflineSRPTScheduler, {"r": point.r, "seed": point.seed, **kwargs}
    )


def _plain_builder(scheduler_classpath: str):
    def build(point: "StudyPoint", kwargs: Dict[str, Any]) -> SchedulerSpec:
        import repro.schedulers as schedulers

        return SchedulerSpec(getattr(schedulers, scheduler_classpath), kwargs)

    return build


#: Scheduler-name registry: how each named policy consumes the point's
#: parameters.  SRPTMS+C reads the point's ``epsilon``/``r``, SRPT and the
#: offline Algorithm 1 read ``r`` (the offline scheduler also receives the
#: replication seed for its randomised tie-breaking); explicit per-ref
#: kwargs always win over point parameters.
_SCHEDULER_BUILDERS = {
    "SRPTMS+C": _build_srptms_c,
    "SCA": _plain_builder("SCAScheduler"),
    "Mantri": _plain_builder("MantriScheduler"),
    "LATE": _plain_builder("LATEScheduler"),
    "Fair": _plain_builder("FairScheduler"),
    "FIFO": _plain_builder("FIFOScheduler"),
    "SRPT": _build_srpt,
    "Offline": _build_offline,
}

#: The policy names a study's ``schedulers`` axis accepts.  Beyond these,
#: any policy-kernel composition triple ``"<ordering>+<allocation>+
#: <redundancy>"`` (e.g. ``"srpt+greedy+late"``, ``"fifo+share+clone"``;
#: see :mod:`repro.policies`) is accepted too -- the triple consumes the
#: point's ``epsilon`` (share allocation) and ``r`` (srpt ordering) unless
#: overridden by per-ref kwargs.
SCHEDULER_NAMES: Tuple[str, ...] = tuple(_SCHEDULER_BUILDERS)


def _build_composition(
    name: str, point: "StudyPoint", kwargs: Dict[str, Any]
) -> SchedulerSpec:
    """SchedulerSpec for a policy-kernel triple (``ordering+allocation+redundancy``)."""
    from repro.simulation.scheduler_api import ComposedScheduler

    ordering, allocation, redundancy = parse_composition(name)
    composed_kwargs: Dict[str, Any] = {
        "ordering": ordering,
        "allocation": allocation,
        "redundancy": redundancy,
        "epsilon": point.epsilon,
        "r": point.r,
    }
    composed_kwargs.update(kwargs)
    return SchedulerSpec(ComposedScheduler, composed_kwargs)


@dataclass(frozen=True)
class SchedulerRef:
    """One labelled point on a study's scheduler axis.

    ``name`` selects a registered policy (:data:`SCHEDULER_NAMES`);
    ``kwargs`` override the constructor arguments the policy would
    otherwise derive from the study point (e.g. ``epsilon``/``r``).
    ``label`` is the coordinate value on result records; it defaults to
    the policy name, suffixed with the overrides when present so two
    differently parameterised refs of one policy stay distinguishable.
    """

    name: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if (
            self.name not in _SCHEDULER_BUILDERS
            and parse_composition(self.name) is None
        ):
            known = ", ".join(sorted(_SCHEDULER_BUILDERS))
            raise ValueError(
                f"unknown scheduler {self.name!r}; known schedulers: {known}, "
                "or a policy-kernel triple like 'srpt+greedy+late' "
                "(<ordering>+<allocation>+<redundancy>, see repro.policies)"
            )
        if not self.label:
            object.__setattr__(self, "label", self.default_label())

    def default_label(self) -> str:
        """The label used when none is given explicitly."""
        if not self.kwargs:
            return self.name
        items = ",".join(f"{key}={value!r}" for key, value in self.kwargs)
        return f"{self.name}({items})"

    @classmethod
    def coerce(cls, value: "SchedulerLike") -> "SchedulerRef":
        """Normalise a user-supplied axis entry into a :class:`SchedulerRef`."""
        if isinstance(value, SchedulerRef):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            data = dict(value)
            try:
                name = data.pop("name")
            except KeyError:
                raise ValueError(
                    f"scheduler table {value!r} needs a 'name' key "
                    f"(one of: {', '.join(sorted(_SCHEDULER_BUILDERS))})"
                ) from None
            label = data.pop("label", "")
            return cls(name=name, kwargs=_freeze_kwargs(data), label=label)
        raise TypeError(
            f"scheduler axis entries must be names, tables or SchedulerRef, "
            f"got {value!r}"
        )

    def build(self, point: "StudyPoint") -> SchedulerSpec:
        """The picklable scheduler recipe for one study point."""
        builder = _SCHEDULER_BUILDERS.get(self.name)
        if builder is not None:
            return builder(point, dict(self.kwargs))
        return _build_composition(self.name, point, dict(self.kwargs))


SchedulerLike = Union[str, Mapping[str, Any], SchedulerRef]


# ------------------------------------------------------------- scenario axis

#: Knobs a scenario table may set, mirroring the CLI scenario flags.
_SCENARIO_TABLE_KEYS = frozenset(
    {
        "speed_spread",
        "failure_rate",
        "mean_repair",
        "slowdown_rate",
        "slowdown_duration",
        "slowdown_factor",
        "racks",
        "remote_slowdown",
        "label",
    }
)


def _scenario_from_table(data: Mapping[str, float]) -> Optional[ScenarioSpec]:
    """Compose a ScenarioSpec from CLI-style knobs (None = homogeneous)."""
    from repro.cluster.stragglers import DynamicStragglers

    unknown = set(data) - _SCENARIO_TABLE_KEYS
    if unknown:
        raise ValueError(
            f"unknown scenario keys {sorted(unknown)}; "
            f"allowed: {sorted(_SCENARIO_TABLE_KEYS)}"
        )
    speed_spread = float(data.get("speed_spread", 0.0))
    failure_rate = float(data.get("failure_rate", 0.0))
    slowdown_rate = float(data.get("slowdown_rate", 0.0))
    if not 0.0 <= speed_spread < 1.0:
        raise ValueError(f"speed_spread must lie in [0, 1), got {speed_spread}")
    if "mean_repair" in data and failure_rate == 0.0:
        raise ValueError("mean_repair needs failure_rate > 0")
    if (
        "slowdown_duration" in data or "slowdown_factor" in data
    ) and slowdown_rate == 0.0:
        raise ValueError("slowdown_duration/slowdown_factor need slowdown_rate > 0")
    racks = int(data.get("racks", 1))
    if "remote_slowdown" in data and racks <= 1:
        raise ValueError("remote_slowdown needs racks > 1")
    speeds = None
    normalize = False
    if speed_spread > 0.0:
        speeds = UniformSpeeds(1.0 - speed_spread, 1.0 + speed_spread)
        normalize = True
    failures = None
    if failure_rate > 0.0:
        failures = MachineFailures(
            rate=failure_rate,
            mean_repair=float(data.get("mean_repair", DEFAULT_MEAN_REPAIR)),
        )
    stragglers = None
    if slowdown_rate > 0.0:
        stragglers = DynamicStragglers(
            onset_rate=slowdown_rate,
            mean_duration=float(
                data.get("slowdown_duration", DEFAULT_SLOWDOWN_DURATION)
            ),
            factor=float(data.get("slowdown_factor", DEFAULT_SLOWDOWN_FACTOR)),
        )
    topology = None
    if racks > 1:
        topology = TopologySpec(
            racks=racks,
            remote_slowdown=float(
                data.get("remote_slowdown", DEFAULT_REMOTE_SLOWDOWN)
            ),
        )
    spec = ScenarioSpec(
        speeds=speeds,
        normalize_mean_speed=normalize,
        stragglers=stragglers,
        failures=failures,
        topology=topology,
    )
    return None if spec.is_default else spec


@dataclass(frozen=True)
class ScenarioRef:
    """One labelled point on a study's scenario axis.

    ``decl`` keeps the declarative form the ref was built from (``None``
    for the homogeneous cluster, a preset name, or a tuple of knob pairs)
    so spec files can round-trip it; refs built from a raw
    :class:`~repro.scenarios.ScenarioSpec` carry ``decl="object"`` and are
    not spec-file serialisable.
    """

    label: str
    spec: Optional[ScenarioSpec] = None
    decl: Union[None, str, Tuple[Tuple[str, Any], ...]] = None

    @classmethod
    def coerce(cls, value: "ScenarioLike") -> "ScenarioRef":
        """Normalise a user-supplied axis entry into a :class:`ScenarioRef`."""
        if isinstance(value, ScenarioRef):
            return value
        if value is None or value == "none":
            return cls(label="none", spec=None, decl=None)
        if isinstance(value, str):
            return cls(label=value, spec=scenario_preset(value), decl=value)
        if isinstance(value, Mapping):
            data = dict(value)
            label = data.pop("label", "")
            spec = _scenario_from_table(data)
            # An empty knob table is the homogeneous cluster: same decl as
            # None, so a relabelled 'none' round-trips through spec files.
            ref = cls(label="x", spec=spec, decl=_freeze_kwargs(data) if data else None)
            return replace(ref, label=label or ref.default_label())
        if isinstance(value, ScenarioSpec):
            return cls(label="custom", spec=value, decl="object")
        if (
            isinstance(value, tuple)
            and len(value) == 2
            and isinstance(value[0], str)
        ):
            return replace(cls.coerce(value[1]), label=value[0])
        raise TypeError(
            f"scenario axis entries must be None, 'none', a preset name, a "
            f"knob table, a ScenarioSpec or a (label, value) pair; got "
            f"{value!r}"
        )

    def default_label(self) -> str:
        """The label a ref of this declarative form gets when none is given.

        The single source for the derivation -- the spec-file encoder
        compares against this to decide whether an explicit ``label`` key
        must be emitted.
        """
        if self.decl is None:
            return "none"
        if self.decl == "object":
            return "custom"
        if isinstance(self.decl, str):
            return self.decl
        return ",".join(f"{k}={v:g}" for k, v in sorted(dict(self.decl).items()))


ScenarioLike = Union[
    None, str, Mapping[str, Any], ScenarioSpec, Tuple[str, Any], "ScenarioRef"
]


# ------------------------------------------------------------- workload axis

#: Named stream recipes a ``{"kind": "stream"}`` workload may select.
STREAM_FACTORIES = {
    "uniform": stream_uniform_jobs,
    "poisson": stream_poisson_jobs,
    "heavy_tail": stream_heavy_tail_jobs,
    "dag_chain": stream_dag_chain_jobs,
    "dag_diamond": stream_dag_diamond_jobs,
}

_GOOGLE_WORKLOAD_KEYS = frozenset({"kind", "label", "scale", "trace_seed", "within_job_cv"})

#: Keyword parameters :func:`repro.workload.generators.bulk_arrival_trace`
#: accepts (strict-spec validation rejects anything else at load time).
_BULK_WORKLOAD_KEYS = frozenset(
    {"job_sizes", "mean_duration", "cv", "weights", "reduce_fraction", "name"}
)


def _stream_factory_keys(factory_name: str) -> frozenset:
    """Keyword parameters the named stream factory accepts (minus num_jobs)."""
    import inspect

    signature = inspect.signature(STREAM_FACTORIES[factory_name])
    return frozenset(signature.parameters) - {"num_jobs"}


@dataclass(frozen=True)
class WorkloadRef:
    """One labelled point on a study's workload axis.

    ``kind`` is ``"google"`` (the synthetic paper trace, parameterised by
    the point's scale unless overridden in ``params``), ``"stream"`` (a
    :class:`~repro.workload.stream.StreamSpec` recipe over
    :data:`STREAM_FACTORIES`), ``"bulk"`` (the offline bulk-arrival
    instance of :func:`repro.workload.generators.bulk_arrival_trace`), or
    ``"object"`` (a raw trace source passed through as-is; not spec-file
    serialisable).
    """

    kind: str
    label: str
    params: Tuple[Tuple[str, Any], ...] = ()
    source: Optional[Any] = field(default=None, compare=True)

    @classmethod
    def coerce(cls, value: "WorkloadLike") -> "WorkloadRef":
        """Normalise a user-supplied axis entry into a :class:`WorkloadRef`."""
        if isinstance(value, WorkloadRef):
            return value
        if value == "google":
            return cls(kind="google", label="google")
        if isinstance(value, str):
            raise ValueError(
                f"unknown workload name {value!r}; use 'google' or a "
                "{'kind': ...} table"
            )
        if isinstance(value, Mapping):
            data = dict(value)
            kind = data.pop("kind", None)
            label = data.pop("label", "")
            if kind == "google":
                unknown = set(data) - {"scale", "trace_seed", "within_job_cv"}
                if unknown:
                    raise ValueError(
                        f"unknown google-workload keys {sorted(unknown)}; "
                        f"allowed: {sorted(_GOOGLE_WORKLOAD_KEYS)}"
                    )
                return cls(
                    kind="google",
                    label=label or "google",
                    params=_freeze_kwargs(data),
                )
            if kind == "stream":
                try:
                    factory = data.pop("factory")
                    num_jobs = data.pop("num_jobs")
                except KeyError as exc:
                    raise ValueError(
                        f"stream workloads need {exc} (and a 'factory' from: "
                        f"{', '.join(sorted(STREAM_FACTORIES))})"
                    ) from None
                if factory not in STREAM_FACTORIES:
                    raise ValueError(
                        f"unknown stream factory {factory!r}; known: "
                        f"{', '.join(sorted(STREAM_FACTORIES))}"
                    )
                allowed = _stream_factory_keys(factory)
                unknown = set(data) - allowed
                if unknown:
                    raise ValueError(
                        f"unknown {factory}-stream keys {sorted(unknown)}; "
                        f"allowed: {sorted(allowed)}"
                    )
                params = _freeze_kwargs(
                    {"factory": factory, "num_jobs": int(num_jobs), **data}
                )
                ref = cls(kind="stream", label="x", params=params)
                return replace(ref, label=label or ref.default_label())
            if kind == "bulk":
                unknown = set(data) - _BULK_WORKLOAD_KEYS
                if unknown:
                    raise ValueError(
                        f"unknown bulk-workload keys {sorted(unknown)}; "
                        f"allowed: {sorted(_BULK_WORKLOAD_KEYS)}"
                    )
                try:
                    job_sizes = tuple(int(size) for size in data.pop("job_sizes"))
                except KeyError:
                    raise ValueError(
                        "bulk workloads need a 'job_sizes' array"
                    ) from None
                if "weights" in data:
                    data["weights"] = tuple(float(w) for w in data["weights"])
                params = _freeze_kwargs({"job_sizes": job_sizes, **data})
                return cls(kind="bulk", label=label or "bulk", params=params)
            raise ValueError(
                f"workload tables need kind 'google', 'stream' or 'bulk', "
                f"got {kind!r}"
            )
        if isinstance(value, (Trace, TraceSpec, StreamSpec)):
            label = getattr(value, "name", None) or "trace"
            return cls(kind="object", label=str(label), source=value)
        if (
            isinstance(value, tuple)
            and len(value) == 2
            and isinstance(value[0], str)
        ):
            return replace(cls.coerce(value[1]), label=value[0])
        raise TypeError(
            f"workload axis entries must be 'google', a table, a "
            f"Trace/TraceSpec/StreamSpec or a (label, value) pair; got "
            f"{value!r}"
        )

    def default_label(self) -> str:
        """The label a ref of this declarative form gets when none is given.

        The single source for the derivation -- the spec-file encoder
        compares against this to decide whether an explicit ``label`` key
        must be emitted.
        """
        if self.kind == "stream":
            params = dict(self.params)
            return f"{params['factory']}-{params['num_jobs']}"
        if self.kind == "object":
            return str(getattr(self.source, "name", None) or "trace")
        return self.kind  # "google" / "bulk"

    def resolve(self, point: "StudyPoint") -> TraceSource:
        """The picklable trace source this workload contributes to a point."""
        if self.kind == "object":
            return self.source
        params = dict(self.params)
        if self.kind == "google":
            # The factory identity must match ExperimentConfig.trace_source()
            # exactly -- same function, same kwargs -- so studies and
            # ExperimentConfig traces share results-cache entries.
            trace_config = GoogleTraceConfig(
                scale=float(params.get("scale", point.scale)),
                within_job_cv=float(
                    params.get("within_job_cv", point.within_job_cv)
                ),
            )
            seed = int(params.get("trace_seed", point.trace_seed))
            return TraceSpec(
                factory=generate_google_trace,
                kwargs={"trace_config": trace_config, "seed": seed},
            )
        if self.kind == "bulk":
            from repro.workload.generators import bulk_arrival_trace

            return TraceSpec(factory=bulk_arrival_trace, kwargs=params)
        factory = STREAM_FACTORIES[params.pop("factory")]
        num_jobs = params.pop("num_jobs")
        return StreamSpec(
            factory=factory, num_jobs=num_jobs, kwargs=params, name=self.label
        )


WorkloadLike = Union[str, Mapping[str, Any], Trace, TraceSpec, StreamSpec, Tuple[str, Any], "WorkloadRef"]


# ------------------------------------------------------------------- points

#: Scalar knobs that may be swept through ``Study.axes``.
SCALAR_AXES: Tuple[str, ...] = ("epsilon", "r", "machines", "machine_fraction", "scale")

#: Structural axis names, in product order (seed is always innermost).
_STRUCTURAL_AXES = ("workload", "scenario", "scheduler")


@dataclass(frozen=True)
class StudyPoint:
    """One fully resolved cell of the axes product.

    ``coords`` is the point's coordinate vector -- one ``(axis, label)``
    pair per axis, in axis order -- and rides along as the compiled spec's
    ``tag``; the remaining attributes are the resolved parameters the spec
    is built from.
    """

    coords: Tuple[Tuple[str, Any], ...]
    workload: WorkloadRef
    scenario: ScenarioRef
    scheduler: SchedulerRef
    seed: int
    scale: float
    epsilon: float
    r: float
    machines: int
    trace_seed: int
    within_job_cv: float
    max_time: Optional[float]

    def to_run_spec(self) -> RunSpec:
        """Compile this point into a picklable run spec."""
        return RunSpec(
            trace=self.workload.resolve(self),
            scheduler=self.scheduler.build(self),
            num_machines=self.machines,
            seed=self.seed,
            scenario=self.scenario.spec,
            max_time=self.max_time,
            tag=self.coords,
        )


# -------------------------------------------------------------------- study


def _default_machines(scale: float) -> int:
    """The paper-load cluster size at ``scale`` (12000 machines at 1.0)."""
    return max(1, int(round(TABLE_II_TARGETS["num_machines"] * scale)))


@dataclass(frozen=True)
class Study:
    """A named cartesian product of experiment axes (see module docstring).

    ``schedulers``/``scenarios``/``workloads``/``seeds`` are the structural
    axes; ``axes`` adds scalar sweep axes over any of
    :data:`SCALAR_AXES`; the remaining fields are scalar knobs applied to
    every point (a scalar listed in ``axes`` is swept instead).  An empty
    ``schedulers`` axis is allowed and compiles to zero runs -- the escape
    hatch for analysis-only studies such as the Table II statistics.
    """

    name: str
    schedulers: Tuple[SchedulerRef, ...] = ("SRPTMS+C", "SCA", "Mantri")
    scenarios: Tuple[ScenarioRef, ...] = (None,)
    workloads: Tuple[WorkloadRef, ...] = ("google",)
    seeds: Tuple[int, ...] = (0, 1)
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    scale: float = 0.02
    epsilon: float = 0.6
    r: float = 3.0
    machines: Optional[int] = None
    trace_seed: int = 0
    within_job_cv: float = 0.6
    max_time: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a study needs a non-empty name")
        object.__setattr__(
            self,
            "schedulers",
            tuple(SchedulerRef.coerce(entry) for entry in self.schedulers),
        )
        object.__setattr__(
            self,
            "scenarios",
            tuple(ScenarioRef.coerce(entry) for entry in self.scenarios),
        )
        object.__setattr__(
            self,
            "workloads",
            tuple(WorkloadRef.coerce(entry) for entry in self.workloads),
        )
        object.__setattr__(self, "seeds", tuple(int(seed) for seed in self.seeds))
        object.__setattr__(self, "axes", self._normalise_axes(self.axes))
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "r", float(self.r))
        if self.machines is not None:
            object.__setattr__(self, "machines", int(self.machines))
        object.__setattr__(self, "trace_seed", int(self.trace_seed))
        object.__setattr__(self, "within_job_cv", float(self.within_job_cv))
        if self.max_time is not None:
            object.__setattr__(self, "max_time", float(self.max_time))
        if not self.scenarios or not self.workloads or not self.seeds:
            raise ValueError(
                "scenarios, workloads and seeds must each have at least one "
                "entry (only the scheduler axis may be empty)"
            )
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        for axis in ("workload", "scenario", "scheduler"):
            labels = [
                ref.label for ref in getattr(self, axis + "s")
            ]
            duplicates = {label for label in labels if labels.count(label) > 1}
            if duplicates:
                raise ValueError(
                    f"duplicate {axis} labels {sorted(duplicates)}; give "
                    f"distinct 'label's to repeated entries"
                )

    @staticmethod
    def _normalise_axes(axes: Any) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
        if isinstance(axes, Mapping):
            items = list(axes.items())
        else:
            items = [(name, values) for name, values in axes]
        normalised: List[Tuple[str, Tuple[Any, ...]]] = []
        seen = set()
        for name, values in items:
            if name in ("seed", "seeds"):
                raise ValueError("sweep seeds through the seeds= axis, not axes=")
            if name in ("scheduler", "schedulers", "scenario", "scenarios", "workload", "workloads"):
                raise ValueError(
                    f"sweep {name} through the {name.rstrip('s')}s= axis, not axes="
                )
            if name not in SCALAR_AXES:
                raise ValueError(
                    f"unknown scalar axis {name!r}; allowed: "
                    f"{', '.join(SCALAR_AXES)}"
                )
            if name in seen:
                raise ValueError(f"duplicate scalar axis {name!r}")
            seen.add(name)
            coerce = int if name == "machines" else float
            values = tuple(coerce(value) for value in values)
            if not values:
                raise ValueError(f"scalar axis {name!r} must not be empty")
            if len(set(values)) != len(values):
                raise ValueError(f"scalar axis {name!r} has duplicate values")
            if name == "machine_fraction" and min(values) <= 0:
                raise ValueError(
                    f"machine fractions must be positive, got {values}"
                )
            normalised.append((name, values))
        return tuple(normalised)

    # -- product expansion -----------------------------------------------------

    @property
    def axis_names(self) -> Tuple[str, ...]:
        """All axis names in coordinate order (seed last)."""
        return (
            _STRUCTURAL_AXES
            + tuple(name for name, _ in self.axes)
            + ("seed",)
        )

    def num_points(self) -> int:
        """Size of the axes product (the number of runs a sweep executes)."""
        count = (
            len(self.workloads)
            * len(self.scenarios)
            * len(self.schedulers)
            * len(self.seeds)
        )
        for _, values in self.axes:
            count *= len(values)
        return count

    def points(self) -> List[StudyPoint]:
        """Expand the axes product into fully resolved points, in order."""
        scalar_names = [name for name, _ in self.axes]
        scalar_values = [values for _, values in self.axes]
        points: List[StudyPoint] = []
        for workload, scenario, scheduler in itertools.product(
            self.workloads, self.scenarios, self.schedulers
        ):
            for scalars in itertools.product(*scalar_values):
                overrides = dict(zip(scalar_names, scalars))
                scale = overrides.get("scale", self.scale)
                epsilon = overrides.get("epsilon", self.epsilon)
                r = overrides.get("r", self.r)
                machines = overrides.get(
                    "machines",
                    self.machines
                    if self.machines is not None
                    else _default_machines(scale),
                )
                fraction = overrides.get("machine_fraction")
                if fraction is not None:
                    machines = max(1, int(round(machines * fraction)))
                for seed in self.seeds:
                    coords = (
                        ("workload", workload.label),
                        ("scenario", scenario.label),
                        ("scheduler", scheduler.label),
                        *zip(scalar_names, scalars),
                        ("seed", seed),
                    )
                    points.append(
                        StudyPoint(
                            coords=coords,
                            workload=workload,
                            scenario=scenario,
                            scheduler=scheduler,
                            seed=seed,
                            scale=scale,
                            epsilon=epsilon,
                            r=r,
                            machines=int(machines),
                            trace_seed=self.trace_seed,
                            within_job_cv=self.within_job_cv,
                            max_time=self.max_time,
                        )
                    )
        return points

    def compile(self) -> List[RunSpec]:
        """The axes product as a flat, ordered, picklable spec list."""
        return [point.to_run_spec() for point in self.points()]

    # -- execution --------------------------------------------------------------

    def run(
        self,
        *,
        workers: Optional[int] = 1,
        cache_dir: Optional[str] = None,
        runner: Optional[ExperimentRunner] = None,
        select: Optional[Callable[[StudyPoint], bool]] = None,
    ) -> ResultSet:
        """Execute the study (or a selection of it) and return its result set.

        ``workers`` follows the library convention (``1`` serial, ``N``
        processes, ``0``/``None`` all CPUs); ``cache_dir`` enables the
        results cache.  Pass an existing ``runner`` to reuse its pool/cache
        configuration instead.  ``select`` filters the compiled points
        before execution -- the escape hatch for reports that consume a
        non-rectangular subset of the product (e.g. the offline-bound
        preset reads only the diagonal of workloads x r).  Results are
        bit-identical for any worker count and across cold/warm caches
        (each run is a pure function of its spec).
        """
        if runner is None:
            runner = ExperimentRunner(workers=workers, cache_dir=cache_dir)
        points = self.points()
        if select is not None:
            points = [point for point in points if select(point)]
        results = runner.run([point.to_run_spec() for point in points])
        runs = [
            StudyRun(coords=point.coords, result=result)
            for point, result in zip(points, results)
        ]
        return ResultSet(runs, name=self.name)

    def run_incremental(
        self,
        on_result: Callable[[StudyPoint, Any, bool], None],
        *,
        workers: Optional[int] = 1,
        cache_dir: Optional[str] = None,
        runner: Optional[ExperimentRunner] = None,
        select: Optional[Callable[[StudyPoint], bool]] = None,
    ) -> ResultSet:
        """Execute the study, streaming per-point results as they land.

        Identical to :meth:`run` (same spec list, same final
        :class:`~repro.study.resultset.ResultSet`, bit-identical results)
        except that ``on_result(point, result, cache_hit)`` is invoked for
        every point as its :class:`~repro.simulation.metrics.SimulationResult`
        arrives: cache hits first (point order), then executed points as
        they complete (point order on the serial and the pooled path; each
        is persisted to the cache before its callback fires).  This is the
        entry point for consumers that surface progress while a sweep is
        still running -- the ``repro-mapreduce serve`` daemon's study
        registry streams through the same mechanism.
        """
        if runner is None:
            runner = ExperimentRunner(workers=workers, cache_dir=cache_dir)
        points = self.points()
        if select is not None:
            points = [point for point in points if select(point)]
        specs = [point.to_run_spec() for point in points]
        point_of = {id(spec): point for spec, point in zip(specs, points)}

        def relay(spec: RunSpec, result: Any, cache_hit: bool) -> None:
            on_result(point_of[id(spec)], result, cache_hit)

        results = runner.run(specs, on_result=relay)
        runs = [
            StudyRun(coords=point.coords, result=result)
            for point, result in zip(points, results)
        ]
        return ResultSet(runs, name=self.name)
