"""Study spec files: TOML/JSON <-> :class:`~repro.study.core.Study`.

A spec file is a single ``[study]`` table describing the axes product, so
new scheduler/scenario sweeps need zero new code -- write a file, run
``repro-mapreduce sweep --spec study.toml``::

    [study]
    name = "clone-vs-adversity"
    schedulers = ["SCA", "LATE", "Mantri"]
    scenarios = ["none", { speed_spread = 0.5 }, "failures"]
    seeds = [0, 1, 2]
    scale = 0.01

    [study.axes]
    epsilon = [0.4, 0.6, 0.8]

Parsing is strict: unknown keys are rejected with the allowed-key list in
the error (a typo must fail loudly, not silently drop an axis), and
``study_from_dict(study_to_dict(study)) == study`` round-trips exactly --
as do the TOML and JSON encodings built on it.  Raw
Trace/ScenarioSpec objects embedded in a Python-constructed study have no
declarative form and raise :class:`StudySpecError` on serialisation.

TOML *reading* needs :mod:`tomllib` (Python >= 3.11); on older
interpreters use the JSON encoding.  TOML *writing* uses a minimal
emitter local to this module (the stdlib has no TOML writer).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Union

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - Python < 3.11
    tomllib = None

from repro.study.core import ScenarioRef, SchedulerRef, Study, WorkloadRef

__all__ = [
    "StudySpecError",
    "study_to_dict",
    "study_from_dict",
    "study_to_toml",
    "study_from_toml",
    "study_to_json",
    "study_from_json",
    "load_study",
    "dump_study",
]


class StudySpecError(ValueError):
    """A spec file (or dict) does not describe a valid study."""


#: Scalar study fields that serialise verbatim, with their types.  A spec
#: file's numbers pass to :class:`Study` as written, which checks each one
#: (a 2.5 for ``machines`` is an error, never truncated to 2).
_SCALAR_FIELDS = {
    "name": str,
    "scale": float,
    "epsilon": float,
    "r": float,
    "machines": int,
    "trace_seed": int,
    "within_job_cv": float,
    "max_time": float,
}

_ALLOWED_KEYS = frozenset(_SCALAR_FIELDS) | {
    "schedulers",
    "scenarios",
    "workloads",
    "seeds",
    "axes",
}


# ------------------------------------------------------------- dict encoding


def _scheduler_decl(ref: SchedulerRef) -> Union[str, Dict[str, Any]]:
    if not ref.kwargs and ref.label == ref.default_label():
        return ref.name
    decl: Dict[str, Any] = {"name": ref.name, **dict(ref.kwargs)}
    if ref.label != ref.default_label():
        decl["label"] = ref.label
    return decl


def _scenario_decl(ref: ScenarioRef) -> Union[str, Dict[str, Any]]:
    if ref.decl == "object":
        raise StudySpecError(
            f"scenario {ref.label!r} was built from a raw ScenarioSpec and "
            "has no spec-file form; use a preset name or a knob table "
            "(speed_spread/failure_rate/...) instead"
        )
    if ref.decl is None:
        return "none" if ref.label == ref.default_label() else {"label": ref.label}
    if isinstance(ref.decl, str):
        return ref.decl
    decl = dict(ref.decl)
    if ref.label != ref.default_label():
        decl["label"] = ref.label
    return decl


def _workload_decl(ref: WorkloadRef) -> Union[str, Dict[str, Any]]:
    if ref.kind == "object":
        raise StudySpecError(
            f"workload {ref.label!r} wraps a raw trace object and has no "
            "spec-file form; use 'google' or a {'kind': 'stream', ...} table"
        )
    params = dict(ref.params)
    if ref.kind == "google":
        if not params and ref.label == ref.default_label():
            return "google"
        decl: Dict[str, Any] = {"kind": "google", **params}
        if ref.label != ref.default_label():
            decl["label"] = ref.label
        return decl
    if ref.kind == "bulk":
        decl = {"kind": "bulk"}
        for key, value in ref.params:
            decl[key] = list(value) if isinstance(value, tuple) else value
        if ref.label != ref.default_label():
            decl["label"] = ref.label
        return decl
    factory = params.pop("factory")
    num_jobs = params.pop("num_jobs")
    decl = {"kind": "stream", "factory": factory, "num_jobs": num_jobs, **params}
    if ref.label != ref.default_label():
        decl["label"] = ref.label
    return decl


def study_to_dict(study: Study) -> Dict[str, Any]:
    """The study as a plain, JSON/TOML-serialisable ``{"study": ...}`` dict."""
    table: Dict[str, Any] = {"name": study.name}
    for key in ("scale", "epsilon", "r", "trace_seed", "within_job_cv"):
        table[key] = getattr(study, key)
    if study.machines is not None:
        table["machines"] = study.machines
    if study.max_time is not None:
        table["max_time"] = study.max_time
    table["seeds"] = list(study.seeds)
    table["schedulers"] = [_scheduler_decl(ref) for ref in study.schedulers]
    table["scenarios"] = [_scenario_decl(ref) for ref in study.scenarios]
    table["workloads"] = [_workload_decl(ref) for ref in study.workloads]
    if study.axes:
        table["axes"] = {name: list(values) for name, values in study.axes}
    return {"study": table}


def study_from_dict(data: Mapping[str, Any]) -> Study:
    """Build a :class:`Study` from :func:`study_to_dict`'s encoding.

    Unknown keys -- at the top level and inside the study table -- raise
    :class:`StudySpecError` naming the offender and the allowed keys.
    """
    if not isinstance(data, Mapping):
        raise StudySpecError(f"a study spec must be a mapping, got {data!r}")
    unknown = set(data) - {"study"}
    if unknown:
        raise StudySpecError(
            f"unknown top-level keys {sorted(unknown)}; a spec file holds a "
            "single [study] table"
        )
    if "study" not in data:
        raise StudySpecError("missing the [study] table")
    table = data["study"]
    if not isinstance(table, Mapping):
        raise StudySpecError(f"[study] must be a table, got {table!r}")
    unknown = set(table) - _ALLOWED_KEYS
    if unknown:
        raise StudySpecError(
            f"unknown [study] keys {sorted(unknown)}; "
            f"allowed: {sorted(_ALLOWED_KEYS)}"
        )
    if "name" not in table:
        raise StudySpecError("[study] needs a 'name'")
    kwargs: Dict[str, Any] = {key: table[key] for key in _SCALAR_FIELDS if key in table}
    kwargs["name"] = str(table["name"])
    for key in ("schedulers", "scenarios", "workloads", "seeds"):
        if key in table:
            value = table[key]
            if not isinstance(value, (list, tuple)):
                raise StudySpecError(f"[study] {key} must be an array")
            kwargs[key] = tuple(value)
    if "axes" in table:
        axes = table["axes"]
        if not isinstance(axes, Mapping):
            raise StudySpecError("[study.axes] must be a table of arrays")
        kwargs["axes"] = {name: tuple(values) for name, values in axes.items()}
    try:
        return Study(**kwargs)
    except (TypeError, ValueError) as exc:
        raise StudySpecError(str(exc)) from exc


# ------------------------------------------------------------- TOML encoding


def _toml_value(value: Any) -> str:
    """Render one value in TOML syntax (strings, numbers, arrays, tables)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)  # valid TOML basic string
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise StudySpecError(f"cannot encode non-finite float {value!r}")
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    if isinstance(value, Mapping):
        items = ", ".join(f"{key} = {_toml_value(v)}" for key, v in value.items())
        return "{" + items + "}"
    raise StudySpecError(f"cannot encode {value!r} in a spec file")


def study_to_toml(study: Study) -> str:
    """The study as a TOML document (one ``[study]`` table)."""
    table = study_to_dict(study)["study"]
    axes = table.pop("axes", None)
    lines = ["[study]"]
    for key, value in table.items():
        lines.append(f"{key} = {_toml_value(value)}")
    if axes:
        lines.append("")
        lines.append("[study.axes]")
        for name, values in axes.items():
            lines.append(f"{name} = {_toml_value(values)}")
    return "\n".join(lines) + "\n"


def study_from_toml(text: str) -> Study:
    """Parse a TOML spec document into a :class:`Study`."""
    if tomllib is None:  # pragma: no cover - Python < 3.11
        raise StudySpecError(
            "reading TOML spec files needs Python >= 3.11 (tomllib); "
            "use the JSON encoding instead"
        )
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise StudySpecError(f"invalid TOML: {exc}") from None
    return study_from_dict(data)


# ------------------------------------------------------------- JSON encoding


def study_to_json(study: Study) -> str:
    """The study as a JSON document (same shape as the TOML encoding)."""
    return json.dumps(study_to_dict(study), indent=2)


def study_from_json(text: str) -> Study:
    """Parse a JSON spec document into a :class:`Study`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StudySpecError(f"invalid JSON: {exc}") from None
    return study_from_dict(data)


# ------------------------------------------------------------------- files


def load_study(path: Union[str, Path]) -> Study:
    """Load a study spec file, dispatching on the ``.toml``/``.json`` suffix."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise StudySpecError(f"cannot read spec file {path}: {exc}") from None
    suffix = path.suffix.lower()
    if suffix == ".toml":
        return study_from_toml(text)
    if suffix == ".json":
        return study_from_json(text)
    raise StudySpecError(
        f"unsupported spec-file suffix {suffix!r} (use .toml or .json)"
    )


def dump_study(study: Study, path: Union[str, Path]) -> None:
    """Write a study spec file, dispatching on the ``.toml``/``.json`` suffix."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".toml":
        path.write_text(study_to_toml(study))
    elif suffix == ".json":
        path.write_text(study_to_json(study) + "\n")
    else:
        raise StudySpecError(
            f"unsupported spec-file suffix {suffix!r} (use .toml or .json)"
        )
