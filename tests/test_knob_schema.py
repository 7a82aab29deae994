"""Every number a spec file can set, read from the spec-file schema, against hostile values.

Each knob gets NaN, +-inf, -1, 0, ``true``, ``3.0`` (hostile for an
integer knob, a plain value for a real one) and 1e308.  Every case must
end one of two ways:

* loading and compiling the study raise a ``StudySpecError`` or
  ``ValueError`` whose message names the knob (before any engine run);
* or the study runs -- at most 20 jobs, under a time limit -- to finite
  metrics (a run returns only once every job has completed).

The knobs come from the schema itself, never from a list kept here: the
study's scalar fields and seeds, the scenario table keys, the google, bulk
and stream-factory workload keys, and the keywords of every named
scheduler in the scheduler registry.  A knob added to any of them is covered without editing
this file.  The cases are an explicit parametrization, so the test is
deterministic.
"""

from __future__ import annotations

import inspect
import math
from typing import Any, Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.checks import MAX_REAL, check_count, check_range, check_real
from repro.experiments import ExperimentConfig
from repro.policies import NAMED_SCHEDULERS
from repro.scenarios import ZipfSpeeds
from repro.study import STREAM_FACTORIES, StudySpecError, study_from_dict
from repro.study import core as study_core
from repro.study import specfile
from repro.workload.distributions import Deterministic, LogNormal, Uniform
from repro.workload.generators import bulk_arrival_trace
from repro.workload.google_trace import GoogleTraceConfig, GoogleTraceGenerator
from repro.workload.stream import (
    StreamSpec,
    stream_dag_chain_jobs,
    stream_dag_diamond_jobs,
    stream_heavy_tail_jobs,
    stream_poisson_jobs,
    stream_uniform_jobs,
)

#: The hostile values every knob gets.
HOSTILE: Tuple[Any, ...] = (math.nan, math.inf, -math.inf, -1, 0, True, 3.0, 1e308)

#: The workload non-workload knobs run on: 8 small jobs.
TINY_STREAM = {
    "kind": "stream", "factory": "poisson", "num_jobs": 8, "arrival_rate": 0.5,
    "mean_tasks_per_job": 2.0, "mean_duration": 1.0, "seed": 1,
}

#: Study fields a google workload reads run on one of 19 jobs (scale
#: 1e-5) on the default cluster size; the others on a bulk workload that
#: is done within a second, so a time limit of 3.0 is met too.
TINY_GOOGLE_STUDY = {
    "name": "knob", "seeds": [0], "schedulers": ["SRPTMS+C"],
    "workloads": ["google"], "scale": 1e-5, "max_time": 1e6,
}
QUICK_STUDY = {
    "name": "knob", "seeds": [0], "schedulers": ["SRPTMS+C"], "machines": 4,
    "workloads": [{"kind": "bulk", "job_sizes": [2, 3], "mean_duration": 0.25, "cv": 0.0}],
    "max_time": 1e6,
}

#: Base values of each stream factory's knobs that keep a run tiny.
TINY_STREAM_KNOBS = {
    "num_jobs": 6, "tasks_per_job": 2, "reduce_tasks_per_job": 1,
    "inter_arrival": 1.0, "arrival_rate": 0.5, "mean_tasks_per_job": 2.0,
    "mean_tasks_per_round": 2.0, "mean_tasks_per_branch": 2.0,
    "max_tasks": 8, "mean_duration": 1.0, "seed": 1,
}


def _number_knobs(function: Callable[..., Any]) -> Dict[str, bool]:
    """``function``'s number parameters, each mapped to whether it takes a list."""
    knobs = {}
    for name, parameter in inspect.signature(function).parameters.items():
        annotation = parameter.annotation
        if not isinstance(annotation, str):
            annotation = getattr(annotation, "__name__", str(annotation))
        annotation = annotation.replace("Optional[", "").rstrip("]")
        if annotation in ("int", "float"):
            knobs[name] = False
        elif annotation in ("Sequence[int", "Sequence[float"):
            knobs[name] = True
    return knobs


def _study(**overrides: Any) -> Dict[str, Any]:
    # The time limit turns a run that would never end into a failure.
    table = {"name": "knob", "seeds": [0], "machines": 4, "max_time": 1e6,
             "schedulers": ["SRPTMS+C"], "workloads": [TINY_STREAM]}
    table.update(overrides)
    return {"study": table}


def _cases() -> List[Any]:
    cases: List[Any] = []

    def add(source: str, knob: str, build: Callable[[Any], Dict[str, Any]],
            is_list: bool = False):
        for value in HOSTILE:
            cases.append(pytest.param(
                knob, [value] if is_list else value, build, id=f"{source}-{knob}-{value!r}"
            ))

    # The study's scalar fields and seeds.
    for knob, kind in specfile._SCALAR_FIELDS.items():
        if kind in (int, float):
            base = (TINY_GOOGLE_STUDY if knob in study_core._GOOGLE_WORKLOAD_KEYS
                    else QUICK_STUDY)
            add("study", knob, lambda v, b=base, k=knob: {"study": {**b, k: v}})
    add("study", "seeds", lambda v: {"study": {**QUICK_STUDY, "seeds": v}}, True)

    # Scenario tables: every process switched on, one knob replaced.
    base_scenario = {"failure_rate": 0.01, "slowdown_rate": 0.05, "racks": 2}
    for knob in sorted(study_core._SCENARIO_TABLE_KEYS - {"label"}):
        add("scenario", knob, lambda v, k=knob: _study(scenarios=[{**base_scenario, k: v}]))

    # Google workload tables.
    for knob in sorted(study_core._GOOGLE_WORKLOAD_KEYS - {"kind", "label"}):
        add("google", knob, lambda v, k=knob: _study(
            machines=2, workloads=[{"kind": "google", "scale": 1e-5, k: v}]))

    # Bulk workload tables.
    bulk_knobs = _number_knobs(bulk_arrival_trace)
    for knob in sorted(study_core._BULK_WORKLOAD_KEYS & set(bulk_knobs)):
        add("bulk", knob, lambda v, k=knob: _study(workloads=[
            {"kind": "bulk", "job_sizes": [2, 3, 4], "cv": 0.3, k: v}]), bulk_knobs[knob])

    # Every stream factory's keywords, num_jobs included.
    for factory in sorted(STREAM_FACTORIES):
        knobs = _number_knobs(STREAM_FACTORIES[factory])
        base = {key: value for key, value in TINY_STREAM_KNOBS.items() if key in knobs}
        for knob in sorted(study_core._stream_factory_keys(factory) | {"num_jobs"}):
            add(f"stream.{factory}", knob, lambda v, f=factory, b=base, k=knob: _study(
                workloads=[{"kind": "stream", "factory": f, **b, k: v}]))

    # Every named scheduler's number keywords.
    for name, entry in NAMED_SCHEDULERS.items():
        for knob in _number_knobs(entry.build):
            add(f"scheduler.{name}", knob,
                lambda v, n=name, k=knob: _study(schedulers=[{"name": n, k: v}]))
    return cases


CASES = _cases()


def _outcome(data: Dict[str, Any], knob: str) -> None:
    """Assert the hostile study is rejected naming ``knob``, or runs to finite metrics."""
    try:
        study = study_from_dict(data)
        study.compile()
    except (StudySpecError, ValueError) as exc:
        assert knob in str(exc), f"the error does not name {knob}: {exc}"
        return
    results = study.run(workers=1)
    for run in results:
        result = run.result
        assert result.num_jobs > 0
        for metric in ("mean_flowtime", "weighted_mean_flowtime", "max_flowtime",
                       "makespan", "total_weighted_flowtime", "useful_work",
                       "wasted_work"):
            value = getattr(result, metric)
            assert math.isfinite(value), f"{metric} is {value} with {knob}"


def test_the_schema_yields_every_knob_source():
    sources = {case.id.split("-")[0] for case in CASES}
    assert {"study", "scenario", "google", "bulk"} <= sources
    assert {f"stream.{name}" for name in STREAM_FACTORIES} <= sources
    assert {f"scheduler.{name}" for name in ("SRPTMS+C", "Mantri", "LATE", "SCA",
                                             "SRPT", "Offline")} <= sources


@pytest.mark.parametrize("knob, value, build", CASES)
def test_hostile_knob_is_rejected_by_name_or_runs_finite(knob, value, build):
    _outcome(build(value), knob)


def _stream(factory: str, **knobs: Any) -> Dict[str, Any]:
    return _study(workloads=[{"kind": "stream", "factory": factory, "num_jobs": 6, **knobs}])


class TestRegressions:
    """Each case ran truncated, ran to NaN or inf, or failed inside its run."""

    @pytest.mark.parametrize(
        "data, knob",
        [
            # Silently truncated to an integer, and run.
            pytest.param(_study(machines=2.5), "machines", id="machines-2.5"),
            pytest.param(_study(seeds=[1.5]), "seeds", id="seeds-1.5"),
            pytest.param(_stream("poisson", num_jobs=2.5), "num_jobs", id="num_jobs-2.5"),
            pytest.param(_study(workloads=[{"kind": "bulk", "job_sizes": [2.5]}]),
                         "job_sizes", id="job_sizes-2.5"),
            # Passed load and compile, then failed inside the run.
            pytest.param(_study(epsilon=2), "epsilon", id="epsilon-2"),
            pytest.param(_study(r=-1), "r must", id="r-negative"),
            pytest.param(_study(max_time=math.nan), "max_time", id="max_time-nan"),
            pytest.param(_study(schedulers=[{"name": "Mantri", "max_copies_per_task": 2.5}]),
                         "max_copies_per_task", id="scheduler-copy-cap-2.5"),
            # Found by the schema sweep above.
            pytest.param(_study(max_time=0), "max_time", id="max_time-0-trips-at-once"),
            pytest.param(_study(scenarios=[{"failure_rate": 1e308}]), "failure_rate",
                         id="failure_rate-1e308-never-ends"),
            pytest.param(_study(workloads=[{"kind": "bulk", "job_sizes": [2], "cv": 1e308}]),
                         "cv", id="bulk-cv-1e308-named-std"),
            pytest.param(_study(workloads=[{"kind": "bulk", "job_sizes": [2],
                                            "mean_duration": 1e308}]),
                         "mean_duration", id="bulk-mean_duration-1e308-inf-flowtime"),
            pytest.param(_stream("poisson", mean_duration=1e308), "mean_duration",
                         id="stream-mean_duration-1e308-inf-flowtime"),
            pytest.param(_stream("poisson", cv=1e308), "cv", id="stream-cv-1e308-overflow"),
            pytest.param(_stream("poisson", mean_tasks_per_job=1e308), "mean_tasks_per_job",
                         id="mean_tasks_per_job-1e308-negative-count"),
            pytest.param(_stream("dag_chain", mean_tasks_per_round=1e308),
                         "mean_tasks_per_round", id="mean_tasks_per_round-1e308-never-ends"),
            pytest.param(_stream("uniform", weight=1e308), "weight",
                         id="uniform-weight-1e308-no-progress"),
        ],
    )
    def test_spec_file_knob_fails_at_load_or_compile(self, data, knob):
        with pytest.raises(ValueError, match=knob):
            study_from_dict(data).compile()

    @pytest.mark.parametrize(
        "build, knob",
        [
            pytest.param(lambda: StreamSpec(factory=stream_poisson_jobs, num_jobs=2.5),
                         "num_jobs", id="StreamSpec-num_jobs-2.5"),
            pytest.param(lambda: StreamSpec(factory=stream_poisson_jobs, num_jobs=math.nan),
                         "num_jobs", id="StreamSpec-num_jobs-nan"),
            pytest.param(lambda: ZipfSpeeds(num_tiers=2.5), "num_tiers", id="ZipfSpeeds"),
            pytest.param(lambda: LogNormal(math.nan, 1.0), "mean", id="LogNormal-nan"),
            pytest.param(lambda: Deterministic(math.nan), "workload", id="Deterministic-nan"),
            pytest.param(lambda: Uniform(1.0, math.inf), "high", id="Uniform-inf"),
            pytest.param(lambda: GoogleTraceConfig(scale=math.inf), "scale",
                         id="GoogleTraceConfig-scale-inf"),
            pytest.param(lambda: ExperimentConfig(num_machines=2.5), "num_machines",
                         id="ExperimentConfig-machines-2.5"),
            # A stream factory checks its knobs when called, not when read.
            pytest.param(lambda: stream_poisson_jobs(4, max_weight=2.5), "max_weight",
                         id="poisson-max_weight-2.5"),
            pytest.param(lambda: stream_heavy_tail_jobs(4, min_tasks=1.5), "min_tasks",
                         id="heavy_tail-min_tasks-1.5"),
            pytest.param(lambda: stream_heavy_tail_jobs(4, max_tasks=math.inf), "max_tasks",
                         id="heavy_tail-max_tasks-inf"),
            pytest.param(lambda: stream_dag_chain_jobs(4, num_rounds=2.5), "num_rounds",
                         id="dag_chain-num_rounds-2.5"),
            pytest.param(lambda: stream_dag_diamond_jobs(4, fan_out=2.5), "fan_out",
                         id="dag_diamond-fan_out-2.5"),
            # Overflowed its arrival times to inf and ran to a NaN mean flowtime.
            pytest.param(lambda: stream_uniform_jobs(3, inter_arrival=1e308), "inter_arrival",
                         id="uniform-inter_arrival-1e308"),
        ],
    )
    def test_library_constructor_rejects_by_name(self, build, knob):
        with pytest.raises(ValueError, match=knob):
            build()

    def test_large_within_job_cv_still_generates_a_trace(self):
        # Found by the schema sweep: calibrating the per-job mean durations
        # divided by zero once the target mean was out of reach.
        config = GoogleTraceConfig(scale=1e-4, within_job_cv=3.0)
        assert GoogleTraceGenerator(config).generate(seed=0).num_jobs > 0


class TestChecks:
    """The three checks' own contract."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1", -1, 1e101])
    def test_check_real_rejects_by_name(self, value):
        with pytest.raises(ValueError, match="^knob must be non-negative and finite"):
            check_real("knob", value)

    @pytest.mark.parametrize("value", [2.5, 3.0, math.nan, True, "3", -1])
    def test_check_count_rejects_by_name(self, value):
        with pytest.raises(ValueError, match="^knob must be an integer >= 0"):
            check_count("knob", value)

    @pytest.mark.parametrize(
        "closed, accepted", [("both", (0, 1)), ("left", (0,)), ("right", (1,)), ("neither", ())]
    )
    def test_check_range_honours_closed_ends(self, closed, accepted):
        for end in (0, 1):
            if end in accepted:
                assert check_range("knob", end, 0, 1, closed=closed) == end
            else:
                with pytest.raises(ValueError, match=r"^knob must lie in"):
                    check_range("knob", end, 0, 1, closed=closed)
        with pytest.raises(ValueError, match=r"^knob must be >= 1 and finite"):
            check_range("knob", MAX_REAL * 10, 1)

    def test_checks_return_plain_numbers(self):
        assert type(check_count("knob", np.int64(3))) is int
        assert type(check_real("knob", 2)) is float
        assert type(check_range("knob", np.float32(0.5), 0, 1)) is float
