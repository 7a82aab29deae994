"""Tidy result sets: per-run records with their axis coordinates attached.

:meth:`Study.run <repro.study.core.Study.run>` returns a :class:`ResultSet`
holding one :class:`StudyRun` per executed cell of the axes product.  Each
run knows its coordinate vector (``workload``/``scenario``/``scheduler``/
scalar axes/``seed``) and its full
:class:`~repro.simulation.metrics.SimulationResult`, so the set behaves
like a small tidy data frame:

* :meth:`ResultSet.filter` selects runs by coordinate values;
* :meth:`ResultSet.group_by` partitions into sub-sets per coordinate combo;
* :meth:`ResultSet.aggregate` collapses the seed axis (or any other) into
  ``mean``/``std``/``min``/``max``/``median``/``p95``/``p99``/``ci95``
  statistics -- numpy reductions over a float array of the per-run
  values.  Its ``mean`` is the reduction
  :class:`~repro.analysis.comparison.ComparisonTable` applies to one
  cell's :attr:`ResultSet.results`, so the two agree digit for digit;
* :meth:`ResultSet.to_records` / :meth:`ResultSet.to_csv` /
  :meth:`ResultSet.to_json` export tidy rows for external tooling.

``ResultSet.fingerprint()`` hashes every run's coordinates together with
its result fingerprint; two sets are bit-identical if and only if their
fingerprints match (this is what the serial-vs-pooled and cold-vs-warm
CLI equivalence tests compare).  :func:`resultset_fingerprint` is that
hash over rows whose result fingerprints the caller already holds.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.simulation.metrics import SimulationResult

__all__ = [
    "StudyRun",
    "ResultSet",
    "DEFAULT_METRICS",
    "AGGREGATE_STATS",
    "resultset_fingerprint",
]

#: Metrics exported by default (all are ``SimulationResult`` attributes).
DEFAULT_METRICS: Tuple[str, ...] = (
    "num_jobs",
    "mean_flowtime",
    "weighted_mean_flowtime",
    "median_flowtime",
    "max_flowtime",
    "makespan",
    "cloning_ratio",
    "redundant_copies_launched",
)

MetricLike = Union[str, Callable[[SimulationResult], float]]


def _metric_value(result: SimulationResult, metric: MetricLike) -> float:
    if callable(metric):
        return float(metric(result))
    return float(getattr(result, metric))


def _metric_name(metric: MetricLike) -> str:
    if callable(metric):
        return getattr(metric, "__name__", "metric")
    return metric


class StudyRun:
    """One executed cell: a coordinate vector plus its simulation result."""

    __slots__ = ("coords", "result")

    def __init__(
        self, coords: Sequence[Tuple[str, Any]], result: SimulationResult
    ) -> None:
        self.coords: "OrderedDict[str, Any]" = OrderedDict(coords)
        self.result = result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        coords = ", ".join(f"{k}={v!r}" for k, v in self.coords.items())
        return f"StudyRun({coords})"

    def record(self, metrics: Sequence[MetricLike] = DEFAULT_METRICS) -> Dict[str, Any]:
        """One tidy row: the coordinates followed by the chosen metrics."""
        row: Dict[str, Any] = dict(self.coords)
        for metric in metrics:
            row[_metric_name(metric)] = _metric_value(self.result, metric)
        return row


#: Statistics :meth:`ResultSet.aggregate` understands.
AGGREGATE_STATS: Tuple[str, ...] = (
    "mean",
    "std",
    "min",
    "max",
    "median",
    "p95",
    "p99",
    "ci95",
    "count",
)


def _aggregate(values: List[float], stat: str) -> float:
    array = np.array(values, dtype=float)
    if stat == "mean":
        return float(array.mean())
    if stat == "std":
        return float(array.std(ddof=0))
    if stat == "min":
        return float(array.min())
    if stat == "max":
        return float(array.max())
    if stat == "median":
        return float(np.median(array))
    if stat == "p95":
        return float(np.percentile(array, 95.0))
    if stat == "p99":
        return float(np.percentile(array, 99.0))
    if stat == "ci95":
        # Half-width of the normal-approximation 95% confidence interval.
        if len(array) < 2:
            return 0.0
        return float(1.96 * array.std(ddof=1) / np.sqrt(len(array)))
    if stat == "count":
        return float(len(array))
    raise ValueError(f"unknown statistic {stat!r}; known: {', '.join(AGGREGATE_STATS)}")


class ResultSet:
    """An ordered collection of :class:`StudyRun` records (see module doc)."""

    def __init__(self, runs: Iterable[StudyRun], name: str = "") -> None:
        self.runs: List[StudyRun] = list(runs)
        self.name = name

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[StudyRun]:
        return iter(self.runs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultSet(name={self.name!r}, runs={len(self.runs)})"

    @property
    def axis_names(self) -> Tuple[str, ...]:
        """Coordinate axes of the records (empty for an empty set)."""
        if not self.runs:
            return ()
        return tuple(self.runs[0].coords)

    @property
    def results(self) -> List[SimulationResult]:
        """The raw simulation results, in run order."""
        return [run.result for run in self.runs]

    def coordinates(self, axis: str) -> List[Any]:
        """Distinct values of ``axis`` in first-occurrence order."""
        seen: "OrderedDict[Any, None]" = OrderedDict()
        for run in self.runs:
            seen.setdefault(run.coords[axis])
        return list(seen)

    # -- selection -----------------------------------------------------------

    def filter(
        self,
        predicate: Optional[Callable[[StudyRun], bool]] = None,
        **coords: Any,
    ) -> "ResultSet":
        """Runs matching every given coordinate (and the predicate, if any).

        A coordinate value may be a single value or a set/list/tuple of
        admissible values.  Unknown axis names raise ``KeyError`` rather
        than silently matching nothing.
        """
        if self.runs:
            known = set(self.runs[0].coords)
            unknown = set(coords) - known
            if unknown:
                raise KeyError(
                    f"unknown axes {sorted(unknown)}; known: {sorted(known)}"
                )

        def matches(run: StudyRun) -> bool:
            for axis, wanted in coords.items():
                value = run.coords[axis]
                if isinstance(wanted, (set, frozenset, list, tuple)):
                    if value not in wanted:
                        return False
                elif value != wanted:
                    return False
            return predicate(run) if predicate is not None else True

        return ResultSet([run for run in self.runs if matches(run)], name=self.name)

    def group_by(self, *axes: str) -> "OrderedDict[Tuple[Any, ...], ResultSet]":
        """Partition into sub-sets keyed by the given axes' value tuples.

        Groups appear in first-occurrence order; runs keep their order
        within each group.
        """
        if not axes:
            raise ValueError("group_by needs at least one axis name")
        grouped: "OrderedDict[Tuple[Any, ...], List[StudyRun]]" = OrderedDict()
        for run in self.runs:
            key = tuple(run.coords[axis] for axis in axes)
            grouped.setdefault(key, []).append(run)
        return OrderedDict(
            (key, ResultSet(runs, name=self.name)) for key, runs in grouped.items()
        )

    # -- metrics and aggregation ---------------------------------------------

    def values(self, metric: MetricLike) -> List[float]:
        """The metric evaluated on every run, in run order."""
        return [_metric_value(run.result, metric) for run in self.runs]

    def mean(self, metric: MetricLike) -> float:
        """Mean of ``metric`` over the whole set (numpy semantics)."""
        return _aggregate(self.values(metric), "mean")

    def aggregate(
        self,
        metrics: Sequence[MetricLike] = ("mean_flowtime", "weighted_mean_flowtime"),
        *,
        over: str = "seed",
        by: Optional[Sequence[str]] = None,
        stats: Sequence[str] = ("mean",),
    ) -> List[Dict[str, Any]]:
        """Collapse the ``over`` axis into statistics, one tidy row per group.

        ``by`` defaults to every axis except ``over``; each output row
        carries the group's coordinates plus ``<metric>_<stat>`` columns
        (a bare ``<metric>`` column when the only statistic is ``mean``).
        """
        if by is None:
            by = [axis for axis in self.axis_names if axis != over]
        rows: List[Dict[str, Any]] = []
        groups = (
            self.group_by(*by) if by else OrderedDict([((), self)])
        )
        bare = len(stats) == 1 and stats[0] == "mean"
        for key, group in groups.items():
            row: Dict[str, Any] = dict(zip(by, key))
            for metric in metrics:
                metric_values = group.values(metric)
                for stat in stats:
                    column = (
                        _metric_name(metric)
                        if bare
                        else f"{_metric_name(metric)}_{stat}"
                    )
                    row[column] = _aggregate(metric_values, stat)
            rows.append(row)
        return rows

    # -- export ----------------------------------------------------------------

    def to_records(
        self, metrics: Sequence[MetricLike] = DEFAULT_METRICS
    ) -> List[Dict[str, Any]]:
        """Tidy per-run rows: axis coordinates plus the chosen metrics."""
        return [run.record(metrics) for run in self.runs]

    def to_csv(
        self,
        path: Optional[str] = None,
        *,
        metrics: Sequence[MetricLike] = DEFAULT_METRICS,
    ) -> str:
        """Render (and optionally write) the records as CSV.

        Floats are written with ``repr`` (exact round-trip), so two
        bit-identical result sets export byte-identical CSV.
        """
        records = self.to_records(metrics)
        buffer = io.StringIO()
        if records:
            writer = csv.DictWriter(
                buffer, fieldnames=list(records[0]), lineterminator="\n"
            )
            writer.writeheader()
            for record in records:
                writer.writerow({key: repr(v) if isinstance(v, float) else v
                                 for key, v in record.items()})
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", newline="") as handle:
                handle.write(text)
        return text

    def to_json(
        self,
        path: Optional[str] = None,
        *,
        metrics: Sequence[MetricLike] = DEFAULT_METRICS,
    ) -> str:
        """Render (and optionally write) the records as a JSON array."""
        text = json.dumps(self.to_records(metrics), indent=2, sort_keys=False)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text

    # -- identity ---------------------------------------------------------------

    def fingerprint(self) -> str:
        """SHA-256 over every run's coordinates and result fingerprint.

        Equal fingerprints mean the two sets contain bit-identical results
        at identical coordinates in identical order (wall-clock runtime
        excluded).
        """
        return resultset_fingerprint(
            (run.coords.items(), run.result.fingerprint()) for run in self.runs
        )


def resultset_fingerprint(
    rows: Iterable[Tuple[Iterable[Tuple[str, Any]], str]],
) -> str:
    """SHA-256 over ``(coordinate pairs, result fingerprint)`` rows, in order.

    The one hashing routine behind :meth:`ResultSet.fingerprint`.  A caller
    that already holds each result's
    :meth:`~repro.simulation.metrics.SimulationResult.fingerprint` (the
    sweep service's registry) passes it here instead of re-serialising the
    result.
    """
    digest = hashlib.sha256()
    for coords, result_fingerprint in rows:
        text = json.dumps({key: repr(v) for key, v in coords}, sort_keys=True)
        digest.update(text.encode("utf-8"))
        digest.update(result_fingerprint.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()
