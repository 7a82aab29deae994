"""Task-duration distributions with analytically known first and second moments.

The paper's scheduling algorithms (Section III) assume only that the *mean*
``E_i^c`` and *standard deviation* ``sigma_i^c`` of task durations within each
job phase are known a priori.  Every distribution here therefore exposes
``mean`` and ``std`` properties that the schedulers may read, and a
``sample`` method that only the simulator may call (it plays the role of the
physical cluster drawing actual task durations).

The heavy-tailed distributions (:class:`BoundedPareto`, :class:`LogNormal`)
are the ones observed in production MapReduce traces [4, 26]; they are what
creates stragglers in the first place.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.checks import check_count, check_range, check_real

__all__ = [
    "DurationDistribution",
    "Deterministic",
    "Uniform",
    "Exponential",
    "ShiftedExponential",
    "BoundedPareto",
    "LogNormal",
    "TruncatedNormal",
    "Empirical",
    "Floored",
]


class DurationDistribution(ABC):
    """A non-negative random variable describing one task's workload.

    Subclasses must guarantee that every sample is strictly positive: a task
    with zero workload would complete instantaneously and break the
    time-slotted semantics of the simulator.
    """

    @property
    @abstractmethod
    def mean(self) -> float:
        """First moment of the distribution (the ``E_i^c`` of the paper)."""

    @property
    @abstractmethod
    def std(self) -> float:
        """Standard deviation of the distribution (the ``sigma_i^c``)."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` independent workloads.

        Parameters
        ----------
        rng:
            The simulator-owned random generator.  Schedulers never call this.
        size:
            Number of independent draws.
        """

    def sample_one(self, rng: np.random.Generator) -> float:
        """Draw a single workload as a Python float."""
        return float(self.sample(rng, 1)[0])

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` workloads in one vectorized call.

        RNG-consumption contract
        ------------------------
        ``sample_batch(rng, n)`` must advance ``rng`` exactly as ``n``
        successive ``sample(rng, 1)`` calls would, and return the same
        values in the same order.  Batching is then *invisible* to every
        consumer: splitting one batch into two, fusing adjacent batches,
        or replacing a per-task sampling loop with one batched draw
        leaves the stream of drawn durations -- and therefore every
        simulation fingerprint -- bit-identical.

        The default delegates to :meth:`sample`, which satisfies the
        contract for every distribution in this module: each implements
        ``sample`` as a single vectorized ``numpy.random.Generator``
        call, and the Generator fills its output element by element from
        the underlying bit stream, so a size-``n`` draw consumes exactly
        the bits of ``n`` size-1 draws (asserted per distribution by
        ``tests/test_sample_batch.py``).  A subclass whose ``sample``
        issues size-*dependent* draws must override this method before it
        can be used on the batched paths (engine arrival pre-sampling and
        launch-request top-ups, stream generation, trace materialisation).
        """
        return self.sample(rng, size)

    def sample_list(self, rng: np.random.Generator, size: int) -> list:
        """Draw ``size`` workloads as a plain Python list.

        Engine hot-path helper: semantically ``sample_batch(...).tolist()``
        and bound by the same RNG-consumption contract.  Subclasses that
        consume no randomness (:class:`Deterministic`) may override it to
        skip the numpy round-trip entirely -- permitted exactly because no
        RNG draw is saved or reordered by doing so.
        """
        return self.sample_batch(rng, size).tolist()

    @property
    def variance(self) -> float:
        """Second central moment."""
        return self.std**2

    @property
    def coefficient_of_variation(self) -> float:
        """``std / mean`` -- the paper's straggler severity knob."""
        if self.mean == 0:
            return 0.0
        return self.std / self.mean

    def scaled(self, factor: float) -> "DurationDistribution":
        """Return a distribution whose samples are multiplied by ``factor``."""
        return _Scaled(self, check_real("scale factor", factor, positive=True))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(mean={self.mean:.3f}, std={self.std:.3f})"
        )


class _Scaled(DurationDistribution):
    """A distribution multiplied by a positive constant."""

    def __init__(self, base: DurationDistribution, factor: float) -> None:
        self._base = base
        self._factor = float(factor)

    @property
    def mean(self) -> float:
        """First moment ``E`` of the distribution."""
        return self._base.mean * self._factor

    @property
    def std(self) -> float:
        """Standard deviation ``sigma`` of the distribution."""
        return self._base.std * self._factor

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` independent workloads (see base class)."""
        return self._base.sample(rng, size) * self._factor


class Deterministic(DurationDistribution):
    """A constant workload -- the "negligible variance" regime of Section IV.

    Under this distribution the offline Algorithm 1 is provably 2-competitive
    (Remark 2 of the paper), which the test-suite verifies empirically.
    """

    def __init__(self, value: float) -> None:
        self._value = check_real("deterministic workload", value, positive=True)

    @property
    def mean(self) -> float:
        """First moment ``E`` of the distribution."""
        return self._value

    @property
    def std(self) -> float:
        """Standard deviation ``sigma`` of the distribution."""
        return 0.0

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` independent workloads (see base class)."""
        return np.full(size, self._value)

    def sample_list(self, rng: np.random.Generator, size: int) -> list:
        """Constant workloads without the numpy round-trip (no RNG use)."""
        return [self._value] * size


class Uniform(DurationDistribution):
    """Uniform workload on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        self._low = check_real("low bound", low, positive=True)
        self._high = check_range("high", high, self._low)

    @property
    def low(self) -> float:
        """Lower bound of the support."""
        return self._low

    @property
    def high(self) -> float:
        """Upper bound of the support."""
        return self._high

    @property
    def mean(self) -> float:
        """First moment ``E`` of the distribution."""
        return (self._low + self._high) / 2.0

    @property
    def std(self) -> float:
        """Standard deviation ``sigma`` of the distribution."""
        return (self._high - self._low) / math.sqrt(12.0)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` independent workloads (see base class)."""
        return rng.uniform(self._low, self._high, size)


class Exponential(DurationDistribution):
    """Exponential workload with the given mean."""

    def __init__(self, mean: float) -> None:
        self._mean = check_real("mean", mean, positive=True)

    @property
    def mean(self) -> float:
        """First moment ``E`` of the distribution."""
        return self._mean

    @property
    def std(self) -> float:
        """Standard deviation ``sigma`` of the distribution."""
        return self._mean

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` independent workloads (see base class)."""
        samples = rng.exponential(self._mean, size)
        # Guard against the measure-zero event of a zero draw.
        return np.maximum(samples, np.finfo(float).tiny)


class ShiftedExponential(DurationDistribution):
    """``shift + Exponential(scale)`` -- a minimum service time plus a tail.

    Models tasks that always pay a fixed startup cost (JVM launch, input
    split fetch) before the data-dependent part of the work.
    """

    def __init__(self, shift: float, scale: float) -> None:
        self._shift = check_real("shift", shift)
        self._scale = check_real("scale", scale, positive=True)

    @property
    def shift(self) -> float:
        """Deterministic minimum workload (the shift)."""
        return self._shift

    @property
    def scale(self) -> float:
        """Mean of the exponential part."""
        return self._scale

    @property
    def mean(self) -> float:
        """First moment ``E`` of the distribution."""
        return self._shift + self._scale

    @property
    def std(self) -> float:
        """Standard deviation ``sigma`` of the distribution."""
        return self._scale

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` independent workloads (see base class)."""
        samples = self._shift + rng.exponential(self._scale, size)
        return np.maximum(samples, np.finfo(float).tiny)


class BoundedPareto(DurationDistribution):
    """Pareto distribution truncated to ``[minimum, maximum]``.

    The paper's Section III-A derives the speedup function from a (pure)
    Pareto tail ``Pr(p < t) = 1 - (mu / t)^alpha``.  Real traces are bounded
    above, so we use the bounded Pareto, whose moments are available in
    closed form.  ``alpha`` close to 1 gives the extreme heavy tail (severe
    stragglers); large ``alpha`` approaches :class:`Deterministic`.
    """

    def __init__(self, minimum: float, maximum: float, alpha: float) -> None:
        self._low = check_real("minimum", minimum, positive=True)
        self._high = check_range("maximum", maximum, self._low, closed="neither")
        self._alpha = check_real("alpha", alpha, positive=True)
        self._mean, self._std = self._moments()

    @property
    def minimum(self) -> float:
        """Lower bound of the support."""
        return self._low

    @property
    def maximum(self) -> float:
        """Upper bound of the support."""
        return self._high

    @property
    def alpha(self) -> float:
        """Pareto tail exponent."""
        return self._alpha

    def _raw_moment(self, k: int) -> float:
        """k-th raw moment of the bounded Pareto."""
        low, high, alpha = self._low, self._high, self._alpha
        ratio = 1.0 - (low / high) ** alpha
        if ratio == 0.0:
            # A shape below about 1e-16 rounds the truncation mass to zero:
            # use the shape-0 (log-uniform) limit.
            return (high**k - low**k) / (k * math.log(high / low))
        if math.isclose(alpha, k):
            # Degenerate case: the generic formula has a 0/0; use the limit.
            return alpha * low**alpha * math.log(high / low) / ratio
        numerator = alpha * (low**k) * (1.0 - (low / high) ** (alpha - k))
        return numerator / ((alpha - k) * ratio)

    def _moments(self) -> tuple[float, float]:
        m1 = self._raw_moment(1)
        m2 = self._raw_moment(2)
        variance = max(m2 - m1 * m1, 0.0)
        return m1, math.sqrt(variance)

    @property
    def mean(self) -> float:
        """First moment ``E`` of the distribution."""
        return self._mean

    @property
    def std(self) -> float:
        """Standard deviation ``sigma`` of the distribution."""
        return self._std

    def quantile(self, u) -> np.ndarray:
        """Inverse CDF evaluated at ``u`` (scalar or array in ``[0, 1)``)."""
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr < 0.0) or np.any(u_arr >= 1.0):
            raise ValueError("quantile argument must lie in [0, 1)")
        low_a = self._low**self._alpha
        high_a = self._high**self._alpha
        mass = 1.0 - low_a / high_a
        if mass == 0.0:
            # The shape-0 (log-uniform) limit, as in _raw_moment.
            return self._low * np.power(self._high / self._low, u_arr)
        denom = 1.0 - u_arr * mass
        return self._low / np.power(denom, 1.0 / self._alpha)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        # Inverse-CDF sampling of the bounded Pareto.
        """Draw ``size`` independent workloads (see base class)."""
        return self.quantile(rng.uniform(0.0, 1.0, size))

    @classmethod
    def from_mean(
        cls, mean: float, alpha: float, maximum_ratio: float = 50.0
    ) -> "BoundedPareto":
        """Build a bounded Pareto with a target mean.

        The maximum is placed at ``maximum_ratio * minimum`` and the minimum
        is solved numerically so the resulting mean matches ``mean``.
        """
        check_real("mean", mean, positive=True)
        # Mean scales linearly with the minimum, so one probe suffices.
        probe = cls(1.0, maximum_ratio, alpha)
        minimum = mean / probe.mean
        return cls(minimum, minimum * maximum_ratio, alpha)


class LogNormal(DurationDistribution):
    """Log-normal workload parameterised directly by its mean and std.

    Log-normal task durations are a standard fit for the Google trace's
    task-duration histogram; the generator in
    :mod:`repro.workload.google_trace` uses this class for the per-job task
    duration model.
    """

    def __init__(self, mean: float, std: float) -> None:
        self._mean = check_real("mean", mean, positive=True)
        self._std = check_real("std", std)
        if std == 0:
            self._mu = math.log(mean)
            self._sigma = 0.0
        else:
            variance_ratio = 1.0 + (std / mean) ** 2
            self._sigma = math.sqrt(math.log(variance_ratio))
            self._mu = math.log(mean) - 0.5 * self._sigma**2

    @property
    def mean(self) -> float:
        """First moment ``E`` of the distribution."""
        return self._mean

    @property
    def std(self) -> float:
        """Standard deviation ``sigma`` of the distribution."""
        return self._std

    @property
    def mu(self) -> float:
        """Location parameter of the underlying normal."""
        return self._mu

    @property
    def sigma(self) -> float:
        """Scale parameter of the underlying normal."""
        return self._sigma

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` independent workloads (see base class)."""
        if self._sigma == 0.0:
            return np.full(size, self._mean)
        return rng.lognormal(self._mu, self._sigma, size)


class TruncatedNormal(DurationDistribution):
    """Normal distribution truncated below at ``floor`` (default a tiny positive).

    Useful for workloads with mild, symmetric-ish variation.  The reported
    ``mean``/``std`` are the *target* parameters of the untruncated normal;
    for the small coefficients of variation used in the benchmarks the
    truncation bias is negligible, and the scheduler only needs consistent
    moments, not exact ones.
    """

    def __init__(self, mean: float, std: float, floor: float = 1e-6) -> None:
        self._mean = check_real("mean", mean, positive=True)
        self._std = check_real("std", std)
        self._floor = check_real("floor", floor, positive=True)

    @property
    def mean(self) -> float:
        """First moment ``E`` of the distribution."""
        return self._mean

    @property
    def std(self) -> float:
        """Standard deviation ``sigma`` of the distribution."""
        return self._std

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` independent workloads (see base class)."""
        if self._std == 0.0:
            return np.full(size, self._mean)
        samples = rng.normal(self._mean, self._std, size)
        return np.maximum(samples, self._floor)


class Floored(DurationDistribution):
    """Clamp another distribution's samples below at ``floor``.

    Real MapReduce tasks have a minimum service time (container start, split
    fetch); the Google trace's shortest task is 12.8 s.  Wrapping a
    heavy-tailed base distribution in :class:`Floored` reproduces that hard
    minimum.  The reported ``mean``/``std`` are those of the base
    distribution: the clamp only moves a small amount of probability mass
    when the floor sits in the lower tail, and the schedulers treat the
    moments as estimates anyway.
    """

    def __init__(self, base: DurationDistribution, floor: float) -> None:
        self._base = base
        self._floor = check_real("floor", floor, positive=True)

    @property
    def base(self) -> DurationDistribution:
        """The wrapped distribution."""
        return self._base

    @property
    def floor(self) -> float:
        """Minimum workload any sample is clipped to."""
        return self._floor

    @property
    def mean(self) -> float:
        """First moment ``E`` of the distribution."""
        return max(self._base.mean, self._floor)

    @property
    def std(self) -> float:
        """Standard deviation ``sigma`` of the distribution."""
        return self._base.std

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` independent workloads (see base class)."""
        return np.maximum(self._base.sample(rng, size), self._floor)


class Empirical(DurationDistribution):
    """Resampling distribution backed by observed durations.

    This is how a real deployment would estimate the per-phase duration
    distribution from history: the simulator feeds completed-task durations
    into an :class:`Empirical` and clones draw i.i.d. samples from it
    ("the workload for this clone is just drawn independently from the
    estimated distribution", Section VI).
    """

    def __init__(self, samples: Sequence[float]) -> None:
        values = np.asarray(list(samples), dtype=float)
        if values.size == 0:
            raise ValueError("empirical distribution needs at least one sample")
        if not np.all((values > 0) & (values < math.inf)):
            raise ValueError("all empirical samples must be positive and finite")
        self._values = values
        self._mean = float(values.mean())
        self._std = float(values.std(ddof=0))

    @property
    def values(self) -> np.ndarray:
        """The backing samples (read-only copy)."""
        return self._values.copy()

    @property
    def n_samples(self) -> int:
        """Number of empirical samples backing the distribution."""
        return int(self._values.size)

    @property
    def mean(self) -> float:
        """First moment ``E`` of the distribution."""
        return self._mean

    @property
    def std(self) -> float:
        """Standard deviation ``sigma`` of the distribution."""
        return self._std

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` independent workloads (see base class)."""
        return rng.choice(self._values, size=size, replace=True)

    @classmethod
    def from_distribution(
        cls,
        base: DurationDistribution,
        rng: np.random.Generator,
        n_samples: int = 1000,
    ) -> "Empirical":
        """Estimate an empirical distribution by sampling ``base``."""
        check_count("n_samples", n_samples, 1)
        return cls(base.sample(rng, n_samples))
