"""Unit tests for repro.workload.distributions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.workload.distributions import (
    BoundedPareto,
    Deterministic,
    Empirical,
    Exponential,
    LogNormal,
    ShiftedExponential,
    TruncatedNormal,
    Uniform,
)

ALL_DISTRIBUTIONS = [
    Deterministic(10.0),
    Uniform(5.0, 15.0),
    Exponential(10.0),
    ShiftedExponential(2.0, 8.0),
    BoundedPareto(5.0, 500.0, 1.5),
    LogNormal(10.0, 4.0),
    TruncatedNormal(10.0, 2.0),
    Empirical([5.0, 10.0, 15.0, 20.0]),
]


class TestCommonContract:
    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_samples_are_positive(self, dist, rng):
        samples = dist.sample(rng, 500)
        assert samples.shape == (500,)
        assert np.all(samples > 0)

    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_sample_one_returns_float(self, dist, rng):
        value = dist.sample_one(rng)
        assert isinstance(value, float)
        assert value > 0

    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_moments_are_consistent_with_samples(self, dist, rng):
        samples = dist.sample(rng, 60_000)
        # Heavy-tailed distributions converge slowly; a generous tolerance is
        # enough to catch an implementation returning the wrong moment.
        assert samples.mean() == pytest.approx(dist.mean, rel=0.15)

    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_variance_matches_std(self, dist):
        assert dist.variance == pytest.approx(dist.std**2)

    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_scaled_moments(self, dist):
        scaled = dist.scaled(3.0)
        assert scaled.mean == pytest.approx(3.0 * dist.mean)
        assert scaled.std == pytest.approx(3.0 * dist.std)

    def test_scaled_rejects_non_positive_factor(self):
        with pytest.raises(ValueError):
            Deterministic(1.0).scaled(0.0)

    def test_coefficient_of_variation(self):
        dist = LogNormal(10.0, 5.0)
        assert dist.coefficient_of_variation == pytest.approx(0.5)


class TestDeterministic:
    def test_moments(self):
        dist = Deterministic(42.0)
        assert dist.mean == 42.0
        assert dist.std == 0.0

    def test_samples_are_constant(self, rng):
        assert np.all(Deterministic(3.0).sample(rng, 10) == 3.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Deterministic(0.0)
        with pytest.raises(ValueError):
            Deterministic(-1.0)


class TestUniform:
    def test_moments(self):
        dist = Uniform(2.0, 8.0)
        assert dist.mean == pytest.approx(5.0)
        assert dist.std == pytest.approx(6.0 / math.sqrt(12.0))

    def test_samples_within_bounds(self, rng):
        samples = Uniform(2.0, 8.0).sample(rng, 1000)
        assert samples.min() >= 2.0
        assert samples.max() <= 8.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Uniform(0.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(5.0, 4.0)


class TestExponentialFamilies:
    def test_exponential_moments(self):
        dist = Exponential(7.0)
        assert dist.mean == 7.0
        assert dist.std == 7.0

    def test_exponential_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            Exponential(0.0)

    def test_shifted_exponential_moments(self):
        dist = ShiftedExponential(3.0, 4.0)
        assert dist.mean == 7.0
        assert dist.std == 4.0

    def test_shifted_exponential_samples_above_shift(self, rng):
        samples = ShiftedExponential(3.0, 4.0).sample(rng, 1000)
        assert samples.min() >= 3.0

    def test_shifted_exponential_validation(self):
        with pytest.raises(ValueError):
            ShiftedExponential(-1.0, 1.0)
        with pytest.raises(ValueError):
            ShiftedExponential(1.0, 0.0)


class TestBoundedPareto:
    def test_samples_within_support(self, rng):
        dist = BoundedPareto(5.0, 50.0, 1.2)
        samples = dist.sample(rng, 5000)
        assert samples.min() >= 5.0
        assert samples.max() <= 50.0

    def test_mean_between_bounds(self):
        dist = BoundedPareto(5.0, 50.0, 1.2)
        assert 5.0 < dist.mean < 50.0

    def test_larger_alpha_gives_smaller_mean(self):
        light = BoundedPareto(5.0, 500.0, 3.0)
        heavy = BoundedPareto(5.0, 500.0, 1.1)
        assert light.mean < heavy.mean

    def test_alpha_equal_to_moment_order_handled(self):
        # alpha == 1 hits the special case of the first raw moment.
        dist = BoundedPareto(5.0, 500.0, 1.0)
        assert 5.0 < dist.mean < 500.0
        assert dist.std > 0

    def test_vanishing_shape_takes_the_log_uniform_limit(self, rng):
        # 1 - (low / high) ** 1e-17 rounds to 0: the generic moments divided
        # by zero, and every draw came out at the minimum.
        low, high = 12.8, 1769.55
        dist = BoundedPareto(low, high, 1e-17)
        log_ratio = math.log(high / low)
        assert dist.mean == (high - low) / log_ratio
        second = (high**2 - low**2) / (2 * log_ratio)
        assert dist.std == pytest.approx(math.sqrt(second - dist.mean**2))
        samples = dist.sample(rng, 2000)
        assert low <= samples.min() < 1.05 * low
        assert 0.95 * high < samples.max() <= high
        # Half the log-uniform mass lies below the geometric midpoint.
        below = np.mean(samples < math.sqrt(low * high))
        assert below == pytest.approx(0.5, abs=0.05)

    def test_quantile_monotone_and_bounded(self):
        dist = BoundedPareto(5.0, 50.0, 1.5)
        grid = np.linspace(0.0, 0.999, 50)
        values = dist.quantile(grid)
        assert np.all(np.diff(values) >= 0)
        assert values[0] == pytest.approx(5.0)
        assert values[-1] <= 50.0

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BoundedPareto(5.0, 50.0, 1.5).quantile(1.0)

    def test_from_mean_matches_target(self):
        dist = BoundedPareto.from_mean(100.0, alpha=1.3)
        assert dist.mean == pytest.approx(100.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedPareto(0.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            BoundedPareto(10.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            BoundedPareto(1.0, 10.0, 0.0)


class TestLogNormal:
    def test_reported_moments_match_parameters(self):
        dist = LogNormal(100.0, 40.0)
        assert dist.mean == 100.0
        assert dist.std == 40.0

    def test_underlying_parameters_reproduce_moments(self):
        dist = LogNormal(100.0, 40.0)
        implied_mean = math.exp(dist.mu + dist.sigma**2 / 2.0)
        assert implied_mean == pytest.approx(100.0, rel=1e-9)

    def test_zero_std_degenerates_to_constant(self, rng):
        dist = LogNormal(10.0, 0.0)
        assert np.all(dist.sample(rng, 5) == 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LogNormal(0.0, 1.0)
        with pytest.raises(ValueError):
            LogNormal(1.0, -1.0)


class TestTruncatedNormal:
    def test_samples_above_floor(self, rng):
        dist = TruncatedNormal(2.0, 5.0, floor=0.5)
        samples = dist.sample(rng, 2000)
        assert samples.min() >= 0.5

    def test_zero_std_is_constant(self, rng):
        assert np.all(TruncatedNormal(4.0, 0.0).sample(rng, 5) == 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedNormal(0.0, 1.0)
        with pytest.raises(ValueError):
            TruncatedNormal(1.0, -0.1)
        with pytest.raises(ValueError):
            TruncatedNormal(1.0, 1.0, floor=0.0)


class TestFloored:
    def test_samples_never_fall_below_floor(self, rng):
        from repro.workload.distributions import Floored

        dist = Floored(LogNormal(15.0, 10.0), floor=12.8)
        samples = dist.sample(rng, 5000)
        assert samples.min() >= 12.8

    def test_moments_proxy_the_base(self):
        from repro.workload.distributions import Floored

        base = LogNormal(100.0, 20.0)
        dist = Floored(base, floor=12.8)
        assert dist.mean == base.mean
        assert dist.std == base.std
        assert dist.base is base
        assert dist.floor == 12.8

    def test_mean_never_below_floor(self):
        from repro.workload.distributions import Floored

        assert Floored(LogNormal(5.0, 1.0), floor=12.8).mean == 12.8

    def test_validation(self):
        from repro.workload.distributions import Floored

        with pytest.raises(ValueError):
            Floored(Deterministic(1.0), floor=0.0)


class TestEmpirical:
    def test_moments_match_samples(self):
        values = [2.0, 4.0, 6.0, 8.0]
        dist = Empirical(values)
        assert dist.mean == pytest.approx(np.mean(values))
        assert dist.std == pytest.approx(np.std(values))
        assert dist.n_samples == 4

    def test_samples_come_from_support(self, rng):
        values = [2.0, 4.0, 6.0]
        samples = Empirical(values).sample(rng, 100)
        assert set(np.unique(samples)).issubset(set(values))

    def test_values_returns_copy(self):
        dist = Empirical([1.0, 2.0])
        returned = dist.values
        returned[0] = 99.0
        assert dist.values[0] == 1.0

    def test_from_distribution(self, rng):
        base = LogNormal(10.0, 3.0)
        estimated = Empirical.from_distribution(base, rng, n_samples=5000)
        assert estimated.mean == pytest.approx(base.mean, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Empirical([])
        with pytest.raises(ValueError):
            Empirical([1.0, -2.0])
        with pytest.raises(ValueError):
            Empirical.from_distribution(Deterministic(1.0), np.random.default_rng(), 0)
