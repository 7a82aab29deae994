"""Differential tests for the ``sample_batch`` RNG-consumption contract.

``DurationDistribution.sample_batch(rng, n)`` must advance the generator
exactly as ``n`` successive size-1 draws would and return the same values
in the same order (see its docstring).  The engine's arrival pre-sampling,
the stream pump and ``Trace.statistics`` all rely on this to batch draws
without moving a single simulation fingerprint.  Each case here compares
the batched draw against the per-task path *and* compares the final
generator states, so a distribution whose vectorized draw consumed a
different number of bits -- even one returning identical values -- fails.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation import ExperimentRunner, RunSpec, SchedulerSpec
from repro.workload.distributions import (
    BoundedPareto,
    Deterministic,
    Empirical,
    Exponential,
    Floored,
    LogNormal,
    ShiftedExponential,
    TruncatedNormal,
    Uniform,
)
from repro.workload.stream import (
    StreamSpec,
    stream_dag_chain_jobs,
    stream_heavy_tail_jobs,
    stream_uniform_jobs,
)

#: Every concrete distribution shape the workload layer can produce,
#: including the wrapper combinators (scaled / floored) used by the
#: straggler models and the Google-trace generator.
DISTRIBUTIONS = [
    pytest.param(Deterministic(7.5), id="deterministic"),
    pytest.param(Uniform(2.0, 9.0), id="uniform"),
    pytest.param(Exponential(4.0), id="exponential"),
    pytest.param(ShiftedExponential(1.5, 3.0), id="shifted-exponential"),
    pytest.param(BoundedPareto(1.0, 50.0, 1.2), id="bounded-pareto"),
    pytest.param(LogNormal(10.0, 6.0), id="lognormal"),
    pytest.param(LogNormal(10.0, 0.0), id="lognormal-degenerate"),
    pytest.param(TruncatedNormal(5.0, 2.0), id="truncated-normal"),
    pytest.param(Floored(LogNormal(20.0, 30.0), 12.8), id="floored-lognormal"),
    pytest.param(Empirical([3.0, 5.5, 8.0, 13.0]), id="empirical"),
    pytest.param(BoundedPareto(1.0, 50.0, 1.2).scaled(2.5), id="scaled-pareto"),
]


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_batch_equals_sequential_draws_and_rng_state(dist, n):
    batched_rng = np.random.default_rng(1234)
    sequential_rng = np.random.default_rng(1234)
    batched = dist.sample_batch(batched_rng, n)
    sequential = np.array([dist.sample_one(sequential_rng) for _ in range(n)])
    assert np.array_equal(batched, sequential)
    # Same values is necessary but not sufficient: the batched draw must
    # also leave the generator in the identical state, or the *next*
    # consumer of the shared stream diverges.
    assert (
        batched_rng.bit_generator.state == sequential_rng.bit_generator.state
    )


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_batch_split_and_fusion_are_invisible(dist):
    n, split = 32, 13
    fused_rng = np.random.default_rng(99)
    split_rng = np.random.default_rng(99)
    fused = dist.sample_batch(fused_rng, n)
    parts = np.concatenate(
        [dist.sample_batch(split_rng, split), dist.sample_batch(split_rng, n - split)]
    )
    assert np.array_equal(fused, parts)
    assert fused_rng.bit_generator.state == split_rng.bit_generator.state


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_sample_list_matches_sample_batch(dist):
    list_rng = np.random.default_rng(7)
    batch_rng = np.random.default_rng(7)
    assert dist.sample_list(list_rng, 17) == dist.sample_batch(batch_rng, 17).tolist()
    assert list_rng.bit_generator.state == batch_rng.bit_generator.state


#: End-to-end streams whose engine runs consume the batched path at every
#: arrival: a flat two-stage stream, a multi-round DAG chain (per-round
#: lognormal durations) and a heavy-tailed stream (bounded-Pareto task
#: counts, lognormal durations).
_STREAM_CASES = [
    pytest.param(
        StreamSpec(
            factory=stream_uniform_jobs,
            num_jobs=60,
            kwargs={"tasks_per_job": 4, "reduce_tasks_per_job": 2, "inter_arrival": 3.0},
            name="uniform-diff",
        ),
        id="uniform-stream",
    ),
    pytest.param(
        StreamSpec(
            factory=stream_dag_chain_jobs,
            num_jobs=40,
            kwargs={
                "num_rounds": 3,
                "mean_tasks_per_round": 3.0,
                "arrival_rate": 0.2,
                "seed": 11,
            },
            name="dag-chain-diff",
        ),
        id="dag-chain-stream",
    ),
    pytest.param(
        StreamSpec(
            factory=stream_heavy_tail_jobs,
            num_jobs=40,
            kwargs={"arrival_rate": 0.15, "max_tasks": 40, "seed": 5},
            name="heavy-tail-diff",
        ),
        id="heavy-tail-stream",
    ),
]


@pytest.mark.parametrize("spec", _STREAM_CASES)
def test_engine_batched_sampling_identical_serial_vs_pooled(spec):
    run = RunSpec(
        trace=spec,
        scheduler=SchedulerSpec("FIFO"),
        num_machines=8,
        seed=3,
    )
    serial = ExperimentRunner(workers=1).run([run])[0]
    pooled = ExperimentRunner(workers=2).run([run])[0]
    assert serial.fingerprint() == pooled.fingerprint()
    assert serial.num_jobs == spec.num_jobs
