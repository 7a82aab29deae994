"""Straggler mitigation: proactive cloning vs reactive detection vs nothing.

Run with::

    python examples/straggler_mitigation.py

Each machine is 5x slower with probability 1/4 (the paper's "partially
failing machines" straggler cause, as a ``BimodalSpeeds`` scenario).  The
script compares:

* SRPTMS+C            -- proactive cloning + SRPT machine sharing,
* SRPTMS (no cloning) -- the same sharing rule with cloning disabled,
* Mantri              -- reactive, detection-based speculative execution,
* Fair                -- no mitigation at all,

showing how much of the straggler-induced flowtime each strategy recovers.
"""

from __future__ import annotations

from repro import make_scheduler, run_simulation
from repro.scenarios import BimodalSpeeds, ScenarioSpec
from repro.workload import bimodal_trace


def main() -> None:
    trace = bimodal_trace(
        num_small_jobs=60,
        num_large_jobs=8,
        small_tasks=4,
        large_tasks=60,
        small_duration=10.0,
        large_duration=40.0,
        cv=0.4,
        horizon=600.0,
        seed=7,
    )
    machines = 80
    slow_quarter = ScenarioSpec(speeds=BimodalSpeeds(slow_fraction=0.25, slow_speed=0.2))
    print(f"workload: {trace}")
    print(f"stragglers: each of the {machines} machines runs 5x slower with probability 1/4\n")

    schedulers = [
        make_scheduler("SRPTMS+C", epsilon=0.6, r=3.0),
        make_scheduler("SRPTMS+C", epsilon=0.6, r=3.0, cloning_enabled=False),
        make_scheduler("Mantri"),
        make_scheduler("Fair"),
    ]
    header = f"{'scheduler':<12} {'mean':>10} {'weighted':>10} {'p95':>10} {'clones':>8}"
    print(header)
    for scheduler in schedulers:
        result = run_simulation(
            trace,
            scheduler,
            num_machines=machines,
            seed=1,
            scenario=slow_quarter,
        )
        print(
            f"{result.scheduler_name:<12} {result.mean_flowtime:>10.1f} "
            f"{result.weighted_mean_flowtime:>10.1f} "
            f"{result.percentile_flowtime(95):>10.1f} "
            f"{result.cloning_ratio:>8.2f}"
        )


if __name__ == "__main__":
    main()
