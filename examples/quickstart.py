"""Quickstart: simulate SRPTMS+C on a small synthetic MapReduce workload.

Run with::

    python examples/quickstart.py

It builds a compact online workload (Poisson arrivals, log-normal task
durations), schedules it with the paper's SRPTMS+C algorithm and with plain
FIFO, and prints the headline flowtime metrics of both.
"""

from __future__ import annotations

from repro import make_scheduler, run_simulation
from repro.workload import poisson_trace


def main() -> None:
    trace = poisson_trace(
        num_jobs=200,
        arrival_rate=0.4,          # jobs per second
        mean_tasks_per_job=8,
        mean_duration=12.0,        # seconds per task
        cv=0.6,                    # within-job duration variability (stragglers)
        seed=42,
    )
    print(f"workload: {trace}")
    print(f"offered load on 60 machines: {trace.expected_load(60):.2f}\n")

    for scheduler in (make_scheduler("SRPTMS+C", epsilon=0.6, r=3.0), make_scheduler("FIFO")):
        result = run_simulation(trace, scheduler, num_machines=60, seed=0)
        print(f"{result.scheduler_name}")
        print(f"  mean flowtime           : {result.mean_flowtime:8.1f} s")
        print(f"  weighted mean flowtime  : {result.weighted_mean_flowtime:8.1f} s")
        print(f"  jobs done within 60 s   : {result.fraction_completed_within(60):8.1%}")
        print(f"  copies per task (clones): {result.cloning_ratio:8.2f}")
        print(f"  redundant work fraction : {result.redundant_work_fraction:8.1%}\n")


if __name__ == "__main__":
    main()
