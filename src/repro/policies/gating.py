"""Stage-readiness launch gating shared by every policy and scheduler.

The precedence rule of Section V-B -- reduce tasks of a job become
launchable only once the job's map phase has *completed* -- generalises to
the stage DAG as: a stage's tasks are launchable once every *predecessor*
stage has completed (the stage is *ready*).  Map→reduce is the 2-node
instance: stage 0 is always ready, stage 1 becomes ready when stage 0
completes.  This module is the single implementation; both the policy
kernel and the offline Algorithm 1 call these helpers.

``allow_early_reduce=True`` switches to the park-on-machine behaviour of
the offline algorithm (copies of not-yet-ready stages may occupy machines
before their predecessors complete, making no progress), which SRPTMS+C
exposes as the ``schedule_reduce_before_map_completion`` ablation knob.
Ready stages are always preferred: parking candidates are only offered
when no ready stage has unscheduled work, exactly the maps-first rule of
the two-phase model.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.workload.job import Job, Task

__all__ = ["launchable_tasks", "schedulable_jobs"]


def launchable_tasks(job: Job, allow_early_reduce: bool = False) -> List[Task]:
    """Unscheduled tasks of ``job`` that can run right now (ready stages first).

    Returns the unscheduled tasks of every *ready* stage in stage order.
    Only when no ready stage has unscheduled work does
    ``allow_early_reduce`` offer the unscheduled tasks of not-yet-ready
    stages (launched copies park on their machines without progressing).
    """
    unscheduled = job._unscheduled
    ready = job._stage_ready
    stage_lists = job.stage_tasks
    if job._unscheduled_ready > 0:
        tasks: List[Task] = []
        for stage, stage_list in enumerate(stage_lists):
            count = unscheduled[stage]
            if count and ready[stage]:
                if count == len(stage_list):
                    # Every task of the stage is unscheduled (the common
                    # case: a freshly arrived or freshly readied stage);
                    # skip the per-task filter.
                    tasks.extend(stage_list)
                else:
                    tasks.extend(
                        task
                        for task in stage_list
                        if task.completion_time is None
                        and task._num_active == 0
                    )
        return tasks
    if allow_early_reduce and job._unscheduled_total > 0:
        tasks = []
        for stage, stage_list in enumerate(stage_lists):
            count = unscheduled[stage]
            if count and not ready[stage]:
                if count == len(stage_list):
                    tasks.extend(stage_list)
                else:
                    tasks.extend(
                        task
                        for task in stage_list
                        if task.completion_time is None
                        and task._num_active == 0
                    )
        return tasks
    return []


def schedulable_jobs(
    jobs: Iterable[Job], allow_early_reduce: bool = False
) -> List[Job]:
    """``psi^s(l)``: jobs with unscheduled, launchable tasks, in given order.

    A job is kept exactly when :func:`launchable_tasks` would be non-empty.
    The test reads the raw O(1) per-job counters and never builds task
    lists, so this is O(jobs) per decision point regardless of job sizes.
    """
    if allow_early_reduce:
        return [
            job
            for job in jobs
            if job._unscheduled_ready > 0 or job._unscheduled_total > 0
        ]
    return [job for job in jobs if job._unscheduled_ready > 0]
