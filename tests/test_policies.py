"""The policy kernel: gating, compositions, bit-identity, redundancy counter.

The heart of this suite is the bit-identity contract: every named
scheduler maps to an ordering x allocation x redundancy composition
(:data:`repro.policies.NAMED_COMPOSITIONS`), and running the named
scheduler and its plain composition triple over the same spec produces
byte-identical :class:`SimulationResult`s -- serially, on a process pool,
and under adversity scenarios.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro.policies import (
    ALLOCATION_POLICIES,
    NAMED_COMPOSITIONS,
    ORDERING_POLICIES,
    REDUNDANCY_POLICIES,
    EpsilonShareAllocation,
    LATESpeculation,
    MantriSpeculation,
    NoRedundancy,
    PaperCloning,
    SCACloning,
    SRPTOrdering,
    composition_label,
    launchable_tasks,
    make_allocation,
    make_ordering,
    make_redundancy,
    make_scheduler,
    parse_composition,
    schedulable_jobs,
)
from repro.scenarios import BimodalSpeeds, ScenarioSpec, scenario_preset
from repro.simulation import (
    ExperimentRunner,
    RunSpec,
    SchedulerSpec,
    run_simulation,
)
from repro.simulation.scheduler_api import ComposedScheduler
from repro.study import study_from_toml
from repro.workload.generators import bulk_arrival_trace
from repro.workload.job import Job, JobSpec
from repro.workload.distributions import Deterministic, LogNormal
from repro.workload.trace import Trace


#: Composition key -> (named scheduler spec, triple kwargs).  The triple
#: side pins the named result-table name so the fingerprints (which include
#: ``scheduler_name``) are comparable bit for bit.
LEGACY_EQUIVALENTS = {
    "fifo": (SchedulerSpec("FIFO"), {"name": "FIFO"}),
    "fair": (SchedulerSpec("Fair"), {"name": "Fair"}),
    "srpt": (SchedulerSpec("SRPT", {"r": 2.0}), {"r": 2.0, "name": "SRPT"}),
    "sca": (SchedulerSpec("SCA"), {"name": "SCA"}),
    "late": (SchedulerSpec("LATE"), {"name": "LATE"}),
    "mantri": (SchedulerSpec("Mantri"), {"name": "Mantri"}),
    "srptms_c": (
        SchedulerSpec("SRPTMS+C", {"epsilon": 0.6, "r": 3.0}),
        {"epsilon": 0.6, "r": 3.0, "name": "SRPTMS+C"},
    ),
}


def composed_spec(legacy_name: str) -> SchedulerSpec:
    """The composition-triple spec equivalent to one named scheduler."""
    _, kwargs = LEGACY_EQUIVALENTS[legacy_name]
    return SchedulerSpec(composition_label(*NAMED_COMPOSITIONS[legacy_name]), kwargs)


SCENARIOS = {
    "homogeneous": None,
    "adversity": scenario_preset("failures"),
}


class TestLegacyCompositionBitIdentity:
    """Acceptance: every legacy name == its composition, bit for bit."""

    @pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
    @pytest.mark.parametrize("legacy_name", sorted(NAMED_COMPOSITIONS))
    def test_serial_bit_identity(
        self, legacy_name, scenario_name, small_online_trace
    ):
        scenario = SCENARIOS[scenario_name]
        legacy_spec, _ = LEGACY_EQUIVALENTS[legacy_name]
        legacy = run_simulation(
            small_online_trace,
            legacy_spec.build(),
            num_machines=10,
            seed=3,
            scenario=scenario,
        )
        composed = run_simulation(
            small_online_trace,
            composed_spec(legacy_name).build(),
            num_machines=10,
            seed=3,
            scenario=scenario,
        )
        assert legacy.fingerprint() == composed.fingerprint()

    @pytest.mark.parametrize("legacy_name", sorted(NAMED_COMPOSITIONS))
    def test_pooled_bit_identity(self, legacy_name, small_online_trace):
        """workers=2 pool vs serial, legacy vs composed: all four equal."""
        scenario = scenario_preset("uniform-hetero")
        specs = [
            RunSpec(
                trace=small_online_trace,
                scheduler=scheduler,
                num_machines=10,
                seed=seed,
                scenario=scenario,
            )
            for scheduler in (
                LEGACY_EQUIVALENTS[legacy_name][0],
                composed_spec(legacy_name),
            )
            for seed in (0, 1)
        ]
        serial = ExperimentRunner(workers=1).run(specs)
        pooled = ExperimentRunner(workers=2).run(specs)
        for one, two in zip(serial, pooled):
            assert one.fingerprint() == two.fingerprint()
        # legacy (first two) vs composed (last two), per seed
        assert serial[0].fingerprint() == serial[2].fingerprint()
        assert serial[1].fingerprint() == serial[3].fingerprint()


class TestNoRedundancyProperty:
    """Satellite: redundancy=none never launches a second concurrent copy."""

    @pytest.mark.parametrize("allocation", sorted(ALLOCATION_POLICIES))
    @pytest.mark.parametrize("ordering", sorted(ORDERING_POLICIES))
    def test_never_a_second_copy(self, ordering, allocation, small_online_trace):
        scheduler = ComposedScheduler(ordering, allocation, "none", epsilon=0.6)
        result = run_simulation(
            small_online_trace, scheduler, num_machines=12, seed=0
        )
        assert result.num_jobs == small_online_trace.num_jobs
        assert result.redundant_copies_launched == 0
        # Without failures, no redundancy means exactly one copy per task.
        assert result.total_copies == result.total_tasks

    @pytest.mark.parametrize("ordering", sorted(ORDERING_POLICIES))
    def test_failure_redispatch_is_not_redundant(
        self, ordering, small_online_trace
    ):
        """Replacement copies of failure-killed tasks do not count."""
        scheduler = ComposedScheduler(ordering, "greedy", "none")
        result = run_simulation(
            small_online_trace,
            scheduler,
            num_machines=12,
            seed=0,
            scenario=scenario_preset("failures"),
        )
        assert result.redundant_copies_launched == 0
        # Failure kills force relaunches: copies exceed tasks by exactly
        # the number of killed copies, none of which were redundant.
        assert (
            result.total_copies
            == result.total_tasks + result.copies_killed_by_failure
        )


class TestRedundantCopiesCounter:
    """Satellite: one unified counter on SimulationResult for everyone."""

    def test_speculative_schedulers_match_policy_counter(self):
        short = LogNormal(10.0, 1.0)
        trace = Trace(
            [
                JobSpec(
                    job_id=0,
                    arrival_time=0.0,
                    weight=1.0,
                    num_map_tasks=30,
                    num_reduce_tasks=0,
                    map_duration=short,
                    reduce_duration=short,
                )
            ]
        )
        scheduler = make_scheduler("Mantri", delta=0.25, tick_interval=2.0, min_samples=3)
        result = run_simulation(
            trace,
            scheduler,
            num_machines=8,
            seed=1,
            scenario=ScenarioSpec(
                speeds=BimodalSpeeds(slow_fraction=0.25, slow_speed=0.05)
            ),
        )
        assert result.redundant_copies_launched > 0
        assert (
            result.redundant_copies_launched
            == scheduler.redundancy.copies_launched
        )

    def test_cloning_schedulers_count_clones(self, small_online_trace):
        result = run_simulation(
            small_online_trace,
            make_scheduler("SRPTMS+C", epsilon=0.6, r=3.0),
            num_machines=12,
            seed=0,
        )
        # No failures: every copy beyond the first per task is redundant.
        assert (
            result.redundant_copies_launched
            == result.total_copies - result.total_tasks
        )
        assert result.redundant_copies_launched > 0

    def test_counter_in_summary_and_canonical_dict(self, small_online_trace):
        result = run_simulation(
            small_online_trace, make_scheduler("FIFO"), num_machines=12, seed=0
        )
        assert result.summary()["redundant_copies_launched"] == 0
        assert result.canonical_dict()["redundant_copies_launched"] == 0


class TestGating:
    """Satellite: the ONE reduce-gating helper."""

    def make_job(self, maps=2, reduces=2):
        spec = JobSpec(
            job_id=0,
            arrival_time=0.0,
            weight=1.0,
            num_map_tasks=maps,
            num_reduce_tasks=reduces,
            map_duration=Deterministic(10.0),
            reduce_duration=Deterministic(10.0),
        )
        return Job.from_spec(spec)

    def test_maps_gate_reduces(self):
        job = self.make_job()
        assert schedulable_jobs([job]) == [job]
        assert [t.stage for t in launchable_tasks(job)] == [0] * 2

    def test_no_maps_means_reduces_launchable(self):
        job = self.make_job(maps=0, reduces=2)
        # No map tasks: the map phase is trivially complete.
        assert schedulable_jobs([job]) == [job]
        assert [t.stage for t in launchable_tasks(job)] == [1] * 2

    def test_early_reduce_flag(self):
        from repro.workload.job import TaskCopy

        job = self.make_job()
        for index, task in enumerate(job.stage_tasks[0]):
            task.add_copy(
                TaskCopy(index, task, machine_id=index, launch_time=0.0,
                         workload=10.0)
            )
        # Maps all scheduled but incomplete: nothing launchable by default...
        assert schedulable_jobs([job]) == []
        assert launchable_tasks(job) == []
        # ...but the early-reduce ablation may park reduce copies now.
        assert schedulable_jobs([job], allow_early_reduce=True) == [job]
        assert [
            t.stage for t in launchable_tasks(job, allow_early_reduce=True)
        ] == [1] * 2

    def test_schedulable_jobs_filters(self):
        ready = self.make_job()
        assert schedulable_jobs([ready]) == [ready]


class TestCompositionRegistry:
    def test_parse_composition(self):
        assert parse_composition("srpt+greedy+late") == ("srpt", "greedy", "late")
        assert parse_composition("fifo+share+clone") == ("fifo", "share", "clone")
        # Two parts: stays a plain scheduler name (this is SRPTMS+C!).
        assert parse_composition("SRPTMS+C") is None
        assert parse_composition("bogus+greedy+late") is None
        assert parse_composition("fifo") is None

    def test_composition_label_round_trips(self):
        for ordering in ORDERING_POLICIES:
            for allocation in ALLOCATION_POLICIES:
                for redundancy in REDUNDANCY_POLICIES:
                    label = composition_label(ordering, allocation, redundancy)
                    assert parse_composition(label) == (
                        ordering,
                        allocation,
                        redundancy,
                    )

    def test_factories_resolve_names_and_instances(self):
        assert isinstance(make_ordering("srpt", r=2.0), SRPTOrdering)
        assert make_ordering("srpt", r=2.0).r == 2.0
        share = make_allocation("share", epsilon=0.3)
        assert isinstance(share, EpsilonShareAllocation)
        assert share.epsilon == 0.3
        assert make_allocation(share) is share
        assert isinstance(make_redundancy("none"), NoRedundancy)
        assert isinstance(make_redundancy("clone"), PaperCloning)
        assert isinstance(make_redundancy("sca"), SCACloning)
        assert isinstance(make_redundancy("late"), LATESpeculation)
        assert isinstance(make_redundancy("mantri"), MantriSpeculation)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown ordering"):
            make_ordering("bogus")
        with pytest.raises(ValueError, match="unknown allocation"):
            make_allocation("bogus")
        with pytest.raises(ValueError, match="unknown redundancy"):
            make_redundancy("bogus")

    def test_policy_validation_propagates(self):
        with pytest.raises(ValueError):
            ComposedScheduler("srpt", "share", "clone", epsilon=0.0)
        with pytest.raises(ValueError):
            ComposedScheduler("srpt", "greedy", "none", r=-1.0)

    def test_default_name_is_the_triple(self):
        scheduler = ComposedScheduler("srpt", "share", "late")
        assert scheduler.name == "srpt+share+late"
        # Speculation policies carry their tick interval to the engine.
        assert scheduler.tick_interval == 5.0


class TestRedundancyKnobValidation:
    """Out-of-range knobs fail at construction instead of changing the run."""

    @pytest.mark.parametrize("tick_interval", [0.0, -5.0, -math.inf])
    @pytest.mark.parametrize("policy", [LATESpeculation, MantriSpeculation])
    def test_tick_interval_must_be_positive(self, policy, tick_interval):
        # The engine ignores such an interval, which silently turned
        # speculation ticks off.
        with pytest.raises(ValueError, match="tick_interval"):
            policy(tick_interval=tick_interval)
        assert policy(tick_interval=None).tick_interval is None

    @pytest.mark.parametrize("value", [2.5, 3.0, math.nan, math.inf, True])
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda v: MantriSpeculation(max_copies_per_task=v),
                         id="mantri-cap"),
            pytest.param(lambda v: MantriSpeculation(min_samples=v),
                         id="mantri-min-samples"),
            pytest.param(lambda v: PaperCloning(max_copies_per_task=v), id="clone-cap"),
            pytest.param(lambda v: make_scheduler("SRPTMS+C", max_copies_per_task=v),
                         id="srptms-c-cap"),
            pytest.param(lambda v: SCACloning(max_copies_per_task=v), id="sca-cap"),
        ],
    )
    def test_counts_must_be_integers(self, build, value):
        # NaN or infinity removed the copy cap, 2.5 acted as 3 (and crashed
        # SRPTMS+C inside numpy), and a NaN min_samples stopped Mantri.
        with pytest.raises(ValueError, match="must be an integer"):
            build(value)

    def test_counts_accept_numpy_integers(self):
        mantri = MantriSpeculation(max_copies_per_task=np.int64(3), min_samples=np.int64(2))
        assert mantri.max_copies_per_task == 3
        assert PaperCloning(max_copies_per_task=np.int64(0)).max_copies_per_task == 0

    @pytest.mark.parametrize(
        "table",
        [
            '{ name = "LATE", tick_interval = nan }',
            '{ name = "LATE", tick_interval = 0.0 }',
            '{ name = "Mantri", min_elapsed = nan }',
            '{ name = "Mantri", max_copies_per_task = 2.5 }',
            '{ name = "Mantri", min_samples = nan }',
            '{ name = "SRPTMS+C", max_copies_per_task = 2.5 }',
            '{ name = "SCA", max_copies_per_task = inf }',
        ],
    )
    def test_spec_file_scheduler_tables_are_checked(self, table):
        study = study_from_toml(
            f'[study]\nname = "bad"\nscale = 0.002\nseeds = [0]\nschedulers = [{table}]\n'
        )
        # Compiling builds each scheduler, so the table fails before any run.
        with pytest.raises(ValueError):
            study.compile()


class TestComposedGrid:
    """Acceptance: >= 12 novel compositions, runnable end to end."""

    def test_grid_size_and_novelty(self):
        from repro.study.presets import STUDY_PRESETS

        grid = STUDY_PRESETS["policy-grid"].defaults["grid"]
        assert len(grid) >= 12
        legacy = {
            composition_label(*triple)
            for triple in NAMED_COMPOSITIONS.values()
        }
        assert not legacy.intersection(grid)
        for name in grid:
            assert parse_composition(name) is not None

    def test_every_grid_cell_completes(self):
        """All 30 cells of the grid run a tiny trace to completion."""
        trace = bulk_arrival_trace([3, 5], mean_duration=5.0, cv=0.3)
        for ordering in sorted(ORDERING_POLICIES):
            for allocation in sorted(ALLOCATION_POLICIES):
                for redundancy in sorted(REDUNDANCY_POLICIES):
                    scheduler = ComposedScheduler(
                        ordering, allocation, redundancy, epsilon=0.6, r=1.0
                    )
                    result = run_simulation(
                        trace, scheduler, num_machines=6, seed=0
                    )
                    assert result.num_jobs == 2, scheduler.name
                    assert result.over_requests == 0, scheduler.name

    def test_study_axis_accepts_triples(self):
        from repro.study import Study

        study = Study(
            name="grid",
            schedulers=("SRPTMS+C", "srpt+greedy+late", "fifo+share+clone"),
            seeds=(0,),
            scale=0.005,
        )
        specs = study.compile()
        assert len(specs) == 3
        # Triples consume the study's epsilon/r like SRPTMS+C does.
        composed = specs[2].scheduler
        assert composed.name == "fifo+share+clone"
        assert composed.kwargs["epsilon"] == study.epsilon
        assert composed.kwargs["r"] == study.r

    @pytest.mark.parametrize(
        "name, knob",
        [("FIFO", "epsilon"), ("Mantri", "seed"), ("srpt+greedy+late", "ordering")],
    )
    def test_an_unknown_keyword_names_the_scheduler(self, name, knob):
        with pytest.raises(TypeError, match=f"scheduler '{re.escape(name)}' takes no keyword {knob}"):
            make_scheduler(name, **{knob: 1})
        with pytest.raises(TypeError, match=knob):
            study_from_toml(
                f'[study]\nname = "k"\nschedulers = [{{ name = "{name}", {knob} = 1 }}]\n'
            ).compile()

    def test_study_axis_rejects_unknown_triples(self):
        from repro.study import Study

        with pytest.raises(ValueError, match="unknown scheduler"):
            Study(name="bad", schedulers=("bogus+greedy+late",))

    def test_spec_file_round_trips_triples(self):
        from repro.study import Study, study_from_json, study_to_json

        study = Study(
            name="grid",
            schedulers=(
                "srpt+share+sca",
                {"name": "fifo+greedy+clone", "epsilon": 0.4},
            ),
            seeds=(0,),
        )
        assert study_from_json(study_to_json(study)) == study
