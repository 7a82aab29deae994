"""End-to-end and unit tests for the sweep service (repro.service).

The acceptance properties of PR 9:

(a) each unique RunSpec fingerprint executes at most once, however many
    concurrent studies ask for it (submit-time dedup + shard locks);
(b) a study served by the daemon has the same ResultSet fingerprint, and
    byte-identical CSV, as the same study executed offline via
    ``Study.run``;
(c) killing the daemon mid-sweep and restarting it on the same cache
    directory resumes with only cache misses.

And of the delivered-results index: a resubmitted study whose keys the
daemon has delivered is filled at submit, without the executor or the
results store, and polling a completed study re-serialises no record.
"""

from __future__ import annotations

import json
import sys
import threading
import urllib.request

import pytest

from repro.service import (
    ServiceClient,
    ServiceError,
    StudyRegistry,
    StudySubmitError,
    create_service,
)
from repro.simulation.experiment_runner import default_workers
from repro.simulation.metrics import SimulationResult
from repro.simulation.results_store import ResultsStore, UncacheableSpecError, cache_stats
from repro.study import Study

#: Millisecond-fast bulk workload (same shape as tests/test_study.py).
BULK = {"kind": "bulk", "job_sizes": [2, 3, 4], "mean_duration": 5.0, "cv": 0.0}


def bulk_study(name: str, schedulers, seeds=(0, 1)) -> Study:
    return Study(
        name=name,
        schedulers=schedulers,
        workloads=(BULK,),
        seeds=seeds,
        machines=4,
    )


def deliver_queued(registry: StudyRegistry) -> int:
    """Run every queued key by hand, as an executor would; returns how many."""
    delivered = 0
    while True:
        key = registry.next_key(timeout=0.05)
        if key is None:
            return delivered
        registry.deliver(key, registry.spec_for(key).execute(), cache_hit=False)
        delivered += 1


@pytest.fixture
def service(tmp_path):
    """An in-process daemon: HTTP serving, executor NOT yet started."""
    svc = create_service(cache_dir=tmp_path / "cache", workers=2)
    # A short poll interval lets stop() return promptly at teardown.
    threading.Thread(target=svc.serve_forever, args=(0.05,), daemon=True).start()
    yield svc
    svc.stop()


@pytest.fixture
def client(service):
    client = ServiceClient(service.url, timeout=30.0)
    client.wait_healthy()
    return client


class TestRegistry:
    def test_study_walks_queued_running_completed(self, tmp_path):
        registry = StudyRegistry(ResultsStore(tmp_path))
        study = bulk_study("walk", ("FIFO",), seeds=(0, 1))
        state = registry.submit(study)
        assert state.status == "queued"
        specs = [point.to_run_spec() for point in study.points()]
        key = registry.next_key(timeout=1.0)
        registry.deliver(key, registry.spec_for(key).execute(), cache_hit=False)
        assert state.status == "running" and state.filled == 1
        key = registry.next_key(timeout=1.0)
        registry.deliver(key, registry.spec_for(key).execute(), cache_hit=False)
        assert state.status == "completed" and state.filled == len(specs)
        assert registry.engine_runs == 2

    def test_overlapping_submissions_share_in_flight_keys(self, tmp_path):
        registry = StudyRegistry(ResultsStore(tmp_path))
        a = registry.submit(bulk_study("a", ("FIFO", "SCA")))
        b = registry.submit(bulk_study("b", ("SCA", "SRPT")))
        # 4 + 4 points, 2 shared (the SCA cells).
        assert a.shared_at_submit == 0
        assert b.shared_at_submit == 2
        assert registry.unique_keys_seen == 6
        # Draining the queue yields exactly the 6 unique keys.
        keys = set()
        while True:
            key = registry.next_key(timeout=0.05)
            if key is None:
                break
            keys.add(key)
        assert len(keys) == 6
        # One delivery fans out to both studies' slots.
        shared = [k for k in keys if registry._inflight[k].waiters
                  and len(registry._inflight[k].waiters) == 2]
        assert len(shared) == 2
        result = registry.spec_for(shared[0]).execute()
        registry.deliver(shared[0], result, cache_hit=False)
        assert a.filled == 1 and b.filled == 1

    def test_zero_point_study_completes_on_arrival(self, tmp_path):
        registry = StudyRegistry(ResultsStore(tmp_path))
        state = registry.submit(bulk_study("empty", ()))
        assert state.status == "completed" and state.total == 0
        assert state.result_set().fingerprint() == bulk_study(
            "empty", ()
        ).run().fingerprint()

    def test_fail_key_fails_every_waiting_study(self, tmp_path):
        registry = StudyRegistry(ResultsStore(tmp_path))
        a = registry.submit(bulk_study("a", ("SCA",), seeds=(0,)))
        b = registry.submit(bulk_study("b", ("SCA",), seeds=(0,)))
        key = registry.next_key(timeout=1.0)
        registry.fail_key(key, "ValueError: boom")
        assert a.status == "failed" and "boom" in a.error
        assert b.status == "failed"
        with pytest.raises(ValueError):
            a.result_set()

    def test_uncacheable_study_is_rejected(self, tmp_path, monkeypatch):
        import repro.service.registry as registry_mod

        def explode(spec):
            raise UncacheableSpecError("lambda scheduler")

        monkeypatch.setattr(registry_mod, "run_spec_fingerprint", explode)
        registry = StudyRegistry(ResultsStore(tmp_path))
        with pytest.raises(StudySubmitError, match="uncacheable"):
            registry.submit(bulk_study("bad", ("FIFO",)))


class TestEndpoints:
    def test_healthz_and_metrics(self, client):
        assert client.healthz()
        metrics = client.metrics()
        assert metrics["runs"]["engine_runs"] == 0
        assert metrics["studies"]["total"] == 0
        assert "cache_dir" in metrics["store"]

    def test_unknown_paths_are_404(self, service, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("st-999999")
        assert excinfo.value.status == 404
        request = urllib.request.Request(service.url + "/nope")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        with excinfo.value:  # the error reply holds the connection open
            assert excinfo.value.code == 404

    def test_invalid_spec_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit('{"study": {"name": "x", "schedulers": ["NotAPolicy"]}}')
        assert excinfo.value.status == 400
        assert "invalid study spec" in str(excinfo.value)

    def test_non_finite_workload_knob_is_400(self, client):
        spec = (
            '{"study": {"name": "x", "workloads": [{"kind": "stream", '
            '"factory": "poisson", "num_jobs": 20, "mean_duration": NaN}]}}'
        )
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        assert "mean_duration must be positive and finite" in str(excinfo.value)

    @pytest.mark.parametrize(
        "table, knob",
        [
            pytest.param({"machines": 0}, "machines", id="zero-machines"),
            pytest.param({"scale": 1e308}, "scale", id="huge-scale"),
            # Passes the study's own check; the trace config rejects it when
            # the study compiles.
            pytest.param({"scale": 3.0}, "scale", id="scale-above-one"),
            pytest.param(
                {"schedulers": [{"name": "Mantri", "max_copies_per_task": 2.5}]},
                "max_copies_per_task",
                id="fractional-copy-cap",
            ),
        ],
    )
    def test_hostile_knob_is_400_naming_it_and_nothing_is_cached(
        self, service, client, table, knob
    ):
        # Used to close the connection without a response (machines = 0,
        # scale = 1e308), or to accept a study that failed inside its run.
        spec = json.dumps({"study": {"name": "x", "seeds": [0], **table}})
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        assert knob in str(excinfo.value)
        assert service.registry.summaries() == []
        assert cache_stats(service.store.cache_dir)["entries"] == 0

    def test_toml_submission_by_content_type(self, service, client):
        toml = (
            '[study]\nname = "toml-smoke"\nschedulers = ["FIFO"]\nseeds = [0]\n'
            'machines = 4\n\n[[study.workloads]]\nkind = "bulk"\n'
            "job_sizes = [2, 3]\nmean_duration = 5.0\ncv = 0.0\n"
        )
        request = urllib.request.Request(
            service.url + "/studies", data=toml.encode(), method="POST"
        )
        request.add_header("Content-Type", "application/toml")
        with urllib.request.urlopen(request) as reply:
            summary = json.loads(reply.read())
        assert reply.status == 202
        assert summary["name"] == "toml-smoke" and summary["total"] == 1

    def test_results_of_queued_study_are_409_unless_partial(self, service, client):
        # The fixture never starts the executor, so the study stays queued.
        summary = client.submit(bulk_study("stuck", ("FIFO",), seeds=(0,)))
        with pytest.raises(ServiceError) as excinfo:
            client.results(summary["id"])
        assert excinfo.value.status == 409
        partial = client.results(summary["id"], partial=True)
        assert partial == b""  # no rows filled yet -> empty CSV
        with pytest.raises(ServiceError) as excinfo:
            client.results(summary["id"], format="xml")
        assert excinfo.value.status == 400

    def test_failed_study_results_are_409_with_the_error(self, service, client):
        summary = client.submit(bulk_study("doomed", ("FIFO",), seeds=(0,)))
        key = service.registry.next_key(timeout=1.0)
        service.registry.fail_key(key, "RuntimeError: engine exploded")
        status = client.status(summary["id"])
        assert status["status"] == "failed"
        assert "engine exploded" in status["error"]
        with pytest.raises(ServiceError) as excinfo:
            client.results(summary["id"])
        assert excinfo.value.status == 409


class TestAcceptance:
    def test_concurrent_overlapping_studies_dedup_to_unique_runs(
        self, service, client
    ):
        """Properties (a) and (b): one engine run per unique fingerprint,
        byte-identical to the offline Study.run exports."""
        study_a = bulk_study("alpha", ("FIFO", "SCA"))
        study_b = bulk_study("beta", ("SCA", "SRPT"))
        summaries = {}

        def submit(study):
            summaries[study.name] = client.submit(study)

        threads = [
            threading.Thread(target=submit, args=(s,)) for s in (study_a, study_b)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        # Both in, executor idle: the dedup index already collapsed the
        # 2 shared SCA cells, whichever submission won the race.
        metrics = client.metrics()
        assert metrics["runs"]["unique_keys_seen"] == 6
        assert metrics["runs"]["dedup_shared"] == 2

        service.start()  # release the executor
        final = {
            name: client.wait(summary["id"], timeout=120)
            for name, summary in summaries.items()
        }
        metrics = client.metrics()
        assert metrics["runs"]["engine_runs"] == 6  # == unique fingerprints
        assert metrics["runs"]["cache_hits"] == 0

        for study in (study_a, study_b):
            offline = study.run()
            served = final[study.name]
            assert served["resultset_fingerprint"] == offline.fingerprint()
            csv = client.results(served["id"], format="csv")
            assert csv == offline.to_csv().encode("utf-8")
            as_json = client.results(served["id"], format="json")
            assert as_json == offline.to_json().encode("utf-8")

    def test_restarted_daemon_resumes_with_only_cache_misses(self, tmp_path):
        """Property (c): a daemon killed after half the sweep leaves its
        results in the cache; its successor re-executes only the misses."""
        cache = tmp_path / "cache"
        full = bulk_study("resume", ("FIFO", "SCA"))
        half = bulk_study("resume", ("FIFO",))

        first = create_service(cache_dir=cache, workers=1)
        threading.Thread(target=first.serve_forever, daemon=True).start()
        first.start()
        client = ServiceClient(first.url, timeout=30.0)
        client.wait_healthy()
        client.wait(client.submit(half)["id"], timeout=120)
        first.stop()  # "kill" the daemon mid-sweep (2 of 4 cells done)
        stored = cache_stats(cache)["entries"]
        assert stored == 2

        second = create_service(cache_dir=cache, workers=1)
        threading.Thread(target=second.serve_forever, daemon=True).start()
        second.start()
        try:
            client = ServiceClient(second.url, timeout=30.0)
            client.wait_healthy()
            final = client.wait(client.submit(full)["id"], timeout=120)
            assert final["slots_from_cache"] == stored
            assert final["slots_from_runs"] == full.num_points() - stored
            metrics = client.metrics()
            assert metrics["runs"]["engine_runs"] == full.num_points() - stored
            assert metrics["runs"]["cache_hits"] == stored
            assert final["resultset_fingerprint"] == full.run().fingerprint()
        finally:
            second.stop()

    def test_resubmission_to_a_live_daemon_is_all_cache(self, service, client):
        service.start()
        study = bulk_study("twice", ("FIFO",))
        first = client.wait(client.submit(study)["id"], timeout=120)
        second = client.wait(client.submit(study)["id"], timeout=120)
        assert second["slots_from_cache"] == study.num_points()
        assert second["slots_from_runs"] == 0
        assert (
            second["resultset_fingerprint"] == first["resultset_fingerprint"]
        )


class TestDeliveredIndex:
    """Submit fills slots from the results the daemon already delivered."""

    def test_resubmitted_delivered_study_is_completed_in_its_202(
        self, service, client
    ):
        # The fixture never starts the executor: only submit can fill it.
        study = bulk_study("again", ("FIFO", "SCA"))
        first = client.submit(study)
        assert deliver_queued(service.registry) == study.num_points()
        assert client.status(first["id"])["status"] == "completed"
        runs = client.metrics()["runs"]["engine_runs"]

        reply = client.submit(study)
        assert reply["status"] == "completed"
        assert reply["slots_from_cache"] == reply["total"] == study.num_points()
        assert reply["slots_from_runs"] == 0
        metrics = client.metrics()
        assert metrics["runs"]["engine_runs"] == runs
        assert metrics["runs"]["index_hits"] == study.num_points()
        assert metrics["runs"]["in_flight"] == metrics["runs"]["queue_depth"] == 0
        # Nothing was read from (or written to) the results store.
        assert metrics["store"]["hits"] == metrics["store"]["misses"] == 0
        offline = study.run()
        assert reply["resultset_fingerprint"] == offline.fingerprint()
        assert client.results(reply["id"]) == offline.to_csv().encode("utf-8")

    def test_mixed_delivered_in_flight_and_new_keys_match_offline(
        self, service, client
    ):
        client.submit(bulk_study("delivered", ("FIFO",)))
        deliver_queued(service.registry)
        client.submit(bulk_study("in-flight", ("SCA",)))
        mixed = bulk_study("mixed", ("FIFO", "SCA", "SRPT"))
        reply = client.submit(mixed)
        # FIFO filled from the index, SCA joined in flight, SRPT new.
        assert reply["status"] == "running"
        assert reply["completed"] == reply["slots_from_cache"] == 2
        assert reply["shared_at_submit"] == 2

        service.start()
        final = client.wait(reply["id"], timeout=60)
        metrics = client.metrics()["runs"]
        assert metrics["engine_runs"] == metrics["unique_keys_seen"] == 6
        assert metrics["cache_hits"] == 0
        offline = mixed.run()
        assert final["resultset_fingerprint"] == offline.fingerprint()
        assert client.results(final["id"]) == offline.to_csv().encode("utf-8")
        assert client.results(final["id"], format="json") == offline.to_json().encode(
            "utf-8"
        )

    def test_a_failed_key_is_not_indexed_and_runs_again(self, service, client):
        study = bulk_study("retry", ("FIFO",), seeds=(0,))
        first = client.submit(study)
        key = service.registry.next_key(timeout=1.0)
        service.registry.fail_key(key, "RuntimeError: transient")
        assert client.status(first["id"])["status"] == "failed"

        second = client.submit(study)
        assert second["status"] == "queued" and second["slots_from_cache"] == 0
        assert service.registry.next_key(timeout=1.0) == key  # enqueued again
        service.registry.deliver(
            key, service.registry.spec_for(key).execute(), cache_hit=False
        )
        assert client.status(second["id"])["status"] == "completed"
        assert client.status(first["id"])["status"] == "failed"
        assert client.metrics()["runs"]["index_hits"] == 0

    def test_concurrent_submits_while_the_executor_delivers(self, service, client):
        """More submitting threads than cores, switching often: one engine
        run per unique key, and every study equal to its offline run."""
        pairs = [("FIFO", "SCA"), ("SCA", "SRPT"), ("SRPT", "Fair"), ("Fair", "FIFO")]
        threads = max(8, default_workers() + 2)
        studies = [
            bulk_study(f"s{number}", pairs[number % len(pairs)], seeds=(0, 1, 2))
            for number in range(threads)
        ]
        finals, errors = [], []
        barrier = threading.Barrier(threads)

        def submit_twice(study):
            try:
                barrier.wait(timeout=30)
                for _ in range(2):
                    summary = client.submit(study)
                    finals.append((study, client.wait(summary["id"], timeout=60)))
            except Exception as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            service.start()
            workers = [
                threading.Thread(target=submit_twice, args=(study,), daemon=True)
                for study in studies
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(finals) == 2 * threads
        metrics = client.metrics()["runs"]
        unique = 4 * 3  # four schedulers x three seeds
        assert metrics["engine_runs"] == metrics["unique_keys_seen"] == unique
        assert metrics["cache_hits"] == 0
        assert metrics["in_flight"] == metrics["queue_depth"] == 0
        offline = {}
        for study, final in finals:
            if study.schedulers not in offline:
                offline[study.schedulers] = study.run().fingerprint()
            assert final["resultset_fingerprint"] == offline[study.schedulers]

    def test_polls_of_completed_studies_fingerprint_no_record(
        self, service, client, monkeypatch
    ):
        calls = []
        fingerprint = SimulationResult.fingerprint

        def counting(result):
            calls.append(id(result))
            return fingerprint(result)

        monkeypatch.setattr(SimulationResult, "fingerprint", counting)
        service.start()
        studies = [
            bulk_study("a", ("FIFO", "SCA")),
            bulk_study("b", ("SCA", "SRPT")),
            bulk_study("a", ("FIFO", "SCA")),
        ]
        ids = [client.wait(client.submit(s)["id"], timeout=60)["id"] for s in studies]
        unique = 3 * 2  # three schedulers x two seeds
        assert len(calls) == len(set(calls)) <= unique
        before = len(calls)
        for _ in range(3):
            summaries = [client.status(study_id) for study_id in ids]
            listed = client.list_studies()
        assert len(calls) == before
        monkeypatch.undo()
        assert [s["resultset_fingerprint"] for s in listed] == [
            s["resultset_fingerprint"] for s in summaries
        ]
        for study, summary in zip(studies, summaries):
            assert summary["resultset_fingerprint"] == study.run().fingerprint()


class TestServiceCli:
    def test_serve_parser_defaults(self):
        from repro.service.cli import DEFAULT_PORT, _serve_parser

        args = _serve_parser().parse_args(["--cache-dir", "/tmp/c"])
        assert args.host == "127.0.0.1"
        assert args.port == DEFAULT_PORT
        assert args.workers == 1

    def test_serve_requires_cache_dir(self):
        from repro.service.cli import _serve_parser

        with pytest.raises(SystemExit):
            _serve_parser().parse_args([])

    def test_submit_against_dead_service_fails_cleanly(self, tmp_path):
        from repro.cli import main

        spec = tmp_path / "study.json"
        spec.write_text(
            json.dumps(
                {
                    "study": {
                        "name": "x",
                        "schedulers": ["FIFO"],
                        "seeds": [0],
                        "machines": 4,
                        "workloads": [BULK],
                    }
                }
            )
        )
        with pytest.raises(SystemExit, match="submit failed"):
            main(
                [
                    "submit",
                    "--spec",
                    str(spec),
                    "--url",
                    "http://127.0.0.1:1",
                ]
            )

    def test_submit_cli_round_trip(self, service, client, tmp_path, capsys):
        from repro.cli import main

        service.start()
        spec = tmp_path / "study.json"
        spec.write_text(
            json.dumps(
                {
                    "study": {
                        "name": "cli-round-trip",
                        "schedulers": ["FIFO"],
                        "seeds": [0],
                        "machines": 4,
                        "workloads": [BULK],
                    }
                }
            )
        )
        csv_path = tmp_path / "out.csv"
        code = main(
            [
                "submit",
                "--spec",
                str(spec),
                "--url",
                service.url,
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "completed" in out
        offline = bulk_study("cli-round-trip", ("FIFO",), seeds=(0,))
        assert csv_path.read_bytes() == offline.run().to_csv().encode("utf-8")
        # A resubmission is filled at submit: the first line says so.
        assert main(["submit", "--spec", str(spec), "--url", service.url]) == 0
        first_line = capsys.readouterr().out.splitlines()[0]
        assert first_line.endswith("(1 points, 1 unique specs): completed")
