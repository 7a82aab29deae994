"""Concurrent-access tests for the results store (PR 9).

The contracts under test:

* same-destination writes are atomic -- readers never observe torn JSON,
  no matter how many processes store the same key at once;
* ``load_or_compute`` holds the shard's advisory lock across its
  load-compute-store window, so of N processes racing on one key exactly
  one runs the engine and every loser re-reads the winner's entry;
* the portable fallback lock (no ``fcntl``) provides the same exclusion
  between threads;
* ``cache_stats`` / ``prune_stale`` (the ``cache`` subcommand's engine)
  report and remove stale-format entries without touching current ones.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time
from pathlib import Path

import pytest

from repro.simulation import (
    ResultsStore,
    RunSpec,
    SchedulerSpec,
    run_spec_fingerprint,
)
from repro.simulation.experiment_runner import TraceSpec
from repro.simulation.results_store import (
    FORMAT_VERSION,
    cache_stats,
    canonical_spec_description,
    prune_stale,
)
from repro.workload.generators import poisson_trace


def _spec(seed: int = 7) -> RunSpec:
    return RunSpec(
        trace=TraceSpec(
            factory=poisson_trace,
            kwargs={"num_jobs": 20, "arrival_rate": 1.0, "seed": 5},
        ),
        scheduler=SchedulerSpec("SRPTMS+C", {"epsilon": 0.6, "r": 3.0}),
        num_machines=8,
        seed=seed,
    )


def _race_same_key(cache_dir: str, markers: str, start, index: int) -> None:
    """Child: load_or_compute the shared key, drop run/fp marker files."""
    store = ResultsStore(cache_dir)
    spec = _spec()
    key = run_spec_fingerprint(spec)
    start.wait()

    def compute():
        (Path(markers) / f"run-{index}").write_text("x")
        time.sleep(0.05)  # widen the race window
        return spec.execute()

    result, cache_hit = store.load_or_compute(
        key, canonical_spec_description(spec), compute
    )
    (Path(markers) / f"fp-{index}").write_text(
        json.dumps({"fingerprint": result.fingerprint(), "cache_hit": cache_hit})
    )


def _store_own_key(cache_dir: str, start, seed: int) -> None:
    """Child: store the result of its own distinct spec."""
    store = ResultsStore(cache_dir)
    spec = _spec(seed=seed)
    key = run_spec_fingerprint(spec)
    start.wait()
    store.store(key, canonical_spec_description(spec), spec.execute())


def _hammer_same_destination(cache_dir: str, start, rounds: int) -> None:
    """Child: repeatedly rewrite the same entry (atomic-replace stress)."""
    store = ResultsStore(cache_dir)
    spec = _spec()
    key = run_spec_fingerprint(spec)
    result = spec.execute()
    description = canonical_spec_description(spec)
    start.wait()
    for _ in range(rounds):
        store.store(key, description, result)


class TestCrossProcessLocking:
    def test_racing_processes_run_the_engine_exactly_once(self, tmp_path):
        """N processes load_or_compute one key: one run, losers re-read."""
        markers = tmp_path / "markers"
        markers.mkdir()
        cache = tmp_path / "cache"
        start = multiprocessing.Event()
        children = [
            multiprocessing.Process(
                target=_race_same_key,
                args=(str(cache), str(markers), start, index),
            )
            for index in range(3)
        ]
        for child in children:
            child.start()
        time.sleep(0.2)  # let every child reach the barrier
        start.set()
        for child in children:
            child.join(timeout=120)
            assert child.exitcode == 0

        runs = sorted(p.name for p in markers.glob("run-*"))
        assert len(runs) == 1, f"engine ran {len(runs)} times: {runs}"
        reports = [
            json.loads((markers / f"fp-{index}").read_text()) for index in range(3)
        ]
        assert len({r["fingerprint"] for r in reports}) == 1
        # Exactly the winner computed; both losers saw a cache hit.
        assert sorted(r["cache_hit"] for r in reports) == [False, True, True]

    def test_concurrent_distinct_keys_never_produce_torn_json(self, tmp_path):
        cache = tmp_path / "cache"
        start = multiprocessing.Event()
        seeds = list(range(4))
        children = [
            multiprocessing.Process(
                target=_store_own_key, args=(str(cache), start, seed)
            )
            for seed in seeds
        ]
        for child in children:
            child.start()
        time.sleep(0.2)
        start.set()
        for child in children:
            child.join(timeout=120)
            assert child.exitcode == 0

        entry_paths = sorted(cache.glob("*/*.json"))
        assert len(entry_paths) == len(seeds)
        for path in entry_paths:
            entry = json.loads(path.read_text())  # parses => not torn
            assert entry["format"] == FORMAT_VERSION
        store = ResultsStore(cache)
        for seed in seeds:
            loaded = store.load(run_spec_fingerprint(_spec(seed=seed)))
            assert loaded is not None and loaded.seed == seed

    def test_same_destination_rewrites_stay_atomic(self, tmp_path):
        """Two processes rewriting one entry: every concurrent read parses."""
        cache = tmp_path / "cache"
        spec = _spec()
        key = run_spec_fingerprint(spec)
        store = ResultsStore(cache)
        path = store.store(key, canonical_spec_description(spec), spec.execute())
        start = multiprocessing.Event()
        children = [
            multiprocessing.Process(
                target=_hammer_same_destination, args=(str(cache), start, 20)
            )
            for _ in range(2)
        ]
        for child in children:
            child.start()
        time.sleep(0.2)
        start.set()
        deadline = time.monotonic() + 60
        reads = 0
        while any(child.is_alive() for child in children):
            json.loads(path.read_text())  # never torn mid-rewrite
            reads += 1
            if time.monotonic() > deadline:
                break
        for child in children:
            child.join(timeout=120)
            assert child.exitcode == 0
        assert reads > 0
        assert store.load(key) is not None

    def test_load_or_compute_warm_path_is_a_hit(self, tmp_path):
        store = ResultsStore(tmp_path)
        spec = _spec()
        key = run_spec_fingerprint(spec)
        first, hit_first = store.load_or_compute(
            key, canonical_spec_description(spec), spec.execute
        )
        assert hit_first is False
        second, hit_second = store.load_or_compute(
            key,
            canonical_spec_description(spec),
            lambda: pytest.fail("warm path must not recompute"),
        )
        assert hit_second is True
        assert second.fingerprint() == first.fingerprint()


class TestFallbackLock:
    def test_threads_exclude_each_other_without_fcntl(self, tmp_path, monkeypatch):
        """The O_CREAT|O_EXCL fallback gives the same one-run guarantee."""
        import repro.simulation.results_store as results_store

        monkeypatch.setattr(results_store, "fcntl", None)
        store = ResultsStore(tmp_path)
        spec = _spec()
        key = run_spec_fingerprint(spec)
        runs = []
        barrier = threading.Barrier(3)

        def compute():
            runs.append(threading.get_ident())
            time.sleep(0.05)
            return spec.execute()

        outcomes = []

        def worker():
            barrier.wait()
            outcomes.append(
                store.load_or_compute(
                    key, canonical_spec_description(spec), compute
                )
            )

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(runs) == 1
        assert sorted(hit for _, hit in outcomes) == [False, True, True]
        assert len({result.fingerprint() for result, _ in outcomes}) == 1

    def test_fallback_steals_stale_lock_files(self, tmp_path, monkeypatch):
        import repro.simulation.results_store as results_store

        monkeypatch.setattr(results_store, "fcntl", None)
        monkeypatch.setattr(results_store, "_FALLBACK_LOCK_STALE_SECONDS", 0.2)
        store = ResultsStore(tmp_path)
        spec = _spec()
        key = run_spec_fingerprint(spec)
        shard = store.cache_dir / key[:2]
        shard.mkdir(parents=True, exist_ok=True)
        # A crashed process left its exclusive marker behind; age it past
        # the stale threshold so the next locker steals it.
        stale = shard / (results_store._LOCK_BASENAME + ".excl")
        stale.touch()
        old = time.time() - 10.0
        import os

        os.utime(stale, (old, old))
        with store.shard_lock(key):
            pass  # acquiring must not deadlock on the orphaned marker


class TestCacheMaintenance:
    def _populate(self, cache_dir, seeds=(0, 1, 2)):
        store = ResultsStore(cache_dir)
        paths = []
        for seed in seeds:
            spec = _spec(seed=seed)
            paths.append(
                store.store(
                    run_spec_fingerprint(spec),
                    canonical_spec_description(spec),
                    spec.execute(),
                )
            )
        return paths

    def test_stats_counts_entries_bytes_and_formats(self, tmp_path):
        paths = self._populate(tmp_path)
        entry = json.loads(paths[0].read_text())
        entry["format"] = 2
        paths[0].write_text(json.dumps(entry))
        paths[1].write_text("not json{{{")

        stats = cache_stats(tmp_path)
        assert stats["entries"] == 3
        assert stats["total_bytes"] == sum(p.stat().st_size for p in paths)
        assert stats["format_version"] == FORMAT_VERSION
        assert stats["formats"] == {"2": 1, str(FORMAT_VERSION): 1, "unreadable": 1}
        assert stats["stale"] == 2

    def test_prune_stale_removes_only_non_current_formats(self, tmp_path):
        paths = self._populate(tmp_path)
        entry = json.loads(paths[0].read_text())
        entry["format"] = 1
        paths[0].write_text(json.dumps(entry))

        report = prune_stale(tmp_path)
        assert report["scanned"] == 3
        assert report["removed"] == 1
        assert report["kept"] == 2
        assert not paths[0].exists()
        assert paths[1].exists() and paths[2].exists()
        # Idempotent: a second prune finds nothing stale.
        assert prune_stale(tmp_path)["removed"] == 0

    def test_stats_on_missing_directory(self, tmp_path):
        stats = cache_stats(tmp_path / "nope")
        assert stats["entries"] == 0 and stats["total_bytes"] == 0

    def test_cache_cli_stats_and_prune(self, tmp_path, capsys):
        from repro.cli import main

        paths = self._populate(tmp_path)
        entry = json.loads(paths[0].read_text())
        entry["format"] = 1
        paths[0].write_text(json.dumps(entry))

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:        3" in out
        assert "stale entries:  1" in out

        assert main(["cache", "prune", "--stale", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out
        assert cache_stats(tmp_path)["entries"] == 2

    def test_a_format_4_entry_is_stale_and_pruned(self, tmp_path, capsys):
        """Format 5 keys name the registry entry; a format-4 entry never hits."""
        from repro.cli import main

        paths = self._populate(tmp_path, seeds=(0, 1))
        entry = json.loads(paths[0].read_text())
        assert entry["format"] == FORMAT_VERSION == 5
        assert "SchedulerSpec(name='SRPTMS+C'" in entry["spec"]
        assert "class:" not in entry["spec"]
        assert "straggler_factory" not in entry["spec"]
        entry["format"] = 4
        paths[0].write_text(json.dumps(entry))

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "stale entries:  1" in out and "format 4: 1" in out
        assert main(["cache", "prune", "--stale", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not paths[0].exists() and paths[1].exists()
        assert cache_stats(tmp_path)["stale"] == 0

    def test_cache_cli_prune_requires_stale_flag(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["cache", "prune", "--cache-dir", str(tmp_path)])
