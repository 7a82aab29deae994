"""Tests of the benchmark itself, at tiny sizes.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import workloads  # noqa: E402
from harness import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload the command accepts (BENCHMARK.json lists the ones the
#: regression gate runs; fifo-stream is run by name only).
NAMES = list(workloads.WORKLOADS)


def run_bench(root: Path, workload: str, trace: int, seed: int = 3, *extra: str):
    """Run the benchmark command in ``root``; returns the completed process."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny", *extra],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )


def parsed(done):
    """The (report, result) pair of a successful run."""
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def tree_state(root: Path):
    """Every file under ``root`` with its size and modification time."""
    return {
        str(path.relative_to(root)): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in root.rglob("*")
        if path.is_file()
    }


@pytest.fixture(scope="module")
def runs():
    """Each workload run once untraced and once traced, in the checkout itself."""
    results_dir = ROOT / "benchmarks" / "results"
    before = tree_state(results_dir) if results_dir.is_dir() else {}
    outputs = {
        (name, trace): parsed(run_bench(ROOT, name, trace)) for name in NAMES for trace in (0, 1)
    }
    after = tree_state(results_dir) if results_dir.is_dir() else {}
    assert after == before, "a benchmark run touched benchmarks/results"
    assert not list(ROOT.glob(".perfbench-work-*")), "scratch directory left behind"
    return outputs


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_emitted_with_its_unit(runs, name, trace):
    report, result = runs[(name, trace)]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    assert report["machine"]["usable_cpus"] >= 1
    assert report["seed"] == 3 and report["sizes"]


def test_seed_changes_the_generated_inputs(tmp_path):
    def paper_fingerprint(seed):
        workload = workloads.PaperGoogle(seed, True, ROOT, tmp_path)
        workload.setup()
        result, _ = workload.replay(workload.trace, workload.scheduler())
        return result.fingerprint()

    assert paper_fingerprint(1) == paper_fingerprint(1)
    assert paper_fingerprint(1) != paper_fingerprint(2)

    def durations(seed):
        return workloads.FifoStream(seed, True, ROOT, tmp_path).sizes()["mean_duration"]

    assert durations(1) == durations(1) != durations(2)

    sweep = workloads.Sweep(5, True, ROOT, tmp_path)
    assert all(sweep.study(path).seeds == (5,) for path in workloads.SWEEP_SPECS)


def test_schedule_wrapper_is_fingerprint_neutral(tmp_path, runs):
    workload = workloads.PaperGoogle(4, True, ROOT, tmp_path)
    workload.setup()
    plain, _ = workload.replay(workload.trace, workload.scheduler())
    tracer = Tracer()
    traced, _ = workload.replay(workload.trace, workload.scheduler(), tracer)
    assert tracer.n("decision.schedule") > 0
    assert traced.fingerprint() == plain.fingerprint()
    assert runs[("paper-google", 1)][0]["fingerprint"] == runs[("paper-google", 0)][0]["fingerprint"]


def test_fifo_stream_never_calls_schedule(runs):
    _, result = runs[("fifo-stream", 1)]
    assert result["metrics"]["decision.calls"]["value"] == 0
    assert result["metrics"]["engine.copies"]["value"] > 0


def test_host_speed_rescales_by_the_readings_around_an_operation(monkeypatch):
    readings = iter([0.010, 0.030, 0.005])
    monkeypatch.setattr(harness, "kernel_seconds", lambda: next(readings))
    host = harness.HostSpeed()
    assert host.factor() == pytest.approx(harness.REFERENCE_KERNEL_S / 0.020)
    assert host.factor() == pytest.approx(harness.REFERENCE_KERNEL_S / 0.0175)
    assert host.readings == [0.010, 0.030, 0.005]


def copy_checkout(destination: Path, with_program: bool) -> None:
    """The files a benchmark checkout holds (only the benchmark's own without the program)."""
    shutil.copy2(ROOT / "BENCHMARK.json", destination / "BENCHMARK.json")
    shutil.copytree(BENCH, destination / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", destination / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "examples", destination / "examples")


def test_a_run_writes_nothing_but_its_output_path(tmp_path):
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    copy_checkout(checkout, with_program=True)
    before = tree_state(checkout)
    out = tmp_path / "report.json"
    report, _ = parsed(run_bench(checkout, "sweep", 0, 3, "--out", str(out)))
    assert tree_state(checkout) == before
    assert json.loads(out.read_text())["report"]["workload"] == "sweep"
    assert report["failed_frac"] == 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    copy_checkout(tmp_path, with_program=False)
    done = run_bench(tmp_path, "paper-google", 0)
    assert done.returncode != 0
    assert done.stdout == ""
