"""The paired perf gate's decision rule (``tools/perf_gate.py``).

Fed synthetic perfbench result objects -- no benchmark runs -- shaped like
the last stdout line of ``perfbench/run.py`` and carrying every end-to-end
metric ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def _load_gate():
    spec = importlib.util.spec_from_file_location("perf_gate", ROOT / "tools" / "perf_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BOUNDS = {metric["name"]: metric["bound"] for metric in END_TO_END}


def result(scale=None, attempted=10, failed=0, drop=()):
    """A result object with every declared metric at 100.0 (times ``scale[name]``)."""
    scale = scale or {}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": 100.0 * scale.get(metric["name"], 1.0), "unit": "x"}
            for metric in END_TO_END
            if metric["name"] not in drop
        },
    }


def verdict(base, head):
    """The failures :func:`judge` reports for these runs."""
    lines, failures = gate.judge(END_TO_END, base, head)
    assert len(lines) == len(END_TO_END) + 1  # one per metric, one for failed/attempted
    return failures


def test_identical_sides_pass():
    runs = [result() for _ in range(5)]
    assert verdict(runs, [result() for _ in range(5)]) == []


def test_higher_is_better_metric_worse_than_its_bound_fails():
    drop = 1.0 - BOUNDS["jobs_per_s"] - 0.01
    head = [result({"jobs_per_s": drop}) for _ in range(5)]
    failures = verdict([result() for _ in range(5)], head)
    assert len(failures) == 1 and failures[0].startswith("jobs_per_s:")


def test_lower_is_better_metric_worse_than_its_bound_fails():
    rise = 1.0 + BOUNDS["cold_s"] + 0.01
    head = [result({"cold_s": rise}) for _ in range(5)]
    failures = verdict([result() for _ in range(5)], head)
    assert len(failures) == 1 and failures[0].startswith("cold_s:")


@pytest.mark.parametrize("name", [metric["name"] for metric in END_TO_END])
def test_metric_inside_its_bound_passes(name):
    better = next(metric["better"] for metric in END_TO_END if metric["name"] == name)
    step = BOUNDS[name] - 0.01
    factor = 1.0 - step if better == "higher" else 1.0 + step
    head = [result({name: factor}) for _ in range(5)]
    assert verdict([result() for _ in range(5)], head) == []


def test_improvements_pass():
    faster = {"jobs_per_s": 3.0, "cold_s": 0.2, "warm_s": 0.2}
    assert verdict([result() for _ in range(5)], [result(faster) for _ in range(5)]) == []


def test_the_medians_decide_not_one_outlier():
    head = [result() for _ in range(4)] + [result({"jobs_per_s": 0.1, "cold_s": 9.0})]
    assert verdict([result() for _ in range(5)], head) == []


def test_rise_in_failed_share_fails():
    head = [result(failed=1)] + [result() for _ in range(4)]
    failures = verdict([result() for _ in range(5)], head)
    assert failures == ["failed/attempted rose from 0 to 0.02"]


def test_equal_failed_share_passes():
    runs = [result(failed=1)] + [result() for _ in range(4)]
    assert verdict(runs, [result(attempted=20, failed=1)] + [result() for _ in range(3)]) == []


@pytest.mark.parametrize("side", ["base", "head"])
def test_metric_missing_on_one_side_is_an_error(side):
    runs = {"base": [result() for _ in range(5)], "head": [result() for _ in range(5)]}
    runs[side][2] = result(drop=("warm_s",))
    failures = verdict(runs["base"], runs["head"])
    assert failures == [f"warm_s: missing on {side}"]


def test_non_finite_metric_counts_as_missing():
    head = [result() for _ in range(5)]
    head[0]["metrics"]["setup_s"]["value"] = float("nan")
    assert verdict([result() for _ in range(5)], head) == ["setup_s: missing on head"]


def test_crashed_run_is_an_error_not_a_pass():
    head = [result() for _ in range(4)] + [None]
    failures = verdict([result() for _ in range(5)], head)
    assert len(failures) == len(END_TO_END) + 1
    assert all("missing on head" in failure for failure in failures)


def test_no_runs_at_all_is_an_error():
    failures = verdict([], [])
    assert failures and all("missing on base and head" in failure for failure in failures)


def test_wrong_arguments_exit_2_without_running(capsys):
    assert gate.main(["only-one-dir"]) == 2
    assert "usage" in capsys.readouterr().err
