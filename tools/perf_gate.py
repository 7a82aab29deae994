#!/usr/bin/env python3
"""Paired performance gate: the repo benchmark on a base and a head checkout.

Usage::

    python tools/perf_gate.py BASE_DIR HEAD_DIR

Runs ``perfbench/run.py`` (untraced) on each workload of :data:`PAIRS` in
that many base/head pairs of :data:`SECONDS` seconds each, back to back on
the same host.  Both sides of a pair use the same seed, and the side
that runs first alternates from pair to pair, so a drift of the host's
speed weighs on both.  Both sides run HEAD_DIR's ``perfbench/`` and
``BENCHMARK.json``, each copied into a scratch directory beside that
side's own ``src/`` and ``examples/``: only the program differs.

It prints one row per run and one verdict per metric, and exits 1 when, on
any workload,

- an end-to-end metric of ``BENCHMARK.json`` has a head median worse than
  its base median by more than the metric's ``bound``,
- the head's share of failed operations (``failed / attempted``, summed
  over its runs) is larger than the base's, or
- a metric or the operation counts are missing from a run on either side
  (a run that crashed or timed out counts as missing everything).

Standard library only, so it runs on every Python the tests run on.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The workloads the gate runs, by name, and the base/head pairs of each;
#: pair ``i`` runs seed ``i + 1`` on both sides.  ``fifo-stream`` is not in
#: ``BENCHMARK.json``'s list, but it is the only workload on the engine's
#: inlined FIFO fast lane.  Its run is a single 1M-job replay, rescaled by
#: just the two host-speed readings around it, so on a shared host its
#: metrics spread far more than the medians of the other workloads' many
#: short operations (about +-25% against +-8% on a 2-vCPU VM): it needs
#: more pairs for its median to hold inside the bounds.
PAIRS = {"paper-google": 5, "sweep": 5, "fifo-stream": 11}
#: perfbench's ``--seconds``: every run repeats its operation for about
#: this long (a fifo-stream replay takes longer, so it runs once).
SECONDS = 5
#: What each side contributes from its own checkout.
PROGRAM = ("src", "examples")
#: A run still going after this many seconds is stopped and counts as missing.
TIMEOUT_S = 900

#: A perfbench result object: the last line of its stdout, ``None`` if the
#: run produced none.
Result = Optional[Dict[str, Any]]


def metric_value(result: Result, name: str) -> Optional[float]:
    """The finite value of metric ``name`` in ``result``, or ``None``."""
    try:
        value = result["metrics"][name]["value"]
    except (KeyError, TypeError):
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value) if math.isfinite(value) else None


def failed_share(results: Sequence[Result]) -> Optional[float]:
    """``failed / attempted`` summed over ``results``; ``None`` if any count is missing."""
    attempted = failed = 0
    for result in results:
        try:
            attempted += int(result["attempted"])
            failed += int(result["failed"])
        except (KeyError, TypeError, ValueError):
            return None
    return failed / attempted if attempted else None


def judge(
    end_to_end: Sequence[Dict[str, Any]], base: Sequence[Result], head: Sequence[Result]
) -> Tuple[List[str], List[str]]:
    """Verdict lines and failures for one workload's base and head runs.

    ``end_to_end`` is ``BENCHMARK.json``'s list of end-to-end metrics
    (``name``, ``better`` and ``bound`` each); ``base`` and ``head`` hold
    each side's result objects.  See the module docstring for the rule.
    """
    sides = {"base": base, "head": head}
    lines: List[str] = []
    failures: List[str] = []
    for metric in end_to_end:
        name, bound = metric["name"], float(metric["bound"])
        values = {side: [metric_value(r, name) for r in runs] for side, runs in sides.items()}
        missing = [side for side, found in values.items() if not found or None in found]
        if missing:
            failures.append(f"{name}: missing on {' and '.join(missing)}")
            lines.append(f"  {name:<24} MISSING on {' and '.join(missing)}")
            continue
        base_median = statistics.median(values["base"])
        head_median = statistics.median(values["head"])
        if metric["better"] == "higher":
            limit = base_median * (1.0 - bound)
            worse = head_median < limit
        else:
            limit = base_median * (1.0 + bound)
            worse = head_median > limit
        lines.append(
            f"  {name:<24} base {base_median:>12.4g}  head {head_median:>12.4g}  "
            f"limit {limit:>12.4g}  {'WORSE' if worse else 'ok'}"
        )
        if worse:
            failures.append(
                f"{name}: head median {head_median:.4g} is worse than base median "
                f"{base_median:.4g} by more than {bound:.0%}"
            )
    shares = {side: failed_share(runs) for side, runs in sides.items()}
    missing = [side for side, share in shares.items() if share is None]
    if missing:
        failures.append(f"failed/attempted: missing on {' and '.join(missing)}")
        lines.append(f"  {'failed/attempted':<24} MISSING on {' and '.join(missing)}")
    else:
        rose = shares["head"] > shares["base"]
        lines.append(
            f"  {'failed/attempted':<24} base {shares['base']:>12.4g}  "
            f"head {shares['head']:>12.4g}  {'ROSE' if rose else 'ok'}"
        )
        if rose:
            failures.append(
                f"failed/attempted rose from {shares['base']:.4g} to {shares['head']:.4g}"
            )
    return lines, failures


def stage(tree: Path, bench: Path, into: Path) -> Path:
    """Copy ``tree``'s program and ``bench``'s benchmark into ``into``."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info")
    for name in PROGRAM:
        shutil.copytree(tree / name, into / name, ignore=ignore)
    shutil.copytree(bench / "perfbench", into / "perfbench", ignore=ignore)
    shutil.copy2(bench / "BENCHMARK.json", into / "BENCHMARK.json")
    return into


def run_once(root: Path, workload: str, seed: int) -> Result:
    """One untraced perfbench run in ``root``; its result object, or ``None``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", "0",
    ]
    try:
        done = subprocess.run(
            command, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired:
        print(f"perf gate: {workload} seed {seed} timed out in {root}", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    try:
        if done.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    print(f"perf gate: {workload} seed {seed} failed in {root}:\n{done.stderr}", file=sys.stderr)
    return None


def row(cells: Sequence[str], names: Sequence[str]) -> str:
    """One line of the per-pair table: workload, pair, side, metrics, failed."""
    workload, pair, side, *values, failed = cells
    columns = "".join(f"{value:>{max(len(name), 10) + 2}}" for name, value in zip(names, values))
    return f"{workload:<13}{pair:>5} {side:<5}{columns}{failed:>9}"


def run_row(workload: str, pair: int, side: str, names: Sequence[str], result: Result) -> str:
    """The table line of one run."""
    values = [metric_value(result, name) for name in names]
    counts = "-" if failed_share([result]) is None else f"{result['failed']}/{result['attempted']}"
    cells = ["-" if value is None else format(value, ".6g") for value in values]
    return row([workload, str(pair), side, *cells, counts], names)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the pairs, print the table and verdicts; 1 on any failure."""
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print("usage: python tools/perf_gate.py BASE_DIR HEAD_DIR", file=sys.stderr)
        return 2
    trees = {"base": Path(args[0]).resolve(), "head": Path(args[1]).resolve()}
    end_to_end = json.loads((trees["head"] / "BENCHMARK.json").read_text())["end_to_end"]
    names = [metric["name"] for metric in end_to_end]
    failures: List[str] = []
    verdicts: List[str] = []
    print(
        f"perf gate: base {trees['base']}, head {trees['head']} (benchmark from head); "
        + ", ".join(f"{workload} {pairs} pairs" for workload, pairs in PAIRS.items())
        + f" of {SECONDS} s"
    )
    print(row(["workload", "pair", "side", *names, "failed"], names))
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as scratch:
        roots = {
            side: stage(tree, trees["head"], Path(scratch) / side) for side, tree in trees.items()
        }
        for workload, pairs in PAIRS.items():
            results: Dict[str, List[Result]] = {"base": [], "head": []}
            for pair in range(pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    result = run_once(roots[side], workload, seed=pair + 1)
                    results[side].append(result)
                    print(run_row(workload, pair + 1, side, names, result), flush=True)
            lines, failed = judge(end_to_end, results["base"], results["head"])
            verdicts += [f"{workload}:"] + lines
            failures += [f"{workload}: {failure}" for failure in failed]
    print("\n".join(verdicts))
    if failures:
        print("FAILED:\n  " + "\n  ".join(failures))
        return 1
    print("OK: no end-to-end metric worse than its bound, no rise in failed operations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
