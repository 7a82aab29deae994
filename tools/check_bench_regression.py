#!/usr/bin/env python
"""CI perf-regression gate over committed benchmark baselines.

Compares a freshly measured benchmark JSON (the file the benchmark run
wrote, e.g. ``.benchmarks/BENCH_engine.json``) against the committed
baseline (``benchmarks/results/BENCH_engine.json``) and **fails** when
any shared throughput metric dropped by more than the tolerance::

    python tools/check_bench_regression.py \
        --baseline benchmarks/results/BENCH_engine.json \
        --measured .benchmarks/BENCH_engine.json \
        [--tolerance 0.25]

Comparable metrics are numeric leaves whose key indicates a
higher-is-better throughput figure (``jobs_per_sec``, ``speedup`` and
nested members thereof), present in *both* files.  A measured value below
``baseline * (1 - tolerance)`` is a regression; improvements never fail
and simply move the bar for the next re-baseline.  Finding *nothing*
comparable is itself an error -- a renamed key must not silently disarm
the gate.

The tolerance defaults to 0.25 (25%) and can be set with ``--tolerance``
or the ``BENCH_REGRESSION_TOLERANCE`` environment variable (the CI knob
for noisy shared runners -- see README "Performance gate").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterator, Tuple

#: Key prefixes of higher-is-better throughput leaves the gate compares.
THROUGHPUT_KEYS = ("jobs_per_sec", "speedup")


def iter_numeric_leaves(payload: object, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every numeric leaf of ``payload``."""
    if isinstance(payload, dict):
        for key in sorted(payload):
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from iter_numeric_leaves(payload[key], path)
    elif isinstance(payload, bool):
        return
    elif isinstance(payload, (int, float)):
        yield prefix, float(payload)


def throughput_leaves(payload: object) -> Dict[str, float]:
    """Numeric leaves whose path names a throughput metric (see module doc)."""
    return {
        path: value
        for path, value in iter_numeric_leaves(payload)
        if any(part.startswith(THROUGHPUT_KEYS) for part in path.split("."))
    }


def check(baseline: dict, measured: dict, tolerance: float) -> int:
    """Print a comparison table; return the number of regressions."""
    base = throughput_leaves(baseline)
    fresh = throughput_leaves(measured)
    shared = sorted(set(base) & set(fresh))
    regressions = 0
    for path in shared:
        floor = base[path] * (1.0 - tolerance)
        ratio = fresh[path] / base[path] if base[path] else float("inf")
        status = "ok"
        if fresh[path] < floor:
            status = "REGRESSION"
            regressions += 1
        print(
            f"  {status:>10}  {path}: baseline={base[path]:g} "
            f"measured={fresh[path]:g} ({ratio:.2%} of baseline, "
            f"floor={floor:g})"
        )
    return regressions


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON")
    parser.add_argument("--measured", required=True,
                        help="freshly measured benchmark JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_REGRESSION_TOLERANCE", "0.25")),
        help="allowed fractional drop before failing "
             "(default 0.25, env BENCH_REGRESSION_TOLERANCE)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error(f"tolerance must be in [0, 1), got {args.tolerance}")
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.measured) as handle:
        measured = json.load(handle)
    print(
        f"Perf gate: tolerance {args.tolerance:.0%} "
        f"({args.baseline} vs {args.measured})"
    )
    base = throughput_leaves(baseline)
    fresh = throughput_leaves(measured)
    if not set(base) & set(fresh):
        print(
            "ERROR: no comparable throughput metrics shared between baseline "
            "and measured JSON -- the gate would be vacuous.",
            file=sys.stderr,
        )
        return 1
    regressions = check(baseline, measured, args.tolerance)
    if regressions:
        print(
            f"FAILED: {regressions} throughput metric(s) regressed beyond "
            f"{args.tolerance:.0%}. If the drop is expected (slower code "
            "traded for a feature) re-baseline by copying the measured JSON "
            "over the baseline and committing it; if the runner is noisy, "
            "raise BENCH_REGRESSION_TOLERANCE.",
            file=sys.stderr,
        )
        return 1
    print(f"OK: {len(throughput_leaves(measured))} metrics measured, "
          "no regression beyond tolerance.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
