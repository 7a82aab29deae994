"""Measurement plumbing shared by the workloads: spans, statistics, output.

The traced run records spans from *outside* the program: :meth:`Tracer.wrap`
replaces one public method on one object with a timing wrapper (an
instance attribute, so the class -- and every gate that inspects it, such
as the engine's FIFO fast-lane check on ``type(scheduler).schedule`` --
is untouched).  Spans opened on the main thread nest on a stack, so each
layer's *self* time is its span time minus the part its child spans
cover; spans on other threads (the sweep daemon's executor) only record
durations.  The workload's timed window is itself a ``root`` span whose
self time is the part no layer claims: ``trace.unattributed_frac``.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

#: Layer name of the traced window itself; its self time is unattributed.
ROOT = "root"


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self) -> None:
        self._main = threading.get_ident()
        #: Open main-thread spans: ``[layer, child_seconds]`` frames.
        self._stack: List[List[Any]] = []
        #: Main-thread self seconds per layer.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Span durations (seconds) per key, from every thread.
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: Sizes of wrapped calls' return values, per key (see :meth:`wrap`).
        self.counts: Dict[str, List[float]] = defaultdict(list)
        #: When set, spans are also recorded under ``key@phase`` (e.g. the
        #: cold and warm legs of a sweep share wrappers but not statistics).
        self.phase: Optional[str] = None

    def _enter(self, layer: str) -> Optional[List[Any]]:
        """Open a span of ``layer`` (main thread only; elsewhere no frame)."""
        if threading.get_ident() != self._main:
            return None
        frame = [layer, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: Optional[List[Any]], key: str, elapsed: float) -> None:
        """Close the span opened by :meth:`_enter`, recording it under ``key``."""
        self.durations[key].append(elapsed)
        if self.phase is not None:
            self.durations[f"{key}@{self.phase}"].append(elapsed)
        if frame is None:
            return
        self._stack.pop()
        self.self_s[frame[0]] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def call(self, layer: str, key: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer`` named ``key``."""
        frame = self._enter(layer)
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, key, perf_counter() - started)

    def wrap(
        self,
        obj: Any,
        attr: str,
        layer: str,
        key: Optional[str] = None,
        size: Optional[Callable[[Any], float]] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper on the instance.

        ``size``, when given, is applied to each return value and recorded
        in :attr:`counts` (e.g. ``len`` of the launch requests of one
        ``schedule()`` call).
        """
        fn = getattr(obj, attr)
        key = key or f"{layer}.{attr}"
        enter, exit_, sizes = self._enter, self._exit, self.counts[key]

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = enter(layer)
            started = perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                exit_(frame, key, perf_counter() - started)
            if size is not None:
                sizes.append(size(value))
            return value

        object.__setattr__(obj, attr, wrapper)

    @contextmanager
    def window(self) -> Iterator[None]:
        """The timed window itself: a ``root`` span around the layer spans."""
        frame = self._enter(ROOT)
        started = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, ROOT, perf_counter() - started)

    def total(self, key: str) -> float:
        """Summed duration of every span recorded under ``key``."""
        return float(sum(self.durations.get(key, ())))

    def n(self, key: str) -> int:
        """Number of spans recorded under ``key``."""
        return len(self.durations.get(key, ()))


class Untraced:
    """The tracer of an untraced run: calls straight through, records nothing."""

    @property
    def phase(self) -> None:
        """Always ``None``; setting it is ignored."""
        return None

    @phase.setter
    def phase(self, value: Optional[str]) -> None:
        pass

    def call(self, layer: str, key: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)``."""
        return fn(*args, **kwargs)

    def wrap(self, *args: Any, **kwargs: Any) -> None:
        """Leave the method alone."""

    @contextmanager
    def window(self) -> Iterator[None]:
        """No span."""
        yield


#: Shared stand-in for "no tracing" (it holds no state).
UNTRACED = Untraced()


#: Iterations of one reference-kernel call, and the calls per reading.
KERNEL_STEPS = 10_000
KERNEL_CALLS = 3
#: Reference-kernel reading (seconds) that defines reference speed: what a
#: 2-vCPU cloud VM (Python 3.11) reads when its neighbours are quiet, so
#: rescaled seconds are about that host's undisturbed wall seconds.
REFERENCE_KERNEL_S = 0.0085


def _reference_kernel(steps: int) -> int:
    """Fixed pure-Python work shaped like the simulator's: a heap, a dict, floats."""
    heap: List[Any] = []
    counts: Dict[int, int] = {}
    x = 0.5
    for i in range(steps):
        x = 3.9 * x * (1.0 - x)
        heapq.heappush(heap, (x, i))
        counts[i & 511] = counts.get(i & 511, 0) + 1
        if len(heap) > 256:
            heapq.heappop(heap)
    return len(heap) + len(counts)


def kernel_seconds() -> float:
    """The host's current speed: fastest of a few timed reference-kernel calls.

    The garbage collector is off meanwhile, so the reading does not depend
    on how many objects the program holds (a collection scans them all).
    """
    fastest = math.inf
    gc.disable()
    try:
        for _ in range(KERNEL_CALLS):
            started = perf_counter()
            _reference_kernel(KERNEL_STEPS)
            fastest = min(fastest, perf_counter() - started)
    finally:
        gc.enable()
    return fastest


class HostSpeed:
    """Rescales host seconds to reference speed, one timed operation at a time.

    A shared host's speed swings by up to 2x within seconds, as neighbours
    load the CPUs, and that swing -- not the program -- dominated the
    run-to-run spread of raw wall times.  The reference kernel is read
    before the first operation and after each one (outside the timed
    windows); an operation's seconds are multiplied by
    ``REFERENCE_KERNEL_S / mean(reading before, reading after)``.  The
    kernel runs no program code, so a change to the program moves the
    rescaled time exactly as much as the raw one.
    """

    def __init__(self) -> None:
        self.last = kernel_seconds()
        #: Every reading, in order (for the detail report).
        self.readings: List[float] = [self.last]

    def factor(self) -> float:
        """Rescaling factor for the operation that just ended."""
        now = kernel_seconds()
        self.readings.append(now)
        before, self.last = self.last, now
        return REFERENCE_KERNEL_S / ((before + now) / 2.0)


def median(values: Iterable[float]) -> float:
    """Median of ``values`` (0.0 for none)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0.0 for none)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest(root: Path) -> str:
    """SHA-256 over the program's Python sources (names and bytes)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit(root: Path) -> Optional[str]:
    """The checkout's git commit, or ``None`` unless ``root`` is a work tree's top."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def machine_shape(root: Path) -> Dict[str, Any]:
    """Where the numbers came from: CPUs, interpreter, numpy, code version."""
    import numpy

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit(root),
        "source_sha256": source_digest(root),
    }


def emit(report: Dict[str, Any], metrics: Dict[str, Any], attempted: int, failed: int) -> None:
    """Print the detail report, then the one-line result the regression gate reads."""
    print(json.dumps({"perfbench": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()
