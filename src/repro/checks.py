"""The one rule per numeric knob: every user knob is checked here.

A constructor that takes a user knob -- a workload factory, a duration
distribution, a scenario process, a policy, the engine, a run spec, an
experiment config or a study -- calls one of these three checks on it, so
a bad number is rejected where it enters, with a ``ValueError`` naming
the knob, instead of surfacing later as a NaN flowtime, a silently
truncated count or a crash inside a run.  Each check rejects NaN, ±inf
and bools, and returns the value as an ``int`` or ``float``, so a caller
that coerces a spec-file value checks and coerces it in one step.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

__all__ = ["MAX_REAL", "check_count", "check_real", "check_range", "parse_knob"]

#: The largest magnitude a real knob may take.  A run multiplies and sums
#: its knobs (a weight times a flowtime, a task count times a duration):
#: at 1e308 those overflow to inf, while a product of three knobs at this
#: cap is still far below the largest float (about 1.8e308).
MAX_REAL = 1e100


def check_count(name: str, value: object, minimum: int = 0) -> int:
    """Return ``value`` as an ``int`` if it is an integer ``>= minimum``.

    Bools and floats are rejected even when they compare in range (2.5
    tasks, 3.0 machines, ``True`` tasks); numpy integers are integers.
    """
    if (
        type(value) is not int
        and (isinstance(value, bool) or not isinstance(value, Integral))
    ) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _as_float(value: object) -> float:
    """``value`` as a ``float``; NaN, which fails every check, if it is no real number."""
    if type(value) is float:
        return value
    if isinstance(value, Real) and not isinstance(value, bool):
        return float(value)
    return math.nan


def check_real(name: str, value: object, *, positive: bool = False) -> float:
    """Return ``value`` as a ``float`` if it is ``> 0`` (``positive``) or ``>= 0``, and finite.

    Finite means at most :data:`MAX_REAL`.
    """
    number = _as_float(value)
    if not ((0 < number if positive else 0 <= number) and number <= MAX_REAL):
        sign = "positive" if positive else "non-negative"
        raise ValueError(
            f"{name} must be {sign} and finite (at most {MAX_REAL:g}), got {value!r}"
        )
    return number


def check_range(
    name: str,
    value: object,
    low: float,
    high: float = MAX_REAL,
    *,
    closed: str = "both",
) -> float:
    """Return ``value`` as a ``float`` if it is finite and lies between ``low`` and ``high``.

    ``closed`` says which ends belong to the interval, as for
    ``pandas.Interval``: ``"both"``, ``"left"``, ``"right"`` or
    ``"neither"``.  Without a ``high`` the interval is bounded by
    :data:`MAX_REAL` only: ``check_range("factor", f, 1)`` accepts every
    finite ``f >= 1``.
    """
    number = _as_float(value)
    low_in = closed in ("both", "left")
    high_in = closed in ("both", "right")
    if not (
        (low <= number if low_in else low < number)
        and (number <= high if high_in else number < high)
        and -MAX_REAL <= number <= MAX_REAL
    ):
        if high != MAX_REAL:
            interval = f"{'[' if low_in else '('}{low}, {high}{']' if high_in else ')'}"
            raise ValueError(f"{name} must lie in {interval}, got {value!r}")
        rule = f"be >= {low} and" if low_in else f"exceed {low} and be"
        raise ValueError(f"{name} must {rule} finite (at most {MAX_REAL:g}), got {value!r}")
    return number


def parse_knob(text: str) -> object:
    """A knob written as text: an ``int`` or ``float`` if it reads as one, else the text.

    Text that reads as no number is returned as it is, so the knob's own
    check rejects it by name (``check_real("rate", "abc")`` names
    ``rate``), exactly as it rejects a non-number in a spec file.
    """
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text
