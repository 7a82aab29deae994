"""Construction-time checks for the numbers a workload description carries.

Each check raises ``ValueError`` naming the field, so a bad number is
rejected where it enters (a ``JobSpec``, a ``StageSpec``) instead of
surfacing later as a NaN flowtime or a ``TypeError`` deep in the engine.
NaN fails every comparison, so each check is written to let only valid
values through.
"""

from __future__ import annotations

import math
from numbers import Integral

__all__ = ["check_count", "check_real"]


def check_count(name: str, value: object, minimum: int = 0) -> None:
    """Reject ``value`` unless it is an integer ``>= minimum``.

    Bools and floats are rejected even when they compare in range (2.5
    tasks, ``True`` tasks); numpy integers are integers.
    """
    if (
        type(value) is not int
        and (isinstance(value, bool) or not isinstance(value, Integral))
    ) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value: float, *, positive: bool = False) -> None:
    """Reject ``value`` unless it is finite and ``> 0`` (``positive``) or ``>= 0``."""
    if positive:
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    elif not 0 <= value < math.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
