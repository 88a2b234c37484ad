"""One record for every verification decision, and one worst-case rule.

Python's ``max`` keeps its first argument when the next one is NaN
(``max(0.0, nan)`` is 0.0), so a fold over errors lets a broken route
pass.  ``worst`` returns NaN instead, and ``value < tolerance`` fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["DIGITS_CAP", "Check", "worst"]

# Digits a float64 value can sit below its tolerance; zero reads this.
DIGITS_CAP = 16.0


@dataclass(frozen=True)
class Check:
    """One decision about the unit of work named by ``params``.

    A float check passes when ``value < tolerance``.  An exact check has
    ``tolerance`` None; its ``value`` is JSON-native: the witness of a
    failure, or what was compared.
    """

    name: str
    params: dict
    value: Any
    tolerance: float | None
    passed: bool

    @classmethod
    def within(cls, name: str, params: dict, value: float, tolerance: float) -> Check:
        value = float(value)
        return cls(name, params, value, tolerance, value < tolerance)

    @property
    def margin_digits(self) -> float | None:
        """log10(tolerance / |value|) capped at DIGITS_CAP; -inf for a
        value that is not finite, None for an exact check."""
        if self.tolerance is None:
            return None
        v = abs(self.value)
        if not math.isfinite(v):
            return -math.inf
        return DIGITS_CAP if v == 0 else min(DIGITS_CAP, math.log10(self.tolerance) - math.log10(v))


def worst(*values) -> float:
    """The largest entry of numbers and arrays; NaN when any entry is NaN."""
    if not values:
        raise ValueError("worst() needs at least one value")
    out = -math.inf
    for v in values:
        v = float(v) if isinstance(v, (int, float)) else float(np.max(v))
        if v != v:
            return math.nan
        if v > out:
            out = v
    return out
