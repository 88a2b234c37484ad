from __future__ import annotations

import math

import numpy as np
import pytest

from clifft.checks import DIGITS_CAP, Check, worst

NAN = math.nan


@pytest.mark.parametrize(
    "values",
    [
        (NAN, 1e-9, 2e-9),
        (1e-9, NAN, 2e-9),
        (1e-9, 2e-9, NAN),
        (np.array([NAN, 1e-9]), np.array([2e-9])),
        (np.array([1e-9]), np.array([2e-9, NAN, 0.0]), np.array([3e-9])),
        (np.array([1e-9, 2e-9]), np.array([0.0, NAN])),
        (1e-9, np.array([0.5, NAN])),
    ],
)
def test_worst_is_nan_when_any_value_is_nan(values):
    assert math.isnan(worst(*values))
    assert not Check.within("probe", {}, worst(*values), 1.0).passed


def test_worst_is_the_largest_entry():
    assert worst(0.0, 3e-9, 2e-9) == 3e-9
    assert worst(np.array([1.0, -4.0]), 0.5, [0.25, 2.0]) == 2.0
    assert worst(np.float64(1e-300), 0) == 1e-300
    with pytest.raises(ValueError):
        worst()


def test_check_within_is_strict_and_margin_in_digits():
    assert Check.within("c", {}, 1e-10, 1e-8).margin_digits == pytest.approx(2.0)
    assert Check.within("c", {}, 0.0, 1e-8).margin_digits == DIGITS_CAP
    assert not Check.within("c", {}, 1e-8, 1e-8).passed
    for bad in (NAN, math.inf):
        check = Check.within("c", {}, bad, 1e-8)
        assert not check.passed
        assert check.margin_digits == -math.inf
    assert Check("exact", {"m": 2}, None, None, True).margin_digits is None
