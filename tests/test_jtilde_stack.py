"""The Bessel stack of the series and radial routes, against a 60-digit
mpmath oracle and against scipy's jv as an independent reference."""

from __future__ import annotations

import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings, strategies as st

from clifft import series
from clifft.series import jtilde_stack
from clifft.special import bessel_jtilde

ORACLE_BOUND = 1e-13


def _oracle_error(value: float, nu: float, t: float) -> float:
    """|value - jtilde_nu(t)| against |jtilde_nu(t)| where t < nu (and at
    t = 0), against (|J_nu(t)| + |Y_nu(t)|) t^(-nu) where t >= nu."""
    with mpmath.workdps(60):
        tm = mpmath.mpf(t)
        if t == 0:
            ref = mpmath.mpf(2) ** (-nu) / mpmath.gamma(nu + 1)
            return float(abs(value - ref) / abs(ref))
        j = mpmath.besselj(nu, tm)
        ref = j * tm ** (-nu)
        if t < nu:
            scale = abs(ref)
        else:
            scale = (abs(j) + abs(mpmath.bessely(nu, tm))) * tm ** (-nu)
        return float(abs(value - ref) / scale)


def test_jtilde_stack_against_mpmath_oracle():
    worst = {"jtilde_stack": 0.0, "bessel_jtilde": 0.0}

    @settings(max_examples=30, deadline=None, database=None)
    @given(
        st.integers(min_value=-1, max_value=200),
        st.integers(min_value=0, max_value=3),
        st.lists(st.floats(min_value=0.0, max_value=40.0), min_size=1, max_size=3),
    )
    @example(-1, 5, [1.0])
    @example(3, 3, [1.0 - 1e-9, 1.0, 1.0 + 1e-9])
    @example(20, 3, [10.0, 11.0, 12.0, 13.0])  # t = nu on every row
    @example(9, 2, [4.5, 5.5, 6.5])
    # bessel_jtilde's closed forms for orders 5/2 to 9/2 cancel near t = 1
    # (4.8e-12 at 9/2), so it keeps the power series there up to t = 4
    @example(5, 2, [1.0, 1.5, 2.0, 3.0, 3.999, 4.0])
    @example(40, 4, [0.0, 0.5, 1.0, 7.0, 21.5, 30.0])  # every region in one call
    @example(195, 2, [0.99, 1.0, 39.0, 40.0])
    # below t = 1 every row comes from Miller's recurrence; row 0 near
    # t = 0 is the far end of a deep stack
    @example(-1, 100, [0.0, 1e-8, 1.0 - 1e-9])
    @example(0, 100, [0.0, 1e-8, 1.0 - 1e-9])
    def check(twice_min: int, n: int, ts: list[float]) -> None:
        n = min(n, (200 - twice_min) // 2)
        rows = jtilde_stack(twice_min, n, np.array(ts))
        for j in range(n + 1):
            twice = twice_min + 2 * j
            nu = twice / 2.0
            ref_rows = bessel_jtilde(twice, np.array(ts))
            for t, got, old in zip(ts, rows[j], ref_rows):
                err = _oracle_error(float(got), nu, t)
                assert err <= ORACLE_BOUND, (twice, t, err)
                worst["jtilde_stack"] = max(worst["jtilde_stack"], err)
                worst["bessel_jtilde"] = max(worst["bessel_jtilde"], _oracle_error(float(old), nu, t))

    check()
    print("worst error against the 60-digit oracle:", worst)
    assert worst["bessel_jtilde"] <= ORACLE_BOUND


def _scipy_rows(twice_min: int, n: int, t: np.ndarray):
    """scipy's jv(nu, t)/t^nu per row, with the oracle's error scale."""
    for j in range(n + 1):
        nu = twice_min / 2.0 + j
        want = sp.jv(nu, t) / t**nu
        scale = np.where(t < nu, np.abs(want), (np.abs(sp.jv(nu, t)) + np.abs(sp.yv(nu, t))) / t**nu)
        yield j, want, scale


@pytest.mark.parametrize("twice_min", [-1, 0, 1, 2, 7, 40, 117])
def test_rows_match_scipy_above_one(twice_min):
    t = np.concatenate([np.linspace(1.0, 40.0, 157), [1.0 + 1e-9, 62.0, 64.5, 90.0]])
    n = 12
    rows = jtilde_stack(twice_min, n, t)
    for j, want, scale in _scipy_rows(twice_min, n, t):
        assert np.all(np.abs(rows[j] - want) <= 1e-12 * scale), (twice_min, j)


def test_shapes_follow_t():
    assert jtilde_stack(3, 4, 2.5).shape == (5,)
    assert jtilde_stack(3, 4, np.linspace(0.0, 9.0, 7)).shape == (5, 7)
    t2 = np.linspace(0.0, 9.0, 12).reshape(3, 4)
    rows = jtilde_stack(3, 4, t2)
    assert rows.shape == (5, 3, 4)
    assert np.array_equal(rows.reshape(5, -1), jtilde_stack(3, 4, t2.reshape(-1)))


def test_point_count_off_the_block_size():
    size = series._STACK_BLOCK + 37
    t = np.linspace(0.0, 30.0, size)
    rows = jtilde_stack(4, 6, t)
    assert rows.shape == (7, size)
    # each block gives what the points give on their own
    tail = jtilde_stack(4, 6, t[-37:])
    assert np.array_equal(rows[:, -37:], tail)
    big = t >= 1.0
    for j, want, scale in _scipy_rows(4, 6, t[big]):
        assert np.all(np.abs(rows[j, big] - want) <= 1e-12 * scale)


def test_single_row():
    t = np.array([0.0, 0.4, 1.0, 3.0, 25.0])
    for twice in (-1, 2, 9, 30):
        row = jtilde_stack(twice, 0, t)
        assert row.shape == (1, 5)
        want = bessel_jtilde(twice, t[:2])
        assert np.all(np.abs(row[0, :2] - want) <= 1e-14 * want), twice
        for _, want, scale in _scipy_rows(twice, 0, t[2:]):
            assert np.all(np.abs(row[0, 2:] - want) <= 1e-12 * scale)


def test_one_call_mixes_every_region():
    # top order 14: t = 0, t < 1, 1 <= t < 14 (backward), t >= 14 (upward)
    twice_min, n = 10, 9
    t = np.array([0.0, 0.3, 0.999, 1.0, 2.0, 9.5, 13.99, 14.0, 20.0, 37.0])
    rows = jtilde_stack(twice_min, n, t)
    for j in range(n + 1):
        twice = twice_min + 2 * j
        # below t = 1 every row comes from Miller's recurrence, normalised
        # by bessel_jtilde's power series at the base orders 0 and 1
        want = bessel_jtilde(twice, t[:3])
        assert np.all(np.abs(rows[j, :3] - want) <= 1e-14 * np.abs(want)), twice
        assert rows[j, 0] == pytest.approx(2.0 ** (-twice / 2) / sp.gamma(twice / 2 + 1), rel=1e-14)
    for j, want, scale in _scipy_rows(twice_min, n, t[3:]):
        assert np.all(np.abs(rows[j, 3:] - want) <= 1e-12 * scale)


@pytest.mark.parametrize("twice_min", [-1, 0, 1, 150, 278, 279, 280, 281, 400])
def test_deep_stacks_below_one_follow_bessel_jtilde(twice_min):
    # jtilde_nu(0) = 1/(2^nu nu!) is subnormal from about order 150 on and
    # 0.0 from 157: where bessel_jtilde's power series is a normal float
    # the rows follow it to 1e-14 relative, and elsewhere they are at most
    # 1e-307, below the smallest normal float's fivefold
    t = np.array([0.0, 1e-8, 0.5, 0.999])
    rows = jtilde_stack(twice_min, 200, t)
    worst_rel, worst_abs = 0.0, 0.0
    for j in range(201):
        twice = twice_min + 2 * j
        want = bessel_jtilde(twice, t)
        normal = want >= np.finfo(float).tiny
        err = np.abs(rows[j] - want)
        assert np.all(err[normal] <= 1e-14 * want[normal]), twice
        assert np.all(np.abs(rows[j, ~normal]) <= 1e-307), twice
        worst_rel = max(worst_rel, np.max(err[normal] / want[normal], initial=0.0))
        worst_abs = max(worst_abs, np.max(np.abs(rows[j, ~normal]), initial=0.0))
    print(f"twice_min {twice_min}: worst relative {worst_rel:.1e}, "
          f"worst where subnormal or 0 {worst_abs:.1e}")


@pytest.mark.parametrize(
    "args",
    [(-2, 3, [1.0]), (-3, 0, [1.0]), (0, -1, [1.0]), (2, 3, [0.5, -1e-12])],
)
def test_rejects_bad_input(args):
    with pytest.raises(ValueError):
        jtilde_stack(*args)


def test_rejects_a_non_integer_twice_order():
    # 1.5 is no twice-order, and 2.5 no row count: int() would quietly
    # read them as 1 and 2
    with pytest.raises(TypeError):
        jtilde_stack(1.5, 3, [1.0])
    with pytest.raises(TypeError):
        jtilde_stack(1, 2.5, [1.0])


def test_memory_stays_within_three_outputs():
    cases = [
        (0, np.linspace(0.0, 30.0, 10**6)),
        (40, np.linspace(0.0, 30.0, 10**5)),
        (40, np.linspace(0.0, 0.999, 10**5)),  # every row below t = 1
    ]
    for n, z in cases:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            rows = jtilde_stack(2, n, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.nbytes == 8 * (n + 1) * z.size
        print(f"n = {n}, t <= {z[-1]}: peak {peak / rows.nbytes:.2f} outputs")
        assert peak < 3 * rows.nbytes, (n, peak)
