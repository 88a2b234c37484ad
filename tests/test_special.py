from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st

from clifft import special
from clifft.special import (
    bessel_jtilde,
    chebyshev_t,
    chebyshev_t_all,
    chebyshev_u_all,
    double_factorial,
    gegenbauer,
    gegenbauer_all,
    laguerre,
)


def both_paths(two: int, ts: np.ndarray) -> np.ndarray:
    """bessel_jtilde on the array ts and on each of its points as a float:
    two rows, so that every oracle below holds both paths."""
    points = [bessel_jtilde(two, t) for t in ts.tolist()]
    assert all(type(p) is float for p in points)
    return np.stack([bessel_jtilde(two, ts), np.array(points)])


def test_jtilde_point_path_equals_array_path_bit_for_bit():
    # twice-orders -1..21 on [0, 60], with points on and next to every
    # switch: t = 1, t = 4 for the orders that keep the series that far,
    # the Taylor centres' edges at the integers 2..24 and Hankel's
    # expansion at t = 25 for J_0 and J_1, and t = order, where the
    # three-term relation turns from Miller's recurrence to upward; the
    # 0-d path runs the array path's series and large-t functions
    cuts = np.arange(1.0, 25.5, 0.5)
    ts = np.unique(np.concatenate([
        np.linspace(0.0, 60.0, 3001), cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, np.inf),
    ]))
    for two in range(-1, 22):
        array, point = both_paths(two, ts)
        assert np.array_equal(point, array), two
        zero_d = [bessel_jtilde(two, np.asarray(t)) for t in ts[::50]]
        assert np.array_equal(zero_d, array[::50]), two


def test_jtilde_blocks_of_a_large_array_equal_the_point_path():
    # an array of several blocks, in two dimensions: one block below every
    # cutoff, one above, one split by the cutoff and a short last one
    rng = np.random.default_rng(7)
    n = special._BLOCK
    ts = np.concatenate([
        rng.uniform(0.0, 1.0, n), rng.uniform(4.0, 60.0, n), rng.uniform(0.0, 8.0, n), rng.uniform(0.0, 60.0, 100),
    ])
    for two in (1, 2, 9):
        array = bessel_jtilde(two, ts.reshape(2, -1))
        assert array.shape == (2, ts.size // 2)
        assert np.array_equal(array.ravel(), [bessel_jtilde(two, t) for t in ts.tolist()]), two


def test_jtilde_matches_direct_quotient_above_one():
    t = np.linspace(1.0, 9.0, 40)
    for two in (-1, 1, 3, 4, 5, 8):
        want = sp.jv(two / 2, t) / t ** (two / 2)
        for got in both_paths(two, t):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def test_jtilde_series_continuous_across_switch():
    # the power series (t < 1) and closed forms (t >= 1) must agree
    # to near machine precision at the seam
    for two in (-1, 1, 3, 5, 7):
        below = bessel_jtilde(two, 1.0 - 1e-9)
        above = bessel_jtilde(two, 1.0 + 1e-9)
        assert below == pytest.approx(above, rel=1e-7)


def test_jtilde_small_argument_is_stable():
    # naive jv/t^alpha is 0/0 at the origin; the series value is finite
    # (jtilde_alpha(0) = 2^(-alpha)/Gamma(alpha + 1) at alpha = 5/2)
    val = bessel_jtilde(5, np.array([0.0, 1e-8]))
    limit = 1.0 / (2**2.5 * math.gamma(3.5))
    assert val[0] == pytest.approx(limit, rel=1e-14)
    assert val[1] == pytest.approx(limit, rel=1e-10)


def test_jtilde_power_series_against_mpmath_below_one():
    # every coefficient is rounded once from an exact rational, so the
    # t < 1 branch stays within a few ulps at every order
    ts = np.linspace(0.0, 1.0, 41, endpoint=False)
    worst = 0.0
    with mpmath.workdps(60):
        for two in range(-1, 201):
            nu = mpmath.mpf(two) / 2
            got = both_paths(two, ts)
            for t, values in zip(ts, got.T):
                tm = mpmath.mpf(t)
                ref = mpmath.besselj(nu, tm) * tm ** (-nu) if t else 1 / (2**nu * mpmath.gamma(nu + 1))
                for value in values:
                    worst = max(worst, float(abs(value - ref) / abs(ref)))
    assert worst < 2e-15


def test_jtilde_integer_orders_zero_and_one_against_mpmath():
    # orders 0 and 1 above t = 1 are J_0(t) and J_1(t)/t by clifft's own J_0
    # and J_1: Taylor expansions about the centres k + 1/2 below t = 25,
    # Hankel's expansion above.  Hold them to a 60-digit reference on
    # [1, 300], which the m = 4 composition reads up to t = 196, at the
    # first 19 zeros of J_0 and of J_1 and next to every switch (the
    # integers 2..25); the worst read is 7e-17, and scipy's own j0 is up to
    # 1.3e-15 off on [40, 300], 2.6e-14 of the envelope sqrt(2/(pi t))
    switches = np.arange(2.0, 26.0)
    with mpmath.workdps(20):
        zeros = [float(mpmath.besseljzero(nu, k)) for nu in (0, 1) for k in range(1, 20)]
    ts = np.concatenate([
        np.linspace(1.0, 300.0, 1200), [1.0 + 1e-12], zeros,
        switches, np.nextafter(switches, 0.0), np.nextafter(switches, np.inf),
    ])
    worst = {}
    with mpmath.workdps(60):
        for two in (0, 2):
            got = both_paths(two, ts)
            err = 0.0
            for t, values in zip(ts, got.T):
                tm = mpmath.mpf(t)
                ref = mpmath.besselj(two // 2, tm) / tm ** (two // 2)
                for value in values:
                    err = max(err, float(abs(value - ref) / max(1, abs(ref))))
            worst[two // 2] = err
    assert max(worst.values()) <= 1e-15, worst


def test_taylor_centre_table_is_correctly_rounded():
    # J_0 and J_1 below t = 25 expand about c = k + 1/2 from a table of
    # J_0(c) and J_1(c); each entry is the nearest float to the true value
    with mpmath.workdps(60):
        want = [tuple(float(mpmath.besselj(nu, mpmath.mpf(2 * k + 1) / 2)) for nu in (0, 1)) for k in range(1, 25)]
    assert list(special._CENTRE_VALUES) == want


def test_jtilde_generic_orders_against_mpmath():
    # every order other than -1/2..9/2, 0 and 1 runs the three-term relation
    # from the base pair of its parity, upward where t is at least the order
    # and by Miller's recurrence below it.  Twice-orders 4..40 and 11..41 on
    # [1, 60], on and next to t = order, against a 60-digit reference at the
    # scale of the stack's oracle: |jtilde_nu(t)| for t < nu, and
    # (|J_nu| + |Y_nu|) t^(-nu) above, with scipy's yv in the scale, which
    # needs no more than a digit.  The worst read is 1.4e-15; scipy's jv
    # reads 2.6e-14 on the same points
    orders = np.arange(2.0, 21.0, 0.5)
    ts = np.unique(np.concatenate([
        np.linspace(1.0, 60.0, 60), orders, np.nextafter(orders, 0.0), np.nextafter(orders, np.inf),
    ]))
    worst = {}
    with mpmath.workdps(60):
        for two in [*range(4, 41, 2), *range(11, 42, 2)]:
            nu = mpmath.mpf(two) / 2
            err = 0.0
            for t, values in zip(ts, both_paths(two, ts).T):
                tm = mpmath.mpf(t)
                j = mpmath.besselj(nu, tm)
                scale = abs(j) if t < nu else abs(j) + abs(sp.yv(two / 2, t))
                for value in values:
                    err = max(err, float(abs(value * tm**nu - j) / scale))
            worst[two] = err
    assert max(worst.values()) < 3e-15, worst


def test_half_integer_closed_forms():
    t = 1.7
    root = math.sqrt(2.0 / math.pi)
    assert bessel_jtilde(-1, t) == pytest.approx(root * math.cos(t))
    assert bessel_jtilde(1, t) == pytest.approx(root * math.sin(t) / t)


def test_half_integer_closed_forms_against_mpmath():
    # twice-orders -1..9 from each order's cutoff to 60, at every zero of
    # sin and cos up to 60 (where the half-angle cosine is weakest), and
    # far out; each error is scaled by the envelope t^(-alpha - 1/2) of
    # jtilde_alpha, against a 60-digit reference
    zeros = np.arange(1, 39) * (math.pi / 2)
    worst = {}
    with mpmath.workdps(60):
        for two in (-1, 1, 3, 5, 7, 9):
            cut = 4.0 if two >= 5 else 1.0
            ts = np.unique(np.concatenate([np.linspace(cut, 60.0, 241), zeros[zeros >= cut], [1e3, 1e6]]))
            nu = mpmath.mpf(two) / 2
            err = 0.0
            for t, values in zip(ts, both_paths(two, ts).T):
                tm = mpmath.mpf(t)
                ref = mpmath.besselj(nu, tm) * tm ** (-nu)
                for value in values:
                    err = max(err, float(abs(value - ref) * tm ** (nu + 0.5)))
            worst[two] = err
    assert max(worst.values()) < 1e-15, worst


def test_bessel_j_guards():
    # an order is twice its value as an int: 1.5 is no order; orders below
    # -1/2 are outside the kernel calculus, and so is t < 0, on either
    # path; NaN propagates through every branch
    for t, negative in ((1.0, -0.5), (np.array([1.0, 2.0]), np.array([1.0, -0.5]))):
        with pytest.raises(TypeError):
            bessel_jtilde(1.5, t)
        with pytest.raises(ValueError):
            bessel_jtilde(-3, t)
        with pytest.raises(ValueError):
            bessel_jtilde(1, negative)
        for two in (-1, 0, 1, 2, 3, 4, 5, 9, 11):
            assert np.all(np.isnan(bessel_jtilde(two, np.nan * t)))


@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=20), st.floats(-0.99, 0.99))
def test_gegenbauer_three_term_recurrence(n, w):
    lam = 1.5
    c = gegenbauer_all(n, lam, np.array([w]))
    lhs = n * c[n][0]
    rhs = 2 * (n + lam - 1) * w * c[n - 1][0] - (n + 2 * lam - 2) * c[n - 2][0]
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_gegenbauer_against_scipy():
    w = np.linspace(-1.0, 1.0, 21)
    for n in range(0, 7):
        for lam in (0.5, 1.0, 2.5):
            want = sp.eval_gegenbauer(n, lam, w)
            assert np.allclose(gegenbauer(n, lam, w), want, rtol=1e-10, atol=1e-12)


def test_chebyshev_values():
    w = np.linspace(-1.0, 1.0, 11)
    t = chebyshev_t_all(5, w)
    u = chebyshev_u_all(4, w)
    theta = np.arccos(w)
    assert np.allclose(t[5], np.cos(5 * theta), atol=1e-12)
    assert np.allclose(u[3] * np.sin(theta), np.sin(4 * theta), atol=1e-12)
    assert chebyshev_t(3, 0.4) == pytest.approx(math.cos(3 * math.acos(0.4)))


def _explicit_sums(n: int, lam, w, x, alpha):
    """C_k^lam(w), T_k(w), U_k(w) for k <= n and L_n^alpha(x), each with the
    scale its error is held to, from the explicit sums (Abramowitz &
    Stegun 22.3) in the current mpmath precision."""
    rows = []
    for k in range(n + 1):
        gegen = sum(
            (-1) ** j * mpmath.rf(lam, k - j) / (mpmath.factorial(j) * mpmath.factorial(k - 2 * j)) * (2 * w) ** (k - 2 * j)
            for j in range(k // 2 + 1)
        )
        cheb_u = sum((-1) ** j * mpmath.binomial(k - j, j) * (2 * w) ** (k - 2 * j) for j in range(k // 2 + 1))
        # max(1, C_k(1)) bounds C_k on [-1, 1]; |T_k| <= 1 and |U_k| <= k + 1
        rows.append(((gegen, max(1, mpmath.rf(2 * lam, k) / mpmath.factorial(k))),
                     (mpmath.cos(k * mpmath.acos(w)), 1), (cheb_u, k + 1)))
    terms = [(-1) ** j * mpmath.binomial(n + alpha, n - j) * x**j / mpmath.factorial(j) for j in range(n + 1)]
    return rows, (sum(terms), sum(map(abs, terms)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=20),
    st.floats(0.05, 8.0),
    st.floats(-1.0, 1.0),
    st.floats(0.0, 30.0),
    st.floats(0.0, 8.0),
)
def test_orthogonal_polynomials_against_mpmath(n, lam, w, x, alpha):
    # 60-digit references; the error of degree k is held to (k + 1) * 1e-15
    # of its scale (for Laguerre the sum of the magnitudes of its terms)
    got = zip(gegenbauer_all(n, lam, w), chebyshev_t_all(n, w), chebyshev_u_all(n, w))
    with mpmath.workdps(60):
        rows, (lag, lag_scale) = _explicit_sums(n, mpmath.mpf(lam), mpmath.mpf(w), mpmath.mpf(x), mpmath.mpf(alpha))
        for k, (values, refs) in enumerate(zip(got, rows)):
            for value, (ref, scale) in zip(values, refs):
                assert abs(value - ref) <= (k + 1) * 1e-15 * scale, k
        assert abs(laguerre(n, alpha, x) - lag) <= (n + 1) * 1e-15 * lag_scale


def test_laguerre_against_scipy():
    x = np.linspace(0.0, 12.0, 25)
    for j in range(5):
        for alpha in (0.5, 1.0, 2.5):
            want = sp.eval_genlaguerre(j, alpha, x)
            assert np.allclose(laguerre(j, alpha, x), want, rtol=1e-10, atol=1e-12)


def test_double_factorial_values():
    assert [double_factorial(n) for n in (-1, 0, 1, 2, 3, 7, 8)] == [
        1, 1, 1, 2, 3, 105, 384,
    ]
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_double_factorial_cold_call_beyond_recursion_limit():
    double_factorial.cache_clear()
    assert double_factorial(4001) == math.prod(range(4001, 0, -2))
