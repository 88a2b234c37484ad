"""eval_series against the complex loop it replaced, bit for bit, and
against a 60-digit mpmath oracle of the same partial sums."""

from __future__ import annotations

import cmath
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import example, given, settings, strategies as st

from clifft.exact import Exact
from clifft.kernels import KernelId
from clifft.series import (
    SeriesCoefficients,
    eval_series,
    jtilde_stack,
    series_coefficients,
    truncation_bound,
)
from clifft.special import gegenbauer_all, gegenbauer_over_lambda_all

# The largest error of eval_series relative to sum_k |term_k| that passes.
# The worst measured is 1.3e-14, at z near 30 and w = -(1 - 2^-53): there
# the forward Gegenbauer recurrence loses accuracy with the degree (1.1e-13
# relative at degree 63, C^(1/2)), while at w = +-1 itself it is exact.
# Away from |w| = 1 the worst is 5e-15.
ORACLE_BOUND = 5e-14


def _eval_series_complex(coeffs: SeriesCoefficients, z, w, n: int):
    """The sums of eval_series in complex arithmetic, one complex product
    per term: the reference of the real-arithmetic sums, fed the same
    Bessel and Gegenbauer rows."""
    z_arr, w_arr = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(w, dtype=float))
    a_total = np.zeros(z_arr.shape, dtype=complex)
    b_total = np.zeros(z_arr.shape, dtype=complex)
    geg_a = gegenbauer_over_lambda_all(n, coeffs.lam, w_arr)
    geg_b = gegenbauer_all(max(n - 1, 0), coeffs.lam + 1.0, w_arr)
    jts = jtilde_stack(coeffs.m - 2, n, z_arr)
    zpow = np.ones_like(z_arr)
    zpow_prev = None
    for k in range(n + 1):
        jt = jts[k]
        if k == 0:
            a_total += complex(coeffs.alpha_exact(0)) * jt
        else:
            a_k = complex(coeffs.lambda_exact(k))
            if a_k:
                a_total += a_k * zpow * jt * geg_a[k]
            b_k = complex(coeffs.beta_exact(k))
            if b_k:
                b_total += b_k * zpow_prev * jt * geg_b[k - 1]
        zpow_prev = zpow
        zpow = zpow * z_arr
    return a_total, b_total


def _kernels(m_max: int) -> list[KernelId]:
    kids = [KernelId(m, i, sign) for m in range(2, m_max + 1) for i in range(m - 1)
            for sign in ("plus", "minus")]
    kids += [KernelId(m, i, sign, e_i=cmath.exp(0.7j)) for m in range(3, m_max + 1, 2)
             for i in range(m - 1) for sign in ("plus", "minus")]
    return kids


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return type(x) is type(y) and x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_eval_series_equals_the_complex_sums_bit_for_bit():
    rng = np.random.default_rng(2301)
    z = np.concatenate([[0.0, 0.5, 1.0, 2.0], rng.uniform(0.0, 30.0, 8)])
    w = np.concatenate([[1.0, -1.0, 0.0, 0.3], rng.uniform(-1.0, 1.0, 8)])
    inputs = [
        (z, w),                                # arrays
        (z[:4, None], w[None, :5]),            # broadcast to (4, 5)
        (np.float64(z[7]), np.float64(w[7])),  # 0-d
        (z[5], w),                             # a float against an array
    ]
    imaginary = 0
    for kid in _kernels(7):
        coeffs = series_coefficients(kid)
        for n in (0, 1, 2, 25, 57):
            for zz, ww in inputs:
                got, want = eval_series(coeffs, zz, ww, n), _eval_series_complex(coeffs, zz, ww, n)
                for g, r in zip(got, want):
                    assert _same_bits(g, r), (kid, n, np.shape(zz), np.shape(ww))
                imaginary += any(np.any(r.imag != 0) for r in want)
    # without imaginary parts a dropped one could not show
    assert imaginary > 0


def test_small_z_next_to_a_large_z():
    # z = 110 takes about 175 terms, so the stack of z = 0.5 reaches
    # orders whose jtilde_nu(0.5) is subnormal or 0.0.  At z = 110 itself
    # z^k overflows and the sums are NaN; only z = 0.5 is checked.
    for kid in (KernelId(2, 0), KernelId(4, 1), KernelId(3, 1, "minus")):
        coeffs = series_coefficients(kid)
        n = truncation_bound(coeffs, 110.0, 1e-12)
        assert n > 160
        with np.errstate(over="ignore", invalid="ignore"):
            got = eval_series(coeffs, np.array([0.5, 110.0]), np.array([0.3, -0.6]), n)
        for value, terms in zip(got, _oracle_terms(coeffs, n, 0.5, 0.3)):
            with mpmath.workdps(60):
                scale = mpmath.fsum(abs(x) for x in terms)
                error = abs(mpmath.mpc(value[0]) - mpmath.fsum(terms))
            assert error <= ORACLE_BOUND * scale, (kid, n, float(error / scale))


def test_gegenbauer_rows_equal_the_array_expressions_bit_for_bit():
    # the in-place recurrences against the expression per row they replaced
    w = np.concatenate([np.linspace(-1.0, 1.0, 9), [0.3]])
    for lam in (0.0, 0.5, 1.0, 2.5):
        for arr in (w, w.reshape(2, 5), np.float64(0.3)):
            want = np.full((31,) + np.shape(arr), np.nan)
            want[1] = 2.0 * arr
            for j in range(2, 31):
                prev2 = 2.0 if j == 2 else (j + 2.0 * lam - 2.0) * want[j - 2]
                want[j] = (2.0 * arr * (j + lam - 1.0) * want[j - 1] - prev2) / j
            assert _same_bits(gegenbauer_over_lambda_all(30, lam, arr), want)
            mu = lam + 1.0
            want = np.empty((31,) + np.shape(arr))
            want[0] = 1.0
            want[1] = 2.0 * mu * arr
            for j in range(2, 31):
                want[j] = (2.0 * arr * (j + mu - 1.0) * want[j - 1]
                           - (j + 2.0 * mu - 2.0) * want[j - 2]) / j
            assert _same_bits(gegenbauer_all(30, mu, arr), want)


def _mp(x: Exact):
    """(a + bi)/d u^p, u = sqrt(pi/2), at the working precision."""
    re = mpmath.mpf(x.re.numerator) / x.re.denominator
    im = mpmath.mpf(x.im.numerator) / x.im.denominator
    return mpmath.mpc(re, im) * mpmath.sqrt(mpmath.pi / 2) ** x.upow


def _oracle_terms(coeffs: SeriesCoefficients, n: int, z: float, w: float):
    """The terms of A and of B through index n at 60 digits.

    z^p jtilde_nu(z) is z^(p - nu) J_nu(z) from mpmath's besselj, and
    2^(-nu)/Gamma(nu + 1) (p = 0) or 0 at z = 0; the Gegenbauer values
    come from their recurrences at 60 digits (C_k^lam / lam started from
    2w and 2(1 + lam)w^2 - 1, so that lam = 0 is the limit)."""
    with mpmath.workdps(60):
        zm, wm = mpmath.mpf(z), mpmath.mpf(w)
        lam = mpmath.mpf(coeffs.m - 2) / 2

        def zpow_jtilde(p: int, k: int):
            nu = lam + k
            if z == 0:
                return mpmath.mpf(2) ** (-nu) / mpmath.gamma(nu + 1) if p == 0 else mpmath.mpf(0)
            return zm ** (p - nu) * mpmath.besselj(nu, zm)

        geg_a = [None, 2 * wm, 2 * (1 + lam) * wm**2 - 1]
        for j in range(3, n + 1):
            geg_a.append((2 * wm * (j + lam - 1) * geg_a[j - 1] - (j + 2 * lam - 2) * geg_a[j - 2]) / j)
        geg_b = [mpmath.mpf(1), 2 * (lam + 1) * wm]  # C_j^(lam + 1)
        for j in range(2, n):
            geg_b.append((2 * wm * (j + lam) * geg_b[j - 1] - (j + 2 * lam) * geg_b[j - 2]) / j)

        a_terms = [_mp(coeffs.alpha_exact(0)) * zpow_jtilde(0, 0)]
        b_terms = []
        for k in range(1, n + 1):
            a_terms.append(_mp(coeffs.lambda_exact(k)) * zpow_jtilde(k, k) * geg_a[k])
            b_terms.append(_mp(coeffs.beta_exact(k)) * zpow_jtilde(k - 1, k) * geg_b[k - 1])
        return a_terms, b_terms


def _oracle_errors(coeffs: SeriesCoefficients, ref: SeriesCoefficients, n: int, z, w) -> list[float]:
    """Errors of eval_series(coeffs) against the oracle of ref, relative
    to sum_k |term_k|, of A and B at each point."""
    a, b = eval_series(coeffs, np.array(z), np.array(w), n)
    errors = []
    for j, (zj, wj) in enumerate(zip(z, w)):
        for got, terms in zip((a[j], b[j]), _oracle_terms(ref, n, zj, wj)):
            with mpmath.workdps(60):
                scale = mpmath.fsum(abs(x) for x in terms)
                error = abs(mpmath.mpc(got) - mpmath.fsum(terms))
                errors.append(float(error / scale) if scale else float(error))
    return errors


@st.composite
def _kernel_ids(draw) -> KernelId:
    m = draw(st.integers(min_value=2, max_value=8))
    i = draw(st.integers(min_value=0, max_value=m - 2))
    sign = draw(st.sampled_from(["plus", "minus"]))
    if m % 2:
        return KernelId(m, i, sign, e_i=cmath.exp(1j * draw(st.floats(0.0, 6.28))))
    return KernelId(m, i, sign)


def _away_from_underflow(lo: float, hi: float):
    """Floats in [lo, hi] that are 0 or at least 1e-100 in magnitude: a
    term that scales with a smaller z or w can fall to subnormal numbers,
    which carry fewer than 53 bits."""
    parts = [st.just(0.0)]
    if hi > 0:
        parts.append(st.floats(1e-100, hi))
    if lo < 0:
        parts.append(st.floats(lo, -1e-100))
    return st.one_of(*parts)


def test_eval_series_against_mpmath_oracle():
    worst = [0.0]

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        _kernel_ids(),
        st.lists(st.tuples(_away_from_underflow(0.0, 30.0), _away_from_underflow(-1.0, 1.0)),
                 min_size=1, max_size=3),
    )
    @example(KernelId(8, 3, "minus"), [(30.0, 0.9), (29.0, -1.0), (0.0, 0.5)])
    @example(KernelId(2, 0), [(30.0, 1.0), (0.5, 0.0), (1.0, -0.7)])
    @example(KernelId(7, 5, e_i=cmath.exp(0.7j)), [(30.0, -0.3), (13.0, 1.0)])
    @example(KernelId(3, 1, "minus"), [(29.261255360392894, -1.0 + 2.0**-53), (30.0, 1.0 - 2.0**-53)])
    def check(kid: KernelId, points: list[tuple[float, float]]) -> None:
        coeffs = series_coefficients(kid)
        z, w = zip(*points)
        n = truncation_bound(coeffs, max(z), 1e-12)
        errors = _oracle_errors(coeffs, coeffs, n, z, w)
        worst[0] = max(worst[0], *errors)
        assert max(errors) <= ORACLE_BOUND, (kid, n, points, errors)

    check()
    print("worst eval_series error against the 60-digit oracle:", worst[0])


def test_oracle_sees_a_changed_coefficient():
    # a_k changed by 1e-12 relative at the A term that dominates
    # sum_k |term_k|
    coeffs = series_coefficients(KernelId(5, 1, e_i=cmath.exp(0.7j)))
    z, w = (12.0,), (0.4,)
    n = truncation_bound(coeffs, 12.0, 1e-12)
    assert max(_oracle_errors(coeffs, coeffs, n, z, w)) <= ORACLE_BOUND
    a_terms, _ = _oracle_terms(coeffs, n, z[0], w[0])
    k_top = max(range(1, n + 1), key=lambda k: abs(a_terms[k]))

    def a_fn(k: int) -> Exact:
        if k == 0:
            return coeffs.alpha_exact(0)
        a_k = coeffs.lambda_exact(k)
        return a_k * Fraction(10**12 + 1, 10**12) if k == k_top else a_k

    changed = SeriesCoefficients(coeffs.m, a_fn, coeffs.beta_exact)
    assert max(_oracle_errors(changed, coeffs, n, z, w)) > ORACLE_BOUND
