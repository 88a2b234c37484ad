"""Special functions: Bessel, normalized Bessel, Gegenbauer, Laguerre.

Orders of Bessel functions are half-integers or integers; every order is
passed as twice its value, an int (see :func:`check_twice_order`), so that
exact bookkeeping never touches floating point.  The normalized function

    jtilde_alpha(t) = t^(-alpha) * J_alpha(t)

is the workhorse: it is entire in t^2, equals 2^(-alpha)/Gamma(alpha+1) at
t = 0, and for half-integer alpha reduces to polynomials in 1/t times
sines and cosines.  :func:`bessel_jtilde` evaluates it by its power series
at small t, by those closed forms for half-integer orders up to 9/2, by
scipy's j0 and j1 for the integer orders 0 and 1, and by the generic jv
for every other order.  The closed forms take sin t and cos t from one
tangent of t/2 by the half-angle identities: numpy computes float64 tan
in SIMD code, and sin and cos one point at a time.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np
from scipy.special import gammaln as _gammaln
from scipy.special import j0 as _j0
from scipy.special import j1 as _j1
from scipy.special import jv as _jv

__all__ = [
    "check_twice_order",
    "bessel_jtilde",
    "gegenbauer",
    "gegenbauer_all",
    "chebyshev_t",
    "chebyshev_t_all",
    "chebyshev_u_all",
    "laguerre",
    "double_factorial",
    "log_gamma",
]


def check_twice_order(twice_order) -> int:
    """twice_order as an int >= -1 (an order >= -1/2): TypeError for a
    value that is not an integer, ValueError below -1."""
    two = operator.index(twice_order)
    if two < -1:
        raise ValueError(f"unsupported order {two}/2: need order >= -1/2")
    return two


@lru_cache(maxsize=None)
def _jtilde_series_coeffs(twice_order: int) -> tuple[float, ...]:
    """Coefficients c_k of jtilde(t) = sum_k c_k t^(2k), highest k first
    (Horner order), with 24 terms for the orders of _SERIES_UP_TO and 14
    otherwise.  c_k = (-1)^k c_0 / prod_{j<=k} 4j(alpha+j), with
    c_0 = 1/(2^alpha alpha!), or sqrt(2/pi)/(2 alpha)!! for half-integer
    alpha; the rational part of each is one correctly rounded quotient."""
    if twice_order % 2:
        scale, den = _SQRT_2_OVER_PI, math.prod(range(twice_order, 0, -2))
    else:
        scale, den = 1.0, 2 ** (twice_order // 2) * math.factorial(twice_order // 2)
    coeffs = []
    for k in range(24 if twice_order in _SERIES_UP_TO else 14):
        coeffs.append(scale * ((-1) ** k / den))
        den *= 2 * (k + 1) * (twice_order + 2 * k + 2)  # 4j(alpha + j), j = k + 1
    return tuple(reversed(coeffs))


_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _sin_cos(t):
    """sin t and cos t from u = tan(t/2), on a float or an array, by the
    half-angle identities (Abramowitz & Stegun 4.3)

        sin t = 2u / (1 + u^2),   cos t = (1 - u)(1 + u) / (1 + u^2).

    numpy runs float64 tan in SIMD code but sin and cos one point at a
    time, so one tangent and a few products cost about a tenth of the
    pair.  The absolute error stays within 2.7e-16 (np.sin and np.cos:
    1.1e-16; 60-digit check on [1, 60]), so next to a zero of cos the
    relative error grows.  On a float the tangent becomes a Python float
    and the rest is Python arithmetic, which rounds as numpy's elementwise
    operations do."""
    u = np.tan(0.5 * t)
    if isinstance(t, float):
        u = float(u)
    q = 1.0 + u * u
    return 2.0 * u / q, (1.0 - u) * (1.0 + u) / q


def _jtilde_trig(twice_order: int, t):
    """Closed forms for half-integer orders -1/2 .. 9/2, valid for t >= 1,
    on a float or an array; None for every other order.  Powers of t are
    products, the same operations on both."""
    if twice_order not in (-1, 1, 3, 5, 7, 9):
        return None
    st, ct = _sin_cos(t)
    if twice_order == -1:
        return _SQRT_2_OVER_PI * ct
    if twice_order == 1:
        return _SQRT_2_OVER_PI * (st / t)
    t2 = t * t
    t3 = t2 * t
    if twice_order == 3:
        val = (st - t * ct) / t3
    elif twice_order == 5:
        val = ((3.0 - t2) * st - 3.0 * t * ct) / (t3 * t2)
    elif twice_order == 7:
        val = ((15.0 - 6.0 * t2) * st - (15.0 * t - t3) * ct) / (t3 * t2 * t2)
    else:
        val = ((105.0 - 45.0 * t2 + t2 * t2) * st - (105.0 * t - 10.0 * t3) * ct) / (t3 * t3 * t3)
    return _SQRT_2_OVER_PI * val


# Half-integer orders (as twice the order) whose closed forms cancel near
# t = 1, by up to 4.8e-12 relative at order 9/2.  They keep the power
# series, with 24 terms, up to t = 4; it stays within 6.5e-16 relative of
# a 40-digit mpmath reference on [1, 4).
_SERIES_UP_TO = {5: 4.0, 7: 4.0, 9: 4.0}


# Points per block of an array t.  A branch makes about ten temporaries;
# at 8192 points each is 64 KiB, so they stay in the L2 cache and on the
# heap.  A temporary of a whole grid chunk (20 x 8192 points, 1.3 MB)
# goes back to the system when freed, and its pages fault in again on the
# next call.
_BLOCK = 8192


def bessel_jtilde(twice_order: int, t):
    """jtilde_alpha(t) = t^(-alpha) J_alpha(t), alpha = twice_order/2 >= -1/2,
    t >= 0.

    Power series below t = 1 (no cancellation), and up to t = 4 for the
    orders 5/2, 7/2 and 9/2; closed trigonometric forms for half-integer
    orders above that, whose sin t and cos t come from one tan(t/2) by the
    half-angle identities (numpy's float64 tan is SIMD code, its sin and
    cos are not; see _sin_cos); J_0(t) and J_1(t)/t by scipy's j0 and j1
    for the orders 0 and 1; the generic Bessel function jv for every
    other order.  A 0-d t picks its branch once and returns a float; an
    array t runs in blocks of _BLOCK points, each split into those
    branches by masks.  Both run the same formulas.
    """
    two = check_twice_order(twice_order)
    cutoff = _SERIES_UP_TO.get(two, 1.0)
    if not isinstance(t, (int, float)):
        arr = np.asarray(t, dtype=float)
        if arr.ndim:
            if np.any(arr < 0):
                raise ValueError("bessel_jtilde requires t >= 0")
            flat = arr.reshape(-1)
            out = np.empty_like(flat)
            for lo in range(0, flat.size, _BLOCK):
                block, dest = flat[lo : lo + _BLOCK], out[lo : lo + _BLOCK]
                small = block < cutoff
                n_small = np.count_nonzero(small)
                if n_small in (0, block.size):
                    dest[:] = (_jtilde_series if n_small else _jtilde_large)(two, block)
                    continue
                for mask, branch in ((small, _jtilde_series), (~small, _jtilde_large)):
                    dest[mask] = branch(two, block[mask])
            return out.reshape(arr.shape)
    t = float(t)
    if t < 0:
        raise ValueError("bessel_jtilde requires t >= 0")
    return _jtilde_series(two, t) if t < cutoff else float(_jtilde_large(two, t))


def _jtilde_series(two: int, t):
    """The power series by Horner's rule in t^2, on a float or an array."""
    t2 = t * t
    acc, *rest = _jtilde_series_coeffs(two)
    for c in rest:
        acc = acc * t2 + c
    return acc


def _jtilde_large(two: int, t):
    """jtilde on t at or above the series cutoff, on a float or an array."""
    if two == 0:
        return _j0(t)
    if two == 2:
        return _j1(t) / t
    val = _jtilde_trig(two, t)
    if val is None:
        alpha = two / 2.0
        val = _jv(alpha, t) * np.power(t, -alpha)
    return val


def gegenbauer_all(n: int, lam: float, w):
    """C_0^lam(w) .. C_n^lam(w) by the three-term recurrence, lam > 0."""
    if lam <= 0:
        raise ValueError(f"gegenbauer parameter must be positive, got {lam}")
    if n < 0:
        raise ValueError("degree must be >= 0")
    arr = np.asarray(w, dtype=float)
    vals = np.empty((n + 1,) + arr.shape)
    # rows of a 2-D view, so that the recurrence runs in place for 0-d w too
    rows = vals.reshape(n + 1, -1)
    rows[0] = 1.0
    if n >= 1:
        rows[1] = 2.0 * lam * arr.reshape(-1)
    two_w = 2.0 * arr.reshape(-1)
    prev2 = np.empty_like(two_w)
    for j in range(2, n + 1):
        np.multiply(rows[j - 2], j + 2.0 * lam - 2.0, out=prev2)
        cur = np.multiply(two_w, j + lam - 1.0, out=rows[j])
        cur *= rows[j - 1]
        cur -= prev2
        cur /= j
    return vals


def gegenbauer(n: int, lam: float, w):
    out = gegenbauer_all(n, lam, w)[n]
    return float(out) if np.asarray(w).ndim == 0 else out


def chebyshev_t_all(n: int, w):
    """T_0(w) .. T_n(w), first kind."""
    arr = np.asarray(w, dtype=float)
    vals = np.empty((n + 1,) + arr.shape)
    vals[0] = 1.0
    if n >= 1:
        vals[1] = arr
    for j in range(2, n + 1):
        vals[j] = 2.0 * arr * vals[j - 1] - vals[j - 2]
    return vals


def chebyshev_t(n: int, w):
    out = chebyshev_t_all(n, w)[n]
    return float(out) if np.asarray(w).ndim == 0 else out


def chebyshev_u_all(n: int, w):
    """U_0(w) .. U_n(w), second kind (= C_n^1)."""
    arr = np.asarray(w, dtype=float)
    vals = np.empty((n + 1,) + arr.shape)
    vals[0] = 1.0
    if n >= 1:
        vals[1] = 2.0 * arr
    for j in range(2, n + 1):
        vals[j] = 2.0 * arr * vals[j - 1] - vals[j - 2]
    return vals


def laguerre(j: int, alpha, x):
    """Generalized Laguerre polynomial L_j^alpha(x)."""
    if j < 0:
        raise ValueError("degree must be >= 0")
    arr = np.asarray(x, dtype=float)
    alpha = float(alpha)
    prev = np.ones_like(arr)
    if j == 0:
        return float(prev) if arr.ndim == 0 else prev
    cur = 1.0 + alpha - arr
    for n in range(2, j + 1):
        prev, cur = cur, ((2.0 * n - 1.0 + alpha - arr) * cur - (n - 1.0 + alpha) * prev) / n
    return float(cur) if arr.ndim == 0 else cur


@lru_cache(maxsize=None)
def double_factorial(n: int) -> int:
    """n!! for n >= -1, with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    return math.prod(range(n, 0, -2))


def log_gamma(x: float) -> float:
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return float(_gammaln(x))
