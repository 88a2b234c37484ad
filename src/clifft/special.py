"""Special functions: Bessel, normalized Bessel, Gegenbauer, Laguerre.

Orders of Bessel functions are half-integers or integers; every order is
passed as twice its value, an int (see :func:`check_twice_order`), so that
exact bookkeeping never touches floating point.  The normalized function

    jtilde_alpha(t) = t^(-alpha) * J_alpha(t)

is the workhorse: it is entire in t^2, equals 2^(-alpha)/Gamma(alpha+1) at
t = 0, and for half-integer alpha reduces to polynomials in 1/t times
sines and cosines.  :func:`bessel_jtilde` evaluates it with nothing but
numpy and the standard library.  Each branch, with the bound its test
holds it to against a 60-digit mpmath value:

- below t = 1, and up to t = 4 for the orders 5/2 to 9/2, the power
  series, each coefficient rounded once from an exact rational: 2e-15
  relative, twice-orders -1..200;
- above that, for the half-integer orders -1/2 to 9/2, the closed
  trigonometric forms, whose sin t and cos t come from one tangent of t/2
  by the half-angle identities (numpy computes float64 tan in SIMD code,
  and sin and cos one point at a time): 1e-15 of the envelope
  t^(-alpha-1/2);
- for the orders 0 and 1, this module's own J_0 and J_1: Taylor
  expansions about the centres k + 1/2 below t = 25, whose coefficients
  follow from Bessel's equation, and Hankel's asymptotic expansion above:
  1e-15 absolute on [1, 300], worst read 7e-17;
- for every other order, the three-term relation
  jtilde_(nu-1) = 2 nu jtilde_nu - t^2 jtilde_(nu+1)
  (:func:`jtilde_recurrence`), started from the base pair of its parity,
  the closed forms of orders -1/2 and 1/2 or J_0 and J_1/t: 3e-15 of
  |jtilde_nu| below t = nu and of (|J_nu| + |Y_nu|) t^(-nu) above, for
  twice-orders 4..41 on [1, 60], worst read 1.4e-15.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "check_twice_order",
    "bessel_jtilde",
    "jtilde_recurrence",
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
# next call.  A block is split between branches by integer indices
# (np.flatnonzero): numpy indexes by a boolean mask about four times
# slower.
_BLOCK = 8192


# ---------------------------------------------------------------------------
# J_0 and J_1 for t >= 1

# J_0(c) and J_1(c) at the centres c = k + 1/2, k = 1..24, each the
# correctly rounded value of a 60-digit mpmath evaluation.
_CENTRE_VALUES = (
    (0.5118276717359181, 0.5579365079100996),
    (-0.048383776468198, 0.49709410246427405),
    (-0.3801277399872634, 0.1373775273623272),
    (-0.32054250898512143, -0.23106043192337064),
    (-0.006843869417819197, -0.34143821542904335),
    (0.2600946055816064, -0.15384130140997185),
    (0.2663396578803784, 0.1352484275797055),
    (0.041939251842934504, 0.2731219636740537),
    (-0.19392874768742235, 0.16126443075752986),
    (-0.23664819446234714, -0.07885001422733148),
    (-0.06765394811166522, -0.22837862066532347),
    (0.1468840547004211, -0.16548380461475973),
    (0.21498916588040082, 0.03804929208600142),
    (0.08754486801037623, 0.19342946359604696),
    (-0.10923065090005017, 0.16721318035174715),
    (-0.19638069293686103, -0.005764213735631227),
    (-0.10311039822868592, -0.1634199694257549),
    (0.0771648214225547, -0.16663364001001604),
    (0.17885382704017289, -0.02087707014809752),
    (0.11509696025367476, 0.13625468819339573),
    (-0.048942043721558054, 0.16385208254581224),
    (-0.1615403170277827, 0.0432420331907122),
    (-0.12392823156027444, -0.11094614338176333),
    (0.0236974337340679, -0.1589784118193281),
)

# Hankel's expansion serves t >= _HANKEL_FROM, the Taylor expansions below.
_HANKEL_FROM = 25.0

# Degree of the Taylor expansion of J_0 about a centre; J_1 = -J_0' takes
# one degree less.  No derivative of J_0 exceeds 1, so at |h| <= 1/2 the
# first omitted term is below 0.5^16/16! = 7e-19 for J_0 and
# 0.5^15/15! = 2e-17 for J_1.
_TAYLOR_DEGREE = 15


def _taylor_tables() -> tuple[tuple[tuple[float, ...], ...], ...]:
    """Per order 0 and 1, per centre c, the Taylor coefficients of J(c + h)
    in h, highest first.  With J_0(c + h) = sum_k a_k h^k, a_0 = J_0(c) and
    a_1 = -J_1(c), Bessel's equation x y'' + y' + x y = 0 gives

        c (k + 1)(k + 2) a_(k+2) = -(k + 1)^2 a_(k+1) - c a_k - a_(k-1),

    and J_1 = -J_0' has the coefficients -(k + 1) a_(k+1).  The recurrence
    also carries a multiple of the solution singular at x = 0, whose terms
    shrink like (|h|/c)^k <= 3^-k, so rounding stays at the last digit."""
    tables = ([], [])
    for k, (j0c, j1c) in enumerate(_CENTRE_VALUES, start=1):
        c = k + 0.5
        a = [j0c, -j1c]
        for n in range(_TAYLOR_DEGREE - 1):
            below = a[n - 1] if n else 0.0
            a.append(-((n + 1) ** 2 * a[n + 1] + c * a[n] + below) / (c * (n + 1) * (n + 2)))
        tables[0].append(tuple(reversed(a)))
        tables[1].append(tuple(reversed([-(n + 1) * a[n + 1] for n in range(_TAYLOR_DEGREE)])))
    return tuple(tuple(table) for table in tables)


def _hankel_tables() -> tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]:
    """Per order nu = 0 and 1, the coefficients of P and Q in y = 1/t^2,
    highest first, each correctly rounded from an exact rational (Abramowitz
    & Stegun 9.2.9 and 9.2.10):

        P = sum_k (-1)^k a_(2k) y^k,   k = 0..9,
        Q = (1/t) sum_k (-1)^k a_(2k+1) y^k,   k = 0..8,
        a_k = prod_(j=1..k) (4 nu^2 - (2j - 1)^2) / (k! 8^k).

    At t >= 25 the first omitted term, a_19/t^19, is below 1.2e-17."""
    tables = []
    for nu in (0, 1):
        a, term = [], Fraction(1)
        for k in range(19):
            a.append(term)
            term = term * (4 * nu * nu - (2 * k + 1) ** 2) / (8 * (k + 1))
        p = [float((-1) ** k * a[2 * k]) for k in range(10)]
        q = [float((-1) ** k * a[2 * k + 1]) for k in range(9)]
        tables.append((tuple(reversed(p)), tuple(reversed(q))))
    return tuple(tables)


_TAYLOR = _taylor_tables()
_TAYLOR_ARRAYS = tuple(np.array(table).T.copy() for table in _TAYLOR)  # (degree, centre)
_HANKEL = _hankel_tables()
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _horner(coeffs, x):
    """sum_k coeffs[k] x^(len - 1 - k), at least two coefficients, on a
    float or an array.  An array accumulates in place, which saves about
    a third of the time per point; a float rebinds, which saves about a
    seventh of the time per call."""
    it = iter(coeffs)
    acc = next(it) * x + next(it)
    if isinstance(acc, float):
        for c in it:
            acc = acc * x + c
        return acc
    for c in it:
        acc *= x
        acc += c
    return acc


def _j01_taylor(nu: int, t: np.ndarray) -> np.ndarray:
    """J_nu(t), nu = 0 or 1, for 1 <= t < _HANKEL_FROM by the Taylor
    expansion about c = k + 1/2, k = floor(t); h = t - c is exact.  The
    float path of :func:`_j01` runs the same operations."""
    k = t.astype(np.intp)
    h = t - (k + 0.5)
    # one gather per step from a table row of 24 values, which stays in
    # the L1 cache; gathering every row first costs three times as much
    k -= 1
    table = _TAYLOR_ARRAYS[nu]
    acc = table[0][k] * h + table[1][k]
    for row in table[2:]:
        acc *= h
        acc += row[k]
    return acc


def _j01_hankel(nu: int, t):
    """J_nu(t), nu = 0 or 1, by Hankel's expansion (A&S 9.2.5),
    J_nu = sqrt(2/(pi t)) (P cos chi - Q sin chi), chi = t - (nu/2 + 1/4) pi.
    Written with cos t and sin t from _sin_cos, so that t is never
    rounded by a shift of phase:

        J_0 = ((P + Q) cos t + (P - Q) sin t) / sqrt(pi t),
        J_1 = ((P + Q) sin t - (P - Q) cos t) / sqrt(pi t)."""
    p_coeffs, q_coeffs = _HANKEL[nu]
    y = 1.0 / (t * t)
    p = _horner(p_coeffs, y)
    q = _horner(q_coeffs, y) / t
    st, ct = _sin_cos(t)
    if nu == 0:
        val = (p + q) * ct + (p - q) * st
    else:
        val = (p + q) * st - (p - q) * ct
    sqrt = math.sqrt if isinstance(t, float) else np.sqrt
    return _INV_SQRT_PI * val / sqrt(t)


def _j01(nu: int, t):
    """J_nu(t), nu = 0 or 1, t >= 1, on a float or an array."""
    if isinstance(t, float):
        if t < _HANKEL_FROM:
            k = int(t)
            return _horner(_TAYLOR[nu][k - 1], t - (k + 0.5))
        return _j01_hankel(nu, t)
    near = t < _HANKEL_FROM
    n_near = np.count_nonzero(near)
    if n_near in (0, t.size):
        return (_j01_taylor if n_near else _j01_hankel)(nu, t)
    out = np.empty_like(t)
    for idx, branch in ((np.flatnonzero(near), _j01_taylor), (np.flatnonzero(~near), _j01_hankel)):
        out[idx] = branch(nu, t[idx])
    return out


def _j0(t):
    """J_0(t) for t >= 1, on a float or an array."""
    return _j01(0, t)


def _j1(t):
    """J_1(t) for t >= 1, on a float or an array."""
    return _j01(1, t)


def _jv(two: int, t):
    """jtilde of twice-order two for t >= 1, on a float or an array, for
    the orders without a branch of their own: :func:`jtilde_recurrence`
    from the base pair of its parity, the closed forms of orders -1/2 and
    1/2, or J_0 and J_1/t."""
    if two % 2:
        f_lo, f_hi = _jtilde_trig(-1, t), _jtilde_trig(1, t)
    else:
        f_lo, f_hi = _j0(t), _j1(t) / t
    rows = [0.0] if isinstance(t, float) else np.empty((1, t.size))
    jtilde_recurrence(two, t, f_lo, f_hi, rows)
    return rows[0]


# ---------------------------------------------------------------------------
# the three-term relation


def jtilde_recurrence(twice_order_min: int, t, f_lo, f_hi, rows) -> None:
    """Fill rows[j] with jtilde_(nu0+j)(t), j = 0..n, n = len(rows) - 1,
    nu0 = twice_order_min/2, from f_lo = jtilde_beta(t) and
    f_hi = jtilde_(beta+1)(t), beta = -1/2 for half-integer and 0 for
    integer orders, by the three-term relation (Abramowitz & Stegun 9.1.27)

        jtilde_(nu-1) = 2 nu jtilde_nu - t^2 jtilde_(nu+1):

    upward where t is at least the top order nu0 + n, and by Miller's
    backward recurrence everywhere else, t = 0 included.  t is either a
    1-D array, with rows an array of shape (n + 1, t.size), or a float,
    with rows a list.  A float runs the array's operations in Python
    arithmetic, so it gives the bits of the same point in an array: each
    point's branch, and each rescaling of Miller's values, depends on that
    point alone."""
    twice_beta = -(twice_order_min % 2)
    beta, i0 = twice_beta / 2.0, (twice_order_min - twice_beta) // 2
    up = t >= twice_order_min / 2.0 + len(rows) - 1
    if isinstance(t, float):
        (_jtilde_upward if up else _jtilde_miller)(beta, i0, t, f_lo, f_hi, rows)
        return
    n_up = np.count_nonzero(up)
    if n_up in (0, t.size):
        (_jtilde_upward if n_up == t.size else _jtilde_miller)(beta, i0, t, f_lo, f_hi, rows)
        return
    for idx, recurrence in ((np.flatnonzero(up), _jtilde_upward), (np.flatnonzero(~up), _jtilde_miller)):
        part = np.empty((len(rows), idx.size))
        recurrence(beta, i0, t[idx], f_lo[idx], f_hi[idx], part)
        rows[:, idx] = part


def _largest(x) -> float:
    """max |x| of a float or an array."""
    return abs(x) if isinstance(x, float) else float(np.abs(x).max())


def _jtilde_upward(beta: float, i0: int, t, f_lo, f_hi, rows) -> None:
    """rows[j] = jtilde_(beta+i0+j)(t) by the upward recurrence
    jtilde_(nu+1) = (2 nu jtilde_nu - jtilde_(nu-1)) / t^2 from
    f_lo = jtilde_beta and f_hi = jtilde_(beta+1); stable where t is at
    least the top order."""
    n = len(rows) - 1
    t2 = t * t
    prev, cur = f_lo, f_hi
    if i0 == 0:
        rows[0] = prev
    if i0 <= 1 <= i0 + n:
        rows[1 - i0] = cur
    for i in range(1, i0 + n):
        nxt = cur * (2.0 * (beta + i))
        nxt -= prev
        nxt /= t2
        prev, cur = cur, nxt
        if i + 1 >= i0:
            rows[i + 1 - i0] = cur


def _jtilde_miller(beta: float, i0: int, t, f_lo, f_hi, rows) -> None:
    """The rows of :func:`_jtilde_upward` by Miller's backward recurrence
    (Abramowitz & Stegun 9.12) jtilde_(nu-1) = 2 nu jtilde_nu -
    t^2 jtilde_(nu+1), started sqrt(40 itop) + 12 orders above the top
    index itop, rescaled past 1e200 and normalised per point against the
    larger of |jtilde_beta| and t |jtilde_(beta+1)|, that is of |J_beta|
    and |J_(beta+1)|.  At t = 0 it reads jtilde_(nu-1)(0) = 2 nu jtilde_nu(0).

    The values are tested against 1e200 only when a bound on them can pass
    it: |f_(i-1)| <= (2 (beta + i) + max t^2) max(|f_i|, |f_(i+1)|), kept
    in a Python float and reset to the true maximum after each test, with
    a decade of slack for rounding.  A point above 1e200 is always tested,
    so it is rescaled at the same step in an array as on its own."""
    n = len(rows) - 1
    itop = i0 + n
    start = itop + int(math.sqrt(40 * itop)) + 12
    neg_t2 = -(t * t)
    point = isinstance(t, float)
    if point:
        nxt, cur = 0.0, 1.0  # f_(start+1), f_start
    else:
        nxt, cur = np.zeros_like(t), np.ones_like(t)
    bound, t2_max = 1.0, _largest(neg_t2)
    for i in range(start, 0, -1):
        if i0 <= i <= itop:
            rows[i - i0] = cur
        # f_(i-1) = 2 (beta + i) f_i - t^2 f_(i+1), written over f_(i+1)
        two_nu = 2.0 * (beta + i)
        nxt *= neg_t2
        nxt += cur * two_nu
        nxt, cur = cur, nxt
        bound *= two_nu + t2_max
        if bound > 1e199:
            if _largest(cur) > 1e200:
                if point:
                    shrink = 1e-200
                else:
                    shrink = np.where(np.abs(cur) > 1e200, 1e-200, 1.0)
                cur *= shrink
                nxt *= shrink
                for j in range(max(i - i0, 0), n + 1):
                    rows[j] *= shrink
            bound = max(_largest(cur), _largest(nxt))
    if i0 == 0:
        rows[0] = cur
    # cur = f_0 and nxt = f_1 are proportional to jtilde_beta and jtilde_(beta+1)
    if point:
        norm = f_lo / cur if abs(f_lo) >= t * abs(f_hi) else f_hi / nxt
        rows[:] = [row * norm for row in rows]
    else:
        rows *= np.where(np.abs(f_lo) >= t * np.abs(f_hi), f_lo / cur, f_hi / nxt)


# ---------------------------------------------------------------------------
# the normalized Bessel function


def bessel_jtilde(twice_order: int, t):
    """jtilde_alpha(t) = t^(-alpha) J_alpha(t), alpha = twice_order/2 >= -1/2,
    t >= 0.

    Power series below t = 1 (no cancellation), and up to t = 4 for the
    orders 5/2, 7/2 and 9/2; closed trigonometric forms for half-integer
    orders above that, whose sin t and cos t come from one tan(t/2) by the
    half-angle identities (numpy's float64 tan is SIMD code, its sin and
    cos are not; see _sin_cos); J_0(t) and J_1(t)/t by this module's _j0
    and _j1 for the orders 0 and 1; the three-term relation from the base
    pair of the order's parity (_jv) for every other order.  A 0-d t picks
    its branch once and returns a float; an array t runs in blocks of
    _BLOCK points, each split between those branches.  Both run the same
    formulas.
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
                for idx, branch in ((np.flatnonzero(small), _jtilde_series),
                                    (np.flatnonzero(~small), _jtilde_large)):
                    dest[idx] = branch(two, block[idx])
            return out.reshape(arr.shape)
    t = float(t)
    if t < 0:
        raise ValueError("bessel_jtilde requires t >= 0")
    return _jtilde_series(two, t) if t < cutoff else float(_jtilde_large(two, t))


def _jtilde_series(two: int, t):
    """The power series by Horner's rule in t^2, on a float or an array."""
    return _horner(_jtilde_series_coeffs(two), t * t)


def _jtilde_large(two: int, t):
    """jtilde on t at or above the series cutoff, on a float or an array."""
    if two == 0:
        return _j0(t)
    if two == 2:
        return _j1(t) / t
    val = _jtilde_trig(two, t)
    return _jv(two, t) if val is None else val


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
    return math.lgamma(x)
