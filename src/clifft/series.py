"""Bessel-Gegenbauer series expansions of the kernels and their eigenvalues.

Every kernel K(x, y) = A + (x wedge y) B expands, with z = |x||y| and
w = <x/|x|, y/|y|>, lambda = (m - 2)/2, as

    A = sum_{k>=0} alpha_k z^k jtilde_{k+lambda}(z) C_k^lambda(w),
    B = sum_{k>=1} beta_k  z^(k-1) jtilde_{k+lambda}(z) C_{k-1}^(lambda+1)(w).

The coefficient streams alpha_k, beta_k are exact (:class:`clifft.exact.Exact`)
and determine everything else: the eigenvalues on the Laguerre basis of
spherical monogenics, the coefficients of the inverse transform, and a
consistency constraint singling out transforms with a Bochner-type radial
reduction.

Each kernel stores two streams: beta_k, and a_k with a_0 = alpha_0 and
a_k = lambda alpha_k for k >= 1 (``lambda_exact``), evaluated against
C_k^lambda / lambda.  Both stay finite as lambda -> 0, so dimension two is
simply the case lambda = 0 of one builder: there alpha_k (k >= 1)
diverges and C_k^lambda / lambda = (2/k) T_k.

All the orders k + lambda, k = 0..N, of one evaluation come from one
:func:`jtilde_stack`, which takes two ``bessel_jtilde`` base rows, of
order -1/2 and 1/2 or 0 and 1, and runs the three-term relation
jtilde_(nu-1) = 2 nu jtilde_nu - t^2 jtilde_(nu+1) on them with
``special.jtilde_recurrence``: upward where t is at least the top order,
and by Miller's backward recurrence everywhere else, t = 0 included.  The
closed-form route (``kernels.eval_terms``) keeps its own per-order
``bessel_jtilde``, whose orders without a branch of their own run the
same relation from the base pair of their parity.  At one m the closed
form reads orders of the parity of m - 1 and the series those of the
parity of m - 2, so the two sides of a comparison start from different
base pairs, and at t >= 1 never run the same base branch.  Below t = 1
both read the power series; the relation serves the series at every t
and the closed form's other orders at t >= 1.  Both have their own
60-digit oracle tests.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable

import numpy as np

from .checks import Check, worst
from .exact import Exact, ONE
from .kernels import KernelId
from .special import (
    bessel_jtilde,
    check_twice_order,
    double_factorial,
    gegenbauer_all,
    jtilde_recurrence,
    log_gamma,
)

__all__ = [
    "SeriesCoefficients",
    "EigenvaluePair",
    "gamma2pow",
    "bridge_prefactor",
    "transform_normalization",
    "series_coefficients",
    "series_minus_counterpart",
    "jtilde_stack",
    "eval_series",
    "truncation_bound",
    "eigenvalues_from_coefficients",
    "inverse_coefficients",
    "check_cf_constraint",
    "classical_coefficients",
    "coefficient_rows",
]


def gamma2pow(m: int, a: int, b: int) -> Exact:
    """Exact value of 2^(m/2 - a) Gamma(m/2 - b).

    Rational for even m; for odd m a rational multiple of sqrt(pi/2).
    """
    if m % 2 == 0:
        n = m // 2 - b
        if n < 1:
            raise ValueError(f"Gamma argument must be positive, got {n}")
        return Exact(Fraction(2 ** (m // 2), 2**a) * factorial(n - 1))
    return Exact(Fraction(2 ** (b + 1), 2**a) * double_factorial(m - 2 * b - 2), 0, 1)


@lru_cache(maxsize=None)
def bridge_prefactor(m: int) -> Exact:
    """2^(1 - m/2) / Gamma(m/2), the constant that aligns the radial
    reduction with the (2 pi)^(-m/2) transform normalization."""
    if m % 2 == 0:
        return Exact(Fraction(1, 2 ** (m // 2 - 1) * factorial(m // 2 - 1)))
    return Exact(Fraction(1, double_factorial(m - 2)), 0, -1)


def transform_normalization(m: int) -> Exact:
    """(2 pi)^(-m/2), exact."""
    return Exact(Fraction(1, 2**m), 0, -m)


class SeriesCoefficients:
    """Exact coefficient streams of one kernel's series expansion.

    ``a_fn`` gives the A-stream: a_0 = alpha_0 and a_k = lam alpha_k for
    k >= 1, the coefficient that :func:`eval_series` multiplies by
    z^k jtilde_{k+lam}(z) C_k^lam(w)/lam.  ``beta_fn`` gives beta_k.  Both
    are finite in every dimension m >= 2.  The eigenvalue functionals
    (D_k, E_k) of the streams are kept per k once computed.
    """

    __slots__ = ("m", "provenance", "_a", "_beta", "_de_pairs")

    def __init__(
        self,
        m: int,
        a_fn: Callable[[int], Exact],
        beta_fn: Callable[[int], Exact],
        provenance: KernelId | None = None,
    ):
        if m < 2:
            raise ValueError(f"dimension must be >= 2, got {m}")
        self.m = m
        self.provenance = provenance
        self._a = lru_cache(maxsize=None)(a_fn)
        self._beta = lru_cache(maxsize=None)(beta_fn)
        self._de_pairs: dict[int, tuple[Exact, Exact]] = {}

    @property
    def lam(self) -> float:
        return (self.m - 2) / 2.0

    @property
    def lam_fraction(self) -> Fraction:
        return Fraction(self.m - 2, 2)

    def alpha_exact(self, k: int) -> Exact:
        """alpha_k: a_0, and a_k / lam for k >= 1, which diverges at m = 2."""
        if k < 0:
            raise ValueError("index must be >= 0")
        if k == 0:
            return self._a(0)
        if self.m == 2:
            raise ValueError(
                "alpha_k diverges at m = 2 (lambda = 0); "
                "use lambda_exact for the finite limits lambda*alpha_k"
            )
        return self._a(k) / self.lam_fraction

    def beta_exact(self, k: int) -> Exact:
        if k < 0:
            raise ValueError("index must be >= 0")
        if k == 0:
            return Exact(0)
        return self._beta(k)

    def lambda_exact(self, k: int) -> Exact:
        """a_k = lambda alpha_k, the entry the series algorithms read for
        k >= 1 in every dimension."""
        if k < 1:
            raise ValueError("lambda_exact is defined for k >= 1")
        return self._a(k)

    def __repr__(self) -> str:
        tag = f", provenance={self.provenance}" if self.provenance else ""
        return f"SeriesCoefficients(m={self.m}{tag})"


# ---------------------------------------------------------------------------
# coefficient streams of the built kernels


def _route_factors(m: int, e_i: complex) -> tuple[Exact, Exact]:
    """Multipliers applied to (ftilde or g)-sourced and fhat-sourced entries."""
    if m % 2 == 0:
        return ONE, ONE
    e = complex(e_i)
    direct = Exact._coerce(e)
    twisted = Exact._coerce(1j * e.conjugate())
    return direct, twisted


def series_coefficients(kernel_id: KernelId) -> SeriesCoefficients:
    """Exact expansion coefficients of a built kernel."""
    coeffs = _series_plus(replace(kernel_id, sign="plus"))
    if kernel_id.sign == "minus":
        coeffs = series_minus_counterpart(coeffs)
    return coeffs


def _series_plus(kernel_id: KernelId) -> SeriesCoefficients:
    """Streams of the plus kernel, for every m >= 2.

    With c = 2^(m/2-1) Gamma(m/2), w_0 = 1 and w_k = k + lam (k >= 1),
    entries of the parity of i are fhat-sourced and the others direct:

        a_k = c sigma (-1)^i w_k (k+i-1)!!/(k+m-i-3)!! * twisted,  k = i mod 2,
        a_k = -c i w_k (k+i-2)!!/(k+m-i-2)!! * direct,             otherwise,
        beta_k = 2 c w_k (k+i-2)!!/(k+m-i-2)!! * direct,           k != i mod 2,

    and beta_k = 0 at the parity of i.  The paper's alpha_k (k >= 1) carry
    the constants 2^(m/2-1) Gamma(m/2-1) = c/lam (fhat-sourced) and
    2^(m/2-2) Gamma(m/2-1) = c/(2 lam) (direct), which diverge at m = 2;
    a_k = lam alpha_k folds lam into them.
    """
    m, i = kernel_id.m, kernel_id.i
    c = gamma2pow(m, 1, 0)
    if m % 2 == 0:
        sigma = -1 if (m // 2) % 2 else 1
    else:
        sigma = -1 if ((m + 1) // 2) % 2 else 1
    sigma_i = -sigma if i % 2 else sigma
    direct, twisted = _route_factors(m, kernel_id.e_i)
    c_direct, c_twisted = c * direct, c * twisted
    lam = Fraction(m - 2, 2)
    df = double_factorial

    def a_fn(k: int) -> Exact:
        w = k + lam if k else 1
        if (k - i) % 2 == 0:
            return c_twisted * (w * Fraction(sigma_i * df(k + i - 1), df(k + m - i - 3)))
        return c_direct * (w * Fraction(-i * df(k + i - 2), df(k + m - i - 2)))

    def beta_fn(k: int) -> Exact:
        if (k - i) % 2 == 0:
            return Exact(0)
        return c_direct * ((k + lam) * Fraction(2 * df(k + i - 2), df(k + m - i - 2)))

    return SeriesCoefficients(m, a_fn, beta_fn, provenance=kernel_id)


def series_minus_counterpart(coeffs: SeriesCoefficients) -> SeriesCoefficients:
    """Coefficients of the sign-flipped kernel: entry k maps to
    (-1)^k conj(entry k).  An involution."""

    def flip(fn: Callable[[int], Exact]) -> Callable[[int], Exact]:
        def wrapped(k: int) -> Exact:
            v = fn(k).conjugate()
            return -v if k % 2 else v

        return wrapped

    prov = coeffs.provenance
    if prov is not None:
        prov = replace(prov, sign="minus" if prov.sign == "plus" else "plus")
    return SeriesCoefficients(coeffs.m, flip(coeffs._a), flip(coeffs._beta), provenance=prov)


# ---------------------------------------------------------------------------
# eigenvalues


@dataclass(frozen=True)
class EigenvaluePair:
    """Eigenvalues on the two parity branches of the basis with radial
    index p: the even branch carries even_branch * (-1)^p and the odd
    branch odd_branch * (-1)^p."""

    even_exact: Exact
    odd_exact: Exact

    @property
    def even_branch(self) -> complex:
        return complex(self.even_exact)

    @property
    def odd_branch(self) -> complex:
        return complex(self.odd_exact)


def _functionals(coeffs: SeriesCoefficients, k: int) -> tuple[Exact, Exact]:
    """Unbridged pair (D_k, E_k) built from the coefficient streams, kept
    on the streams object: D_0 = E_0 = alpha_0, and for k >= 1 with
    a_k = lambda alpha_k

        D_k = (2 a_k - k beta_k) / (m - 2 + 2k),
        E_k = (2 a_k + (k + m - 2) beta_k) / (m - 2 + 2k) = D_k + beta_k.
    """
    pair = coeffs._de_pairs.get(k)
    if pair is None:
        if k == 0:
            a0 = coeffs.alpha_exact(0)
            pair = a0, a0
        else:
            denom = coeffs.m - 2 + 2 * k
            beta_k = coeffs.beta_exact(k)
            d = coeffs.lambda_exact(k) * Fraction(2, denom) - beta_k * Fraction(k, denom)
            pair = d, d + beta_k
        coeffs._de_pairs[k] = pair
    return pair


def eigenvalues_from_coefficients(coeffs: SeriesCoefficients, k: int) -> EigenvaluePair:
    """Eigenvalue pair on degree-k monogenics, bridged to the
    (2 pi)^(-m/2) normalization.

    The transform the coefficients describe acts on the basis functions
    psi with radial index 2p (even branch, eigenvalue even_branch *
    (-1)^p) and 2p + 1 (odd branch, odd_branch * (-1)^p).
    """
    pref = bridge_prefactor(coeffs.m)
    d_k, _ = _functionals(coeffs, k)
    _, e_next = _functionals(coeffs, k + 1)
    return EigenvaluePair(even_exact=pref * d_k, odd_exact=pref * e_next)


def inverse_coefficients(coeffs: SeriesCoefficients) -> SeriesCoefficients:
    """Coefficient streams whose transform inverts the given one.

    Entrywise: with N_k = D_k E_k and r = 1/bridge_prefactor(m)^2,
    a~_k = (a_k + lam beta_k) r/N_k (beta_0 = 0, so a~_0 = a_0 r/N_0) and
    beta~_k = -beta_k r/N_k, so the bridged eigenvalue products come out
    exactly 1.  Raises when some eigenvalue vanishes.
    """
    lam = coeffs.lam_fraction
    pref = bridge_prefactor(coeffs.m)
    rescale = ONE / (pref * pref)

    @lru_cache(maxsize=None)
    def scale(k: int) -> Exact:
        d, e = _functionals(coeffs, k)
        n = d * e
        if n.is_zero:
            raise ValueError(f"eigenvalue vanishes at k = {k}; no inverse there")
        return rescale / n

    def a_fn(k: int) -> Exact:
        return (coeffs._a(k) + coeffs.beta_exact(k) * lam) * scale(k)

    def beta_fn(k: int) -> Exact:
        return -coeffs.beta_exact(k) * scale(k)

    return SeriesCoefficients(coeffs.m, a_fn, beta_fn)


# ---------------------------------------------------------------------------
# consistency constraint

# The largest relative residual that passes; a stream that satisfies the
# relation reads exactly 0.
_CONSTRAINT_TOL = 1e-10


def check_cf_constraint(coeffs: SeriesCoefficients, k_max: int = 50) -> Check:
    """Check the coupling between consecutive coefficients that holds for
    every kernel of the family.

    The relation is stated for the minus kernel's streams, with
    a_k = lam alpha_k:

        conj(a_{k+1}) + (k+m-1)/2 conj(beta_{k+1})
            = (-I)^m (-1)^(k+1) (m+2k)/(m-2+2k) (a_k - k/2 beta_k),

    whose right side at k = 0 reads -(-I)^m (m/2) alpha_0.
    Plus-kernel provenance is converted first; streams without provenance
    are taken as already being in the minus role.  Residuals are exact
    and reported relative to the larger side; the Check's value is the
    largest over k <= k_max, and params record the kernel (when the
    streams have provenance) and the first k attaining it as worst_k
    (None when every residual is zero).
    """
    prov = coeffs.provenance
    c = series_minus_counterpart(coeffs) if prov is not None and prov.sign == "plus" else coeffs
    m = c.m
    mi_pow = Exact(0, -1) ** (m % 4)
    residuals = []
    for k in range(k_max + 1):
        lhs = c.lambda_exact(k + 1).conjugate() + c.beta_exact(k + 1).conjugate() * Fraction(
            k + m - 1, 2
        )
        if k == 0:
            rhs = mi_pow * Fraction(-m, 2) * c.alpha_exact(0)
        else:
            rhs = (
                mi_pow
                * ((-1) ** (k + 1) * Fraction(m + 2 * k, m - 2 + 2 * k))
                * (c.lambda_exact(k) - c.beta_exact(k) * Fraction(k, 2))
            )
        residual = lhs - rhs
        residuals.append(residual.magnitude() / max(1.0, lhs.magnitude(), rhs.magnitude()))
    value = worst(residuals)
    worst_k = int(np.argmax(residuals)) if value != 0 else None
    params = {"m": m} if prov is None else {"m": m, "i": prov.i, "sign": prov.sign}
    return Check.within("cf constraint", {**params, "k_max": k_max, "worst_k": worst_k}, value,
                        _CONSTRAINT_TOL)


def classical_coefficients(m: int) -> SeriesCoefficients:
    """Streams of the classical scalar kernel exp(-I <x, y>), scale-free:
    alpha_k = (lam + k)(-I)^k, so a_0 = lam and a_k = lam (lam + k)(-I)^k,
    and beta = 0.  Useful as a comparison point for the consistency
    constraint."""
    if m < 3:
        raise ValueError("the classical streams need m >= 3")
    lam = Fraction(m - 2, 2)

    def a_fn(k: int) -> Exact:
        return Exact(0, -1) ** (k % 4) * ((lam + k) * (lam if k else 1))

    def beta_fn(k: int) -> Exact:
        return Exact(0)

    return SeriesCoefficients(m, a_fn, beta_fn)


# ---------------------------------------------------------------------------
# evaluation and truncation control


def _gegenbauer_over_lambda(n: int, lam: float, w) -> np.ndarray:
    """C_k^lam(w) / lam for k = 1..n by the Gegenbauer recurrence, started
    from 2w and 2(1 + lam)w^2 - 1 so that lam = 0 gives (2/k) T_k(w).
    Row 0 (1/lam) is not computed and holds NaN."""
    arr = np.asarray(w, dtype=float)
    vals = np.full((n + 1,) + arr.shape, np.nan)
    rows = vals.reshape(n + 1, -1)
    two_w = 2.0 * arr.reshape(-1)
    if n >= 1:
        rows[1] = two_w
    prev2 = np.empty_like(two_w)
    for j in range(2, n + 1):
        if j == 2:
            prev2.fill(2.0)
        else:
            np.multiply(rows[j - 2], j + 2.0 * lam - 2.0, out=prev2)
        cur = np.multiply(two_w, j + lam - 1.0, out=rows[j])
        cur *= rows[j - 1]
        cur -= prev2
        cur /= j
    return vals


# Points per block of jtilde_stack: bounds its temporaries to a few rows
# of this many points, whatever the size of t.
_STACK_BLOCK = 16384


def jtilde_stack(twice_order_min: int, n: int, t) -> np.ndarray:
    """Rows jtilde_(nu0+j)(t), j = 0..n, nu0 = twice_order_min/2 >= -1/2,
    shape (n + 1,) + shape(t), t >= 0.

    Every row comes from the three-term relation jtilde_(nu-1) =
    2 nu jtilde_nu - t^2 jtilde_(nu+1) (Abramowitz & Stegun 9.1.27), run
    by ``special.jtilde_recurrence`` from ``bessel_jtilde`` at the base
    orders beta and beta + 1, beta = -1/2 for half-integer and 0 for
    integer orders.  Where t is at least the top order it runs upward;
    everywhere else, t = 0 and t < 1 included, it runs as Miller's
    backward recurrence (A&S 9.12), normalised per point by the base
    rows.  Against a 60-digit reference the rows stay within 3e-15
    (relative to |jtilde_nu(t)| for t < nu, to (|J_nu| + |Y_nu|) t^(-nu)
    above it) over starting orders -1/2 to 58.5, up to 60 rows, t in
    [0, 45].  Rows whose value is below the smallest normal float
    underflow to subnormals or 0.  Points are taken in blocks of a fixed
    size, so the memory beyond the result stays bounded.
    """
    twice_order_min, n = check_twice_order(twice_order_min), operator.index(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("jtilde_stack requires t >= 0")
    flat = arr.reshape(-1)
    out = np.empty((n + 1, flat.size))
    # the base order beta is -1/2 or 0
    twice_beta = -(twice_order_min % 2)
    for start in range(0, flat.size, _STACK_BLOCK):
        block = flat[start : start + _STACK_BLOCK]
        f_lo, f_hi = bessel_jtilde(twice_beta, block), bessel_jtilde(twice_beta + 2, block)
        jtilde_recurrence(twice_order_min, block, f_lo, f_hi, out[:, start : start + _STACK_BLOCK])
    return out.reshape((n + 1,) + arr.shape)


def eval_series(
    coeffs: SeriesCoefficients, z, w, n_terms: int
) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums (A, B) of the expansion through index n_terms.

    z >= 0 and w in [-1, 1] broadcast together.  The A terms k >= 1 are
    summed as a_k z^k jtilde_{k+lam}(z) C_k^lam(w)/lam.  The Bessel
    factors of all n_terms + 1 orders come from one :func:`jtilde_stack`.
    The sums run in float64, one for each of the real and imaginary parts
    of A and B, and a part of a coefficient that is zero adds nothing; each
    term is ((c z^k) jtilde) C, so for finite terms every part is rounded
    as the product of the complex coefficient with the real factors is.
    """
    z_arr = np.asarray(z, dtype=float)
    w_arr = np.asarray(w, dtype=float)
    z_arr, w_arr = np.broadcast_arrays(z_arr, w_arr)
    n = operator.index(n_terms)
    if n < 0:
        raise ValueError("n_terms must be >= 0")
    shape = z_arr.shape
    z_flat, w_flat = z_arr.reshape(-1), w_arr.reshape(-1)
    lam = coeffs.lam
    geg_a = _gegenbauer_over_lambda(n, lam, w_flat)
    geg_b = gegenbauer_all(max(n - 1, 0), lam + 1.0, w_flat)
    jts = jtilde_stack(coeffs.m - 2, n, z_flat)
    # rows: Re A, Re B, Im A, Im B
    sums = np.zeros((4, z_flat.size))
    term = np.empty(z_flat.size)
    zpow, zpow_prev = np.ones(z_flat.size), np.empty(z_flat.size)
    for k in range(n + 1):
        if k == 0:
            # z^0 and C_0^(lam+1) are 1, so this term is alpha_0 jtilde_lam
            terms = ((coeffs.alpha_exact(0), 0, zpow, geg_b[0]),)
        else:
            terms = (
                (coeffs.lambda_exact(k), 0, zpow, geg_a[k]),
                (coeffs.beta_exact(k), 1, zpow_prev, geg_b[k - 1]),
            )
        for coeff, row, zp, geg in terms:
            c = complex(coeff)
            for part, dest in ((c.real, sums[row]), (c.imag, sums[row + 2])):
                if part:
                    np.multiply(zp, part, out=term)
                    term *= jts[k]
                    term *= geg
                    dest += term
        zpow_prev, zpow = zpow, np.multiply(zpow, z_flat, out=zpow_prev)
    totals = np.empty((2, z_flat.size), dtype=complex)
    totals.real, totals.imag = sums[:2], sums[2:]
    return totals[0].reshape(shape), totals[1].reshape(shape)


def _term_magnitudes(coeffs: SeriesCoefficients, k: int, log_half_z: float) -> float:
    """Majorant of the k-th term of |A| + |B| over |w| <= 1 at fixed z.

    The A term for k >= 1 reads |a_k| with
    C_k^lam(1)/lam = 2 Gamma(2 lam + k) / (Gamma(2 lam + 1) k!),
    which is 2/k at lam = 0."""
    lam = coeffs.lam
    log_two = math.log(2.0)
    base = k * log_half_z - lam * log_two - log_gamma(k + lam + 1.0)
    if k == 0:
        ta = coeffs.alpha_exact(0).magnitude()
        return math.exp(math.log(ta) + base) if ta else 0.0
    out = 0.0
    ta = coeffs.lambda_exact(k).magnitude()
    if ta:
        log_c = log_two + log_gamma(2 * lam + k) - log_gamma(2 * lam + 1.0) - log_gamma(k + 1.0)
        out += math.exp(math.log(ta) + base + log_c)
    tb = coeffs.beta_exact(k).magnitude()
    if tb:
        # C_{k-1}^(lam+1)(1) = Gamma(2 lam + k + 1) / (Gamma(2 lam + 2) (k-1)!)
        log_c = log_gamma(2 * lam + k + 1.0) - log_gamma(2 * lam + 2.0) - log_gamma(float(k))
        out += math.exp(math.log(tb) + base - log_half_z - log_two + log_c)
    return out


def truncation_bound(coeffs: SeriesCoefficients, z_max: float, eps: float) -> int:
    """Smallest index N with the tail beyond N provably below eps for all
    z <= z_max and |w| <= 1.

    Term majorants use |jtilde_(k+lam)(z)| <= (z/2)^k 2^(-lam)/Gamma(k+lam+1)
    and |C_k^lam(w)| <= C_k^lam(1); the tail past the computed range is
    bounded by a geometric comparison once terms at least halve.  Raises
    ValueError when a term majorant overflows a float.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if not math.isfinite(z_max):
        raise ValueError(f"z_max must be finite, got {z_max!r}")
    z = max(float(z_max), 1e-9)
    log_half_z = math.log(z / 2.0)
    terms: list[float] = []
    cap = 600
    for k in range(cap + 1):
        try:
            term = _term_magnitudes(coeffs, k, log_half_z)
        except OverflowError:
            term = math.inf
        if not math.isfinite(term):
            raise ValueError(f"the majorant of series term {k} overflows at z_max = {z_max:g}")
        terms.append(term)
        if (
            k >= 2
            and terms[-1] < eps * 1e-6
            and terms[-1] <= 0.5 * max(terms[-2], 1e-300)
        ):
            break
    else:
        raise RuntimeError(f"series tail did not settle within {cap} terms")
    last = len(terms) - 1
    tail = 2.0 * terms[last]
    best = last
    for n in range(last - 1, -1, -1):
        tail += terms[n + 1]
        if tail < eps:
            best = n
        else:
            break
    return best


def coefficient_rows(
    coeffs: SeriesCoefficients, k_max: int, include_inverse: bool = False
) -> list[dict]:
    """Rows for tabulation: per k the streams, and optionally the inverse
    streams with the bridged eigenvalue products (exactly 1).

    In dimension 2, where alpha_k diverges, the alpha columns hold
    a_k = lambda*alpha_k for k >= 1.
    """
    inv = inverse_coefficients(coeffs) if include_inverse else None

    def entry(c: SeriesCoefficients, k: int) -> complex:
        return complex(c.lambda_exact(k) if c.m == 2 and k else c.alpha_exact(k))

    rows = []
    for k in range(k_max + 1):
        row: dict = {"k": k, "alpha": entry(coeffs, k), "beta": complex(coeffs.beta_exact(k))}
        if inv is not None:
            row["inv_alpha"] = entry(inv, k)
            row["inv_beta"] = complex(inv.beta_exact(k))
            ev = eigenvalues_from_coefficients(coeffs, k)
            ev_inv = eigenvalues_from_coefficients(inv, k)
            row["prod_even"] = complex(ev.even_exact * ev_inv.even_exact)
            row["prod_odd"] = complex(ev.odd_exact * ev_inv.odd_exact)
        rows.append(row)
    return rows
