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

Dimension two is the lambda -> 0 limit; there alpha_k diverges for k >= 1
while lambda * alpha_k stays finite, so the stream stores those limits
(``lambda_exact``) and evaluation uses lim lambda->0 C_k^lambda / lambda
= (2/k) T_k together with C^1 = U (Chebyshev polynomials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable

import numpy as np

from .algebra import ParaBivector, invariants_of
from .exact import Exact, ONE
from .kernels import KernelId
from .special import (
    BesselOrder,
    bessel_jtilde,
    chebyshev_t_all,
    chebyshev_u_all,
    double_factorial,
    gegenbauer_all,
    log_gamma,
)

__all__ = [
    "SeriesCoefficients",
    "EigenvaluePair",
    "CFConstraintReport",
    "gamma2pow",
    "bridge_prefactor",
    "transform_normalization",
    "series_coefficients",
    "series_minus_counterpart",
    "eval_series",
    "series_kernel_value",
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
    """Exact coefficient streams of one kernel's series expansion."""

    __slots__ = ("m", "provenance", "_alpha", "_beta", "_lambda")

    def __init__(
        self,
        m: int,
        alpha_fn: Callable[[int], Exact],
        beta_fn: Callable[[int], Exact],
        lambda_fn: Callable[[int], Exact] | None = None,
        provenance: KernelId | None = None,
    ):
        if m < 2:
            raise ValueError(f"dimension must be >= 2, got {m}")
        if m == 2 and lambda_fn is None:
            raise ValueError("dimension 2 requires the limit stream lambda_fn")
        self.m = m
        self.provenance = provenance
        self._alpha = lru_cache(maxsize=None)(alpha_fn)
        self._beta = lru_cache(maxsize=None)(beta_fn)
        self._lambda = lru_cache(maxsize=None)(lambda_fn) if lambda_fn else None

    @property
    def limit_representation(self) -> bool:
        return self.m == 2

    @property
    def lam(self) -> float:
        return (self.m - 2) / 2.0

    @property
    def lam_fraction(self) -> Fraction:
        return Fraction(self.m - 2, 2)

    def alpha_exact(self, k: int) -> Exact:
        if k < 0:
            raise ValueError("index must be >= 0")
        if self.m == 2 and k >= 1:
            raise ValueError(
                "alpha_k diverges in the dimension-2 limit representation; "
                "use lambda_exact for the finite limits lambda*alpha_k"
            )
        return self._alpha(k)

    def beta_exact(self, k: int) -> Exact:
        if k < 0:
            raise ValueError("index must be >= 0")
        if k == 0:
            return Exact(0)
        return self._beta(k)

    def lambda_exact(self, k: int) -> Exact:
        if self.m != 2:
            raise ValueError("lambda-scaled entries only exist in dimension 2")
        if k < 1:
            raise ValueError("lambda_exact is defined for k >= 1")
        return self._lambda(k)

    def alpha(self, k: int) -> complex:
        return complex(self.alpha_exact(k))

    def beta(self, k: int) -> complex:
        return complex(self.beta_exact(k))

    def lambda_limit(self, k: int) -> complex:
        return complex(self.lambda_exact(k))

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
    if kernel_id.m == 2:
        return _series_m2(kernel_id)
    coeffs = _series_plus(replace(kernel_id, sign="plus"))
    if kernel_id.sign == "minus":
        coeffs = series_minus_counterpart(coeffs)
    return coeffs


def _series_plus(kernel_id: KernelId) -> SeriesCoefficients:
    m, i = kernel_id.m, kernel_id.i
    c1 = gamma2pow(m, 1, 1)
    c2 = gamma2pow(m, 2, 1)
    c3 = gamma2pow(m, 1, 0)
    if m % 2 == 0:
        sigma = -1 if (m // 2) % 2 else 1
    else:
        sigma = -1 if ((m + 1) // 2) % 2 else 1
    direct, twisted = _route_factors(m, kernel_id.e_i)
    df = double_factorial

    if i % 2 == 0:

        def alpha_fn(k: int) -> Exact:
            if k % 2 == 0:
                j = k // 2
                core = (
                    c1
                    * Fraction(sigma * (4 * j + m - 2), 2)
                    * Fraction(df(2 * j + i - 1), df(2 * j + m - i - 3))
                )
                return core * twisted
            j = (k - 1) // 2
            core = (
                c2
                * (-i * (4 * j + m))
                * Fraction(df(2 * j + i - 1), df(2 * j + m - i - 1))
            )
            return core * direct

        def beta_fn(k: int) -> Exact:
            if k % 2 == 0:
                return Exact(0)
            j = (k - 1) // 2
            core = c3 * (4 * j + m) * Fraction(df(2 * j + i - 1), df(2 * j + m - i - 1))
            return core * direct

    else:

        def alpha_fn(k: int) -> Exact:
            if k % 2 == 0:
                j = k // 2
                core = (
                    c2
                    * (-i * (4 * j + m - 2))
                    * Fraction(df(2 * j + i - 2), df(2 * j + m - i - 2))
                )
                return core * direct
            j = (k - 1) // 2
            core = (
                c1
                * Fraction(-sigma * (4 * j + m), 2)
                * Fraction(df(2 * j + i), df(2 * j + m - i - 2))
            )
            return core * twisted

        def beta_fn(k: int) -> Exact:
            if k % 2 or k == 0:
                return Exact(0)
            j = k // 2 - 1
            core = c3 * (4 * j + m + 2) * Fraction(df(2 * j + i), df(2 * j + m - i))
            return core * direct

    return SeriesCoefficients(m, alpha_fn, beta_fn, provenance=kernel_id)


def _series_m2(kernel_id: KernelId) -> SeriesCoefficients:
    sign = 1 if kernel_id.sign == "plus" else -1

    def alpha_fn(k: int) -> Exact:
        return Exact(-1)

    def lambda_fn(k: int) -> Exact:
        return Exact(-k) if k % 2 == 0 else Exact(0)

    def beta_fn(k: int) -> Exact:
        return Exact(2 * sign) if k % 2 else Exact(0)

    return SeriesCoefficients(2, alpha_fn, beta_fn, lambda_fn, provenance=kernel_id)


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
    lam_fn = flip(coeffs._lambda) if coeffs._lambda else None
    return SeriesCoefficients(
        coeffs.m, flip(coeffs._alpha), flip(coeffs._beta), lam_fn, provenance=prov
    )


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
    """Unbridged pair (D_k, E_k) built from the coefficient streams."""
    if coeffs.m == 2:
        if k == 0:
            a0 = coeffs.alpha_exact(0)
            return a0, a0
        lam_k = coeffs.lambda_exact(k)
        half_beta = coeffs.beta_exact(k) * Fraction(1, 2)
        base = lam_k * Fraction(1, k)
        return base - half_beta, base + half_beta
    denom = coeffs.m - 2 + 2 * k
    alpha_k = coeffs.alpha_exact(k)
    beta_k = coeffs.beta_exact(k)
    d = alpha_k * Fraction(coeffs.m - 2, denom) - beta_k * Fraction(k, denom)
    e = alpha_k * Fraction(coeffs.m - 2, denom) + beta_k * Fraction(k + coeffs.m - 2, denom)
    return d, e


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

    Entrywise: with N_k = D_k E_k, alpha~_k = (alpha_k + beta_k)/N_k and
    beta~_k = -beta_k/N_k, rescaled so the bridged eigenvalue products
    come out exactly 1.  Raises when some eigenvalue vanishes.
    """
    m = coeffs.m

    def n_of(k: int) -> Exact:
        d, e = _functionals(coeffs, k)
        n = d * e
        if n.is_zero:
            raise ValueError(f"eigenvalue vanishes at k = {k}; no inverse there")
        return n

    if m == 2:

        def alpha_fn(k: int) -> Exact:
            return ONE / coeffs.alpha_exact(0)

        def lambda_fn(k: int) -> Exact:
            return coeffs.lambda_exact(k) / n_of(k)

        def beta_fn(k: int) -> Exact:
            return -coeffs.beta_exact(k) / n_of(k)

        return SeriesCoefficients(2, alpha_fn, beta_fn, lambda_fn)

    pref = bridge_prefactor(m)
    rescale = ONE / (pref * pref)

    def alpha_fn(k: int) -> Exact:
        return (coeffs.alpha_exact(k) + coeffs.beta_exact(k)) / n_of(k) * rescale

    def beta_fn(k: int) -> Exact:
        return -coeffs.beta_exact(k) / n_of(k) * rescale

    return SeriesCoefficients(m, alpha_fn, beta_fn)


# ---------------------------------------------------------------------------
# consistency constraint


@dataclass(frozen=True)
class CFConstraintReport:
    m: int
    k_checked: int
    max_residual: float
    passed: bool
    worst_k: int | None


def check_cf_constraint(
    coeffs: SeriesCoefficients, k_max: int = 50, tol: float = 1e-10
) -> CFConstraintReport:
    """Check the coupling between consecutive coefficients that holds for
    every kernel of the family.

    The relation is stated for the minus kernel's streams:

        lam conj(alpha_{k+1}) + (k+1+2 lam)/2 conj(beta_{k+1})
            = (-I)^m (-1)^(k+1) (lam+k+1)/(lam+k) (lam alpha_k - k/2 beta_k).

    Plus-kernel provenance is converted first; streams without provenance
    are taken as already being in the minus role.  Residuals are exact
    and reported relative to the larger side.
    """
    c = coeffs
    if c.provenance is not None and c.provenance.sign == "plus":
        c = series_minus_counterpart(c)
    m = c.m
    mi_pow = Exact(0, -1) ** (m % 4)
    worst = 0.0
    worst_k = None
    for k in range(k_max + 1):
        if m == 2:
            lhs = c.lambda_exact(k + 1).conjugate() + c.beta_exact(k + 1).conjugate() * Fraction(
                k + 1, 2
            )
            if k == 0:
                rhs = c.alpha_exact(0)
            else:
                rhs = (
                    (c.lambda_exact(k) - c.beta_exact(k) * Fraction(k, 2))
                    * Fraction((-1) ** k * (k + 1), k)
                )
        else:
            lam = c.lam_fraction
            lhs = c.alpha_exact(k + 1).conjugate() * lam + c.beta_exact(
                k + 1
            ).conjugate() * Fraction(k + 1 + m - 2, 2)
            rhs = (
                mi_pow
                * ((-1) ** (k + 1) * Fraction(m + 2 * k, m - 2 + 2 * k))
                * (c.alpha_exact(k) * lam - c.beta_exact(k) * Fraction(k, 2))
            )
        residual = lhs - rhs
        rel = residual.magnitude() / max(1.0, lhs.magnitude(), rhs.magnitude())
        if rel > worst:
            worst = rel
            worst_k = k
    return CFConstraintReport(
        m=m, k_checked=k_max, max_residual=worst, passed=worst <= tol, worst_k=worst_k
    )


def classical_coefficients(m: int) -> SeriesCoefficients:
    """Streams of the classical scalar kernel exp(-I <x, y>), scale-free:
    alpha_k = (lam + k)(-I)^k and beta = 0.  Useful as a comparison point
    for the consistency constraint."""
    if m < 3:
        raise ValueError("the classical streams need m >= 3")

    def alpha_fn(k: int) -> Exact:
        return Exact(0, -1) ** (k % 4) * Fraction(m - 2 + 2 * k, 2)

    def beta_fn(k: int) -> Exact:
        return Exact(0)

    return SeriesCoefficients(m, alpha_fn, beta_fn)


# ---------------------------------------------------------------------------
# evaluation and truncation control


def eval_series(
    coeffs: SeriesCoefficients, z, w, n_terms: int
) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums (A, B) of the expansion through index n_terms.

    z >= 0 and w in [-1, 1] broadcast together.
    """
    z_arr = np.asarray(z, dtype=float)
    w_arr = np.asarray(w, dtype=float)
    z_arr, w_arr = np.broadcast_arrays(z_arr, w_arr)
    n = int(n_terms)
    if n < 0:
        raise ValueError("n_terms must be >= 0")
    a_total = np.zeros(z_arr.shape, dtype=complex)
    b_total = np.zeros(z_arr.shape, dtype=complex)
    m = coeffs.m

    if m == 2:
        t_all = chebyshev_t_all(n, w_arr)
        u_all = chebyshev_u_all(max(n - 1, 0), w_arr)
        zpow = np.ones_like(z_arr)
        zpow_prev = None
        for k in range(n + 1):
            jt = bessel_jtilde(BesselOrder(2 * k), z_arr)
            if k == 0:
                a_total += coeffs.alpha(0) * jt
            else:
                lam_k = coeffs.lambda_limit(k)
                if lam_k:
                    a_total += lam_k * (2.0 / k) * t_all[k] * zpow * jt
                b_k = coeffs.beta(k)
                if b_k:
                    b_total += b_k * zpow_prev * jt * u_all[k - 1]
            zpow_prev = zpow
            zpow = zpow * z_arr
        return a_total, b_total

    lam = coeffs.lam
    geg_a = gegenbauer_all(n, lam, w_arr)
    geg_b = gegenbauer_all(max(n - 1, 0), lam + 1.0, w_arr)
    zpow = np.ones_like(z_arr)
    zpow_prev = None
    for k in range(n + 1):
        jt = bessel_jtilde(BesselOrder(2 * k + m - 2), z_arr)
        a_k = coeffs.alpha(k)
        if a_k:
            a_total += a_k * zpow * jt * geg_a[k]
        if k >= 1:
            b_k = coeffs.beta(k)
            if b_k:
                b_total += b_k * zpow_prev * jt * geg_b[k - 1]
        zpow_prev = zpow
        zpow = zpow * z_arr
    return a_total, b_total


def series_kernel_value(
    coeffs: SeriesCoefficients, x, y, n_terms: int
) -> ParaBivector:
    """Kernel value via the series route; pairs with the closed-form route."""
    inv = invariants_of(x, y)
    w = inv.w if inv.w is not None else 0.0
    a, b = eval_series(coeffs, inv.z, w, n_terms)
    return ParaBivector.from_geometry(coeffs.m, complex(a), complex(b), x, y)


def _term_magnitudes(coeffs: SeriesCoefficients, k: int, log_half_z: float) -> float:
    """Majorant of the k-th term of |A| + |B| over |w| <= 1 at fixed z."""
    m = coeffs.m
    if m == 2:
        if k == 0:
            return coeffs.alpha_exact(0).magnitude()
        ta = coeffs.lambda_exact(k).magnitude() * (2.0 / k)
        tb = coeffs.beta_exact(k).magnitude() * 0.5 * k
        out = 0.0
        if ta:
            out += math.exp(math.log(ta) + k * log_half_z - log_gamma(k + 1.0))
        if tb:
            out += math.exp(math.log(tb) + (k - 1) * log_half_z - log_gamma(k + 1.0))
        return out
    lam = coeffs.lam
    lg = log_gamma(k + lam + 1.0)

    def log_c_at_one(deg: int, par: float) -> float:
        if deg <= 0:
            return 0.0
        val = log_gamma(2 * par + deg) - log_gamma(2 * par) - log_gamma(deg + 1.0)
        return max(0.0, val)

    out = 0.0
    ta = coeffs.alpha_exact(k).magnitude()
    if ta:
        out += math.exp(
            math.log(ta) + k * log_half_z - lam * math.log(2.0) + log_c_at_one(k, lam) - lg
        )
    if k >= 1:
        tb = coeffs.beta_exact(k).magnitude()
        if tb:
            out += math.exp(
                math.log(tb)
                + (k - 1) * log_half_z
                - (lam + 1.0) * math.log(2.0)
                + log_c_at_one(k - 1, lam + 1.0)
                - lg
            )
    return out


def truncation_bound(coeffs: SeriesCoefficients, z_max: float, eps: float) -> int:
    """Smallest index N with the tail beyond N provably below eps for all
    z <= z_max and |w| <= 1.

    Term majorants use |jtilde_(k+lam)(z)| <= (z/2)^k 2^(-lam)/Gamma(k+lam+1)
    and |C_k^lam(w)| <= C_k^lam(1); the tail past the computed range is
    bounded by a geometric comparison once terms at least halve.  Raises
    ValueError when a term majorant overflows a float.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
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

    In dimension 2 the alpha columns hold the limit entries lambda*alpha_k
    for k >= 1.
    """
    inv = inverse_coefficients(coeffs) if include_inverse else None

    def entry(c: SeriesCoefficients, k: int) -> complex:
        if c.m == 2 and k >= 1:
            return complex(c.lambda_exact(k))
        return c.alpha(k)

    rows = []
    for k in range(k_max + 1):
        row: dict = {"k": k, "alpha": entry(coeffs, k), "beta": coeffs.beta(k)}
        if inv is not None:
            row["inv_alpha"] = entry(inv, k)
            row["inv_beta"] = inv.beta(k)
            ev = eigenvalues_from_coefficients(coeffs, k)
            ev_inv = eigenvalues_from_coefficients(inv, k)
            row["prod_even"] = complex(ev.even_exact * ev_inv.even_exact)
            row["prod_odd"] = complex(ev.odd_exact * ev_inv.odd_exact)
        rows.append(row)
    return rows
