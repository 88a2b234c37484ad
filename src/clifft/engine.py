"""Numerical application of the transforms and certification of identities.

Two complementary quadrature routes are implemented:

* a full tensor-product Gauss-Hermite grid (dimensions 2 to 4) that
  applies a kernel to arbitrary Gaussian-decay functions with no
  structural assumptions, and
* a radial reduction (any dimension >= 2) that converts the transform of
  f0(r) M_k(x) (or f0(r) x M_k(x)) into a one-dimensional Bessel
  integral weighted by the kernel's eigenvalue functionals.

Everything downstream (eigenvalue certification, inversion by composed
transforms, differential relations, boundedness scans) is built on these
two routes plus the exact closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import blade_product
from .basis import BasisFunction, GaussianPolynomial, SphericalMonogenic, monogenic_basis, psi, x_times
from .checks import worst
from .exact import Exact
from .kernels import KernelId, build_kernel, eval_terms
from .series import (
    SeriesCoefficients,
    eigenvalues_from_coefficients,
    eval_series,
    inverse_coefficients,
    jtilde_stack,
    series_coefficients,
    transform_normalization,
    truncation_bound,
)
from .special import BesselOrder, bessel_jtilde, double_factorial, laguerre

__all__ = [
    "GRID_NODES",
    "QuadratureScheme",
    "RadialRule",
    "EigenvalueRecord",
    "L2ScanReport",
    "InversionReport",
    "DomainReport",
    "default_scheme",
    "radial_rule",
    "sample_points",
    "closed_form_eigenvalue_exact",
    "closed_form_eigenvalue",
    "apply_transform_batch",
    "bochner_reduce",
    "verify_eigen",
    "verify_inversion",
    "inversion_composition_residual",
    "verify_diff_relations",
    "l2_bound_scan",
    "domain_membership",
    "hankel_laguerre_residual",
]

GRID_NODES = {2: 64, 3: 48, 4: 36}

# Quadrature points per chunk: keeps a chunk's function values and its
# weighted matrix W (one row per function and blade) near cache size.
_CHUNK_ROWS = 16_384
# Entries rows x targets x (1 + m) of a chunk's profile matrix: bounds it,
# and the s, t and profile arrays it is built from, when targets are many
# (40 MB of real entries; the m = 2 composition's 6,400 targets give
# chunks of 260 points).
_CHUNK_ENTRIES = 5_000_000


class QuadratureScheme:
    """Tensor-product Gauss-Hermite rule rewritten for plain integrals.

    Per axis the nodes are x_i = sqrt(2) u_i and the weights
    W_i = sqrt(2) w_i exp(u_i^2), so sum W f(x) approximates the
    unweighted integral of f for functions with Gaussian decay; the
    rewritten weights stay O(1), avoiding overflow.
    """

    def __init__(self, m: int, nodes_per_axis: int | None = None):
        if m < 1:
            raise ValueError("dimension must be >= 1")
        n = nodes_per_axis or GRID_NODES.get(m)
        if n is None:
            raise ValueError(
                f"no default grid size for dimension {m}; pass nodes_per_axis"
            )
        u, w = np.polynomial.hermite.hermgauss(n)
        self.m = m
        self.nodes_per_axis = n
        self.axis_nodes = math.sqrt(2.0) * u
        self.axis_weights = math.sqrt(2.0) * w * np.exp(u * u)
        grids = np.meshgrid(*([self.axis_nodes] * m), indexing="ij")
        self.points = np.stack([g.reshape(-1) for g in grids], axis=1)
        self.weights = reduce(np.multiply.outer, [self.axis_weights] * m).reshape(-1)

    def __len__(self) -> int:
        return self.points.shape[0]

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(self.weights * values))

    def self_test(self, tol: float = 1e-10) -> float:
        """Relative error integrating centered and shifted unit Gaussians
        against the exact value (2 pi)^(m/2).  Raises unless below tol."""
        exact = (2.0 * math.pi) ** (self.m / 2.0)

        def rel_error(offset):
            vals = np.exp(-0.5 * np.sum((self.points - offset) ** 2, axis=1))
            return abs(self.integrate(vals).real - exact) / exact

        err = worst(rel_error(np.zeros(self.m)), rel_error(0.35 * np.arange(1, self.m + 1)))
        if not err < tol:
            raise RuntimeError(f"quadrature self-test failed: rel error {err:.3e}")
        return err

    def chunks(self, size: int = _CHUNK_ROWS):
        for start in range(0, len(self), size):
            sl = slice(start, start + size)
            yield self.points[sl], self.weights[sl]


@lru_cache(maxsize=None)
def default_scheme(m: int) -> QuadratureScheme:
    scheme = QuadratureScheme(m)
    scheme.self_test()
    return scheme


@dataclass(frozen=True)
class RadialRule:
    """Composite Gauss-Legendre rule on [0, r_max]."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(self.weights * values))


def radial_rule(r_max: float = 14.0, panel_width: float = 1.0, points_per_panel: int = 16) -> RadialRule:
    u, w = np.polynomial.legendre.leggauss(points_per_panel)
    edges = np.minimum(np.arange(0.0, r_max + panel_width, panel_width), r_max)
    nodes = []
    weights = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        half = 0.5 * (b - a)
        nodes.append(a + half * (u + 1.0))
        weights.append(half * w)
    return RadialRule(np.concatenate(nodes), np.concatenate(weights))


def _rule_for(ys_norms: np.ndarray) -> RadialRule:
    width = min(1.0, math.pi / max(float(np.max(ys_norms)), 1.0))
    return radial_rule(14.0, width, 16)


def sample_points(m: int, n: int, radius: float, seed: int = 0) -> np.ndarray:
    """Deterministic sample of n points with norms spread in (0, radius]."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, m))
    norms = np.linalg.norm(pts, axis=1)
    target = radius * rng.uniform(0.25, 1.0, size=n) ** (1.0 / m)
    return pts * (target / np.maximum(norms, 1e-12))[:, None]


# ---------------------------------------------------------------------------
# closed-form eigenvalues


_PARITIES = ("2p", "2p+1")


def _eigen_magnitude(m: int, i: int, k: int) -> Fraction:
    """|eigenvalue| at (i, k): a double-factorial ratio, the same on both
    branches."""
    df = double_factorial
    if (i + k) % 2 == 0:
        return Fraction(df(k + i - 1), df(k + m - i - 3))
    return Fraction(df(k + i), df(k + m - i - 2))


def closed_form_eigenvalue_exact(
    m: int, i: int, k: int, parity: str, p: int = 0, e_i: complex = 1.0
) -> Exact:
    """Closed form of the plus-kernel eigenvalue on the basis functions
    psi_{2p,k,l} (parity "2p") or psi_{2p+1,k,l} (parity "2p+1").

    The magnitude is a ratio of double factorials; the phase depends on
    the parities of i, k and the branch.
    """
    if parity not in _PARITIES:
        raise ValueError(f"parity must be one of {_PARITIES}, got {parity!r}")
    if not 0 <= i <= m - 2:
        raise ValueError(f"index i out of range 0..{m - 2}: {i}")
    if k < 0 or p < 0:
        raise ValueError("k and p must be >= 0")
    odd_branch = parity == "2p+1"

    if m % 2 == 0:
        sgn = -1 if (m // 2) % 2 else 1
        unit_sgn, unit_one = Exact(sgn), Exact(1)
    else:
        e = complex(e_i)
        j_unit = Exact._coerce(1j * e.conjugate())
        if ((m + 1) // 2) % 2:
            j_unit = -j_unit
        unit_sgn, unit_one = j_unit, Exact._coerce(e)

    unit = unit_sgn if odd_branch == bool((i + k) % 2) else unit_one
    flip = (not odd_branch) if k % 2 else i % 2
    val = unit * _eigen_magnitude(m, i, k)
    if (p + flip) % 2:
        val = -val
    return val


def closed_form_eigenvalue(
    m: int, i: int, k: int, parity: str, p: int = 0, e_i: complex = 1.0
) -> complex:
    return complex(closed_form_eigenvalue_exact(m, i, k, parity, p, e_i))


# ---------------------------------------------------------------------------
# full-grid transform


BladeValues = dict[int, np.ndarray]  # array-valued multivector: blade mask -> values at points


def _as_value_source(f) -> Callable[[np.ndarray], BladeValues]:
    if isinstance(f, (BasisFunction, GaussianPolynomial)):
        return f.values
    if callable(f):
        return f
    raise TypeError(f"cannot evaluate {f!r} on a point batch")


def apply_transform_batch(
    kernel,
    fs: Sequence,
    ys: np.ndarray,
    scheme: QuadratureScheme | None = None,
) -> list[BladeValues]:
    """Transforms of several functions under one kernel, at points ys.

    F[f](y) = (2 pi)^(-m/2) integral of K(x, y) f(x); the kernel profile
    evaluations are shared across all fs.  Per chunk of quadrature points
    the work is one real matrix product W @ P:

    * W has one row per (function, blade) pair, its weighted values; a
      complex value gives a real row and an imaginary row;
    * P has the scalar profile A and the bivector moments B x_j side by
      side as real columns, one per target each; a complex profile (odd m)
      gives a block of real-part columns and a block of imaginary-part
      columns, a real one (even m) only the first.

    The rows of W @ P are summed over chunks and split into scalar and
    bivector parts once, after the last chunk; the bivector step multiplies
    f's blades by blade_product.  A chunk holds at most _CHUNK_ROWS
    quadrature points, and at most _CHUNK_ENTRIES entries rows x targets x
    (1 + m) of P (twice that many when the profile is complex), so memory
    stays bounded however many targets there are.
    """
    expr = build_kernel(kernel) if isinstance(kernel, KernelId) else kernel
    m = expr.m
    scheme = scheme or default_scheme(m)
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if ys.shape[1] != m:
        raise ValueError(f"expected points with {m} coordinates")
    sources = [_as_value_source(f) for f in fs]
    r = ys.shape[0]
    ys_norm = np.linalg.norm(ys, axis=1)
    has_biv = bool(expr.bivector_terms)
    n_blocks = 1 + m if has_biv else 1
    # (function, blade, 1 or 1j) -> sum over chunks of its row of W @ P
    sums: dict[tuple[int, int, complex], np.ndarray] = {}

    for pts, wts in scheme.chunks(min(_CHUNK_ROWS, max(1, _CHUNK_ENTRIES // (r * n_blocks)))):
        # targets x points layout, so every array below is contiguous along
        # the points that the product sums over
        cols = np.ascontiguousarray(pts.T)
        s_mat = ys @ cols
        t_mat = ys_norm[:, None] * np.sqrt(reduce(np.add, [x * x for x in cols]))
        t_mat = np.sqrt(np.maximum(t_mat * t_mat - s_mat * s_mat, 0.0), out=t_mat)
        a_mat = eval_terms(expr.scalar_terms, s_mat, t_mat)
        b_mat = eval_terms(expr.bivector_terms, s_mat, t_mat) if has_biv else a_mat
        del s_mat, t_mat
        parts = (np.real, np.imag) if np.iscomplexobj(a_mat) or np.iscomplexobj(b_mat) else (np.real,)
        # profile[part, 0] = A, profile[part, 1 + j] = B x_j, each targets x points
        profile = np.empty((len(parts), n_blocks, r, len(pts)))
        for p, part in enumerate(parts):
            profile[p, 0] = part(a_mat)
            for j in range(1, n_blocks):
                np.multiply(part(b_mat), cols[j - 1], out=profile[p, j])
        del a_mat, b_mat

        values = [source(pts) for source in sources]
        keys = [
            (fi, blade, unit)
            for fi, vals in enumerate(values)
            for blade, v in vals.items()
            for unit in ((1, 1j) if np.iscomplexobj(v) else (1,))
        ]
        w_mat = np.empty((len(keys), len(pts)))
        for row, (fi, blade, unit) in zip(w_mat, keys):
            v = values[fi][blade]
            np.multiply(wts, np.real(v) if unit == 1 else np.imag(v), out=row)
        for key, row in zip(keys, w_mat @ profile.reshape(-1, len(pts)).T):
            if key in sums:
                sums[key] += row
            else:
                sums[key] = row

    norm = complex(transform_normalization(m))
    pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
    out: list[BladeValues] = [dict() for _ in fs]

    def acc(fi: int, blade: int, delta: np.ndarray) -> None:
        tgt = out[fi].setdefault(blade, np.zeros(r, dtype=complex))
        tgt += delta

    for (fi, blade, unit), row in sums.items():
        parts = row.reshape(-1, n_blocks, r)
        blocks = (unit * norm) * (parts[0] + 1j * parts[1] if len(parts) == 2 else parts[0])
        acc(fi, blade, blocks[0])
        if not has_biv:
            continue
        biv = {
            (1 << j) | (1 << k): ys[:, k] * blocks[1 + j] - ys[:, j] * blocks[1 + k]
            for j, k in pairs
        }
        for mask, delta in blade_product(biv, {blade: 1}).items():
            acc(fi, mask, delta)
    return out


def _norms(values: BladeValues) -> np.ndarray:
    """Per-point norms sqrt(sum_A |v_A|^2) of an array-valued multivector."""
    return np.sqrt(sum(v.real**2 + v.imag**2 for v in values.values()))


def _minus(a: BladeValues, b: BladeValues) -> BladeValues:
    return {blade: a.get(blade, 0) - b.get(blade, 0) for blade in a.keys() | b.keys()}


def _rayleigh(m: int, f_vals: BladeValues, g_vals: BladeValues) -> complex:
    num = 0.0 + 0.0j
    den = 0.0
    for blade, fv in f_vals.items():
        den += float(np.sum(np.abs(fv) ** 2))
        gv = g_vals.get(blade)
        if gv is not None:
            num += complex(np.sum(np.conj(fv) * gv))
    if den == 0.0:
        raise ValueError("reference function vanishes on all sample points")
    return num / den


# ---------------------------------------------------------------------------
# radial (Bochner-type) reduction


def _coeffs_of(source) -> SeriesCoefficients:
    if isinstance(source, SeriesCoefficients):
        return source
    if isinstance(source, KernelId):
        return series_coefficients(source)
    raise TypeError("expected a KernelId or SeriesCoefficients")


def _radial_bessel_integral(
    rule: RadialRule,
    f0_vals: np.ndarray,
    r_power: int,
    z_power: int,
    twice_order: int,
    rho: np.ndarray,
) -> np.ndarray:
    """integral over r of r^r_power f0(r) (r rho)^z_power
    jtilde_(twice_order/2)(r rho), for each target rho.  The Bessel factor
    is the one-row :func:`jtilde_stack`, whose fixed point blocks keep the
    nodes x targets grid from multiplying the memory it takes."""
    z = rule.nodes[:, None] * rho[None, :]
    vals = jtilde_stack(twice_order, 0, z)[0]
    if z_power:
        vals = vals * z**z_power
    wf = rule.weights * rule.nodes**r_power * f0_vals
    return wf @ vals


def bochner_reduce(
    source,
    monogenic: SphericalMonogenic,
    radial_profile: Callable[[np.ndarray], np.ndarray],
    parity: str,
    ys: np.ndarray,
    rule: RadialRule | None = None,
) -> BladeValues:
    """Transform of f0(r) M_k(x) (parity "2p") or f0(r) x M_k(x)
    (parity "2p+1") via the radial reduction.

    The angular factor passes through and the radial factor becomes a
    Bessel-weighted integral; radial_profile must decay fast enough to be
    negligible beyond r = 14.  Valid in every dimension >= 2.
    """
    if parity not in _PARITIES:
        raise ValueError(f"parity must be one of {_PARITIES}")
    coeffs = _coeffs_of(source)
    m = coeffs.m
    if monogenic.m != m:
        raise ValueError("monogenic dimension mismatch")
    k = monogenic.k
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    rho = np.linalg.norm(ys, axis=1)
    if np.any(rho <= 0):
        raise ValueError("the radial route needs nonzero sample points")
    rule = rule or _rule_for(rho)
    eta = ys / rho[:, None]
    f0 = np.asarray(radial_profile(rule.nodes), dtype=float)
    ev = eigenvalues_from_coefficients(coeffs, k)
    if parity == "2p":
        scale = ev.even_branch
        integral = _radial_bessel_integral(rule, f0, m + k - 1, k, 2 * k + m - 2, rho)
        angular = monogenic.poly.evaluate_batch(eta)
    else:
        scale = ev.odd_branch
        integral = _radial_bessel_integral(rule, f0, m + k, k + 1, 2 * k + m, rho)
        angular = x_times(monogenic.poly).evaluate_batch(eta)
    return {blade: scale * integral * vals for blade, vals in angular.items()}


# ---------------------------------------------------------------------------
# eigenvalue certification


@dataclass(frozen=True)
class EigenvalueRecord:
    m: int
    i: int
    k: int
    parity: str
    closed_form: complex
    numeric: complex
    abs_error: float


def _reference_eigenvalue(kernel_id: KernelId, k: int, parity: str) -> complex:
    if kernel_id.sign == "plus":
        return closed_form_eigenvalue(kernel_id.m, kernel_id.i, k, parity, 0, kernel_id.e_i)
    ev = eigenvalues_from_coefficients(series_coefficients(kernel_id), k)
    return ev.even_branch if parity == "2p" else ev.odd_branch


def verify_eigen(
    m: int,
    i_values: Iterable[int] | None = None,
    k_values: Iterable[int] = (0, 1, 2),
    j_values: Iterable[int] = (0, 1),
    sign: str = "plus",
    scheme: QuadratureScheme | None = None,
    n_samples: int = 20,
    method: str | None = None,
) -> list[EigenvalueRecord]:
    """Numeric eigenvalues on psi_{j,k,1} against the closed forms.

    method "grid" (default for m <= 4) applies the kernel by full
    quadrature and takes a Rayleigh quotient over sample points; method
    "radial" (default above 4) uses the radial reduction.
    """
    method = method or ("grid" if m <= 4 else "radial")
    i_list = list(i_values) if i_values is not None else list(range(m - 1))
    j_list = list(j_values)
    k_list = list(k_values)
    ys = sample_points(m, n_samples, 2.2, seed=101 + m)
    records: list[EigenvalueRecord] = []

    if method == "grid":
        scheme = scheme or default_scheme(m)
        fs = [psi(j, k, 1, m) for k in k_list for j in j_list]
        for i in i_list:
            kid = KernelId(m, i, sign)
            transformed = apply_transform_batch(kid, fs, ys, scheme)
            for fi, bf in enumerate(fs):
                ref_vals = bf.values(ys)
                lam = _rayleigh(m, ref_vals, transformed[fi])
                parity = _PARITIES[bf.j % 2]
                want = _reference_eigenvalue(kid, bf.k, parity) * (-1) ** (bf.j // 2)
                records.append(
                    EigenvalueRecord(m, i, bf.k, parity, want, lam, abs(lam - want))
                )
        return records

    if method != "radial":
        raise ValueError(f"unknown method {method!r}")
    for i in i_list:
        kid = KernelId(m, i, sign)
        coeffs = series_coefficients(kid)
        for k in k_list:
            mono = monogenic_basis(m, k)[0]
            for j in j_list:
                a, odd = divmod(j, 2)
                alpha = m / 2.0 + k - 1 + odd

                def f0(rr: np.ndarray, a=a, alpha=alpha) -> np.ndarray:
                    return laguerre(a, alpha, rr * rr) * np.exp(-0.5 * rr * rr)

                parity = _PARITIES[odd]
                got = bochner_reduce(coeffs, mono, f0, parity, ys)
                bf = psi(j, k, 1, m)
                lam = _rayleigh(m, bf.values(ys), got)
                want = _reference_eigenvalue(kid, k, parity) * (-1) ** a
                records.append(
                    EigenvalueRecord(m, i, k, parity, want, lam, abs(lam - want))
                )
    return records


# ---------------------------------------------------------------------------
# inversion


@dataclass(frozen=True)
class InversionReport:
    m: int
    k_checked: int
    exact_ok: bool
    first_failure: tuple[int, int, str] | None


def verify_inversion(m: int, k_max: int = 100) -> InversionReport:
    """Exact eigenvalue products against the inverse streams for every
    kernel index."""
    one = Exact(1)
    first = None
    for i in range(m - 1):
        coeffs = series_coefficients(KernelId(m, i))
        inv = inverse_coefficients(coeffs)
        for k in range(k_max + 1):
            ev = eigenvalues_from_coefficients(coeffs, k)
            evi = eigenvalues_from_coefficients(inv, k)
            if ev.even_exact * evi.even_exact != one:
                first = (i, k, "2p")
                break
            if ev.odd_exact * evi.odd_exact != one:
                first = (i, k, "2p+1")
                break
        if first:
            break
    return InversionReport(m=m, k_checked=k_max, exact_ok=first is None, first_failure=first)


def _composition_radial(m: int, i: int) -> float:
    """Residual of inverse(forward(psi)) - psi along radial chains."""
    kid = KernelId(m, i)
    coeffs = series_coefficients(kid)
    inv = inverse_coefficients(coeffs)
    lam2 = m - 2
    rule = radial_rule(14.0, min(1.0, math.pi / 14.0), 16)
    xs = np.linspace(0.35, 2.4, 9)
    gaussian = np.exp(-0.5 * rule.nodes**2)
    z = rule.nodes[:, None] * xs[None, :]

    # even chain: psi_{0,0,1} -> G(y) = g(|y|) -> H(x), compare with psi
    ev = eigenvalues_from_coefficients(coeffs, 0)
    evi = eigenvalues_from_coefficients(inv, 0)
    g_nodes = ev.even_branch * _radial_bessel_integral(
        rule, gaussian, m - 1, 0, lam2, rule.nodes
    )
    h_vals = evi.even_branch * (
        (rule.weights * rule.nodes ** (m - 1) * g_nodes) @ bessel_jtilde(BesselOrder(lam2), z)
    )
    even_err = np.abs(h_vals - np.exp(-0.5 * xs * xs))

    # odd chain: psi_{1,0,1} = x exp(-r^2/2) -> G(y) = y q(|y|), with
    # q(rho) = E_1 Int(rho)/rho finite at the origin; compare radial
    # profiles of H and psi along any ray.
    int_fwd = _radial_bessel_integral(rule, gaussian, m, 1, lam2 + 2, rule.nodes)
    q_nodes = ev.odd_branch * int_fwd / rule.nodes
    h_vals = evi.odd_branch * (
        (rule.weights * rule.nodes**m * q_nodes)
        @ (z * bessel_jtilde(BesselOrder(lam2 + 2), z))
    )
    return worst(even_err, np.abs(h_vals - xs * np.exp(-0.5 * xs * xs)))


def _composition_grid_m2(i: int) -> float:
    """Residual of inverse(forward(psi)) - psi in dimension 2, with the
    middle integral on a Gauss-Legendre grid and the inverse applied
    through its series kernel, {0: A, e12: B (x wedge y)} by blade_product."""
    m = 2
    kid = KernelId(m, i)
    scheme = default_scheme(m)
    u, w = np.polynomial.legendre.leggauss(80)
    half = 8.0
    ax = half * u
    aw = half * w
    gy1, gy2 = np.meshgrid(ax, ax, indexing="ij")
    mid = np.stack([gy1.reshape(-1), gy2.reshape(-1)], axis=1)
    mid_w = np.multiply.outer(aw, aw).reshape(-1)

    inv = inverse_coefficients(series_coefficients(kid))
    n_terms = truncation_bound(inv, float(np.max(np.linalg.norm(mid, axis=1))) * 2.6, 1e-11)
    xs = sample_points(m, 12, 2.3, seed=7)
    norm = complex(transform_normalization(m))

    fs = [psi(j, 0, 1, m) for j in (0, 1)]
    g_batch = apply_transform_batch(kid, fs, mid, scheme)
    # inverse kernel at every (sample, mid-grid point) pair, samples as rows
    zz = np.linalg.norm(xs, axis=1)[:, None] * np.linalg.norm(mid, axis=1)[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        ww = np.where(zz > 0, (xs @ mid.T) / np.maximum(zz, 1e-300), 0.0)
    a_prof, b_prof = eval_series(inv, zz, ww, n_terms)
    wedge12 = xs[:, 1:] * mid[:, 0] - xs[:, :1] * mid[:, 1]
    inv_kernel = {0: a_prof, 0b11: b_prof * wedge12}

    errors = []
    for bf, g_vals in zip(fs, g_batch):
        h_vals = blade_product(inv_kernel, g_vals)
        got = {blade: (v @ mid_w) * norm for blade, v in h_vals.items()}
        errors.append(_norms(_minus(got, bf.values(xs))))
    return worst(*errors)


def inversion_composition_residual(m: int, i: int = 0) -> float:
    """Numeric composition check inverse(forward(psi)) = psi for the
    first two basis functions."""
    if m == 2:
        return _composition_grid_m2(i)
    return _composition_radial(m, i)


# ---------------------------------------------------------------------------
# differential relations


def verify_diff_relations(
    kernel_id: KernelId,
    bf: BasisFunction,
    n_samples: int = 6,
    scheme: QuadratureScheme | None = None,
    h: float = 1e-4,
) -> float:
    """Residuals of the two relations coupling the sign pair:

        F_+[x f] = -(-I)^m d_y[F_-[f]],
        F_+[d f] = -(-I)^m y F_-[f].

    d_x on the Gaussian class is exact; d_y uses central differences.  Both
    sides are BladeValues over all samples, multiplied by blade_product.
    """
    m = kernel_id.m
    scheme = scheme or default_scheme(m)
    plus = replace(kernel_id, sign="plus")
    minus = replace(kernel_id, sign="minus")
    gp = GaussianPolynomial(bf.poly)
    ys = sample_points(m, n_samples, 1.8, seed=31 + m)
    # rows of shifts: 0, +h e_1, -h e_1, +h e_2, ...
    shifts = np.concatenate([np.zeros((1, m)), np.kron(h * np.eye(m), [[1.0], [-1.0]])])
    ys_ext = (shifts[:, None, :] + ys).reshape(-1, m)

    plus_vals = apply_transform_batch(plus, [gp.times_x(), gp.dirac()], ys, scheme)
    minus_vals = apply_transform_batch(minus, [gp], ys_ext, scheme)[0]

    # F_-[f] as (2m + 1, r) arrays, one row per shift
    rows = {blade: v.reshape(len(shifts), -1) for blade, v in minus_vals.items()}
    rhs1: BladeValues = {}
    for j in range(m):
        d_j = {blade: (v[1 + 2 * j] - v[2 + 2 * j]) * (0.5 / h) for blade, v in rows.items()}
        for blade, v in blade_product({1 << j: 1}, d_j).items():
            rhs1[blade] = rhs1.get(blade, 0) + v
    rhs2 = blade_product({1 << j: ys[:, j] for j in range(m)}, {b: v[0] for b, v in rows.items()})

    factor = -((-1j) ** m)
    residuals = []
    for lhs, rhs in zip(plus_vals, (rhs1, rhs2)):
        rhs = {blade: v * factor for blade, v in rhs.items()}
        scale = np.maximum(1.0, np.maximum(_norms(lhs), _norms(rhs)))
        residuals.append(_norms(_minus(lhs, rhs)) / scale)
    return worst(*residuals)


# ---------------------------------------------------------------------------
# boundedness scan and domain screen


@dataclass(frozen=True)
class L2ScanReport:
    m: int
    i: int
    k_max: int
    bounded: bool
    sup_magnitude: Fraction
    first_exceed_k: int | None


def l2_bound_scan(m: int, i: int, k_max: int) -> L2ScanReport:
    """Exact magnitudes of the closed-form eigenvalues up to k_max.

    The magnitude at (i, k) is a double-factorial ratio independent of
    the branch; it stays <= 1 for all k exactly when 2 i <= m - 2, with
    equality throughout at i = (m - 2)/2.
    """
    if not 0 <= i <= m - 2:
        raise ValueError(f"index i out of range 0..{m - 2}: {i}")
    sup = Fraction(0)
    first_exceed = None
    for k in range(k_max + 1):
        mag = _eigen_magnitude(m, i, k)
        if mag > sup:
            sup = mag
        if mag > 1 and first_exceed is None:
            first_exceed = k
    return L2ScanReport(
        m=m, i=i, k_max=k_max, bounded=first_exceed is None,
        sup_magnitude=sup, first_exceed_k=first_exceed,
    )


@dataclass(frozen=True)
class DomainReport:
    converged: bool
    shell_contributions: tuple[float, ...]


def domain_membership(
    f,
    i: int,
    m: int,
    shells: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0),
    samples: int = 4096,
    tol: float = 1e-8,
    seed: int = 5,
) -> DomainReport:
    """Monte Carlo screen for membership in the natural domain of the
    index-i transform: integral of |f(x)| (1 + |x|)^i over expanding
    shells must tail off."""
    rng = np.random.default_rng(seed)
    fn = _as_value_source(f)
    ball_vol = math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)
    edges = [0.0, *shells]
    contributions = []
    for a, b in zip(edges[:-1], edges[1:]):
        dirs = rng.normal(size=(samples, m))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = (a**m + rng.uniform(size=samples) * (b**m - a**m)) ** (1.0 / m)
        pts = dirs * radii[:, None]
        mag = _norms(fn(pts)) * (1.0 + np.linalg.norm(pts, axis=1)) ** i
        vol = ball_vol * (b**m - a**m)
        contributions.append(float(np.mean(mag) * vol))
    total = sum(contributions)
    converged = contributions[-1] <= tol * max(total, 1.0) and (
        contributions[-1] <= contributions[-2] if len(contributions) > 1 else True
    )
    return DomainReport(converged=converged, shell_contributions=tuple(contributions))


def hankel_laguerre_residual(
    m: int, k: int, j: int, s_values: Sequence[float], rule: RadialRule | None = None
) -> float:
    """Residual of the Hankel-Laguerre eigenrelation: the integral over r
    of r^(m+k-1) L_j^(k+lam)(r^2) e^(-r^2/2) (r s)^k jtilde_(k+lam)(r s)
    equals (-1)^j s^k L_j^(k+lam)(s^2) e^(-s^2/2), lam = (m-2)/2."""
    s_arr = np.asarray(list(s_values), dtype=float)
    if np.any(s_arr <= 0):
        raise ValueError("s values must be positive")
    rule = rule or _rule_for(s_arr)
    lam = (m - 2) / 2.0
    f0 = laguerre(j, k + lam, rule.nodes**2) * np.exp(-0.5 * rule.nodes**2)
    lhs = _radial_bessel_integral(rule, f0, m + k - 1, k, 2 * k + m - 2, s_arr)
    rhs = (-1.0) ** j * s_arr**k * laguerre(j, k + lam, s_arr**2) * np.exp(-0.5 * s_arr**2)
    scale = np.maximum(1.0, np.abs(rhs))
    return float(np.max(np.abs(lhs - rhs) / scale))
