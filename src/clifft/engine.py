"""Numerical application of the transforms and certification of identities.

Two complementary quadrature routes are implemented:

* a target-aligned cylindrical rule (dimensions 2 to 4) that applies a
  kernel to arbitrary Gaussian polynomials: for each target y it integrates
  along yhat by Gauss-Hermite, over r = |x_perp| by generalized
  Gauss-Laguerre in r^2/2 and over the sphere of the complement of yhat by
  a rule exact for the functions' degree, so the kernel's profiles are
  evaluated once per (x_1, r) node, and
* a radial reduction (any dimension >= 2) that converts the transform of
  f0(r) M_k(x) (or f0(r) x M_k(x)) into a one-dimensional Bessel
  integral weighted by the kernel's eigenvalue functionals.

Everything downstream (eigenvalue certification, inversion by composed
transforms, differential relations, boundedness scans) is built on these
two routes plus the exact closed forms.  The tensor-product Gauss-Hermite
grid of :class:`QuadratureScheme` remains for plain integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import blade_product
from .basis import (
    BasisFunction,
    GaussianPolynomial,
    PolynomialTable,
    SphericalMonogenic,
    monogenic_basis,
    psi,
    x_times,
)
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
from .special import bessel_jtilde, double_factorial, laguerre

__all__ = [
    "GRID_NODES",
    "CylindricalRule",
    "QuadratureScheme",
    "RadialRule",
    "EigenvalueRecord",
    "L2ScanReport",
    "InversionReport",
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
    "hankel_laguerre_residual",
]

GRID_NODES = {2: 64, 3: 48, 4: 36}

# Quadrature points per chunk of the tensor grid's integrals.  Also the
# entries per strip of the radial route's nodes x targets Bessel table.
_CHUNK_ROWS = 16_384
# Generalized Gauss-Laguerre nodes in u = r^2/2 of the target-aligned rule
# for a target of norm at most 3; see _radial_count for larger norms.
_NODES = 24
# Entries per chunk of targets of apply_transform_batch, counted as
# targets x nodes x sphere points x (table rows + m + profile columns):
# 32 MB of reals.
_RULE_CHUNK_ENTRIES = 4_000_000


class QuadratureScheme:
    """Tensor-product Gauss-Hermite rule rewritten for plain integrals.

    Per axis the nodes are x_i = sqrt(2) u_i and the weights
    W_i = sqrt(2) w_i exp(u_i^2), so sum W f(x) approximates the
    unweighted integral of f for functions with Gaussian decay; the
    rewritten weights stay O(1), avoiding overflow.

    Only the axis rule is stored.  The points are numbered in C order of
    their axis indices (i_1, ..., i_m), and :meth:`chunks` builds each run
    of consecutive points from the axis rule, with the weight of a point
    the product W_(i_1) W_(i_2) ... W_(i_m) taken left to right.  It is
    the rule of :meth:`integrate` and of criterion 10's Gram matrix, and
    the tests' second oracle of the transform; the transform itself runs
    on :class:`CylindricalRule`.
    """

    def __init__(self, m: int, nodes_per_axis: int | None = None):
        if m < 1:
            raise ValueError("dimension must be >= 1")
        n = GRID_NODES.get(m) if nodes_per_axis is None else nodes_per_axis
        if n is None:
            raise ValueError(
                f"no default grid size for dimension {m}; pass nodes_per_axis"
            )
        if n < 1:
            raise ValueError(f"nodes per axis must be >= 1, got {n}")
        u, w = np.polynomial.hermite.hermgauss(n)
        self.m = m
        self.nodes_per_axis = n
        self.axis_nodes = math.sqrt(2.0) * u
        self.axis_weights = math.sqrt(2.0) * w * np.exp(u * u)

    def __len__(self) -> int:
        return self.nodes_per_axis**self.m

    def chunks(self):
        """(points, weights) of consecutive runs of _CHUNK_ROWS points (the
        last one shorter); points is the (n, m) transpose of a contiguous
        (m, n) array."""
        # coordinates and axis weights of axes 2..m at the n^(m-1) points of
        # one value of the first axis, one row per axis
        n, rest = self.nodes_per_axis, self.m - 1
        idx = np.indices((n,) * rest).reshape(rest, n**rest)
        coords, axis_wts = self.axis_nodes[idx], self.axis_weights[idx]
        block = n**rest
        total = len(self)
        for start in range(0, total, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, total)
            cols = np.empty((self.m, stop - start))
            wts = np.empty(stop - start)
            pos = start
            # one segment per value of the first axis
            while pos < stop:
                first, lo = divmod(pos, block)
                hi = min(block, lo + stop - pos)
                seg = slice(pos - start, pos - start + hi - lo)
                cols[0, seg] = self.axis_nodes[first]
                cols[1:, seg] = coords[:, lo:hi]
                wts[seg] = self.axis_weights[first]
                for axis_w in axis_wts[:, lo:hi]:
                    wts[seg] *= axis_w
                pos += hi - lo
            yield cols.T, wts

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> complex:
        """sum W f(x) over the grid, with f evaluated on one chunk of (n, m)
        points at a time."""
        return complex(sum(np.sum(wts * f(pts)) for pts, wts in self.chunks()))

    def self_test(self) -> float:
        """Relative error integrating centered and shifted unit Gaussians
        against the exact value (2 pi)^(m/2).  Raises unless below 1e-10."""
        exact = (2.0 * math.pi) ** (self.m / 2.0)

        def rel_error(offset):
            value = self.integrate(lambda pts: np.exp(-0.5 * np.sum((pts - offset) ** 2, axis=1)))
            return abs(value.real - exact) / exact

        err = worst(rel_error(np.zeros(self.m)), rel_error(0.35 * np.arange(1, self.m + 1)))
        if not err < 1e-10:
            raise RuntimeError(f"quadrature self-test failed: rel error {err:.3e}")
        return err


def _radial_count(rho: np.ndarray) -> np.ndarray:
    """Radial nodes for targets of norm rho: 8 ceil((rho + 3)/2), at least
    _NODES, so n nodes serve norms up to (n - 12)/4.  t = r rho makes the
    radial integrand oscillate faster as rho grows.  Measured at m = 2, 3
    and 4 against a 200-node rule, n nodes integrate r^(2p) jtilde(r rho),
    p <= 3, to about 1e-14 of its scale for rho up to (n - 4)/4 and lose
    digits quickly beyond; the two units of slack take the m = 2
    composition, whose targets reach norm 11.3, from 4.5e-14 to 1.4e-14."""
    return np.maximum(_NODES, 8 * np.ceil((rho + 3.0) / 2.0).astype(int))


@lru_cache(maxsize=None)
def _sphere_rule(m: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Points (q, m - 1) and weights (q,) of a rule on the unit sphere
    S^(m-2) of R^(m-1), exact for every polynomial of degree <= degree and
    summing to the sphere's area: the two points +-1 (m = 2); degree + 1
    equally spaced angles (m = 3); their product with the
    ceil((degree + 1)/2)-point Gauss-Legendre rule in the polar cosine z
    (m = 4), exact because a monomial's angular part integrates exactly
    and leaves a polynomial in z of degree <= degree."""
    if m == 2:
        return np.array([[1.0], [-1.0]]), np.ones(2)
    n_phi = degree + 1
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    circle = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    if m == 3:
        return circle, np.full(n_phi, 2.0 * math.pi / n_phi)
    z, wz = np.polynomial.legendre.leggauss((degree + 2) // 2)
    ring = np.sqrt(1.0 - z * z)[:, None, None] * circle
    pts = np.concatenate([np.repeat(z, n_phi)[:, None], ring.reshape(-1, 2)], axis=1)
    return pts, np.repeat(wz * (2.0 * math.pi / n_phi), n_phi)


class CylindricalRule:
    """The quadrature of :func:`apply_transform_batch`, aligned with each
    target (dimensions 2 to 4).

    For a target y write x = x_1 yhat + r omega, with yhat = y/|y| and
    omega on the unit sphere of the complement of yhat.  Then s = x_1 |y|
    and t = r |y|, and an integral of g(x) exp(-|x|^2/2) over R^m is

        integral dx_1 exp(-x_1^2/2) integral r^(m-2) exp(-r^2/2) dr
            integral over the sphere of g(x_1 yhat + r omega) d omega.

    Three rules make it a sum: Gauss-Hermite in x_1 (:func:`_axial_rule`),
    generalized Gauss-Laguerre in u = r^2/2 with alpha = (m - 3)/2
    (:func:`_radial_rule`), and a sphere rule (:func:`_sphere_rule`).  A
    kernel profile is a polynomial in s times functions of t, so for a
    polynomial g the x_1 and omega integrands are polynomials: their rules
    are sized by the degree, and integrate exactly.  Only the radial rule
    approximates, with _radial_count(|y|) nodes.
    """

    def __init__(self, m: int):
        if not 2 <= m <= 4:
            raise ValueError(f"the cylindrical rule serves dimensions 2 to 4, got {m}")
        self.m = m


@lru_cache(maxsize=None)
def _axial_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the weight exp(-x_1^2/2), exact for
    polynomials of degree <= degree."""
    u, w = np.polynomial.hermite.hermgauss(degree // 2 + 1)
    return math.sqrt(2.0) * u, math.sqrt(2.0) * w


@lru_cache(maxsize=None)
def _radial_rule(m: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """count radii and weights for the weight r^(m-2) exp(-r^2/2) on
    (0, inf): r = sqrt(2u) and 2^alpha w for the count-point generalized
    Gauss-Laguerre rule (u, w) of the weight u^alpha e^(-u),
    alpha = (m - 3)/2, by Golub-Welsch: u are the eigenvalues of the Jacobi
    matrix of the Laguerre recurrence, w Gamma(alpha + 1) times the squared
    first entries of its normalized eigenvectors."""
    alpha = (m - 3) / 2.0
    k = np.arange(1, count)
    off = np.sqrt(k * (k + alpha))
    jacobi = np.diag(2.0 * np.arange(count) + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    u, vecs = np.linalg.eigh(jacobi)
    return np.sqrt(2.0 * u), 2.0**alpha * math.gamma(alpha + 1.0) * vecs[0] ** 2


@lru_cache(maxsize=None)
def default_scheme(m: int) -> CylindricalRule:
    return CylindricalRule(m)


# The radial route integrates over r in [0, _R_MAX]: every radial profile
# it meets carries the factor exp(-r^2/2), 2.7e-43 at r = 14.
_R_MAX = 14.0


@dataclass(frozen=True)
class RadialRule:
    """Composite Gauss-Legendre rule on [0, _R_MAX]."""

    nodes: np.ndarray
    weights: np.ndarray


def radial_rule(panel_width: float) -> RadialRule:
    """16 Gauss-Legendre points on each panel of the given width (the last
    one cut at _R_MAX)."""
    u, w = np.polynomial.legendre.leggauss(16)
    edges = np.minimum(np.arange(0.0, _R_MAX + panel_width, panel_width), _R_MAX)
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
    return radial_rule(width)


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


def _eigen_ratio(m: int, i: int, k: int) -> tuple[int, int]:
    """|eigenvalue| at (i, k) as (numerator, denominator): a ratio of double
    factorials, the same on both branches."""
    df = double_factorial
    if (i + k) % 2 == 0:
        return df(k + i - 1), df(k + m - i - 3)
    return df(k + i), df(k + m - i - 2)


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
    val = unit * Fraction(*_eigen_ratio(m, i, k))
    if (p + flip) % 2:
        val = -val
    return val


def closed_form_eigenvalue(
    m: int, i: int, k: int, parity: str, p: int = 0, e_i: complex = 1.0
) -> complex:
    return complex(closed_form_eigenvalue_exact(m, i, k, parity, p, e_i))


# ---------------------------------------------------------------------------
# the transform on the cylindrical rule


BladeValues = dict[int, np.ndarray]  # array-valued multivector: blade mask -> values at points


def _perp_frames(yhat: np.ndarray) -> np.ndarray:
    """(T, m, m - 1) orthonormal bases of the complements of the unit
    vectors yhat (T, m): the last m - 1 columns of the Householder
    reflection I - 2 v v^T/|v|^2, v = yhat + sign(yhat_1) e_1, which maps
    e_1 to -sign(yhat_1) yhat."""
    v = yhat.copy()
    v[:, 0] += np.where(yhat[:, 0] < 0.0, -1.0, 1.0)
    scale = -2.0 / np.einsum("tj,tj->t", v, v)
    frames = scale[:, None, None] * v[:, :, None] * v[:, None, 1:]
    frames[:, 1:, :] += np.eye(yhat.shape[1] - 1)
    return frames


def _real_columns(z: np.ndarray) -> np.ndarray:
    """z with a last axis of real columns: (real, imag) for complex z,
    z itself for real z."""
    return z.view(float).reshape(*z.shape, 2) if np.iscomplexobj(z) else z[..., None]


def apply_transform_batch(
    kernel,
    fs: Sequence[BasisFunction | GaussianPolynomial],
    ys: np.ndarray,
    scheme: CylindricalRule | None = None,
) -> list[BladeValues]:
    """Transforms of several Gaussian polynomials P(x) exp(-|x|^2/2) under
    one kernel, at points ys, on the target-aligned rule of
    :class:`CylindricalRule` (``default_scheme(m)`` unless given).

    F[f](y) = (2 pi)^(-m/2) integral of K(x, y) f(x), with
    K(x, y) = A(s, t) + B(s, t) (x wedge y).  At x = x_1 yhat + r omega
    the profiles depend on the node (x_1, r) only: each is one eval_terms
    call per chunk of targets, at targets x nodes values.  The axial and
    sphere rules are exact for the degree of the integrand: the table's top
    degree, plus the kernel's top power of s in x_1, plus one for the x_j
    of the B part.  Targets are taken in groups of one radial node count.

    Per chunk of targets, one :class:`PolynomialTable` evaluation gives
    every function's rows at every (target, node, sphere point), and one
    product per target contracts them with the profile columns: the node
    and sphere weights times A, and times B x_j for each j, split into real
    and imaginary columns when the profiles are complex (odd m).  That
    gives, per row and target, the scalar integral and the m coordinate
    integrals of B x P; they are split into scalar and bivector parts
    after the last chunk, the bivector step multiplying f's blades by
    blade_product.  A chunk holds at most _RULE_CHUNK_ENTRIES entries,
    counted as targets x nodes x sphere points x (rows + m + columns), so
    memory stays bounded however many targets there are.
    """
    expr = build_kernel(kernel) if isinstance(kernel, KernelId) else kernel
    m = expr.m
    rule = scheme or default_scheme(m)
    if not isinstance(rule, CylindricalRule) or rule.m != m:
        raise ValueError(f"expected the cylindrical rule of dimension {m}, got {rule!r}")
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if ys.shape[1] != m:
        raise ValueError(f"expected points with {m} coordinates")
    for f in fs:
        if not isinstance(f, (BasisFunction, GaussianPolynomial)):
            raise TypeError(f"expected a BasisFunction or GaussianPolynomial, got {f!r}")
    polys = [f.poly for f in fs]
    table = PolynomialTable(m, polys)
    degree = max((p.degree() for p in polys), default=0) + 1
    s_power = max((term.s_power for term in expr.scalar_terms + expr.bivector_terms), default=0)
    x1, x1_w = _axial_rule(degree + s_power)
    omega, omega_w = _sphere_rule(m, degree)
    n_rows, r = len(table.rows), ys.shape[0]
    rho = np.linalg.norm(ys, axis=1)
    # a zero target sees s = t = 0 at every node, whatever its axis
    yhat = np.where(rho[:, None] > 0.0, ys / np.where(rho > 0.0, rho, 1.0)[:, None], np.eye(m)[0])
    # the sphere points as vectors of R^m, (targets, m, omega)
    perp = _perp_frames(yhat) @ omega.T
    biv = bool(expr.bivector_terms)
    n_blocks = 1 + m if biv else 1  # A, B x_1, ..., B x_m
    counts = _radial_count(rho)
    sums = np.zeros((r, n_rows, n_blocks), dtype=complex)

    for count in np.unique(counts):
        radii, radii_w = _radial_rule(m, int(count))
        # node and sphere weights, (x_1, r, omega)
        weight = np.multiply.outer(np.outer(x1_w, radii_w), omega_w)
        group = np.flatnonzero(counts == count)
        size = max(1, _RULE_CHUNK_ENTRIES // (weight.size * (n_rows + m + 2 * n_blocks)))
        for lo in range(0, len(group), size):
            idx = group[lo : lo + size]
            rr = rho[idx, None, None]
            # coordinate j of the point at (target, x_1, r, omega) is
            # x_1 yhat_j + r omega_j: (m, targets, x_1, r, omega)
            cols = (yhat[idx].T[:, :, None, None, None] * x1[:, None, None]
                    + perp[idx].transpose(1, 0, 2)[:, :, None, None, :] * radii[:, None])
            vals = table.evaluate(cols.reshape(m, -1)).reshape(n_rows, len(idx), -1)
            s, t = x1[:, None] * rr, radii * rr
            a = eval_terms(expr.scalar_terms, s, t)
            b = eval_terms(expr.bivector_terms, s, t) if biv else None
            # one real column per block, or a real and an imaginary one when
            # a profile is complex (odd m): then both are taken as complex
            cplx = np.iscomplexobj(a) or np.iscomplexobj(b)
            dtype = complex if cplx else float
            columns = [_real_columns(a.astype(dtype)[..., None] * weight)]
            if biv:
                b = b.astype(dtype)[..., None] * weight
                columns += [_real_columns(b * x) for x in cols]
            prof = np.concatenate(columns, axis=-1).reshape(len(idx), vals.shape[2], -1)
            del cols, columns
            got = np.matmul(vals.transpose(1, 0, 2), prof)
            sums[idx] = got[..., 0::2] + 1j * got[..., 1::2] if cplx else got

    norm = complex(transform_normalization(m))
    blocks = norm * sums.transpose(1, 2, 0)  # rows x (A, B x_1, ..., B x_m) x targets
    biv_pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
    out: list[BladeValues] = [dict() for _ in fs]
    for (fi, blade), row in zip(table.rows, blocks):
        out[fi][blade] = out[fi].get(blade, 0) + row[0]
        if not biv:
            continue
        x_wedge_y = {(1 << j) | (1 << k): ys[:, k] * row[1 + j] - ys[:, j] * row[1 + k] for j, k in biv_pairs}
        for mask, delta in blade_product(x_wedge_y, {blade: 1}).items():
            out[fi][mask] = out[fi].get(mask, 0) + delta
    return out


def _norms(values: BladeValues) -> np.ndarray:
    """Per-point norms sqrt(sum_A |v_A|^2) of an array-valued multivector."""
    return np.sqrt(sum(v.real**2 + v.imag**2 for v in values.values()))


def _minus(a: BladeValues, b: BladeValues) -> BladeValues:
    return {blade: a.get(blade, 0) - b.get(blade, 0) for blade in a.keys() | b.keys()}


def _rayleigh(f_vals: BladeValues, g_vals: BladeValues) -> complex:
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
    chains: int = 1,
) -> np.ndarray:
    """integral over r of r^(r_power+c) f0(r) (r rho)^(z_power+c)
    jtilde_(twice_order/2+c)(r rho), for each chain c < chains (the rows
    of the result) and each target rho.

    The nodes x targets table of Bessel factors is never stored: it is
    taken in strips of consecutive nodes, at most _CHUNK_ROWS entries
    each, and every strip is summed into the result before the next one
    is built; one jtilde_stack per strip gives every chain's order.  When
    the targets are the rule's own nodes the table is symmetric, and only
    its upper triangle is evaluated: a strip covers the columns from its
    first node on, adds its weighted rows to those columns and, mirrored,
    the columns right of its diagonal block to its own rows.
    """
    nodes = rule.nodes
    symmetric = np.array_equal(rho, nodes)
    wfs = [rule.weights * nodes ** (r_power + c) * f0_vals for c in range(chains)]
    out = np.zeros((chains, len(rho)))
    lo = 0
    while lo < len(nodes):
        first = lo if symmetric else 0
        hi = min(len(nodes), lo + max(1, _CHUNK_ROWS // max(1, len(rho) - first)))
        z = nodes[lo:hi, None] * rho[None, first:]
        for c, (wf, vals) in enumerate(zip(wfs, jtilde_stack(twice_order, chains - 1, z))):
            if z_power + c:
                vals = vals * z ** (z_power + c)
            out[c, first:] += wf[lo:hi] @ vals
            if symmetric:
                out[c, lo:hi] += vals[:, hi - lo:] @ wf[hi:]
        lo = hi
    return out


def bochner_reduce(
    sources: Sequence,
    monogenic: SphericalMonogenic,
    radial_profile: Callable[[np.ndarray], np.ndarray],
    parity: str,
    ys: np.ndarray,
    rule: RadialRule | None = None,
) -> list[BladeValues]:
    """Transforms of f0(r) M_k(x) (parity "2p") or f0(r) x M_k(x)
    (parity "2p+1") via the radial reduction, one per source (a
    :class:`KernelId` or :class:`SeriesCoefficients`).

    The angular factor passes through and the radial factor becomes a
    Bessel-weighted integral times the kernel's eigenvalue on degree k.
    Only the eigenvalue depends on the source, so the integral and the
    angular values are computed once for all of them.  radial_profile
    must decay fast enough to be negligible beyond r = _R_MAX.  Valid in
    every dimension >= 2.
    """
    if parity not in _PARITIES:
        raise ValueError(f"parity must be one of {_PARITIES}")
    coeffs = [_coeffs_of(source) for source in sources]
    m, k = monogenic.m, monogenic.k
    if any(c.m != m for c in coeffs):
        raise ValueError("monogenic dimension mismatch")
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    rho = np.linalg.norm(ys, axis=1)
    if np.any(rho <= 0):
        raise ValueError("the radial route needs nonzero sample points")
    rule = rule or _rule_for(rho)
    eta = ys / rho[:, None]
    f0 = np.asarray(radial_profile(rule.nodes), dtype=float)
    if parity == "2p":
        integral = _radial_bessel_integral(rule, f0, m + k - 1, k, 2 * k + m - 2, rho)[0]
        angular = monogenic.poly.evaluate_batch(eta)
    else:
        integral = _radial_bessel_integral(rule, f0, m + k, k + 1, 2 * k + m, rho)[0]
        angular = x_times(monogenic.poly).evaluate_batch(eta)
    out = []
    for c in coeffs:
        ev = eigenvalues_from_coefficients(c, k)
        scale = ev.even_branch if parity == "2p" else ev.odd_branch
        out.append({blade: scale * integral * vals for blade, vals in angular.items()})
    return out


# ---------------------------------------------------------------------------
# eigenvalue certification


@dataclass(frozen=True)
class EigenvalueRecord:
    """One eigenvalue check.  ``numeric`` is the Rayleigh quotient over
    the sample points and ``residual`` the relative distance of the whole
    transform from closed_form * psi there,
    sqrt(sum_B ||(F psi)_B - lambda psi_B||^2) / (|lambda| ||psi||),
    which also sees blades that psi lacks."""

    m: int
    i: int
    k: int
    parity: str
    closed_form: complex
    numeric: complex
    abs_error: float
    residual: float


def _eigen_record(m: int, i: int, k: int, parity: str, want: complex,
                  f_vals: BladeValues, g_vals: BladeValues) -> EigenvalueRecord:
    """The record of transform g_vals of psi values f_vals against want."""
    lam = _rayleigh(f_vals, g_vals)
    blades = f_vals.keys() | g_vals.keys()
    zero = np.zeros(len(next(iter(f_vals.values()))))
    f = np.array([f_vals.get(blade, zero) for blade in blades])
    g = np.array([g_vals.get(blade, zero) for blade in blades])
    residual = np.linalg.norm(g - want * f) / (abs(want) * np.linalg.norm(f))
    return EigenvalueRecord(m, i, k, parity, want, lam, abs(lam - want), float(residual))


def _reference_eigenvalue(coeffs: SeriesCoefficients, k: int, parity: str) -> complex:
    """The closed form for a plus kernel, else the eigenvalue of its streams."""
    kid = coeffs.provenance
    if kid.sign == "plus":
        return closed_form_eigenvalue(kid.m, kid.i, k, parity, e_i=kid.e_i)
    ev = eigenvalues_from_coefficients(coeffs, k)
    return ev.even_branch if parity == "2p" else ev.odd_branch


def verify_eigen(
    m: int,
    i_values: Iterable[int] | None = None,
    k_values: Iterable[int] = (0, 1, 2),
    j_values: Iterable[int] = (0, 1),
    sign: str = "plus",
    method: str | None = None,
) -> list[EigenvalueRecord]:
    """Numeric eigenvalues on psi_{j,k,1} against the closed forms.

    method "grid" (default for m <= 4) applies the closed-form kernel by
    apply_transform_batch and takes a Rayleigh quotient over sample
    points; method "radial" (default above 4) uses the radial reduction.
    """
    method = method or ("grid" if m <= 4 else "radial")
    i_list = list(i_values) if i_values is not None else list(range(m - 1))
    j_list = list(j_values)
    k_list = list(k_values)
    ys = sample_points(m, 20, 2.2, seed=101 + m)
    records: list[EigenvalueRecord] = []

    if method == "grid":
        fs = [psi(j, k, 1, m) for k in k_list for j in j_list]
        for i in i_list:
            kid = KernelId(m, i, sign)
            coeffs = series_coefficients(kid)
            transformed = apply_transform_batch(kid, fs, ys)
            for fi, bf in enumerate(fs):
                parity = _PARITIES[bf.j % 2]
                want = _reference_eigenvalue(coeffs, bf.k, parity) * (-1) ** (bf.j // 2)
                records.append(
                    _eigen_record(m, i, bf.k, parity, want, bf.values(ys), transformed[fi])
                )
        return records

    if method != "radial":
        raise ValueError(f"unknown method {method!r}")
    kids = [KernelId(m, i, sign) for i in i_list]
    streams = [series_coefficients(kid) for kid in kids]
    rule = _rule_for(np.linalg.norm(ys, axis=1))
    # records in (i, k, j) order; every (k, j) is one reduction for all i
    per_i: list[list[EigenvalueRecord]] = [[] for _ in kids]
    for k in k_list:
        mono = monogenic_basis(m, k)[0]
        for j in j_list:
            a, odd = divmod(j, 2)
            alpha = m / 2.0 + k - 1 + odd

            def f0(rr: np.ndarray, a=a, alpha=alpha) -> np.ndarray:
                return laguerre(a, alpha, rr * rr) * np.exp(-0.5 * rr * rr)

            parity = _PARITIES[odd]
            ref_vals = psi(j, k, 1, m).values(ys)
            got = bochner_reduce(streams, mono, f0, parity, ys, rule)
            for kid, coeffs, rows, vals in zip(kids, streams, per_i, got):
                want = _reference_eigenvalue(coeffs, k, parity) * (-1) ** a
                rows.append(_eigen_record(m, kid.i, k, parity, want, ref_vals, vals))
    return [rec for rows in per_i for rec in rows]


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
    rule = radial_rule(min(1.0, math.pi / _R_MAX))
    xs = np.linspace(0.35, 2.4, 9)
    gaussian = np.exp(-0.5 * rule.nodes**2)
    z = rule.nodes[:, None] * xs[None, :]

    # forward integrals of both chains from one two-row Bessel stack:
    # orders lam2/2 (even) and lam2/2 + 1 (odd)
    int_even, int_odd = _radial_bessel_integral(rule, gaussian, m - 1, 0, lam2, rule.nodes, 2)

    # even chain: psi_{0,0,1} -> G(y) = g(|y|) -> H(x), compare with psi
    ev = eigenvalues_from_coefficients(coeffs, 0)
    evi = eigenvalues_from_coefficients(inv, 0)
    g_nodes = ev.even_branch * int_even
    # einsum, not @: a BLAS product sums in an order that depends on its
    # thread count, and this residual is golden-tested bit for bit
    h_vals = evi.even_branch * np.einsum(
        "i,ij->j", rule.weights * rule.nodes ** (m - 1) * g_nodes, bessel_jtilde(lam2, z)
    )
    even_err = np.abs(h_vals - np.exp(-0.5 * xs * xs))

    # odd chain: psi_{1,0,1} = x exp(-r^2/2) -> G(y) = y q(|y|), with
    # q(rho) = E_1 Int(rho)/rho finite at the origin; compare radial
    # profiles of H and psi along any ray.
    q_nodes = ev.odd_branch * int_odd / rule.nodes
    h_vals = evi.odd_branch * np.einsum(
        "i,ij->j", rule.weights * rule.nodes**m * q_nodes, z * bessel_jtilde(lam2 + 2, z)
    )
    return worst(even_err, np.abs(h_vals - xs * np.exp(-0.5 * xs * xs)))


def _composition_grid_m2(i: int) -> float:
    """Residual of inverse(forward(psi)) - psi in dimension 2, with the
    middle integral on a Gauss-Legendre grid and the inverse applied
    through its series kernel, {0: A, e12: B (x wedge y)} by blade_product."""
    m = 2
    kid = KernelId(m, i)
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
    g_batch = apply_transform_batch(kid, fs, mid)
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


def verify_diff_relations(kernel_id: KernelId, bf: BasisFunction) -> float:
    """Residuals of the two relations coupling the sign pair:

        F_+[x f] = -(-I)^m d_y[F_-[f]],
        F_+[d f] = -(-I)^m y F_-[f].

    d_x on the Gaussian class is exact; d_y uses central differences with
    step h = 1e-4, at 6 sample points.  Both sides are BladeValues over all
    samples, multiplied by blade_product.
    """
    m, h = kernel_id.m, 1e-4
    plus = replace(kernel_id, sign="plus")
    minus = replace(kernel_id, sign="minus")
    gp = GaussianPolynomial(bf.poly)
    ys = sample_points(m, 6, 1.8, seed=31 + m)
    # rows of shifts: 0, +h e_1, -h e_1, +h e_2, ...
    shifts = np.concatenate([np.zeros((1, m)), np.kron(h * np.eye(m), [[1.0], [-1.0]])])
    ys_ext = (shifts[:, None, :] + ys).reshape(-1, m)

    plus_vals = apply_transform_batch(plus, [gp.times_x(), gp.dirac()], ys)
    minus_vals = apply_transform_batch(minus, [gp], ys_ext)[0]

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
# boundedness scan and the Hankel-Laguerre eigenrelation


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
    # magnitudes compared as integer ratios, num/den > a/b iff num b > a den
    sup_num, sup_den = 0, 1
    first_exceed = None
    for k in range(k_max + 1):
        num, den = _eigen_ratio(m, i, k)
        if num * sup_den > sup_num * den:
            sup_num, sup_den = num, den
        if num > den and first_exceed is None:
            first_exceed = k
    return L2ScanReport(
        m=m, i=i, k_max=k_max, bounded=first_exceed is None,
        sup_magnitude=Fraction(sup_num, sup_den), first_exceed_k=first_exceed,
    )


def hankel_laguerre_residual(m: int, k: int, j: int, s_values: Sequence[float]) -> float:
    """Residual of the Hankel-Laguerre eigenrelation: the integral over r
    of r^(m+k-1) L_j^(k+lam)(r^2) e^(-r^2/2) (r s)^k jtilde_(k+lam)(r s)
    equals (-1)^j s^k L_j^(k+lam)(s^2) e^(-s^2/2), lam = (m-2)/2."""
    s_arr = np.asarray(list(s_values), dtype=float)
    if np.any(s_arr <= 0):
        raise ValueError("s values must be positive")
    rule = _rule_for(s_arr)
    lam = (m - 2) / 2.0
    f0 = laguerre(j, k + lam, rule.nodes**2) * np.exp(-0.5 * rule.nodes**2)
    lhs = _radial_bessel_integral(rule, f0, m + k - 1, k, 2 * k + m - 2, s_arr)[0]
    rhs = (-1.0) ** j * s_arr**k * laguerre(j, k + lam, s_arr**2) * np.exp(-0.5 * s_arr**2)
    scale = np.maximum(1.0, np.abs(rhs))
    return float(np.max(np.abs(lhs - rhs) / scale))
