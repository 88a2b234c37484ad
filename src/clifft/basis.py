"""Spherical monogenics and the Laguerre-type eigenbasis of the transforms.

Polynomials with Clifford coefficients are kept exact: a term is an
exponent tuple (one entry per variable) mapped to blade coefficients in
Fraction arithmetic.  Harmonics are computed as the exact nullspace of
the Laplacian, orthogonalized over the sphere with rational moments, and
mapped to monogenics by the Fischer-type projection
M = (1 + x d/(m + 2k - 2)) H.  Basis functions come in two parities,

    psi_{2a, k, l}   = L_a^(m/2 + k - 1)(|x|^2)   M_k^(l)(x) exp(-|x|^2/2),
    psi_{2a+1, k, l} = L_a^(m/2 + k)(|x|^2)  x  M_k^(l)(x) exp(-|x|^2/2),

with l a 1-based index into the orthogonal monogenic basis of degree k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Mapping, Sequence

import numpy as np

from .algebra import Multivector, _blade_sign
from .special import double_factorial

__all__ = [
    "CliffordPolynomial",
    "SphericalMonogenic",
    "BasisFunction",
    "GaussianPolynomial",
    "dirac",
    "x_times",
    "laplace",
    "harmonic_dimension",
    "harmonic_basis",
    "monogenic_projection",
    "monogenic_basis",
    "sphere_inner_exact",
    "psi",
    "creation_psi",
    "laguerre_poly_coeffs",
]

Expo = tuple[int, ...]
BladeMap = dict[int, Fraction]


class CliffordPolynomial:
    """Polynomial in m variables with Clifford-algebra coefficients."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Mapping[Expo, Mapping[int, Fraction]] | None = None):
        if m < 1:
            raise ValueError("dimension must be >= 1")
        self.m = m
        clean: dict[Expo, BladeMap] = {}
        for expo, blades in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != m or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo} for dimension {m}")
            row = {b: Fraction(c) for b, c in blades.items() if c}
            if row:
                clean[expo] = row
        self.terms = clean

    @classmethod
    def constant(cls, m: int, value) -> CliffordPolynomial:
        return cls(m, {(0,) * m: {0: Fraction(value)}})

    @classmethod
    def coordinate(cls, m: int, j: int) -> CliffordPolynomial:
        """The scalar polynomial x_j (1-based j)."""
        expo = tuple(1 if i == j - 1 else 0 for i in range(m))
        return cls(m, {expo: {0: Fraction(1)}})

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return all(set(b) <= {0} for b in self.terms.values())

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def __add__(self, other: CliffordPolynomial) -> CliffordPolynomial:
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        out: dict[Expo, BladeMap] = {e: dict(b) for e, b in self.terms.items()}
        for expo, blades in other.terms.items():
            row = out.setdefault(expo, {})
            for blade, c in blades.items():
                row[blade] = row.get(blade, Fraction(0)) + c
        return CliffordPolynomial(self.m, out)

    def __sub__(self, other: CliffordPolynomial) -> CliffordPolynomial:
        return self + other.scale(-1)

    def scale(self, factor) -> CliffordPolynomial:
        f = Fraction(factor)
        return CliffordPolynomial(
            self.m,
            {e: {b: c * f for b, c in blades.items()} for e, blades in self.terms.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def evaluate(self, point: Sequence[float]) -> Multivector:
        pt = np.asarray(point, dtype=float)
        if pt.shape != (self.m,):
            raise ValueError(f"expected a point with {self.m} coordinates")
        coeffs: dict[int, complex] = {}
        for expo, blades in self.terms.items():
            mono = 1.0
            for xi, e in zip(pt, expo):
                if e:
                    mono *= xi**e
            for blade, c in blades.items():
                coeffs[blade] = coeffs.get(blade, 0.0) + float(c) * mono
        return Multivector(self.m, coeffs)

    def evaluate_batch(self, points: np.ndarray) -> dict[int, np.ndarray]:
        """Blade coefficient arrays over a (n, m) array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.m:
            raise ValueError(f"expected points of shape (n, {self.m})")
        out: dict[int, np.ndarray] = {}
        for expo, blades in self.terms.items():
            mono = np.ones(pts.shape[0])
            for j, e in enumerate(expo):
                if e:
                    mono = mono * pts[:, j] ** e
            for blade, c in blades.items():
                acc = out.setdefault(blade, np.zeros(pts.shape[0]))
                acc += float(c) * mono
        return out

    def __repr__(self) -> str:
        return f"CliffordPolynomial(m={self.m}, terms={len(self.terms)})"


def dirac(p: CliffordPolynomial) -> CliffordPolynomial:
    """Left Dirac operator sum_j e_j d/dx_j."""
    out: dict[Expo, BladeMap] = {}
    for expo, blades in p.terms.items():
        for j in range(p.m):
            if expo[j] == 0:
                continue
            new_expo = expo[:j] + (expo[j] - 1,) + expo[j + 1 :]
            row = out.setdefault(new_expo, {})
            for blade, c in blades.items():
                sign = _blade_sign(1 << j, blade)
                nb = (1 << j) ^ blade
                row[nb] = row.get(nb, Fraction(0)) + c * expo[j] * sign
    return CliffordPolynomial(p.m, out)


def x_times(p: CliffordPolynomial) -> CliffordPolynomial:
    """Left multiplication by the vector variable x = sum_j x_j e_j."""
    out: dict[Expo, BladeMap] = {}
    for expo, blades in p.terms.items():
        for j in range(p.m):
            new_expo = expo[:j] + (expo[j] + 1,) + expo[j + 1 :]
            row = out.setdefault(new_expo, {})
            for blade, c in blades.items():
                sign = _blade_sign(1 << j, blade)
                nb = (1 << j) ^ blade
                row[nb] = row.get(nb, Fraction(0)) + c * sign
    return CliffordPolynomial(p.m, out)


def laplace(p: CliffordPolynomial) -> CliffordPolynomial:
    out: dict[Expo, BladeMap] = {}
    for expo, blades in p.terms.items():
        for j in range(p.m):
            if expo[j] < 2:
                continue
            new_expo = expo[:j] + (expo[j] - 2,) + expo[j + 1 :]
            factor = expo[j] * (expo[j] - 1)
            row = out.setdefault(new_expo, {})
            for blade, c in blades.items():
                row[blade] = row.get(blade, Fraction(0)) + c * factor
    return CliffordPolynomial(p.m, out)


def _r2_times(p: CliffordPolynomial) -> CliffordPolynomial:
    out: dict[Expo, BladeMap] = {}
    for expo, blades in p.terms.items():
        for j in range(p.m):
            new_expo = expo[:j] + (expo[j] + 2,) + expo[j + 1 :]
            row = out.setdefault(new_expo, {})
            for blade, c in blades.items():
                row[blade] = row.get(blade, Fraction(0)) + c
    return CliffordPolynomial(p.m, out)


# ---------------------------------------------------------------------------
# harmonics


def harmonic_dimension(m: int, k: int) -> int:
    """Dimension of the degree-k spherical harmonics in m variables."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    lower = comb(k + m - 3, m - 1) if k + m - 3 >= 0 else 0
    return comb(k + m - 1, m - 1) - lower


def _monomials(m: int, k: int) -> list[Expo]:
    if m == 1:
        return [(k,)]
    out = []
    for first in range(k, -1, -1):
        out.extend((first,) + rest for rest in _monomials(m - 1, k - first))
    return out


@lru_cache(maxsize=None)
def _moment(m: int, expo: Expo) -> Fraction:
    """Average of x^expo over the unit sphere (normalized to moment 1 at 0)."""
    if any(e % 2 for e in expo):
        return Fraction(0)
    num = 1
    for e in expo:
        num *= double_factorial(e - 1)
    den = 1
    for d in range(1, sum(expo) // 2 + 1):
        den *= m + 2 * d - 2
    return Fraction(num, den)


def _expo_add(a: Expo, b: Expo) -> Expo:
    return tuple(x + y for x, y in zip(a, b))


def _vec_inner(m: int, u: dict[Expo, Fraction], v: dict[Expo, Fraction]) -> Fraction:
    total = Fraction(0)
    for ea, ca in u.items():
        for eb, cb in v.items():
            w = _moment(m, _expo_add(ea, eb))
            if w:
                total += ca * cb * w
    return total


def _primitive(v: dict[Expo, Fraction], order: Sequence[Expo]) -> dict[Expo, Fraction]:
    """Clear denominators, divide by the content, fix the leading sign."""
    denom_lcm = 1
    for c in v.values():
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = {e: int(c * denom_lcm) for e, c in v.items()}
    g = 0
    for c in ints.values():
        g = math.gcd(g, abs(c))
    lead = next(e for e in order if ints.get(e))
    if ints[lead] < 0:
        g = -g
    return {e: Fraction(c, g) for e, c in ints.items() if c}


def _nullspace(rows: list[dict[int, Fraction]], ncols: int) -> list[list[Fraction]]:
    """Nullspace basis of a sparse rational matrix via exact elimination."""
    dense = [[row.get(j, Fraction(0)) for j in range(ncols)] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(dense)) if dense[i][col]), None)
        if sel is None:
            continue
        dense[r], dense[sel] = dense[sel], dense[r]
        pv = dense[r][col]
        dense[r] = [c / pv for c in dense[r]]
        for i in range(len(dense)):
            if i != r and dense[i][col]:
                f = dense[i][col]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[r])]
        pivots.append(col)
        r += 1
        if r == len(dense):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -dense[ri][fc]
        basis.append(vec)
    return basis


@lru_cache(maxsize=None)
def harmonic_basis(m: int, k: int) -> tuple[CliffordPolynomial, ...]:
    """Deterministic orthogonal basis of scalar degree-k harmonics.

    The Laplacian preserves the componentwise parity of exponents, and
    sphere moments vanish across parity classes, so the nullspace and the
    Gram-Schmidt run class by class; results are rescaled to primitive
    integer coefficients.
    """
    if m < 2:
        raise ValueError("harmonics need m >= 2")
    if k < 0:
        raise ValueError("degree must be >= 0")
    monos = _monomials(m, k)
    classes: dict[Expo, list[Expo]] = {}
    for e in monos:
        classes.setdefault(tuple(x % 2 for x in e), []).append(e)
    out: list[CliffordPolynomial] = []
    for par in classes:
        sub = classes[par]
        col_of = {e: idx for idx, e in enumerate(sub)}
        row_monos = [e for e in _monomials(m, k - 2) if tuple(x % 2 for x in e) == par] if k >= 2 else []
        row_of = {e: idx for idx, e in enumerate(row_monos)}
        rows: list[dict[int, Fraction]] = [dict() for _ in row_monos]
        for e in sub:
            for j in range(m):
                if e[j] < 2:
                    continue
                tgt = e[:j] + (e[j] - 2,) + e[j + 1 :]
                rows[row_of[tgt]][col_of[e]] = rows[row_of[tgt]].get(
                    col_of[e], Fraction(0)
                ) + e[j] * (e[j] - 1)
        null = _nullspace(rows, len(sub))
        ortho: list[dict[Expo, Fraction]] = []
        norms: list[Fraction] = []
        for vec in null:
            v = {sub[idx]: c for idx, c in enumerate(vec) if c}
            for u, nu in zip(ortho, norms):
                proj = _vec_inner(m, v, u)
                if proj:
                    v = {
                        e: v.get(e, Fraction(0)) - (proj / nu) * u.get(e, Fraction(0))
                        for e in set(v) | set(u)
                    }
                    v = {e: c for e, c in v.items() if c}
            v = _primitive(v, sub)
            ortho.append(v)
            norms.append(_vec_inner(m, v, v))
        out.extend(
            CliffordPolynomial(m, {e: {0: c} for e, c in v.items()}) for v in ortho
        )
    if len(out) != harmonic_dimension(m, k):
        raise RuntimeError(
            f"harmonic space dimension mismatch: built {len(out)}, "
            f"expected {harmonic_dimension(m, k)}"
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# monogenics


@dataclass(frozen=True)
class SphericalMonogenic:
    """Degree-k monogenic polynomial (left nullspace of the Dirac operator)."""

    m: int
    k: int
    poly: CliffordPolynomial


def monogenic_projection(h: CliffordPolynomial) -> CliffordPolynomial:
    """Monogenic x-extension M = (1 + x d/(m + 2k - 2)) H of a scalar
    harmonic H of degree k.  Raises on non-harmonic input."""
    if not h.is_scalar():
        raise ValueError("expected a scalar polynomial")
    if not h.is_homogeneous():
        raise ValueError("expected a homogeneous polynomial")
    if not laplace(h).is_zero():
        raise ValueError("polynomial is not harmonic")
    k = h.degree()
    if k == 0:
        return h
    proj = h + x_times(dirac(h)).scale(Fraction(1, h.m + 2 * k - 2))
    if not dirac(proj).is_zero():
        raise RuntimeError("projection failed to produce a monogenic")
    return proj


@lru_cache(maxsize=None)
def monogenic_basis(m: int, k: int) -> tuple[SphericalMonogenic, ...]:
    return tuple(
        SphericalMonogenic(m, k, monogenic_projection(h)) for h in harmonic_basis(m, k)
    )


def sphere_inner_exact(p: CliffordPolynomial, q: CliffordPolynomial) -> Fraction:
    """Sphere average of the Hermitian coefficient pairing of p and q
    (exact for real rational coefficients)."""
    if p.m != q.m:
        raise ValueError("dimension mismatch")
    total = Fraction(0)
    for ea, ba in p.terms.items():
        for eb, bb in q.terms.items():
            w = _moment(p.m, _expo_add(ea, eb))
            if not w:
                continue
            pair = Fraction(0)
            for blade, ca in ba.items():
                cb = bb.get(blade)
                if cb:
                    pair += ca * cb
            total += pair * w
    return total


# ---------------------------------------------------------------------------
# basis functions


def laguerre_poly_coeffs(j: int, alpha: Fraction) -> list[Fraction]:
    """Exact coefficients of L_j^alpha: entry n multiplies x^n."""
    if j < 0:
        raise ValueError("degree must be >= 0")
    alpha = Fraction(alpha)
    out = []
    for n in range(j + 1):
        binom = Fraction(1)
        for t in range(1, j - n + 1):
            binom *= alpha + n + t
        binom /= factorial(j - n)
        out.append((-1) ** n * binom / factorial(n))
    return out


@dataclass(frozen=True)
class BasisFunction:
    """psi_{j,k,l}: polynomial part exact; a Gaussian factor is implied."""

    m: int
    j: int
    k: int
    ell: int
    monogenic: SphericalMonogenic
    poly: CliffordPolynomial

    @property
    def parity(self) -> str:
        return "odd" if self.j % 2 else "even"

    def values(self, points: np.ndarray) -> dict[int, np.ndarray]:
        """Blade coefficient arrays at (n, m) points, Gaussian included."""
        pts = np.asarray(points, dtype=float)
        gauss = np.exp(-0.5 * np.sum(pts * pts, axis=1))
        return {b: v * gauss for b, v in self.poly.evaluate_batch(pts).items()}

    def __call__(self, point: Sequence[float]) -> Multivector:
        pt = np.asarray(point, dtype=float)
        return self.poly.evaluate(pt) * float(np.exp(-0.5 * np.dot(pt, pt)))


def psi(j: int, k: int, ell: int, m: int) -> BasisFunction:
    """Basis function of radial index j, degree k, and 1-based label ell."""
    if j < 0 or k < 0:
        raise ValueError("indices j, k must be >= 0")
    basis = monogenic_basis(m, k)
    if not 1 <= ell <= len(basis):
        raise ValueError(
            f"label ell out of range 1..{len(basis)} for (m, k) = ({m}, {k}): {ell}"
        )
    mono = basis[ell - 1]
    a, odd = divmod(j, 2)
    alpha = Fraction(m, 2) + k - 1 + odd
    core = x_times(mono.poly) if odd else mono.poly
    lag = laguerre_poly_coeffs(a, alpha)
    acc = CliffordPolynomial(m)
    r2core = core
    for n, c in enumerate(lag):
        if n:
            r2core = _r2_times(r2core)
        acc = acc + r2core.scale(c)
    return BasisFunction(m=m, j=j, k=k, ell=ell, monogenic=mono, poly=acc)


# ---------------------------------------------------------------------------
# Gaussian-weighted calculus


@dataclass(frozen=True)
class GaussianPolynomial:
    """P(x) exp(-|x|^2/2) with exact polynomial part."""

    poly: CliffordPolynomial

    @property
    def m(self) -> int:
        return self.poly.m

    def dirac(self) -> GaussianPolynomial:
        """d[P e^(-r^2/2)] = (dP - x P) e^(-r^2/2)."""
        return GaussianPolynomial(dirac(self.poly) - x_times(self.poly))

    def dirac_minus_x(self) -> GaussianPolynomial:
        """(d - x)[P e^(-r^2/2)] = (dP - 2 x P) e^(-r^2/2)."""
        return GaussianPolynomial(dirac(self.poly) - x_times(self.poly).scale(2))

    def times_x(self) -> GaussianPolynomial:
        return GaussianPolynomial(x_times(self.poly))

    def evaluate(self, point: Sequence[float]) -> Multivector:
        pt = np.asarray(point, dtype=float)
        return self.poly.evaluate(pt) * float(np.exp(-0.5 * np.dot(pt, pt)))

    def values(self, points: np.ndarray) -> dict[int, np.ndarray]:
        pts = np.asarray(points, dtype=float)
        gauss = np.exp(-0.5 * np.sum(pts * pts, axis=1))
        return {b: v * gauss for b, v in self.poly.evaluate_batch(pts).items()}


def creation_psi(j: int, k: int, ell: int, m: int) -> GaussianPolynomial:
    """psi_{j,k,l} via the creation operator:
    (-1)^j 2^(-j) / floor(j/2)!  (d - x)^j [M_k e^(-r^2/2)].

    An independent route to :func:`psi`; the two agree exactly.
    """
    basis = monogenic_basis(m, k)
    if not 1 <= ell <= len(basis):
        raise ValueError(f"label ell out of range 1..{len(basis)}")
    gp = GaussianPolynomial(basis[ell - 1].poly)
    for _ in range(j):
        gp = gp.dirac_minus_x()
    factor = Fraction((-1) ** j, 2**j * factorial(j // 2))
    return GaussianPolynomial(gp.poly.scale(factor))
