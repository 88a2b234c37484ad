"""Spherical monogenics and the Laguerre-type eigenbasis of the transforms.

Polynomials with Clifford coefficients are kept exact: a term is an
exponent tuple (one entry per variable) mapped to blade coefficients in
Fraction arithmetic.  Harmonics are computed as the exact nullspace of
the Laplacian, orthogonalized over the sphere by fraction-free
Gram-Schmidt on integer moment numerators, and mapped to monogenics by
the Fischer-type projection M = (1 + x d/(m + 2k - 2)) H.  Basis
functions come in two parities,

    psi_{2a, k, l}   = L_a^(m/2 + k - 1)(|x|^2)   M_k^(l)(x) exp(-|x|^2/2),
    psi_{2a+1, k, l} = L_a^(m/2 + k)(|x|^2)  x  M_k^(l)(x) exp(-|x|^2/2),

with l a 1-based index into the orthogonal monogenic basis of degree k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial
from typing import Mapping, Sequence

import numpy as np

from .algebra import Multivector
from .special import double_factorial

__all__ = [
    "CliffordPolynomial",
    "PolynomialTable",
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
IntRows = dict[Expo, dict[int, int]]  # integer numerators over one denominator
_ZERO = Fraction(0)


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
    def _trusted(cls, m: int, rows: dict[Expo, BladeMap]) -> CliffordPolynomial:
        """No validation: rows of the library's own Fraction arithmetic,
        with exponent tuples of length m; zero coefficients and the rows
        they empty are dropped, order kept."""
        self = object.__new__(cls)
        self.m = m
        self.terms = {e: r for e, row in rows.items() if (r := {b: c for b, c in row.items() if c})}
        return self

    @classmethod
    def constant(cls, m: int, value) -> CliffordPolynomial:
        return cls(m, {(0,) * m: {0: Fraction(value)}})

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
                row[blade] = row.get(blade, _ZERO) + c
        return CliffordPolynomial._trusted(self.m, out)

    def __sub__(self, other: CliffordPolynomial) -> CliffordPolynomial:
        return self + other.scale(-1)

    def scale(self, factor) -> CliffordPolynomial:
        f = Fraction(factor)
        return CliffordPolynomial._trusted(
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
        table = PolynomialTable(self.m, [self])
        return table.split(table.evaluate(_columns(points, self.m)))[0]

    def __repr__(self) -> str:
        return f"CliffordPolynomial(m={self.m}, terms={len(self.terms)})"


def _columns(points: np.ndarray, m: int) -> np.ndarray:
    """The coordinates of a (n, m) array of points as m contiguous rows."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != m:
        raise ValueError(f"expected points of shape (n, {m})")
    return np.ascontiguousarray(pts.T)


class PolynomialTable:
    """Several polynomials in m variables, evaluated together.

    The table has one row per (polynomial, blade) pair, listed in ``rows``
    in order of first touch: the values at a batch of points are C @ M,
    with C the float coefficients of the rows and M the monomials at the
    points.  C is kept as each row's (monomial, coefficient) list in term
    order, because a row uses few of the monomials.  Each monomial is a
    product in axis order of powers x_j^e, made by repeated
    multiplication, and monomials with a common leading part share it:
    x^(1,2,1) is the monomial x^(1,2,0) times x_3.
    """

    __slots__ = ("rows", "_count", "_powers", "_monomials", "_terms")

    def __init__(self, m: int, polys: Sequence[CliffordPolynomial]):
        self._count = len(polys)
        # a monomial is keyed by its nonzero (axis, exponent) pairs and built
        # from the one keyed by all but the last pair; index 0 is the empty
        # product
        index: dict[tuple[tuple[int, int], ...], int] = {(): 0}
        self._monomials: list[tuple[int, int, int]] = []  # (leading part, axis, exponent)
        self._terms: list[list[tuple[int, float]]] = []  # per row: (monomial, coefficient)
        self.rows: list[tuple[int, int]] = []
        top = [0] * m
        for pi, p in enumerate(polys):
            row_of: dict[int, int] = {}
            for expo, blades in p.terms.items():
                key: tuple[tuple[int, int], ...] = ()
                for j, e in enumerate(expo):
                    if not e:
                        continue
                    top[j] = max(top[j], e)
                    lead, key = key, key + ((j, e),)
                    if key not in index:
                        index[key] = len(index)
                        self._monomials.append((index[lead], j, e))
                for blade, c in blades.items():
                    if blade not in row_of:
                        row_of[blade] = len(self.rows)
                        self.rows.append((pi, blade))
                        self._terms.append([])
                    self._terms[row_of[blade]].append((index[key], float(c)))
        self._powers = [(j, e) for j, e_max in enumerate(top) for e in range(2, e_max + 1)]

    def evaluate(self, cols: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
        """(C @ M) times weight, if one is given: the value of every row at
        the points whose coordinates are the m rows of cols, one row each."""
        power = {(j, 1): col for j, col in enumerate(cols)}
        for j, e in self._powers:
            power[j, e] = power[j, e - 1] * cols[j]
        mono = [np.ones(cols.shape[1])]
        for lead, j, e in self._monomials:
            mono.append(power[j, e] if lead == 0 else mono[lead] * power[j, e])
        out = np.empty((len(self.rows), cols.shape[1]))
        term = np.empty(cols.shape[1])
        for row, terms in zip(out, self._terms):
            (first, c), *rest = terms
            np.multiply(c, mono[first], out=row)
            for idx, c in rest:
                row += np.multiply(c, mono[idx], out=term)
        if weight is not None:
            out *= weight
        return out

    def split(self, values: np.ndarray) -> list[dict[int, np.ndarray]]:
        """The rows of :meth:`evaluate` as one blade dict per polynomial."""
        out: list[dict[int, np.ndarray]] = [{} for _ in range(self._count)]
        for (pi, blade), vals in zip(self.rows, values):
            out[pi][blade] = vals
        return out


def _numerators(p: CliffordPolynomial) -> tuple[int, IntRows]:
    """The lcm of p's denominators, and p's coefficients over it."""
    den = math.lcm(*(c.denominator for blades in p.terms.values() for c in blades.values()))
    return den, {e: {b: c.numerator * (den // c.denominator) for b, c in blades.items()}
                 for e, blades in p.terms.items()}


def _over(m: int, rows: IntRows, den: int) -> CliffordPolynomial:
    """The polynomial of integer numerators over den, zeros dropped."""
    return CliffordPolynomial._trusted(
        m, {e: {b: Fraction(n, den) for b, n in row.items() if n} for e, row in rows.items()}
    )


def _vector_times(m: int, rows: IntRows, step: int) -> IntRows:
    """sum_j e_j D_j on numerators: D_j multiplies by x_j (step 1) or is
    d/dx_j (step -1).  Rows come in order of first touch, zero sums kept.

    e_j e_B = (-1)^s e_(B xor j), s the number of generators of B up to
    and including e_j."""
    out: IntRows = {}
    for expo, nums in rows.items():
        for j in range(m):
            factor = 1 if step > 0 else expo[j]
            if not factor:
                continue
            bit, low = 1 << j, (2 << j) - 1
            row = out.setdefault(expo[:j] + (expo[j] + step,) + expo[j + 1 :], {})
            for b, n in nums.items():
                term = -factor * n if (b & low).bit_count() & 1 else factor * n
                row[b ^ bit] = row.get(b ^ bit, 0) + term
    return out


def dirac(p: CliffordPolynomial) -> CliffordPolynomial:
    """Left Dirac operator sum_j e_j d/dx_j."""
    den, rows = _numerators(p)
    return _over(p.m, _vector_times(p.m, rows, -1), den)


def x_times(p: CliffordPolynomial) -> CliffordPolynomial:
    """Left multiplication by the vector variable x = sum_j x_j e_j."""
    den, rows = _numerators(p)
    return _over(p.m, _vector_times(p.m, rows, 1), den)


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
                row[blade] = row.get(blade, _ZERO) + c * factor
    return CliffordPolynomial._trusted(p.m, out)


def _r2_times(p: CliffordPolynomial) -> CliffordPolynomial:
    out: dict[Expo, BladeMap] = {}
    for expo, blades in p.terms.items():
        for j in range(p.m):
            new_expo = expo[:j] + (expo[j] + 2,) + expo[j + 1 :]
            row = out.setdefault(new_expo, {})
            for blade, c in blades.items():
                row[blade] = row.get(blade, _ZERO) + c
    return CliffordPolynomial._trusted(p.m, out)


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


def _class_moments(sub: Sequence[Expo]) -> list[list[int]]:
    """Integer moment matrix of one parity class of degree-k monomials.

    Two exponents of one class sum to an all-even exponent of degree 2k,
    whose sphere moment is prod_j (e_j - 1)!! over the denominator
    prod_{d <= k} (m + 2d - 2) that every entry shares; the matrix holds
    the numerators.  Dropping a positive common factor leaves every
    Gram-Schmidt projection ratio unchanged.
    """
    odd_df = [double_factorial(n - 1) for n in range(2 * sum(sub[0]) + 1)]
    return [
        [math.prod(odd_df[x + y] for x, y in zip(ea, eb)) for eb in sub]
        for ea in sub
    ]


def _content_divided(v: list[int]) -> list[int]:
    g = math.gcd(*v)
    return [c // g for c in v]


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
    Gram-Schmidt run class by class.  Gram-Schmidt runs in integers on
    the class's moment numerators; each element has coprime integer
    coefficients, a positive first coefficient in monomial order, and its
    terms in that order.
    """
    if m < 2:
        raise ValueError("harmonics need m >= 2")
    if k < 0:
        raise ValueError("degree must be >= 0")
    classes: dict[Expo, list[Expo]] = {}
    for e in _monomials(m, k):
        classes.setdefault(tuple(x % 2 for x in e), []).append(e)
    # the Laplacian's targets, degree k - 2, by the same parity classes
    row_classes: dict[Expo, list[Expo]] = {}
    for e in _monomials(m, k - 2) if k >= 2 else []:
        row_classes.setdefault(tuple(x % 2 for x in e), []).append(e)
    out: list[CliffordPolynomial] = []
    for par in classes:
        sub = classes[par]
        col_of = {e: idx for idx, e in enumerate(sub)}
        row_monos = row_classes.get(par, [])
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
        gram = _class_moments(sub)
        # fraction-free Gram-Schmidt: v <- nu v - <v, u> u with
        # nu = <u, u> > 0 is a positive multiple of the rational update,
        # and so is every division by the content
        done: list[tuple[list[int], list[int], int]] = []  # (u, G u, <u, u>)
        for vec in _nullspace(rows, len(sub)):
            lcm = math.lcm(*(c.denominator for c in vec))
            v = _content_divided([int(c * lcm) for c in vec])
            for u, gu, nu in done:
                proj = sum(a * b for a, b in zip(v, gu))
                if proj:
                    v = _content_divided([nu * a - proj * b for a, b in zip(v, u)])
            if next(c for c in v if c) < 0:
                v = [-c for c in v]
            gv = [sum(a * b for a, b in zip(row, v)) for row in gram]
            done.append((v, gv, sum(a * b for a, b in zip(v, gv))))
            out.append(CliffordPolynomial(m, {e: {0: c} for e, c in zip(sub, v) if c}))
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
    k, m = h.degree(), h.m
    if k == 0:
        return h
    # M = (c H + x dH)/c, c = m + 2k - 2, on numerators; dH has no zero entry
    # (each comes from one term of H), so rows come in x_times(dirac(h)) order
    den, rows = _numerators(h)
    c = m + 2 * k - 2
    proj = {e: {b: c * n for b, n in row.items()} for e, row in rows.items()}
    for e, row in _vector_times(m, _vector_times(m, rows, -1), 1).items():
        acc = proj.setdefault(e, {})
        for b, n in row.items():
            acc[b] = acc.get(b, 0) + n
    if any(n for row in _vector_times(m, proj, -1).values() for n in row.values()):
        raise RuntimeError("projection failed to produce a monogenic")
    return _over(m, proj, c * den)


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


def _gaussian_values(poly: CliffordPolynomial, points: np.ndarray) -> dict[int, np.ndarray]:
    """Blade coefficient arrays of P(x) exp(-|x|^2/2) at (n, m) points."""
    cols = _columns(points, poly.m)
    r2 = reduce(np.add, [x * x for x in cols])
    table = PolynomialTable(poly.m, [poly])
    return table.split(table.evaluate(cols, np.exp(-0.5 * r2)))[0]


@dataclass(frozen=True)
class BasisFunction:
    """psi_{j,k,l}: polynomial part exact; a Gaussian factor is implied."""

    m: int
    j: int
    k: int
    ell: int
    monogenic: SphericalMonogenic
    poly: CliffordPolynomial

    def values(self, points: np.ndarray) -> dict[int, np.ndarray]:
        """Blade coefficient arrays at (n, m) points, Gaussian included."""
        return _gaussian_values(self.poly, points)


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
        return _gaussian_values(self.poly, points)


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
