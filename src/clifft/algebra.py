"""Clifford algebra Cl(0,m): multivectors, involutions, geometric invariants.

Generators satisfy e_i e_j + e_j e_i = -2 delta_ij.  Blades are encoded as
bitmasks (bit j set means e_{j+1} participates), and every Clifford value
here is a map from blade mask to coefficient, multiplied by
:func:`blade_product`; a multivector keeps only its nonzero coefficients.
All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

__all__ = [
    "MAX_DIMENSION",
    "Multivector",
    "ParaBivector",
    "GeometricInvariants",
    "blade_product",
    "geometric_product",
    "wedge",
    "invariants_of",
]

MAX_DIMENSION = 12


@lru_cache(maxsize=None)
def _blade_sign(a: int, b: int) -> int:
    """Sign s with e_A e_B = s * e_{A xor B}.

    Transposition count for reordering, plus one factor -1 per common
    generator (e_i e_i = -1).
    """
    total = (a & b).bit_count()
    aa = a >> 1
    while aa:
        total += (aa & b).bit_count()
        aa >>= 1
    return -1 if total & 1 else 1


@lru_cache(maxsize=None, typed=True)
def _blade_masks(m: int) -> frozenset[int]:
    """The blade masks 0..2**m - 1 of Cl(0, m), after checking m."""
    if not isinstance(m, int) or m < 1 or m > MAX_DIMENSION:
        raise ValueError(f"dimension must be an integer in 1..{MAX_DIMENSION}, got {m!r}")
    return frozenset(range(1 << m))


class Multivector:
    """Element of Cl(0,m) with complex coefficients: a read-only map
    ``blades`` from blade mask to nonzero coefficient."""

    __slots__ = ("m", "blades")

    def __init__(self, m: int, blades: Mapping[int, object] | None = None):
        blades = blades or {}
        if not (_blade_masks(m).issuperset(blades) and set(map(type, blades)) <= {int}):
            keys = ", ".join(map(repr, blades))
            raise ValueError(f"blade masks must be ints in 0..{(1 << m) - 1}, got {keys}")
        self.blades = MappingProxyType({
            mask: c if c.__class__ is complex else complex(c) for mask, c in blades.items() if c
        })
        self.m = m

    @classmethod
    def scalar(cls, m: int, value) -> Multivector:
        return cls(m, {0: value})

    @classmethod
    def from_vector(cls, m: int, components) -> Multivector:
        comps = list(components)
        if len(comps) != m:
            raise ValueError(f"expected {m} components, got {len(comps)}")
        return cls(m, {1 << j: comps[j] for j in range(m)})

    # -- linear structure ----------------------------------------------------

    def _check_same(self, other: Multivector) -> None:
        if self.m != other.m:
            raise ValueError(f"dimension mismatch: {self.m} vs {other.m}")

    def _plus(self, other, sign: int):
        if isinstance(other, Multivector):
            self._check_same(other)
            terms = other.blades
        elif isinstance(other, (int, float, complex)):
            terms = {0: other}
        else:
            return NotImplemented
        out = self.blades.copy()
        for mask, c in terms.items():
            out[mask] = out.get(mask, 0) + sign * c
        return Multivector(self.m, out)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Multivector(self.m, {mask: -c for mask, c in self.blades.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Multivector(self.m, {mask: c * other for mask, c in self.blades.items()})
        return NotImplemented

    # -- involutions and parts -------------------------------------------------

    def complex_conjugate(self) -> Multivector:
        return Multivector(self.m, {mask: c.conjugate() for mask, c in self.blades.items()})

    def scalar_part(self) -> complex:
        return self.blades.get(0, 0j)

    def norm(self) -> float:
        """Hermitian norm sqrt(sum |coefficient|^2)."""
        return math.hypot(*map(abs, self.blades.values()))

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.m == other.m and self.blades == other.blades

    def isclose(self, other: Multivector, tol: float = 1e-12) -> bool:
        self._check_same(other)
        a, b = self.blades, other.blades
        return all(abs(a.get(mask, 0) - b.get(mask, 0)) <= tol for mask in a.keys() | b.keys())

    def __repr__(self) -> str:
        terms = []
        for mask, c in sorted(self.blades.items()):
            name = "e" + "".join(str(j + 1) for j in range(self.m) if mask >> j & 1) if mask else "1"
            terms.append(f"({c.real:g}{c.imag:+g}j)*{name}" if c.imag else f"({c.real:g})*{name}")
        return f"Multivector(m={self.m}: " + (" + ".join(terms) or "0") + ")"


_FLOAT64 = np.dtype(float)


@lru_cache(maxsize=None)
def _bivector_pairs(m: int) -> tuple[tuple[int, int, int], ...]:
    """(j, k, mask of e_{j+1} e_{k+1}) for 0 <= j < k < m, j-major, after checking m."""
    _blade_masks(m)
    return tuple((j, k, (1 << j) | (1 << k)) for j in range(m) for k in range(j + 1, m))


def _vector_components(x) -> np.ndarray:
    """Components of a vector of R^m (or C^m) as a one-dimensional array;
    a one-dimensional, nonempty float64 array is returned as it is."""
    if x.__class__ is np.ndarray and x.dtype is _FLOAT64 and len(x.shape) == 1 and x.size:
        return x
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("a vector needs a one-dimensional, nonempty component list")
    return arr if np.iscomplexobj(arr) else arr.astype(float, copy=False)


@dataclass(frozen=True)
class GeometricInvariants:
    """s = <x,y>, t = |x wedge y|, z = |x||y|, w = <xi,eta> (None if z = 0)."""

    s: float
    t: float
    z: float
    w: float | None


@dataclass(frozen=True)
class ParaBivector:
    """Scalar plus bivector; the value type of every kernel here.

    The bivector coefficients are keyed by blade mask: the entry at
    (1 << j) | (1 << k), j < k, multiplies e_{j+1} e_{k+1}.  They are
    kept as a read-only copy of the map given, so the value is hashable.
    """

    m: int
    scalar: complex
    bivector: Mapping[int, complex]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bivector", MappingProxyType(dict(self.bivector)))

    def __hash__(self) -> int:
        return hash((self.m, self.scalar, frozenset(self.bivector.items())))

    @classmethod
    def from_geometry(cls, m: int, scalar, g, x, y) -> ParaBivector:
        """Parabivector scalar + g*(x wedge y)."""
        xv = _vector_components(x).tolist()
        yv = _vector_components(y).tolist()
        if len(xv) != m or len(yv) != m:
            raise ValueError("vector dimension mismatch")
        biv: dict[int, complex] = {}
        g = complex(g)
        if g:
            for j, k, mask in _bivector_pairs(m):
                c = g * (xv[j] * yv[k] - xv[k] * yv[j])
                if c:
                    biv[mask] = c
        return cls(m, complex(scalar), biv)

    def to_multivector(self) -> Multivector:
        for mask in self.bivector:
            if not isinstance(mask, int) or mask.bit_count() != 2:
                raise ValueError(f"bivector key {mask!r} is not the mask of two generators")
        return Multivector(self.m, {0: self.scalar, **self.bivector})


def blade_product(a: Mapping[int, object], b: Mapping[int, object]) -> dict:
    """Geometric product of two maps from blade mask to coefficient; the
    coefficients may be numbers, Fractions, or arrays that broadcast
    together (an array-valued multivector over a batch of points)."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mask, term = ma ^ mb, _blade_sign(ma, mb) * ca * cb
            out[mask] = out[mask] + term if mask in out else term
    return out


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Bilinear associative product with e_i e_j + e_j e_i = -2 delta_ij (blade_product)."""
    if not isinstance(a, Multivector) or not isinstance(b, Multivector):
        raise TypeError("geometric_product expects two multivectors")
    a._check_same(b)
    return Multivector(a.m, blade_product(a.blades, b.blades))


def wedge(x, y) -> Multivector:
    """x wedge y = sum_{j<k} e_jk (x_j y_k - x_k y_j) = (xy - yx)/2."""
    xv = _vector_components(x)
    yv = _vector_components(y)
    if xv.size != yv.size:
        raise ValueError(f"dimension mismatch: {xv.size} vs {yv.size}")
    m = xv.size
    coeffs = {}
    for j, k, mask in _bivector_pairs(m):
        c = xv[j] * yv[k] - xv[k] * yv[j]
        if c:
            coeffs[mask] = c
    return Multivector(m, coeffs)


def invariants_of(x, y) -> GeometricInvariants:
    """Geometric invariants of a vector pair; w is absent when z = 0."""
    xv = _vector_components(x)
    yv = _vector_components(y)
    if xv.size != yv.size:
        raise ValueError("dimension mismatch")
    if np.iscomplexobj(xv) or np.iscomplexobj(yv):
        s = float(np.real(np.dot(xv, yv)))
        z = float(np.linalg.norm(xv) * np.linalg.norm(yv))
    else:
        # the same dot products as np.dot and np.linalg.norm, without their set-up
        s = float(xv.dot(yv))
        z = math.sqrt(xv.dot(xv)) * math.sqrt(yv.dot(yv))
    t = math.sqrt(max(z * z - s * s, 0.0))
    w = s / z if z > 0 else None
    return GeometricInvariants(s=s, t=t, z=z, w=w)
