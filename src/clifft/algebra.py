"""Clifford algebra Cl(0,m): multivectors, involutions, geometric invariants.

Generators satisfy e_i e_j + e_j e_i = -2 delta_ij.  Blades are encoded as
bitmasks (bit j set means e_{j+1} participates); a multivector stores a
dense array of 2**m complex coefficients.  All values are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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


def _check_dimension(m: int) -> int:
    if not isinstance(m, int) or m < 1 or m > MAX_DIMENSION:
        raise ValueError(f"dimension must be an integer in 1..{MAX_DIMENSION}, got {m!r}")
    return m


def _blade_key_to_mask(key, m: int) -> int:
    """Accept an int bitmask or an iterable of 1-based generator indices."""
    if isinstance(key, int):
        if key < 0 or key >= (1 << m):
            raise ValueError(f"blade mask {key} out of range for dimension {m}")
        return key
    mask = 0
    for idx in key:
        if not 1 <= idx <= m:
            raise ValueError(f"blade index {idx} out of range 1..{m}")
        bit = 1 << (idx - 1)
        if mask & bit:
            raise ValueError(f"repeated blade index {idx}")
        mask |= bit
    return mask


def _mask_to_indices(mask: int) -> tuple[int, ...]:
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


class Multivector:
    """Element of Cl(0,m) with complex coefficients, dense storage."""

    __slots__ = ("m", "_data")

    def __init__(self, m: int, coefficients: Mapping | None = None):
        self.m = _check_dimension(m)
        data = np.zeros(1 << m, dtype=complex)
        if coefficients:
            for key, value in coefficients.items():
                data[_blade_key_to_mask(key, m)] += complex(value)
        self._data = data

    @classmethod
    def _from_data(cls, m: int, data: np.ndarray) -> Multivector:
        out = object.__new__(cls)
        out.m = m
        out._data = data
        return out

    @classmethod
    def scalar(cls, m: int, value) -> Multivector:
        return cls(m, {0: value})

    @classmethod
    def basis_blade(cls, m: int, *indices: int) -> Multivector:
        return cls(m, {tuple(indices): 1.0})

    @classmethod
    def from_vector(cls, m: int, components) -> Multivector:
        comps = list(components)
        if len(comps) != m:
            raise ValueError(f"expected {m} components, got {len(comps)}")
        return cls(m, {1 << j: comps[j] for j in range(m)})

    # -- views -------------------------------------------------------------

    @property
    def coefficients(self) -> dict[tuple[int, ...], complex]:
        """Nonzero coefficients keyed by strictly increasing index tuples."""
        return {
            _mask_to_indices(int(mask)): complex(self._data[mask])
            for mask in np.flatnonzero(self._data)
        }

    def coefficient(self, key) -> complex:
        return complex(self._data[_blade_key_to_mask(key, self.m)])

    # -- linear structure ----------------------------------------------------

    def _check_same(self, other: Multivector) -> None:
        if self.m != other.m:
            raise ValueError(f"dimension mismatch: {self.m} vs {other.m}")

    def __add__(self, other):
        if isinstance(other, Multivector):
            self._check_same(other)
            return Multivector._from_data(self.m, self._data + other._data)
        if isinstance(other, (int, float, complex)):
            data = self._data.copy()
            data[0] += other
            return Multivector._from_data(self.m, data)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Multivector._from_data(self.m, -self._data)

    def __sub__(self, other):
        if isinstance(other, Multivector):
            self._check_same(other)
            return Multivector._from_data(self.m, self._data - other._data)
        if isinstance(other, (int, float, complex)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        if isinstance(other, (int, float, complex)):
            return Multivector._from_data(self.m, self._data * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Multivector._from_data(self.m, self._data * other)
        return NotImplemented

    # -- involutions and parts -------------------------------------------------

    def complex_conjugate(self) -> Multivector:
        return Multivector._from_data(self.m, np.conj(self._data))

    def scalar_part(self) -> complex:
        return complex(self._data[0])

    def norm(self) -> float:
        """Hermitian norm sqrt(sum |coefficient|^2)."""
        return float(np.linalg.norm(self._data))

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.m == other.m and bool(np.array_equal(self._data, other._data))

    def isclose(self, other: Multivector, tol: float = 1e-12) -> bool:
        self._check_same(other)
        return bool(np.all(np.abs(self._data - other._data) <= tol))

    def __repr__(self) -> str:
        terms = []
        for mask in np.flatnonzero(self._data):
            c = complex(self._data[mask])
            name = "1" if mask == 0 else "e" + "".join(str(i) for i in _mask_to_indices(int(mask)))
            terms.append(f"({c.real:g}{c.imag:+g}j)*{name}" if c.imag else f"({c.real:g})*{name}")
        return f"Multivector(m={self.m}: " + (" + ".join(terms) or "0") + ")"


def _vector_components(x) -> np.ndarray:
    """Components of a vector of R^m (or C^m) as a one-dimensional array."""
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

    The bivector coefficients are stored for index pairs (j, k) with
    1 <= j < k <= m; entry (j, k) multiplies the blade e_j e_k.
    """

    m: int
    scalar: complex
    bivector: dict[tuple[int, int], complex]

    @classmethod
    def from_geometry(cls, m: int, scalar, g, x, y) -> ParaBivector:
        """Parabivector scalar + g*(x wedge y)."""
        xv = _vector_components(x).tolist()
        yv = _vector_components(y).tolist()
        if len(xv) != m or len(yv) != m:
            raise ValueError("vector dimension mismatch")
        biv: dict[tuple[int, int], complex] = {}
        g = complex(g)
        if g:
            for j in range(m):
                for k in range(j + 1, m):
                    c = g * (xv[j] * yv[k] - xv[k] * yv[j])
                    if c:
                        biv[(j + 1, k + 1)] = c
        return cls(m, complex(scalar), biv)

    def to_multivector(self) -> Multivector:
        m = _check_dimension(self.m)
        data = np.zeros(1 << m, dtype=complex)
        data[0] = 0j + self.scalar  # a sum from zero, as Multivector builds: no negative zeros
        for (j, k), c in self.bivector.items():
            if not 1 <= j < k <= m:
                raise ValueError(f"bivector index pair ({j}, {k}) needs 1 <= j < k <= {m}")
            data[(1 << (j - 1)) | (1 << (k - 1))] = 0j + c
        return Multivector._from_data(m, data)


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


def _nonzero(x: Multivector) -> dict[int, complex]:
    return {mask: c for mask, c in enumerate(x._data.tolist()) if c}


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Bilinear associative product with e_i e_j + e_j e_i = -2 delta_ij (blade_product)."""
    if not isinstance(a, Multivector) or not isinstance(b, Multivector):
        raise TypeError("geometric_product expects two multivectors")
    a._check_same(b)
    out = [0j] * len(a._data)
    for mask, c in blade_product(_nonzero(a), _nonzero(b)).items():
        out[mask] = 0j + c  # a dense sum from zero: no negative zeros
    return Multivector._from_data(a.m, np.array(out))


def wedge(x, y) -> Multivector:
    """x wedge y = sum_{j<k} e_jk (x_j y_k - x_k y_j) = (xy - yx)/2."""
    xv = _vector_components(x)
    yv = _vector_components(y)
    if xv.size != yv.size:
        raise ValueError(f"dimension mismatch: {xv.size} vs {yv.size}")
    m = xv.size
    coeffs = {}
    for j in range(m):
        for k in range(j + 1, m):
            c = xv[j] * yv[k] - xv[k] * yv[j]
            if c:
                coeffs[(1 << j) | (1 << k)] = c
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
