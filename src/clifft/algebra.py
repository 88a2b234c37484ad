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
    "geometric_product",
    "wedge",
    "invariants_of",
    "hermitian_inner",
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

    @classmethod
    def pseudoscalar(cls, m: int) -> Multivector:
        return cls(m, {(1 << m) - 1: 1.0})

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

    def grades(self) -> set[int]:
        return {int(mask).bit_count() for mask in np.flatnonzero(self._data)}

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

    # -- involutions and projections ------------------------------------------

    def complex_conjugate(self) -> Multivector:
        return Multivector._from_data(self.m, np.conj(self._data))

    def main_anti_involution(self) -> Multivector:
        data = self._data.copy()
        for mask in np.flatnonzero(data):
            g = int(mask).bit_count()
            if (g * (g + 1) // 2) & 1:
                data[mask] = -data[mask]
        return Multivector._from_data(self.m, data)

    def grade_project(self, k: int) -> Multivector:
        data = np.zeros_like(self._data)
        for mask in np.flatnonzero(self._data):
            if int(mask).bit_count() == k:
                data[mask] = self._data[mask]
        return Multivector._from_data(self.m, data)

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

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for mask in np.flatnonzero(self._data):
            c = complex(self._data[mask])
            terms.append(
                {"blade": list(_mask_to_indices(int(mask))), "re": c.real, "im": c.imag}
            )
        return {"m": self.m, "terms": terms}

    @classmethod
    def from_json(cls, payload: Mapping) -> Multivector:
        m = payload["m"]
        return cls(m, {tuple(t["blade"]): complex(t["re"], t.get("im", 0.0)) for t in payload["terms"]})


def _vector_components(x) -> np.ndarray:
    """Components of a vector of R^m (or C^m) as a one-dimensional array."""
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("a vector needs a one-dimensional, nonempty component list")
    return arr if np.iscomplexobj(arr) else arr.astype(float)


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
        xv = _vector_components(x)
        yv = _vector_components(y)
        if len(xv) != m or len(yv) != m:
            raise ValueError("vector dimension mismatch")
        biv: dict[tuple[int, int], complex] = {}
        if g:
            for j in range(m):
                for k in range(j + 1, m):
                    c = complex(g) * (xv[j] * yv[k] - xv[k] * yv[j])
                    if c:
                        biv[(j + 1, k + 1)] = c
        return cls(m, complex(scalar), biv)

    def to_multivector(self) -> Multivector:
        coeffs: dict = {0: self.scalar}
        for (j, k), c in self.bivector.items():
            coeffs[(j, k)] = c
        return Multivector(self.m, coeffs)

    def bivector_coefficient(self, j: int, k: int) -> complex:
        if j == k:
            return 0.0
        if j < k:
            return self.bivector.get((j, k), 0.0)
        return -self.bivector.get((k, j), 0.0)

    def norm(self) -> float:
        return math.sqrt(
            abs(self.scalar) ** 2 + sum(abs(c) ** 2 for c in self.bivector.values())
        )


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Bilinear associative product with e_i e_j + e_j e_i = -2 delta_ij."""
    if not isinstance(a, Multivector) or not isinstance(b, Multivector):
        raise TypeError("geometric_product expects two multivectors")
    a._check_same(b)
    out = np.zeros_like(a._data)
    nz_b = [(int(mb), b._data[mb]) for mb in np.flatnonzero(b._data)]
    for ma in np.flatnonzero(a._data):
        ma = int(ma)
        ca = a._data[ma]
        for mb, cb in nz_b:
            out[ma ^ mb] += _blade_sign(ma, mb) * ca * cb
    return Multivector._from_data(a.m, out)


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
    s = float(np.real(np.dot(xv, yv)))
    z = float(np.linalg.norm(xv) * np.linalg.norm(yv))
    t = math.sqrt(max(z * z - s * s, 0.0))
    w = s / z if z > 0 else None
    return GeometricInvariants(s=s, t=t, z=z, w=w)


def hermitian_inner(a: Multivector, b: Multivector) -> complex:
    """[bar(a^c) b]_0 = sum_A conj(a_A) b_A."""
    a._check_same(b)
    return complex(np.vdot(a._data, b._data))
