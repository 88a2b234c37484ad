"""Exact scalar arithmetic for kernel and series coefficients.

Every coefficient appearing in the kernel class, its recursions, the
Gegenbauer-Bessel series, and the eigenvalue tables is a complex rational
number times an integer power of u = sqrt(pi/2).  Tracking that power
symbolically keeps recursion and eigenvalue checks exact equalities in
Q[i] instead of floating-point comparisons.

An :class:`Exact` value is ``(a + I*b)/d * u**upow`` with integers a, b
and d > 0, gcd(a, b, d) = 1, and zero as 0/1 with upow 0.  Sums require
both operands to carry the same power of u (zero is absorbed by
anything); products and quotients add and subtract the powers.  Each
operation takes integer products and divides out one gcd.  Since u**p is
irrational for every p != 0, this form is canonical: two values are equal
iff their quadruples coincide.  ``re`` and ``im`` are Fraction views.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

__all__ = ["Exact", "U_FLOAT", "ZERO", "ONE", "I_UNIT", "U"]

U_FLOAT = math.sqrt(math.pi / 2.0)


def _ratio(v) -> tuple[int, int]:
    """v as (numerator, denominator > 0)."""
    if isinstance(v, int):
        return v, 1
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"cannot represent non-finite value {v!r} exactly")
        return v.as_integer_ratio()
    raise TypeError(f"cannot interpret {type(v).__name__} as an exact rational")


def _exact(a: int, b: int, d: int, upow: int) -> Exact:
    """(a + I b)/d u**upow from integers already in canonical form."""
    x = object.__new__(Exact)
    x._a, x._b, x._d, x.upow = a, b, d, upow
    return x


def _canonical(a: int, b: int, d: int, upow: int) -> Exact:
    """(a + I b)/d u**upow for any integers with d > 0."""
    if not (a or b):
        return ZERO
    g = math.gcd(a, b, d)
    return _exact(a // g, b // g, d // g, upow)


def _exact_complex(re: Fraction, im: Fraction) -> complex | None:
    """complex(re, im) when both parts are exactly binary floats."""
    try:
        z = complex(float(re), float(im))
    except OverflowError:
        return None
    return z if Fraction(z.real) == re and Fraction(z.imag) == im else None


class Exact:
    """A complex rational multiple of u**upow, u = sqrt(pi/2)."""

    __slots__ = ("_a", "_b", "_d", "upow")

    def __init__(self, re=0, im=0, upow: int = 0):
        n1, d1 = _ratio(re)
        n2, d2 = _ratio(im)
        x = _canonical(n1 * d2, n2 * d1, d1 * d2, operator.index(upow))
        self._a, self._b, self._d, self.upow = x._a, x._b, x._d, x.upow

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not (self._a or self._b)

    # -- coercion --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Exact):
            return other
        if isinstance(other, (int, Fraction, float)):
            n, d = _ratio(other)
            return _canonical(n, 0, d, 0)
        if isinstance(other, complex):
            return Exact(other.real, other.imag)
        return None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self._a or self._b):
            return o
        if not (o._a or o._b):
            return self
        if self.upow != o.upow:
            raise ValueError(
                "cannot add exact scalars carrying different powers of "
                f"sqrt(pi/2): u**{self.upow} vs u**{o.upow}"
            )
        d1, d2 = self._d, o._d
        return _canonical(self._a * d2 + o._a * d1, self._b * d2 + o._b * d1, d1 * d2, o.upow)

    __radd__ = __add__

    def __neg__(self):
        return _exact(-self._a, -self._b, self._d, self.upow)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        return _canonical(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * o._d, self.upow + o.upow)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        n = a2 * a2 + b2 * b2
        if not n:
            raise ZeroDivisionError("division by exact zero")
        # (a1 + I b1)/d1 times d2 (a2 - I b2)/n
        return _canonical(
            (a1 * a2 + b1 * b2) * o._d, (b1 * a2 - a1 * b2) * o._d, self._d * n, self.upow - o.upow
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ONE
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> Exact:
        return _exact(self._a, -self._b, self._d, self.upow)

    # -- conversions -----------------------------------------------------
    # int true division is correctly rounded, so a/d is the float of the
    # Fraction a/d whether or not gcd(a, d) = 1

    def __complex__(self) -> complex:
        scale = (math.pi / 2.0) ** (self.upow / 2.0)
        return complex(self._a / self._d * scale, self._b / self._d * scale)

    def __float__(self) -> float:
        if self._b:
            raise ValueError("exact value has a nonzero imaginary part")
        return self._a / self._d * (math.pi / 2.0) ** (self.upow / 2.0)

    def magnitude(self) -> float:
        return abs(complex(self))

    def __abs__(self) -> float:
        return self.magnitude()

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- identity --------------------------------------------------------

    def __eq__(self, other) -> bool:
        try:
            o = self._coerce(other)
        except ValueError:  # a NaN or infinite float or complex
            return False
        if o is None:
            return NotImplemented
        return (self._a, self._b, self._d, self.upow) == (o._a, o._b, o._d, o.upow)

    def __hash__(self):
        # equal to hash(other) wherever __eq__ can hold against a number
        if self.upow == 0:
            if not self._b:
                return hash(self.re)
            z = _exact_complex(self.re, self.im)
            if z is not None:
                return hash(z)
        return hash((self._a, self._b, self._d, self.upow))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Exact(0)"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            sign = "+" if self.im > 0 and parts else ""
            parts.append(f"{sign}{self.im}*I")
        body = "".join(parts)
        if self.upow == 0:
            return f"Exact({body})"
        return f"Exact(({body})*u**{self.upow})"


ZERO = _exact(0, 0, 1, 0)
ONE = Exact(1)
I_UNIT = Exact(0, 1)
U = Exact(1, 0, 1)
