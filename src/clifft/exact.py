"""Exact scalar arithmetic for kernel and series coefficients.

Every coefficient appearing in the kernel class, its recursions, the
Gegenbauer-Bessel series, and the eigenvalue tables is a complex rational
number times an integer power of u = sqrt(pi/2).  Tracking that power
symbolically keeps recursion and eigenvalue checks exact equalities in
Q[i] instead of floating-point comparisons.

An :class:`Exact` value represents ``(re + I*im) * u**upow`` with ``re``
and ``im`` rational.  Sums require both operands to carry the same power
of u (zero is absorbed by anything); products and quotients add and
subtract the powers.  Since u**p is irrational for every p != 0, two
values are equal iff their normalized triples coincide.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["Exact", "U_FLOAT", "ZERO", "ONE", "I_UNIT", "U"]

U_FLOAT = math.sqrt(math.pi / 2.0)
_FRACTION_ZERO = Fraction(0)


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"cannot represent non-finite value {v!r} exactly")
        return Fraction(v)
    raise TypeError(f"cannot interpret {type(v).__name__} as an exact rational")


def _exact_complex(re: Fraction, im: Fraction) -> complex | None:
    """complex(re, im) when both parts are exactly binary floats."""
    try:
        z = complex(float(re), float(im))
    except OverflowError:
        return None
    return z if Fraction(z.real) == re and Fraction(z.imag) == im else None


class Exact:
    """A complex rational multiple of u**upow, u = sqrt(pi/2)."""

    __slots__ = ("re", "im", "upow")

    def __init__(self, re=0, im=0, upow: int = 0):
        re = _as_fraction(re)
        im = _as_fraction(im)
        if not re and not im:
            upow = 0
        self.re = re
        self.im = im
        self.upow = int(upow)

    @classmethod
    def _trusted(cls, re: Fraction, im: Fraction, upow: int) -> Exact:
        """No conversion: re and im are already Fractions."""
        self = object.__new__(cls)
        self.re, self.im, self.upow = re, im, upow if re or im else 0
        return self

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    # -- coercion --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Exact):
            return other
        if isinstance(other, Fraction):
            return Exact._trusted(other, _FRACTION_ZERO, 0)
        if isinstance(other, int):
            return Exact._trusted(Fraction(other), _FRACTION_ZERO, 0)
        if isinstance(other, complex):
            return Exact(_as_fraction(other.real), _as_fraction(other.imag))
        if isinstance(other, float):
            return Exact(_as_fraction(other))
        return None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        if self.upow != o.upow:
            raise ValueError(
                "cannot add exact scalars carrying different powers of "
                f"sqrt(pi/2): u**{self.upow} vs u**{o.upow}"
            )
        return Exact._trusted(self.re + o.re, self.im + o.im, self.upow)

    __radd__ = __add__

    def __neg__(self):
        return Exact._trusted(-self.re, -self.im, self.upow)

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
        upow = self.upow + o.upow
        # a real operand needs two products, two real operands one
        if not o.im:
            if not self.im:
                return Exact._trusted(self.re * o.re, _FRACTION_ZERO, upow)
            return Exact._trusted(self.re * o.re, self.im * o.re, upow)
        if not self.im:
            return Exact._trusted(self.re * o.re, self.re * o.im, upow)
        return Exact._trusted(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
            upow,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if not d:
            raise ZeroDivisionError("division by exact zero")
        return Exact._trusted(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
            self.upow - o.upow,
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
        return Exact._trusted(self.re, -self.im, self.upow)

    # -- conversions -----------------------------------------------------

    def __complex__(self) -> complex:
        scale = (math.pi / 2.0) ** (self.upow / 2.0)
        return complex(float(self.re) * scale, float(self.im) * scale)

    def __float__(self) -> float:
        if self.im:
            raise ValueError("exact value has a nonzero imaginary part")
        return float(self.re) * (math.pi / 2.0) ** (self.upow / 2.0)

    def magnitude(self) -> float:
        return abs(complex(self))

    def __abs__(self) -> float:
        return self.magnitude()

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- identity --------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im and self.upow == o.upow

    def __hash__(self):
        # equal to hash(other) wherever __eq__ can hold against a number
        if self.upow == 0:
            if not self.im:
                return hash(self.re)
            z = _exact_complex(self.re, self.im)
            if z is not None:
                return hash(z)
        return hash((self.re, self.im, self.upow))

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


ZERO = Exact(0)
ONE = Exact(1)
I_UNIT = Exact(0, 1)
U = Exact(1, 0, 1)
