"""Symbolic kernels of the Clifford-Fourier transform family.

Every kernel here is a parabivector function of two vector variables,

    K(x, y) = A(s, t) + (x wedge y) B(s, t),

where s = <x, y> and t = |x wedge y|.  The profiles A and B are finite
sums of terms  c * s^a * jtilde_alpha(t)  with exact coefficients c (see
:mod:`clifft.exact`), integer powers a >= 0 and half-integer or integer
Bessel orders alpha, each stored as the int 2 alpha.  Working at this
symbolic level makes the recursion and structural identities checkable
exactly, coefficient by coefficient.

The scalar profile of a kernel splits into three families, called ftilde,
fhat and g below; the builders produce each family as a term tuple and
the public constructors assemble them.  For odd dimensions the kernel of
index i carries a unit complex parameter e_i:

    K = e_i * ftilde + I * conj(e_i) * fhat + (x wedge y) e_i * g.

For even dimensions the three families already include a factor
sqrt(pi/2) and combine as ftilde + fhat + (x wedge y) g.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial
from typing import Iterable, Sequence

import numpy as np

from .algebra import Multivector, ParaBivector, blade_product, invariants_of
from .checks import Check, worst
from .exact import Exact
from .special import bessel_jtilde, check_twice_order

__all__ = [
    "KernelTerm",
    "KernelExpr",
    "KernelId",
    "ftilde_terms",
    "fhat_terms",
    "g_terms",
    "build_kernel_even",
    "build_kernel_odd",
    "build_cf_kernel",
    "build_kernel",
    "minus_counterpart",
    "apply_zinv_dw",
    "add_terms",
    "scale_terms",
    "shift_s",
    "terms_equal",
    "verify_recursion",
    "verify_structural_identities",
    "eval_terms",
    "eval_terms_by_parity",
    "eval_kernel",
    "pde_residual",
    "fg_system_residual",
]


@dataclass(frozen=True)
class KernelTerm:
    """One summand  coeff * s^s_power * jtilde_(twice_order/2)(t)."""

    coeff: Exact
    s_power: int
    twice_order: int

    def __post_init__(self):
        if self.s_power < 0:
            raise ValueError(f"negative power of s in a kernel term: {self.s_power}")
        check_twice_order(self.twice_order)

    @cached_property
    def coeff_complex(self) -> complex:
        """complex(coeff), converted on first use and kept."""
        return complex(self.coeff)


def _canonical(terms: Iterable[KernelTerm]) -> tuple[KernelTerm, ...]:
    merged: dict[tuple[int, int], Exact] = {}
    for term in terms:
        key = (term.s_power, term.twice_order)
        if key in merged:
            merged[key] = merged[key] + term.coeff
        else:
            merged[key] = term.coeff
    out = [
        KernelTerm(c, p, two)
        for (p, two), c in merged.items()
        if not c.is_zero
    ]
    out.sort(key=lambda t: (t.s_power, t.twice_order))
    return tuple(out)


@dataclass(frozen=True)
class KernelExpr:
    """Canonical kernel expression: scalar profile plus bivector profile."""

    m: int
    scalar_terms: tuple[KernelTerm, ...]
    bivector_terms: tuple[KernelTerm, ...]

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"kernel dimension must be >= 2, got {self.m}")
        object.__setattr__(self, "scalar_terms", _canonical(self.scalar_terms))
        object.__setattr__(self, "bivector_terms", _canonical(self.bivector_terms))

    def profiles(self, s, t) -> tuple[np.ndarray, np.ndarray]:
        """Scalar profile A(s, t) and bivector profile B(s, t)."""
        return eval_terms(self.scalar_terms, s, t), eval_terms(self.bivector_terms, s, t)


_SIGNS = ("plus", "minus")


@dataclass(frozen=True)
class KernelId:
    """Label (m, i, sign) of a kernel, with the odd-dimension parameter e_i."""

    m: int
    i: int
    sign: str = "plus"
    e_i: complex = 1.0

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"dimension must be >= 2, got {self.m}")
        if not 0 <= self.i <= self.m - 2:
            raise ValueError(f"index i must satisfy 0 <= i <= m-2, got i={self.i}, m={self.m}")
        if self.sign not in _SIGNS:
            raise ValueError(f"sign must be 'plus' or 'minus', got {self.sign!r}")
        object.__setattr__(self, "e_i", complex(self.e_i))
        if self.family == "even" and self.e_i != 1.0:
            raise ValueError("the parameter e_i only applies to odd dimensions")
        if abs(abs(self.e_i) - 1.0) > 1e-12:
            raise ValueError(f"e_i must lie on the unit circle, got |e_i| = {abs(self.e_i)}")

    @property
    def family(self) -> str:
        return "even" if self.m % 2 == 0 else "odd"


# ---------------------------------------------------------------------------
# family builders


def _inv_pow2_fact(ell: int) -> Fraction:
    return Fraction(1, (1 << ell) * factorial(ell))


@lru_cache(maxsize=None)
def ftilde_terms(m: int, i: int) -> tuple[KernelTerm, ...]:
    """Family ftilde; empty for i = 0.  Carries sqrt(pi/2) iff m is even."""
    _check_mi(m, i)
    upow = 1 if m % 2 == 0 else 0
    terms = []
    for ell in range((i - 1) // 2 + 1):
        ratio = Fraction(factorial(i), factorial(i - 2 * ell - 1))
        coeff = Exact(-ratio * _inv_pow2_fact(ell), 0, upow)
        terms.append(KernelTerm(coeff, i - 1 - 2 * ell, m - 2 * ell - 3))
    return _canonical(terms)


@lru_cache(maxsize=None)
def fhat_terms(m: int, i: int) -> tuple[KernelTerm, ...]:
    """Family fhat.  Sign prefactor depends on the parity of m."""
    _check_mi(m, i)
    if m % 2 == 0:
        sgn = -1 if (m // 2 + i) % 2 else 1
        upow = 1
    else:
        sgn = -1 if ((m + 1) // 2 + i) % 2 else 1
        upow = 0
    terms = []
    for ell in range(i // 2 + 1):
        ratio = Fraction(factorial(i), factorial(i - 2 * ell))
        coeff = Exact(sgn * ratio * _inv_pow2_fact(ell), 0, upow)
        terms.append(KernelTerm(coeff, i - 2 * ell, m - 2 * ell - 3))
    return _canonical(terms)


@lru_cache(maxsize=None)
def g_terms(m: int, i: int) -> tuple[KernelTerm, ...]:
    """Family g, the bivector profile."""
    _check_mi(m, i)
    upow = 1 if m % 2 == 0 else 0
    terms = []
    for ell in range(i // 2 + 1):
        ratio = Fraction(factorial(i), factorial(i - 2 * ell))
        coeff = Exact(ratio * _inv_pow2_fact(ell), 0, upow)
        terms.append(KernelTerm(coeff, i - 2 * ell, m - 2 * ell - 1))
    return _canonical(terms)


def _check_mi(m: int, i: int) -> None:
    if m < 2:
        raise ValueError(f"dimension must be >= 2, got {m}")
    if not 0 <= i <= m - 2:
        raise ValueError(f"index i out of range 0..{m - 2}: {i}")


def build_kernel_even(m: int, i: int) -> KernelExpr:
    """Plus kernel of index i in even dimension m."""
    if m % 2:
        raise ValueError(f"build_kernel_even needs even m, got {m}")
    scalar = add_terms(ftilde_terms(m, i), fhat_terms(m, i))
    return KernelExpr(m, scalar, g_terms(m, i))


def build_kernel_odd(m: int, i: int, e_i: complex = 1.0) -> KernelExpr:
    """Plus kernel of index i in odd dimension m, with unit parameter e_i."""
    if m % 2 == 0:
        raise ValueError(f"build_kernel_odd needs odd m, got {m}")
    e = complex(e_i)
    scalar = add_terms(
        scale_terms(ftilde_terms(m, i), e),
        scale_terms(fhat_terms(m, i), 1j * e.conjugate()),
    )
    return KernelExpr(m, scalar, scale_terms(g_terms(m, i), e))


def build_cf_kernel(m: int) -> KernelExpr:
    """Plus kernel of the Clifford-Fourier transform in even dimension m.

    Built from its own three-series form; it coincides with the negative
    of the index m/2 - 1 kernel, which gives an independent cross-check.
    """
    if m % 2 or m < 2:
        raise ValueError(f"the Clifford-Fourier kernel needs even m >= 2, got {m}")
    half = m // 2
    scalar: list[KernelTerm] = []
    bivector: list[KernelTerm] = []
    for ell in range((m - 3) // 4 + 1):
        ratio = Fraction(factorial(half - 1), factorial(half - 2 * ell - 2))
        coeff = Exact(ratio * _inv_pow2_fact(ell), 0, 1)
        scalar.append(KernelTerm(coeff, half - 2 - 2 * ell, m - 2 * ell - 3))
    for ell in range((m - 2) // 4 + 1):
        ratio = Fraction(factorial(half - 1), factorial(half - 2 * ell - 1))
        coeff = Exact(ratio * _inv_pow2_fact(ell), 0, 1)
        scalar.append(KernelTerm(coeff, half - 1 - 2 * ell, m - 2 * ell - 3))
        bivector.append(KernelTerm(-coeff, half - 1 - 2 * ell, m - 2 * ell - 1))
    return KernelExpr(m, scalar, bivector)


@lru_cache(maxsize=None)
def build_kernel(kernel_id: KernelId) -> KernelExpr:
    """Kernel expression for a (m, i, sign, e_i) label."""
    if kernel_id.family == "even":
        plus = build_kernel_even(kernel_id.m, kernel_id.i)
    else:
        plus = build_kernel_odd(kernel_id.m, kernel_id.i, kernel_id.e_i)
    if kernel_id.sign == "plus":
        return plus
    return minus_counterpart(plus)


def minus_counterpart(expr: KernelExpr) -> KernelExpr:
    """Minus kernel from the plus kernel: conjugate and send y to -y.

    Termwise: a scalar term picks up conj and (-1)^s_power; a bivector
    term additionally flips sign because x wedge y is odd in y.
    """

    def flip(terms: Sequence[KernelTerm], extra: int) -> list[KernelTerm]:
        out = []
        for term in terms:
            sign = extra * (-1 if term.s_power % 2 else 1)
            out.append(KernelTerm(term.coeff.conjugate() * sign, term.s_power, term.twice_order))
        return out

    return KernelExpr(expr.m, flip(expr.scalar_terms, 1), flip(expr.bivector_terms, -1))


# ---------------------------------------------------------------------------
# term calculus


def add_terms(*term_lists: Sequence[KernelTerm]) -> tuple[KernelTerm, ...]:
    combined: list[KernelTerm] = []
    for terms in term_lists:
        combined.extend(terms)
    return _canonical(combined)


def scale_terms(terms: Sequence[KernelTerm], factor) -> tuple[KernelTerm, ...]:
    return _canonical(KernelTerm(t.coeff * factor, t.s_power, t.twice_order) for t in terms)


def shift_s(terms: Sequence[KernelTerm], delta: int) -> tuple[KernelTerm, ...]:
    """Multiply by s^delta.  Negative delta requires every power to cover it."""
    for t in terms:
        if t.s_power + delta < 0:
            raise ValueError(
                f"cannot multiply by s^{delta}: a term has s power {t.s_power}"
            )
    return _canonical(KernelTerm(t.coeff, t.s_power + delta, t.twice_order) for t in terms)


def apply_zinv_dw(terms: Sequence[KernelTerm]) -> tuple[KernelTerm, ...]:
    """Apply z^(-1) d/dw termwise.

    In the variables s = z w and t = z sqrt(1 - w^2) one has
    z^(-1) d/dw [s^a jtilde_alpha] = a s^(a-1) jtilde_alpha
                                     + s^(a+1) jtilde_(alpha+1).
    """
    out: list[KernelTerm] = []
    for t in terms:
        if t.s_power >= 1:
            out.append(KernelTerm(t.coeff * t.s_power, t.s_power - 1, t.twice_order))
        out.append(KernelTerm(t.coeff, t.s_power + 1, t.twice_order + 2))
    return _canonical(out)


def terms_equal(
    got: Sequence[KernelTerm], want: Sequence[KernelTerm]
) -> tuple[int, int, Exact, Exact] | None:
    """None when equal; otherwise the first mismatching (s_power,
    twice_order, got_coeff, want_coeff)."""
    a = {(t.s_power, t.twice_order): t.coeff for t in _canonical(got)}
    b = {(t.s_power, t.twice_order): t.coeff for t in _canonical(want)}
    zero = Exact(0)
    for key in sorted(set(a) | set(b)):
        ca = a.get(key, zero)
        cb = b.get(key, zero)
        if ca != cb:
            return (key[0], key[1], ca, cb)
    return None


# ---------------------------------------------------------------------------
# recursion and structural checks


def _identity_checks(params: dict, plan) -> list[Check]:
    """One exact Check per (name, got, want) of the plan; the value of a
    failing one names its first mismatching term."""
    checks = []
    for name, got, want in plan:
        mismatch = terms_equal(got, want)
        value = None if mismatch is None else "s^{} J~[{}/2]: {!r} != {!r}".format(*mismatch)
        checks.append(Check(name, params, value, None, mismatch is None))
    return checks


def verify_recursion(m: int, i: int) -> list[Check]:
    """Check the step from kernel (m, i) to (m+2, i+1), one Check per
    kernel family.

    i = 0 exercises the boundary rules (fhat leads, then ftilde by an
    s-division, then g); i >= 1 exercises the z^(-1) d/dw relations for
    all three families.
    """
    _check_mi(m, i)
    if i == 0:
        boundary_sign = -1 if ((m - 1) // 2) % 2 else 1
        fhat_pred = apply_zinv_dw(fhat_terms(m, 0))
        ftilde_pred = shift_s(scale_terms(fhat_pred, boundary_sign), -1)
        g_pred = scale_terms(apply_zinv_dw(ftilde_pred), -1)
        plan = [
            ("fhat[1]", fhat_pred, fhat_terms(m + 2, 1)),
            ("ftilde[1]", ftilde_pred, ftilde_terms(m + 2, 1)),
            ("g[1]", g_pred, g_terms(m + 2, 1)),
        ]
    else:
        ftilde_pred = scale_terms(apply_zinv_dw(ftilde_terms(m, i)), Fraction(i + 1, i))
        fhat_pred = apply_zinv_dw(fhat_terms(m, i))
        g_pred = scale_terms(
            apply_zinv_dw(ftilde_terms(m + 2, i + 1)), -Fraction(1, i + 1)
        )
        plan = [
            (f"ftilde[{i + 1}]", ftilde_pred, ftilde_terms(m + 2, i + 1)),
            (f"fhat[{i + 1}]", fhat_pred, fhat_terms(m + 2, i + 1)),
            (f"g[{i + 1}]", g_pred, g_terms(m + 2, i + 1)),
        ]
    return _identity_checks({"m": m, "i": i}, plan)


def verify_structural_identities(m: int) -> list[Check]:
    """Seven exact identities tying neighbouring kernels together (even m >= 4),
    one Check each:

    1. g[m-2] = s g[m-3] + (m-3) g'[m-4]          (g' in dimension m-2)
    2. fhat[m-2] = -s fhat[m-3] - (m-3) fhat'[m-4]
    3. ftilde[m-2] = (m-2)/(m-3) s ftilde[m-3] + (m-2) ftilde'[m-4]
    4. fhat[0] = -(-1)^(m/2) ftilde[1]
    5. g[0] = s^(-1) g[1]
    6. the Clifford-Fourier kernel's scalar profile is minus that of the
       index m/2 - 1 kernel
    7. the same for the bivector profile
    """
    if m % 2 or m < 4:
        raise ValueError(f"structural identities need even m >= 4, got {m}")
    sgn = -1 if (m // 2) % 2 else 1
    cf, mid = build_cf_kernel(m), build_kernel_even(m, m // 2 - 1)
    plan = [
        (
            "g-lowering",
            g_terms(m, m - 2),
            add_terms(shift_s(g_terms(m, m - 3), 1), scale_terms(g_terms(m - 2, m - 4), m - 3)),
        ),
        (
            "fhat-lowering",
            fhat_terms(m, m - 2),
            add_terms(
                scale_terms(shift_s(fhat_terms(m, m - 3), 1), -1),
                scale_terms(fhat_terms(m - 2, m - 4), -(m - 3)),
            ),
        ),
        (
            "ftilde-lowering",
            ftilde_terms(m, m - 2),
            add_terms(
                scale_terms(shift_s(ftilde_terms(m, m - 3), 1), Fraction(m - 2, m - 3)),
                scale_terms(ftilde_terms(m - 2, m - 4), m - 2),
            ),
        ),
        ("fhat0-ftilde1", fhat_terms(m, 0), scale_terms(ftilde_terms(m, 1), -sgn)),
        ("g0-g1", g_terms(m, 0), shift_s(g_terms(m, 1), -1)),
        ("cf-kernel scalar", cf.scalar_terms, scale_terms(mid.scalar_terms, -1)),
        ("cf-kernel bivector", cf.bivector_terms, scale_terms(mid.bivector_terms, -1)),
    ]
    return _identity_checks({"m": m}, plan)


# ---------------------------------------------------------------------------
# evaluation


class _Grouping:
    """The terms of one tuple grouped by Bessel order, in order of first
    appearance.  Per order: every (coefficient, power of s) pair in term
    order, and the pairs of even and of odd power.  Coefficients are
    floats when every one is real (every even m), complex otherwise."""

    __slots__ = ("real", "orders")

    def __init__(self, terms: Sequence[KernelTerm]):
        coeffs = [term.coeff_complex for term in terms]
        self.real = not any(c.imag for c in coeffs)
        by_order: dict[int, list[tuple[float | complex, int]]] = {}
        for term, c in zip(terms, coeffs):
            by_order.setdefault(term.twice_order, []).append((c.real if self.real else c, term.s_power))
        self.orders = [
            (
                two,
                group,
                [(c, a) for c, a in group if a % 2 == 0],
                [(c, a) for c, a in group if a % 2],
            )
            for two, group in by_order.items()
        ]


# groupings of the term tuples evaluated so far, by identity: a kernel's
# tuples live as long as its cached KernelExpr, and the entry holds the
# tuple, so its id is not reused while the entry stands
_GROUPINGS: dict[int, tuple[tuple[KernelTerm, ...], _Grouping]] = {}


def _grouping(terms: Sequence[KernelTerm]) -> _Grouping:
    hit = _GROUPINGS.get(id(terms))
    if hit is not None and hit[0] is terms:
        return hit[1]
    grouping = _Grouping(terms)
    if type(terms) is tuple:
        _GROUPINGS[id(terms)] = (terms, grouping)
    return grouping


def _poly(group, s):
    return sum(c * s**a if a else c for c, a in group)


def eval_terms(terms: Sequence[KernelTerm], s, t):
    """Evaluate sum of terms at s, t: two numbers (int or float, np.float64
    included) give a Python float or complex; arrays (broadcast together)
    give an array.

    The result is real when every coefficient is real (every even m) and
    complex otherwise.  Either way each order is one bessel_jtilde call."""
    grouping = _grouping(terms)
    if isinstance(s, (int, float)) and isinstance(t, (int, float)):
        total = 0.0 if grouping.real else 0j
    else:
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        total = np.zeros(s.shape, dtype=float if grouping.real else complex)
    for two, group, _, _ in grouping.orders:
        total += _poly(group, s) * bessel_jtilde(two, t)
    return total


def eval_terms_by_parity(terms: Sequence[KernelTerm], s, t) -> tuple[np.ndarray, np.ndarray]:
    """The parts E and O of the sum of terms P with P(+-s, t) = E +- O, as
    arrays over s and t broadcast together: E sums the terms of even
    power of s, O those of odd power.  Each order is one bessel_jtilde
    call, shared by both parts; real or complex as in eval_terms."""
    grouping = _grouping(terms)
    s_arr, t_arr = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    dtype = float if grouping.real else complex
    even, odd = np.zeros(s_arr.shape, dtype=dtype), np.zeros(s_arr.shape, dtype=dtype)
    for two, _, even_group, odd_group in grouping.orders:
        jt = bessel_jtilde(two, t_arr)
        for part, group in ((even, even_group), (odd, odd_group)):
            if group:
                part += _poly(group, s_arr) * jt
    return even, odd


def eval_kernel(kernel, x, y) -> ParaBivector:
    """Evaluate a kernel (expression or id) at a vector pair."""
    expr = build_kernel(kernel) if isinstance(kernel, KernelId) else kernel
    inv = invariants_of(x, y)
    scalar = complex(eval_terms(expr.scalar_terms, inv.s, inv.t))
    g = complex(eval_terms(expr.bivector_terms, inv.s, inv.t))
    return ParaBivector.from_geometry(expr.m, scalar, g, x, y)


# ---------------------------------------------------------------------------
# differential system residuals


# central-difference step of both residuals
_H = 1e-4


def _system_factor(m: int) -> complex:
    if m % 2 == 0:
        return -1.0 if (m // 2) % 2 else 1.0
    return -1j if ((m + 1) // 2) % 2 else 1j


def pde_residual(kernel_id: KernelId, x, y) -> float:
    """Relative residual of the first-order system linking K+ and K-.

    With a = (-1)^(m/2) for even m (times I for odd m, with conjugation
    absorbed in the minus kernel):

        d_y[K+](x, y) = a K-(x, y) x,      [K+](x, y) d_x = a y K-(x, y).

    Derivatives are central differences with step 1e-4, formed on blade
    maps: per generator e_j the two kernel values {0: scalar, **bivector}
    are subtracted and multiplied by e_j/(2h) with one blade_product, e_j
    on the left for d_y and on the right for d_x.  The right-hand sides
    and the norms are Multivector arithmetic.  The residual is scaled by
    the larger of 1 and the magnitudes of both sides.
    """
    plus = build_kernel(replace(kernel_id, sign="plus"))
    minus = build_kernel(replace(kernel_id, sign="minus"))
    m = kernel_id.m
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    a = _system_factor(m)

    def central(x_hi, y_hi, x_lo, y_lo) -> dict:
        """K+(x_hi, y_hi) - K+(x_lo, y_lo), blades in Multivector subtraction's order."""
        hi, lo = eval_kernel(plus, x_hi, y_hi), eval_kernel(plus, x_lo, y_lo)
        diff = {0: hi.scalar - lo.scalar, **hi.bivector}
        for mask, c in lo.bivector.items():
            diff[mask] = diff[mask] - c if mask in diff else -c
        return diff

    def add_into(total: dict, terms: dict) -> None:
        for mask, c in terms.items():
            if c:
                total[mask] = total[mask] + c if mask in total else c

    dy: dict = {}
    dx: dict = {}
    for j, step in enumerate(np.eye(m) * _H):
        ej = {1 << j: 0.5 / _H}  # e_j over the central difference's 2h
        add_into(dy, blade_product(ej, central(xv, yv + step, xv, yv - step)))
        add_into(dx, blade_product(central(xv + step, yv, xv - step, yv), ej))
    dy, dx = Multivector(m, dy), Multivector(m, dx)

    kminus = eval_kernel(minus, xv, yv).to_multivector()
    rhs1 = (kminus * Multivector.from_vector(m, xv)) * a
    rhs2 = (Multivector.from_vector(m, yv) * kminus) * a
    r1 = (dy - rhs1).norm() / max(1.0, dy.norm(), rhs1.norm())
    r2 = (dx - rhs2).norm() / max(1.0, dx.norm(), rhs2.norm())
    return worst(r1, r2)


def fg_system_residual(kernel_id: KernelId, s, t) -> float:
    """Relative residual of the scalar-profile form of the same system,
    the worst over arrays s and t (broadcast together).

    For profiles F (scalar) and G (bivector) of the plus kernel:

        d_s F + t d_t G + (m-1) G = rhs(F),
        d_s G - (1/t) d_t F       = rhs(G),

    where rhs(P) = a P(-s, t) for even m and I a conj(P(-s, t)) for odd m.
    Requires t > 1e-4, the central-difference step, so that differences
    in t stay in range.
    """
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    if not np.all(t > _H):
        raise ValueError(f"need t > {_H} for central differences, got min t={np.min(t)}")
    plus = build_kernel(replace(kernel_id, sign="plus"))
    m = kernel_id.m
    a = _system_factor(m)
    # rows: s + h, s - h, t + h, t - h, the point itself, and -s
    ss = np.stack([s + _H, s - _H, s, s, s, -s])
    tt = np.stack([t, t, t + _H, t - _H, t, t])
    F = eval_terms(plus.scalar_terms, ss, tt)
    G = eval_terms(plus.bivector_terms, ss, tt)

    def diff(P: np.ndarray, row: int) -> np.ndarray:
        return (P[row] - P[row + 1]) / (2 * _H)

    def rhs(P: np.ndarray) -> np.ndarray:
        return a * (np.conj(P[5]) if m % 2 else P[5])

    residuals = []
    for lhs, want in (
        (diff(F, 0) + t * diff(G, 2) + (m - 1) * G[4], rhs(F)),
        (diff(G, 0) - diff(F, 2) / t, rhs(G)),
    ):
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(want)))
        residuals.append(np.abs(lhs - want) / scale)
    return worst(*residuals)
