"""Symbolic kernels of the Clifford-Fourier transform family.

Every kernel here is a parabivector function of two vector variables,

    K(x, y) = A(s, t) + (x wedge y) B(s, t),

where s = <x, y> and t = |x wedge y|.  The profiles A and B are finite
sums of terms  c * s^a * jtilde_alpha(t)  with exact coefficients c (see
:mod:`clifft.exact`), integer powers a >= 0 and half-integer or integer
Bessel orders alpha.  Working at this symbolic level makes the recursion
and structural identities checkable exactly, coefficient by coefficient.

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

from .algebra import Multivector, ParaBivector, invariants_of
from .checks import Check, worst
from .exact import Exact, exact_from_float
from .special import BesselOrder, bessel_jtilde

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
    "eval_kernel",
    "pde_residual",
    "fg_system_residual",
    "kernel_to_json",
    "kernel_from_json",
]


@dataclass(frozen=True)
class KernelTerm:
    """One summand  coeff * s^s_power * jtilde_order(t)."""

    coeff: Exact
    s_power: int
    order: BesselOrder

    def __post_init__(self):
        if self.s_power < 0:
            raise ValueError(f"negative power of s in a kernel term: {self.s_power}")
        if self.order.twice_order < -1:
            raise ValueError(f"unsupported Bessel order {self.order}")

    @cached_property
    def coeff_complex(self) -> complex:
        """complex(coeff), converted on first use and kept."""
        return complex(self.coeff)


def _canonical(terms: Iterable[KernelTerm]) -> tuple[KernelTerm, ...]:
    merged: dict[tuple[int, int], Exact] = {}
    for term in terms:
        key = (term.s_power, term.order.twice_order)
        if key in merged:
            merged[key] = merged[key] + term.coeff
        else:
            merged[key] = term.coeff
    out = [
        KernelTerm(c, p, BesselOrder(two))
        for (p, two), c in merged.items()
        if not c.is_zero
    ]
    out.sort(key=lambda t: (t.s_power, t.order.twice_order))
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

    def evaluate(self, x, y) -> ParaBivector:
        return eval_kernel(self, x, y)


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
        terms.append(KernelTerm(coeff, i - 1 - 2 * ell, BesselOrder(m - 2 * ell - 3)))
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
        terms.append(KernelTerm(coeff, i - 2 * ell, BesselOrder(m - 2 * ell - 3)))
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
        terms.append(KernelTerm(coeff, i - 2 * ell, BesselOrder(m - 2 * ell - 1)))
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
        scalar.append(KernelTerm(coeff, half - 2 - 2 * ell, BesselOrder(m - 2 * ell - 3)))
    for ell in range((m - 2) // 4 + 1):
        ratio = Fraction(factorial(half - 1), factorial(half - 2 * ell - 1))
        coeff = Exact(ratio * _inv_pow2_fact(ell), 0, 1)
        scalar.append(KernelTerm(coeff, half - 1 - 2 * ell, BesselOrder(m - 2 * ell - 3)))
        bivector.append(KernelTerm(-coeff, half - 1 - 2 * ell, BesselOrder(m - 2 * ell - 1)))
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
            out.append(KernelTerm(term.coeff.conjugate() * sign, term.s_power, term.order))
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
    return _canonical(KernelTerm(t.coeff * factor, t.s_power, t.order) for t in terms)


def shift_s(terms: Sequence[KernelTerm], delta: int) -> tuple[KernelTerm, ...]:
    """Multiply by s^delta.  Negative delta requires every power to cover it."""
    for t in terms:
        if t.s_power + delta < 0:
            raise ValueError(
                f"cannot multiply by s^{delta}: a term has s power {t.s_power}"
            )
    return _canonical(KernelTerm(t.coeff, t.s_power + delta, t.order) for t in terms)


def apply_zinv_dw(terms: Sequence[KernelTerm]) -> tuple[KernelTerm, ...]:
    """Apply z^(-1) d/dw termwise.

    In the variables s = z w and t = z sqrt(1 - w^2) one has
    z^(-1) d/dw [s^a jtilde_alpha] = a s^(a-1) jtilde_alpha
                                     + s^(a+1) jtilde_(alpha+1).
    """
    out: list[KernelTerm] = []
    for t in terms:
        if t.s_power >= 1:
            out.append(KernelTerm(t.coeff * t.s_power, t.s_power - 1, t.order))
        out.append(KernelTerm(t.coeff, t.s_power + 1, t.order.shifted(1)))
    return _canonical(out)


def terms_equal(
    got: Sequence[KernelTerm], want: Sequence[KernelTerm]
) -> tuple[int, int, Exact, Exact] | None:
    """None when equal; otherwise the first mismatching (s_power,
    twice_order, got_coeff, want_coeff)."""
    a = {(t.s_power, t.order.twice_order): t.coeff for t in _canonical(got)}
    b = {(t.s_power, t.order.twice_order): t.coeff for t in _canonical(want)}
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
    """Five exact identities tying neighbouring kernels together (even m >= 4),
    one Check each:

    1. g[m-2] = s g[m-3] + (m-3) g'[m-4]          (g' in dimension m-2)
    2. fhat[m-2] = -s fhat[m-3] - (m-3) fhat'[m-4]
    3. ftilde[m-2] = (m-2)/(m-3) s ftilde[m-3] + (m-2) ftilde'[m-4]
    4. fhat[0] = -(-1)^(m/2) ftilde[1]
    5. g[0] = s^(-1) g[1]
    """
    if m % 2 or m < 4:
        raise ValueError(f"structural identities need even m >= 4, got {m}")
    sgn = -1 if (m // 2) % 2 else 1
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
    ]
    return _identity_checks({"m": m}, plan)


# ---------------------------------------------------------------------------
# evaluation


def eval_terms(terms: Sequence[KernelTerm], s, t) -> np.ndarray:
    """Evaluate sum of terms at arrays s, t (broadcast together).

    The result is real when every coefficient is real (every even m) and
    complex otherwise."""
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    s_arr, t_arr = np.broadcast_arrays(s_arr, t_arr)
    coeffs = [term.coeff_complex for term in terms]
    real = not any(c.imag for c in coeffs)
    total = np.zeros(s_arr.shape, dtype=float if real else complex)
    by_order: dict[int, list[tuple[float | complex, int]]] = {}
    for term, c in zip(terms, coeffs):
        by_order.setdefault(term.order.twice_order, []).append((c.real if real else c, term.s_power))
    for two, group in by_order.items():
        poly = sum(c * s_arr**s_power if s_power else c for c, s_power in group)
        total += poly * bessel_jtilde(BesselOrder(two), t_arr)
    return total


def eval_kernel(kernel, x, y) -> ParaBivector:
    """Evaluate a kernel (expression or id) at a vector pair."""
    expr = build_kernel(kernel) if isinstance(kernel, KernelId) else kernel
    inv = invariants_of(x, y)
    scalar = complex(eval_terms(expr.scalar_terms, inv.s, inv.t))
    g = complex(eval_terms(expr.bivector_terms, inv.s, inv.t))
    return ParaBivector.from_geometry(expr.m, scalar, g, x, y)


# ---------------------------------------------------------------------------
# differential system residuals


def _system_factor(m: int) -> complex:
    if m % 2 == 0:
        return -1.0 if (m // 2) % 2 else 1.0
    return -1j if ((m + 1) // 2) % 2 else 1j


def pde_residual(kernel_id: KernelId, x, y, h: float = 1e-4) -> float:
    """Relative residual of the first-order system linking K+ and K-.

    With a = (-1)^(m/2) for even m (times I for odd m, with conjugation
    absorbed in the minus kernel):

        d_y[K+](x, y) = a K-(x, y) x,      [K+](x, y) d_x = a y K-(x, y).

    Derivatives are central differences with step h; the residual is
    scaled by the larger of 1 and the magnitudes of both sides.
    """
    plus = build_kernel(replace(kernel_id, sign="plus"))
    minus = build_kernel(replace(kernel_id, sign="minus"))
    m = kernel_id.m
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    a = _system_factor(m)

    def K(expr: KernelExpr, xx, yy) -> Multivector:
        return eval_kernel(expr, xx, yy).to_multivector()

    kminus = K(minus, xv, yv)
    x_mv = Multivector.from_vector(m, xv)
    y_mv = Multivector.from_vector(m, yv)

    dy = Multivector(m)
    dx = Multivector(m)
    for j in range(m):
        step = np.zeros(m)
        step[j] = h
        ej = Multivector.basis_blade(m, j + 1)
        dy = dy + ej * ((K(plus, xv, yv + step) - K(plus, xv, yv - step)) * (0.5 / h))
        dx = dx + ((K(plus, xv + step, yv) - K(plus, xv - step, yv)) * (0.5 / h)) * ej

    rhs1 = (kminus * x_mv) * a
    rhs2 = (y_mv * kminus) * a
    r1 = (dy - rhs1).norm() / max(1.0, dy.norm(), rhs1.norm())
    r2 = (dx - rhs2).norm() / max(1.0, dx.norm(), rhs2.norm())
    return worst(r1, r2)


def fg_system_residual(kernel_id: KernelId, s: float, t: float, h: float = 1e-4) -> float:
    """Relative residual of the scalar-profile form of the same system.

    For profiles F (scalar) and G (bivector) of the plus kernel:

        d_s F + t d_t G + (m-1) G = rhs(F),
        d_s G - (1/t) d_t F       = rhs(G),

    where rhs(P) = a P(-s, t) for even m and I a conj(P(-s, t)) for odd m.
    Requires t > h so central differences in t stay in range.
    """
    if t <= h:
        raise ValueError(f"need t > h for central differences, got t={t}, h={h}")
    plus = build_kernel(replace(kernel_id, sign="plus"))
    m = kernel_id.m
    a = _system_factor(m)

    def F(ss, tt):
        return complex(eval_terms(plus.scalar_terms, ss, tt))

    def G(ss, tt):
        return complex(eval_terms(plus.bivector_terms, ss, tt))

    dsF = (F(s + h, t) - F(s - h, t)) / (2 * h)
    dtF = (F(s, t + h) - F(s, t - h)) / (2 * h)
    dsG = (G(s + h, t) - G(s - h, t)) / (2 * h)
    dtG = (G(s, t + h) - G(s, t - h)) / (2 * h)

    if m % 2 == 0:
        rhsF = a * F(-s, t)
        rhsG = a * G(-s, t)
    else:
        rhsF = a * F(-s, t).conjugate()
        rhsG = a * G(-s, t).conjugate()

    lhs1 = dsF + t * dtG + (m - 1) * G(s, t)
    lhs2 = dsG - dtF / t
    r1 = abs(lhs1 - rhsF) / max(1.0, abs(lhs1), abs(rhsF))
    r2 = abs(lhs2 - rhsG) / max(1.0, abs(lhs2), abs(rhsG))
    return worst(r1, r2)


# ---------------------------------------------------------------------------
# serialization


def _term_to_json(term: KernelTerm) -> dict:
    if term.coeff.upow not in (0, 1):
        raise ValueError(f"kernel terms carry u^0 or u^1 only, got u^{term.coeff.upow}")
    return {
        "coeff_re": float(term.coeff.re),
        "coeff_im": float(term.coeff.im),
        "sqrt_pi_over_2": term.coeff.upow == 1,
        "s_power": term.s_power,
        "twice_order": term.order.twice_order,
    }


def _term_from_json(payload: dict) -> KernelTerm:
    coeff = exact_from_float(
        payload["coeff_re"], payload.get("coeff_im", 0.0), payload.get("sqrt_pi_over_2", False)
    )
    return KernelTerm(coeff, payload["s_power"], BesselOrder(payload["twice_order"]))


def kernel_to_json(expr: KernelExpr, kernel_id: KernelId | None = None) -> dict:
    out: dict = {"m": expr.m}
    if kernel_id is not None:
        out["i"] = kernel_id.i
        out["sign"] = "+" if kernel_id.sign == "plus" else "-"
        if kernel_id.e_i != 1.0:
            out["e_i"] = [kernel_id.e_i.real, kernel_id.e_i.imag]
    out["scalar"] = [_term_to_json(t) for t in expr.scalar_terms]
    out["bivector"] = [_term_to_json(t) for t in expr.bivector_terms]
    return out


def kernel_from_json(payload: dict) -> tuple[KernelExpr, KernelId | None]:
    expr = KernelExpr(
        payload["m"],
        tuple(_term_from_json(t) for t in payload["scalar"]),
        tuple(_term_from_json(t) for t in payload["bivector"]),
    )
    kid = None
    if "i" in payload and "sign" in payload:
        re, im = payload.get("e_i", (1.0, 0.0))
        kid = KernelId(
            payload["m"],
            payload["i"],
            "plus" if payload["sign"] == "+" else "minus",
            e_i=complex(re, im),
        )
    return expr, kid
