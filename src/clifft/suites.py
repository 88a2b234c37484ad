"""The verification suites of ``clifft verify`` and acceptance criteria 01-08,
each one function from a list of dimensions to the ``Check`` records that
certify one claim of the paper there.  ``SUITES`` holds each suite's default
and accepted dimensions; ``run`` refuses any other with ``ValueError``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .algebra import MAX_DIMENSION
from .basis import psi
from .checks import Check, worst
from .engine import (inversion_composition_residual, l2_bound_scan, verify_diff_relations,
                     verify_eigen, verify_inversion)
from .kernels import (KernelId, build_kernel, fg_system_residual, pde_residual, verify_recursion,
                      verify_structural_identities)
from .series import (check_cf_constraint, classical_coefficients, eval_series, series_coefficients,
                     truncation_bound)

__all__ = ["SUITES", "Suite", "run", "recursion", "structural", "series", "pde", "eigen",
           "inversion", "diff", "l2", "constraint"]


def recursion(ms: list[int]) -> list[Check]:
    return [c for m in ms for i in range(m - 1) for c in verify_recursion(m, i)]


def structural(ms: list[int]) -> list[Check]:
    return [c for m in ms for c in verify_structural_identities(m)]


def series(ms: list[int]) -> list[Check]:
    """The closed form against the series at 500 points z <= 9, to 1e-8."""
    checks = []
    signs = ("plus", "minus")
    for kid in (KernelId(m, i, sign) for m in ms for i in range(m - 1) for sign in signs):
        coeffs = series_coefficients(kid)
        rng = np.random.default_rng(97)
        z, w = rng.uniform(0.0, 9.0, 500), rng.uniform(-1.0, 1.0, 500)
        scalar, biv = build_kernel(kid).profiles(z * w, z * np.sqrt(1.0 - w * w))
        a_ser, b_ser = eval_series(coeffs, z, w, truncation_bound(coeffs, 9.0, 1e-9))
        delta = worst(np.abs(scalar - a_ser), np.abs(biv - b_ser))
        params = {"m": kid.m, "i": kid.i, "sign": kid.sign}
        checks.append(Check.within("series vs closed form", params, delta, 1e-8))
    return checks


def pde(ms: list[int]) -> list[Check]:
    """The first-order system through K+ and K- at 200 vector pairs, and in
    profile form at 50 (s, t) pairs of a generator of its own, so that the
    two rows do not depend on each other's samples; both to 1e-6."""
    checks = []
    for m in ms:
        for i in range(m - 1):
            kid, params = KernelId(m, i), {"m": m, "i": i}
            rng = np.random.default_rng(53 + 7 * m + i)
            residuals = [pde_residual(kid, rng.uniform(-1.6, 1.6, m), rng.uniform(-1.6, 1.6, m))
                         for _ in range(200)]
            fg_rng = np.random.default_rng((59, m, i))
            s, t = fg_rng.uniform(-2.5, 2.5, 50), fg_rng.uniform(0.1, 2.5, 50)
            checks += [
                Check.within("pde residual", params, worst(*residuals), 1e-6),
                Check.within("fg system residual", params, fg_system_residual(kid, s, t), 1e-6),
            ]
    return checks


def eigen(ms: list[int]) -> list[Check]:
    """Rayleigh quotient and whole transform against the closed-form
    eigenvalues: to 1e-6 on the grid route (m <= 4), 1e-8 on the radial one."""
    checks = []
    for m in ms:
        records = verify_eigen(m)
        tol = 1e-6 if m <= 4 else 1e-8
        checks += [
            Check.within("eigenvalue error", {"m": m}, worst(*(r.abs_error for r in records)), tol),
            Check.within("eigen residual", {"m": m}, worst(*(r.residual for r in records)), tol),
        ]
    return checks


def inversion(ms: list[int]) -> list[Check]:
    """Exact eigenvalue products of every kernel with its inverse, k <= 100,
    and the i = 0 transform composed with its inverse, to 1e-5."""
    checks = []
    for m in ms:
        rep = verify_inversion(m, k_max=100)
        failure = None if rep.first_failure is None else "i={} k={} {}".format(*rep.first_failure)
        residual = inversion_composition_residual(m, 0)
        checks += [
            Check("eigenvalue products are 1", {"m": m, "k_max": 100}, failure, None, rep.exact_ok),
            Check.within("composition residual", {"m": m}, residual, 1e-5),
        ]
    return checks


def diff(ms: list[int]) -> list[Check]:
    return [
        Check.within("diff relations", {"m": m, "i": i, "k": k},
                     verify_diff_relations(KernelId(m, i), psi(0, k, 1, m)), 1e-5)
        for m in ms for i in range(m - 1) for k in (0, 1)
    ]


def l2(ms: list[int]) -> list[Check]:
    checks = []
    for m, i in ((m, i) for m in ms for i in range(m - 1)):
        rep = l2_bound_scan(m, i, 200)
        params = {"m": m, "i": i}
        checks.append(Check("bounded iff 2i <= m-2", params, rep.first_exceed_k, None,
                            rep.bounded == (2 * i <= m - 2)))
        if m % 2 == 0 and 2 * i == m - 2:
            sup = rep.sup_magnitude
            checks.append(Check("unimodular at 2i = m-2", params, float(sup), None, sup == 1))
    return checks


def constraint(ms: list[int]) -> list[Check]:
    """The relation is stated for the minus streams, to which a plus
    kernel's streams convert exactly, so each (m, i) is one minus row.  The
    classical stream of odd m >= 3 satisfies it exactly when m = 1 mod 4;
    its rows follow the kernel rows."""
    checks = [check_cf_constraint(series_coefficients(KernelId(m, i, "minus")))
              for m in ms for i in range(m - 1)]
    for m in (m for m in ms if m >= 3 and m % 2):
        check = check_cf_constraint(classical_coefficients(m))
        checks.append(Check("classical stream satisfies iff m = 1 mod 4",
                            {"m": m, "stream": "classical"}, check.value, None,
                            check.passed == (m % 4 == 1)))
    return checks


class Suite(NamedTuple):
    checks: Callable[[list[int]], list[Check]]
    defaults: tuple[int, ...]
    m_min: int
    m_max: int | None
    even_only: bool


# The domains.  Every m >= 2 where nothing in the route bounds m; the
# recursion rows are exact at every m.  structural: even m >= 4, since the
# identities tie dimensions m - 4, m - 2 and m, and the Clifford-Fourier
# kernel is the index m/2 - 1 kernel only in even dimension.  pde: m up to
# MAX_DIMENSION, the largest Cl(0, m) that clifft.algebra multiplies in;
# both residuals stay below 2e-7 up to it.  inversion: even m, where the
# paper derives the inverse transform.  diff: m <= 3, for time only: the
# tensor grid makes a unit about eight times as slow at m = 4 as at m = 3,
# and has no default size beyond m = 4.
SUITES = {
    "recursion": Suite(recursion, (2, 3, 4, 5, 6, 7, 8, 9), 2, None, False),
    "structural": Suite(structural, (4, 6, 8), 4, None, True),
    "series": Suite(series, (2, 3, 4, 5), 2, None, False),
    "pde": Suite(pde, (2, 3, 4, 5, 6), 2, MAX_DIMENSION, False),
    "eigen": Suite(eigen, (2, 3, 5, 6, 7), 2, None, False),
    "inversion": Suite(inversion, (2, 4, 6, 8), 2, None, True),
    "diff": Suite(diff, (2, 3), 2, 3, False),
    "l2": Suite(l2, (2, 3, 4, 5, 6, 7, 8, 9), 2, None, False),
    "constraint": Suite(constraint, (2, 3, 4, 5, 6, 7, 8, 9), 2, None, False),
}


def run(name: str, ms: list[int]) -> list[Check]:
    """The checks of suite ``name`` at dimensions ``ms``; ValueError,
    before any work, when one of them is outside the suite's domain."""
    suite = SUITES[name]
    outside = [m for m in ms if m < suite.m_min or (suite.m_max is not None and m > suite.m_max)
               or (suite.even_only and m % 2)]
    if outside:
        parity = "even " if suite.even_only else ""
        bounds = f"{suite.m_min} <= m <= {suite.m_max}" if suite.m_max else f"m >= {suite.m_min}"
        raise ValueError(f"suite {name} accepts {parity}{bounds}, got m = {outside}")
    return suite.checks(list(ms))
