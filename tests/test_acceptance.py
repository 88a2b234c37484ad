"""Acceptance gate: one test per published criterion, each printing a
single PASS/FAIL line with its runtime and its worst check.  Tolerances
and time caps are part of the criteria and are written here literally,
never read from the code under test, and never loosened."""

from __future__ import annotations

import time

import numpy as np

from clifft.basis import PolynomialTable, harmonic_dimension, monogenic_basis, psi
from clifft.basis import dirac as dirac_op
from clifft.checks import Check, worst
from clifft.engine import (
    closed_form_eigenvalue,
    default_scheme,
    hankel_laguerre_residual,
    inversion_composition_residual,
    l2_bound_scan,
    verify_eigen,
    verify_inversion,
)
from clifft.kernels import (
    KernelId,
    build_kernel,
    pde_residual,
    verify_recursion,
    verify_structural_identities,
)
from clifft.series import (
    check_cf_constraint,
    eval_series,
    series_coefficients,
    truncation_bound,
)
from clifft.special import bessel_jtilde, gegenbauer_all


def _gate(num: int, name: str, checks: list[Check], t0: float, cap: float):
    """Print the criterion's PASS/FAIL line with its worst check (the
    first failed one, else the float check nearest its tolerance), then
    assert that every check passed within the time cap."""
    elapsed = time.time() - t0
    failed = [c for c in checks if not c.passed]
    floats = [c for c in checks if c.tolerance is not None]
    shown = failed or sorted(floats, key=lambda c: c.margin_digits)
    ok = bool(checks) and not failed
    status = "PASS" if ok and elapsed < cap else "FAIL"
    detail = f"{len(checks)} exact checks" if checks else "no checks"
    if shown:
        c = shown[0]
        value = f"{c.value!r}" if c.tolerance is None else (
            f"{c.value:.2e} vs tol {c.tolerance:.0e}, margin {c.margin_digits:.2f} digits"
        )
        detail = f"{len(checks)} checks, worst {c.name} {c.params}: {value}"
    print(f"criterion {num:02d} ({name}): {status} ({elapsed:.2f}s / cap {cap:.0f}s) [{detail}]")
    assert ok, f"criterion {num:02d} failed: {detail}"
    assert elapsed < cap, f"criterion {num:02d} over time budget: {elapsed:.2f}s >= {cap}s"


def test_criterion_01_recursion_exactness():
    t0 = time.time()
    checks = [
        c for m in (2, 4, 6, 8, 3, 5, 7, 9) for i in range(m - 1) for c in verify_recursion(m, i)
    ]
    _gate(1, "recursion exactness", checks, t0, 1.0)


def test_criterion_02_structural_identities():
    t0 = time.time()
    checks = [c for m in (4, 6, 8) for c in verify_structural_identities(m)]
    _gate(2, "structural identities", checks, t0, 1.0)


def test_criterion_03_series_agreement():
    t0 = time.time()
    rng = np.random.default_rng(77)
    checks = []
    for m in range(2, 7):
        for i in range(m - 1):
            for sign in ("plus", "minus"):
                kid = KernelId(m, i, sign)
                expr = build_kernel(kid)
                coeffs = series_coefficients(kid)
                # 500 sample pairs with |x|, |y| <= 3, i.e. z <= 9
                z = rng.uniform(0.0, 9.0, 500)
                w = rng.uniform(-1.0, 1.0, 500)
                n = truncation_bound(coeffs, 9.0, 1e-9)
                a_ser, b_ser = eval_series(coeffs, z, w, n)
                scalar, biv = expr.profiles(z * w, z * np.sqrt(1.0 - w * w))
                delta = worst(np.abs(scalar - a_ser), np.abs(biv - b_ser))
                checks.append(Check.within("series delta", {"m": m, "i": i, "sign": sign}, delta, 1e-8))
    _gate(3, "series agreement", checks, t0, 30.0)


def test_criterion_04_pde_system():
    t0 = time.time()
    checks = []
    for m in range(2, 7):
        for i in range(m - 1):
            kid = KernelId(m, i)
            rng = np.random.default_rng(5 * m + i)
            residuals = []
            for _ in range(200):
                x = rng.uniform(-1.6, 1.6, m)
                y = rng.uniform(-1.6, 1.6, m)
                residuals.append(pde_residual(kid, x, y))
            checks.append(Check.within("pde residual", {"m": m, "i": i}, worst(*residuals), 1e-6))
    _gate(4, "pde system", checks, t0, 60.0)


def test_criterion_05_eigenvalues():
    t0 = time.time()
    checks = []
    for m in (2, 3, 4, 5, 6, 7, 8, 9):
        route, tol = ("grid", 1e-6) if m <= 4 else ("radial", 1e-8)
        records = verify_eigen(m)
        errors = [r.abs_error for r in records]
        checks.append(Check.within(f"{route} eigenvalues", {"m": m}, worst(*errors), tol))
        # the whole transform against lambda psi, blades psi lacks included
        residuals = [r.residual for r in records]
        checks.append(Check.within(f"{route} eigen residual", {"m": m}, worst(*residuals), tol))
    # closed-form spot values, both radial parities p = 0, 1
    for p in (0, 1):
        sgn = (-1) ** p
        for m, k, want in ((4, 2, sgn * (1 / 3)), (2, 0, -sgn), (3, 0, sgn * 1j)):
            got = closed_form_eigenvalue(m, 0, k, "2p", p)
            checks.append(Check("closed-form spot", {"m": m, "k": k, "p": p}, got, None, got == want))
    _gate(5, "eigenvalues", checks, t0, 300.0)


def test_criterion_06_inversion():
    t0 = time.time()
    checks = []
    for m in (2, 4, 6, 8):
        rep = verify_inversion(m, k_max=100)
        checks.append(Check("exact inversion", {"m": m}, rep.first_failure, None, rep.exact_ok))
    for m in (2, 4):
        residual = inversion_composition_residual(m, 0)
        checks.append(Check.within("composition residual", {"m": m}, residual, 1e-5))
    _gate(6, "inversion", checks, t0, 120.0)


def test_criterion_07_l2_pattern():
    # bounded is first_exceed_k is None, so the pattern check also catches
    # an unbounded kernel without a counterexample k
    t0 = time.time()
    checks = []
    for m in range(2, 10):
        for i in range(m - 1):
            rep = l2_bound_scan(m, i, 200)
            expect = 2 * i <= m - 2
            params = {"m": m, "i": i}
            checks.append(Check("pattern", params, rep.first_exceed_k, None, rep.bounded == expect))
            if m % 2 == 0 and 2 * i == m - 2:
                sup = rep.sup_magnitude
                checks.append(Check("unimodular", params, sup, None, sup == 1))
    _gate(7, "boundedness pattern", checks, t0, 1.0)


def test_criterion_08_constraint():
    t0 = time.time()
    checks = [
        check_cf_constraint(series_coefficients(KernelId(m, i, sign)), k_max=50, tol=1e-10)
        for m in range(2, 10)
        for i in range(m - 1)
        for sign in ("plus", "minus")
    ]
    _gate(8, "series constraint", checks, t0, 1.0)


def test_criterion_09_special_function_suite():
    t0 = time.time()
    w = np.linspace(-0.95, 0.95, 31)
    checks = []
    for lam in (0.5, 1.0, 2.0, 3.5):
        c0 = gegenbauer_all(12, lam, w)
        c1 = gegenbauer_all(12, lam + 1.0, w)
        raising, three_term = [], []
        for n in range(2, 12):
            raising.append(np.abs(((lam + n) / lam) * c0[n] - c1[n] + c1[n - 2]))
            three_term.append(np.abs(
                w * c1[n - 1]
                - (n / (2 * (n + lam))) * c1[n]
                - ((n + 2 * lam) / (2 * (n + lam))) * c1[n - 2]
            ))
        checks.append(Check.within("gegenbauer raising", {"lam": lam}, worst(*raising), 1e-10))
        checks.append(Check.within("gegenbauer recurrence", {"lam": lam}, worst(*three_term), 1e-10))
    z = np.linspace(0.1, 20.0, 40)
    for two in (1, 2, 3, 5, 8):
        # J_(nu-1) + J_(nu+1) = (2 nu / z) J_nu in the normalised form
        # z^2 J~_(nu+1) + J~_(nu-1) = 2 nu J~_nu
        res = (
            z * z * bessel_jtilde(two + 2, z)
            + bessel_jtilde(two - 2, z)
            - 2 * (two / 2) * bessel_jtilde(two, z)
        )
        checks.append(Check.within("bessel recurrence", {"twice_order": two}, worst(np.abs(res)), 1e-10))
    for m in (2, 3, 4, 5, 6):
        hl = worst(*(
            hankel_laguerre_residual(m, k, j, [0.4, 1.1, 2.0, 3.1])
            for k in (0, 1, 2)
            for j in (0, 1, 3)
        ))
        checks.append(Check.within("hankel-laguerre", {"m": m}, hl, 1e-10))
    _gate(9, "special function suite", checks, t0, 5.0)


def test_criterion_10_monogenic_basis():
    t0 = time.time()
    checks = []
    for m in range(2, 7):
        for k in range(0, 5):
            nonzero = sum(not dirac_op(mono.poly).is_zero() for mono in monogenic_basis(m, k))
            checks.append(Check("dirac annihilates", {"m": m, "k": k}, nonzero, None, nonzero == 0))
    for m in (2, 3, 4):
        scheme = default_scheme(m)
        fs = [
            psi(j, k, ell, m)
            for j in (0, 1, 2)
            for k in (0, 1, 2)
            for ell in range(1, min(2, harmonic_dimension(m, k)) + 1)
        ]
        n = len(fs)
        gram = np.zeros((n, n))
        table = PolynomialTable(m, [f.poly for f in fs])
        # the bilinear sum over blades, no conjugate: one real matrix
        # product per blade over the rows of the functions that have it
        by_blade: dict[int, list[int]] = {}
        for r, (_, blade) in enumerate(table.rows):
            by_blade.setdefault(blade, []).append(r)
        for pts, wts in scheme.chunks():
            cols = np.ascontiguousarray(pts.T)
            # every function's values at the chunk from one shared evaluation
            vals = table.evaluate(cols, np.exp(-0.5 * np.sum(cols * cols, axis=0)))
            for rows in by_blade.values():
                idx = [table.rows[r][0] for r in rows]
                gram[np.ix_(idx, idx)] += (vals[rows] * wts) @ vals[rows].T
        cross = worst(*(
            abs(gram[a, b]) / np.sqrt(abs(gram[a, a]) * abs(gram[b, b]))
            for a in range(n)
            for b in range(a)
        ))
        checks.append(Check.within("gram cross term", {"m": m}, cross, 1e-8))
    _gate(10, "monogenic basis", checks, t0, 60.0)
