"""Acceptance gate: one test per published criterion, each printing a
single PASS/FAIL line with its runtime and its worst check.  Tolerances
and time caps are part of the criteria and are written here literally,
never read from the code under test, and never loosened.  Criteria 01-08
run the suites of ``clifft verify`` and re-gate their checks: a float check
passes only when its tolerance is the criterion's literal and its value is
below it, an exact check by its own verdict.  Each suite runs once per
session (``suite_run`` in conftest.py), shared with the golden outputs, and
its criterion gates the time of that one run."""

from __future__ import annotations

import time

import numpy as np
import pytest

from clifft.basis import PolynomialTable, harmonic_dimension, monogenic_basis, psi
from clifft.basis import dirac as dirac_op
from clifft.checks import Check, worst
from clifft.engine import closed_form_eigenvalue, default_scheme, hankel_laguerre_residual
from clifft.special import bessel_jtilde, gegenbauer_all


def _passes(check: Check, tol) -> bool:
    if check.tolerance is None:
        return check.passed
    literal = tol(check.params) if callable(tol) else tol
    return check.tolerance == literal and check.value < literal


def _timed(compute) -> tuple[list[Check], float]:
    """The checks of ``compute()`` and the seconds it took."""
    t0 = time.perf_counter()
    checks = compute()
    return checks, time.perf_counter() - t0


def _gate(num: int, name: str, timed: tuple[list[Check], float], cap: float, tol=None):
    """Print the criterion's PASS/FAIL line for ``timed``, its checks and the
    seconds that computing them took, with its worst check (the first
    failed one, else the float check nearest its tolerance); then assert
    that every check passed within the time cap.  ``tol`` is the
    criterion's literal tolerance, or a function of a check's params to
    it; None admits no float check."""
    checks, elapsed = timed
    failed = [c for c in checks if not _passes(c, tol)]
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


def test_gate_refuses_a_check_passed_at_a_looser_tolerance(capsys):
    loose = Check("pde residual", {"m": 2, "i": 0}, 5e-6, 1e-5, True)
    with pytest.raises(AssertionError, match="criterion 04 failed"):
        _gate(4, "pde system", ([loose], 0.0), 60.0, 1e-6)
    assert "): FAIL (" in capsys.readouterr().out


def test_criterion_01_recursion_exactness(suite_run):
    _gate(1, "recursion exactness", suite_run("recursion", range(2, 10)), 1.0)


def test_criterion_02_structural_identities(suite_run):
    _gate(2, "structural identities", suite_run("structural", (4, 6, 8)), 1.0)


def test_criterion_03_series_agreement(suite_run):
    # 500 sample pairs per kernel with |x|, |y| <= 3, i.e. z <= 9
    _gate(3, "series agreement", suite_run("series", range(2, 7)), 30.0, 1e-8)


def test_criterion_04_pde_system(suite_run):
    # 200 vector pairs per kernel, and the same system in profile form
    _gate(4, "pde system", suite_run("pde", range(2, 7)), 60.0, 1e-6)


def test_criterion_05_eigenvalues(suite_run):
    def spots():
        # closed-form spot values, both radial parities p = 0, 1
        out = []
        for p in (0, 1):
            sgn = (-1) ** p
            for m, k, want in ((4, 2, sgn * (1 / 3)), (2, 0, -sgn), (3, 0, sgn * 1j)):
                got = closed_form_eigenvalue(m, 0, k, "2p", p)
                out.append(Check("closed-form spot", {"m": m, "k": k, "p": p}, got, None, got == want))
        return out

    # grid route at m <= 4, radial route above: the Rayleigh quotient,
    # and the whole transform against lambda psi, blades psi lacks included
    eigen, eigen_s = suite_run("eigen", range(2, 10))
    spot, spot_s = _timed(spots)
    _gate(5, "eigenvalues", (eigen + spot, eigen_s + spot_s), 300.0,
          lambda params: 1e-6 if params["m"] <= 4 else 1e-8)


def test_criterion_06_inversion(suite_run):
    # exact eigenvalue products, and the composition of the transforms
    _gate(6, "inversion", suite_run("inversion", (2, 4, 6, 8)), 120.0, 1e-5)


def test_criterion_07_l2_pattern(suite_run):
    # bounded is first_exceed_k is None, so the pattern check also catches
    # an unbounded kernel without a counterexample k
    _gate(7, "boundedness pattern", suite_run("l2", range(2, 10)), 1.0)


def test_criterion_08_constraint(suite_run):
    # the minus streams, to which the plus streams convert exactly, k <= 50,
    # and the classical stream of odd m
    _gate(8, "series constraint", suite_run("constraint", range(2, 10)), 1.0, 1e-10)


def _special_function_checks() -> list[Check]:
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
    return checks


def test_criterion_09_special_function_suite():
    _gate(9, "special function suite", _timed(_special_function_checks), 5.0, 1e-10)


def _monogenic_basis_checks() -> list[Check]:
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
    return checks


def test_criterion_10_monogenic_basis():
    _gate(10, "monogenic basis", _timed(_monogenic_basis_checks), 60.0, 1e-8)
