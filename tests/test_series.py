from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from clifft.algebra import ParaBivector, invariants_of
from clifft.exact import Exact, I_UNIT, ONE, U
from clifft.kernels import KernelId, build_kernel, eval_kernel
from clifft.series import (
    SeriesCoefficients,
    _gegenbauer_over_lambda,
    bridge_prefactor,
    check_cf_constraint,
    classical_coefficients,
    coefficient_rows,
    eigenvalues_from_coefficients,
    eval_series,
    gamma2pow,
    inverse_coefficients,
    series_coefficients,
    series_minus_counterpart,
    transform_normalization,
    truncation_bound,
)
from clifft.special import chebyshev_t_all, gegenbauer_all


def test_gamma2pow_even_and_odd():
    # even: 2^(m/2-a) (m/2-b-1)!; odd dimensions pick up u = sqrt(pi/2)
    assert gamma2pow(4, 1, 1) == Exact(2)
    assert gamma2pow(6, 2, 1) == Exact(2)
    assert gamma2pow(5, 1, 0) == Exact(3, 0, 1)  # 2^(3/2) Gamma(5/2) = 3u
    assert gamma2pow(3, 1, 1) == Exact(2, 0, 1)  # 2^(1/2) Gamma(1/2) = 2u


def test_normalization_and_prefactor():
    assert float(transform_normalization(2)) == pytest.approx(1.0 / (2 * math.pi))
    assert float(transform_normalization(4)) == pytest.approx((2 * math.pi) ** -2)
    assert bridge_prefactor(2) == ONE
    assert bridge_prefactor(4) == Exact(Fraction(1, 2))
    assert float(bridge_prefactor(3)) == pytest.approx(
        2 ** (1 - 1.5) / math.gamma(1.5)
    )


def test_coefficient_spot_values_dim4_index0():
    c = series_coefficients(KernelId(4, 0))
    assert all(c.alpha_exact(2 * j) == Exact(2) for j in range(6))
    assert all(c.alpha_exact(2 * j + 1).is_zero for j in range(6))
    # beta_{2j+1} = 8 (j+1) (2j-1)!! / (2j+3)!!
    assert c.beta_exact(1) == Exact(Fraction(8, 3))
    assert c.beta_exact(3) == Exact(Fraction(16, 15))
    assert c.beta_exact(2).is_zero and c.beta_exact(0).is_zero


def test_coefficient_spot_values_dim4_index1():
    c = series_coefficients(KernelId(4, 1))
    assert c.alpha_exact(0) == Exact(-2)
    assert c.alpha_exact(1) == Exact(-4)
    assert c.beta_exact(2) == Exact(4)
    assert c.beta_exact(1).is_zero


def test_plane_limit_streams():
    # the m = 2 streams in closed form: alpha_0 = -1, a_k = lambda*alpha_k
    # = -k at even k and 0 at odd k, beta_k = +-2 at odd k and 0 at even k
    for sign, b in (("plus", 2), ("minus", -2)):
        c = series_coefficients(KernelId(2, 0, sign))
        assert c.alpha_exact(0) == Exact(-1)
        with pytest.raises(ValueError):
            c.alpha_exact(1)  # alpha_k diverges at lambda = 0
        for k in range(1, 61):
            assert c.lambda_exact(k) == (Exact(-k) if k % 2 == 0 else Exact(0))
        for k in range(61):
            assert c.beta_exact(k) == (Exact(b) if k % 2 else Exact(0))


def test_minus_counterpart_alternating_conjugate():
    c = series_coefficients(KernelId(5, 1))
    mc = series_minus_counterpart(c)
    for k in range(8):
        want = c.alpha_exact(k).conjugate()
        if k % 2:
            want = -want
        assert mc.alpha_exact(k) == want
    assert mc.provenance.sign == "minus"
    # the lambda-scaled stream the algorithms read is lambda * alpha_k
    # for both signs in every dimension where alpha_k is finite
    for m in range(3, 9):
        for kid in (KernelId(m, m - 2), KernelId(m, 1, "minus")):
            s = series_coefficients(kid)
            for k in range(1, 9):
                assert s.lambda_exact(k) == s.alpha_exact(k) * s.lam_fraction


def test_eigenvalue_spot_values():
    ev = eigenvalues_from_coefficients(series_coefficients(KernelId(4, 0)), 2)
    assert ev.even_exact == Exact(Fraction(1, 3))
    ev = eigenvalues_from_coefficients(series_coefficients(KernelId(2, 0)), 0)
    assert ev.even_exact == Exact(-1)
    ev = eigenvalues_from_coefficients(series_coefficients(KernelId(3, 0)), 0)
    assert ev.even_exact == I_UNIT
    assert ev.even_branch == pytest.approx(1j)


def test_inverse_products_are_exactly_one():
    for kid in (KernelId(2, 0), KernelId(4, 1), KernelId(5, 2), KernelId(6, 3)):
        c = series_coefficients(kid)
        inv = inverse_coefficients(c)
        for k in range(0, 40):
            ev = eigenvalues_from_coefficients(c, k)
            evi = eigenvalues_from_coefficients(inv, k)
            assert ev.even_exact * evi.even_exact == ONE
            assert ev.odd_exact * evi.odd_exact == ONE


def test_inverse_rejects_vanishing_eigenvalue():
    dead = SeriesCoefficients(4, lambda k: Exact(0), lambda k: Exact(0))
    inv = inverse_coefficients(dead)  # streams are lazy; access raises
    with pytest.raises(ValueError):
        inv.alpha_exact(0)


def test_constraint_exact_zero_for_built_kernels():
    for kid in (
        KernelId(2, 0), KernelId(2, 0, "minus"),
        KernelId(4, 1), KernelId(4, 1, "minus"),
        KernelId(5, 2), KernelId(7, 3),
    ):
        check = check_cf_constraint(series_coefficients(kid), k_max=30)
        assert check.passed and check.value == 0.0


def test_constraint_classical_streams():
    # the scalar classical kernel satisfies the parabivector constraint
    # only in dimensions 1 mod 4
    assert check_cf_constraint(classical_coefficients(5)).passed
    assert check_cf_constraint(classical_coefficients(9)).passed
    assert not check_cf_constraint(classical_coefficients(4)).passed
    assert not check_cf_constraint(classical_coefficients(6)).passed


def test_constraint_detects_perturbed_stream():
    base = series_coefficients(KernelId(4, 0))

    def beta_fn(k: int) -> Exact:
        val = base.beta_exact(k)
        if k == 3:
            return val + Exact(Fraction(1, 10**6))
        return val

    def a_fn(k: int) -> Exact:
        return base.lambda_exact(k) if k else base.alpha_exact(0)

    tweaked = SeriesCoefficients(4, a_fn, beta_fn, provenance=base.provenance)
    check = check_cf_constraint(tweaked, k_max=10)
    assert not check.passed
    assert check.params["worst_k"] in (2, 3)


def test_gegenbauer_over_lambda_against_references():
    w = np.linspace(-1.0, 1.0, 41)
    for lam in (0.5, 1.5, 3.0):
        got = _gegenbauer_over_lambda(12, lam, w)
        want = gegenbauer_all(12, lam, w) / lam
        assert np.all(np.isnan(got[0]))
        assert np.allclose(got[1:], want[1:], rtol=1e-13, atol=1e-13)
    got = _gegenbauer_over_lambda(12, 0.0, w)
    k = np.arange(1, 13)[:, None]
    assert np.allclose(got[1:], (2.0 / k) * chebyshev_t_all(12, w)[1:], rtol=1e-13, atol=1e-14)
    assert _gegenbauer_over_lambda(0, 0.0, w).shape == (1, 41)


def test_series_matches_kernel_profiles():
    rng = np.random.default_rng(19)
    for kid in (KernelId(3, 1), KernelId(4, 2), KernelId(6, 0, "minus")):
        expr = build_kernel(kid)
        coeffs = series_coefficients(kid)
        z = rng.uniform(0.1, 8.0, 25)
        w = rng.uniform(-1.0, 1.0, 25)
        n = truncation_bound(coeffs, 8.0, 1e-11)
        a_ser, b_ser = eval_series(coeffs, z, w, n)
        scalar, biv = expr.profiles(z * w, z * np.sqrt(1 - w * w))
        assert np.max(np.abs(scalar - a_ser)) < 1e-9
        assert np.max(np.abs(biv - b_ser)) < 1e-9


def test_plane_series_reproduces_closed_form():
    coeffs = series_coefficients(KernelId(2, 0))
    z = np.linspace(0.0, 8.0, 30)
    w = np.linspace(-1.0, 1.0, 30)
    a, b = eval_series(coeffs, z, w, truncation_bound(coeffs, 8.0, 1e-12))
    t = z * np.sqrt(1.0 - w * w)
    sinc = np.where(t > 0, np.sin(np.maximum(t, 1e-300)) / np.maximum(t, 1e-300), 1.0)
    assert np.max(np.abs(a - (-np.cos(t)))) < 1e-10
    assert np.max(np.abs(b - sinc)) < 1e-10


def test_series_kernel_value_assembles_parabivector():
    # the series profiles at (z, w) assemble the closed-form kernel value
    kid = KernelId(4, 1)
    x = np.array([0.5, -0.2, 0.8, 0.1])
    y = np.array([-0.3, 0.9, 0.4, -0.6])
    inv = invariants_of(x, y)
    a, b = eval_series(series_coefficients(kid), inv.z, inv.w, 40)
    got = ParaBivector.from_geometry(4, complex(a), complex(b), x, y).to_multivector()
    want = eval_kernel(build_kernel(kid), x, y).to_multivector()
    assert got.isclose(want, tol=1e-9)


@pytest.mark.parametrize("m", [2, 4, 5])
def test_truncation_bound_is_honest(m):
    coeffs = series_coefficients(KernelId(m, min(1, m - 2)))
    n = truncation_bound(coeffs, 6.0, 1e-9)
    more = eval_series(coeffs, np.array([6.0]), np.array([0.6]), n + 40)
    base = eval_series(coeffs, np.array([6.0]), np.array([0.6]), n)
    assert abs(more[0][0] - base[0][0]) < 1e-9
    assert abs(more[1][0] - base[1][0]) < 1e-9
    assert truncation_bound(coeffs, 9.0, 1e-9) >= n


@pytest.mark.parametrize(
    "z_max, eps",
    [(1e300, 1e-9), (math.inf, 1e-9), (math.nan, 1e-9), (6.0, math.nan), (6.0, math.inf)],
)
def test_truncation_bound_rejects_ranges_it_cannot_bound(z_max, eps):
    with pytest.raises(ValueError):
        truncation_bound(series_coefficients(KernelId(3, 0)), z_max, eps)


def test_eval_series_rejects_bad_term_counts():
    coeffs = series_coefficients(KernelId(3, 0))
    with pytest.raises(ValueError):
        eval_series(coeffs, [1.0], [0.5], -1)
    with pytest.raises(TypeError):
        eval_series(coeffs, [1.0], [0.5], 2.5)


def test_coefficient_rows_products():
    rows = coefficient_rows(series_coefficients(KernelId(4, 0)), 6, include_inverse=True)
    assert [r["k"] for r in rows] == list(range(7))
    for r in rows:
        assert r["prod_even"] == 1.0 + 0.0j
        assert r["prod_odd"] == 1.0 + 0.0j


def test_eigenvalues_valid_for_minus_with_own_coefficients():
    # the functional formulas apply to either sign when fed that sign's
    # own streams; check against the reflected-conjugate relation
    plus = series_coefficients(KernelId(4, 1))
    minus = series_coefficients(KernelId(4, 1, "minus"))
    for k in range(6):
        evp = eigenvalues_from_coefficients(plus, k)
        evm = eigenvalues_from_coefficients(minus, k)
        assert complex(evm.even_exact) == pytest.approx(
            complex(evp.even_exact).conjugate() * (-1) ** k
        )
