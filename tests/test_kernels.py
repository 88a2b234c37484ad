from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from clifft.exact import Exact, U
from clifft.kernels import (
    KernelExpr,
    KernelId,
    KernelTerm,
    apply_zinv_dw,
    build_cf_kernel,
    build_kernel,
    build_kernel_even,
    build_kernel_odd,
    eval_kernel,
    eval_terms,
    fg_system_residual,
    fhat_terms,
    ftilde_terms,
    g_terms,
    kernel_from_json,
    kernel_to_json,
    minus_counterpart,
    pde_residual,
    scale_terms,
    shift_s,
    terms_equal,
    verify_recursion,
    verify_structural_identities,
)
from clifft.special import BesselOrder


def term(coeff, s_power, twice_order):
    return KernelTerm(coeff, s_power, BesselOrder(twice_order))


def test_kernel_id_validation():
    with pytest.raises(ValueError):
        KernelId(1, 0)
    with pytest.raises(ValueError):
        KernelId(4, 3)
    with pytest.raises(ValueError):
        KernelId(4, 0, "up")
    with pytest.raises(ValueError):
        KernelId(3, 0, "plus", e_i=2.0)  # unit modulus required
    with pytest.raises(ValueError):
        KernelId(4, 0, "plus", e_i=1j)  # phase only enters odd dimensions
    assert KernelId(5, 1, e_i=1j).family == "odd"


def test_plane_kernel_is_cosine_and_sinc():
    # the two-dimensional kernel reduces to -cos t + (x^y) sin(t)/t
    expr = build_kernel(KernelId(2, 0))
    assert expr.scalar_terms == (term(-U, 0, -1),)
    assert expr.bivector_terms == (term(U, 0, 1),)
    s, t = 0.7, 1.3
    scalar, g = expr.profiles(s, t)
    assert complex(scalar) == pytest.approx(-math.cos(t))
    assert complex(g) == pytest.approx(math.sin(t) / t)


def test_family_terms_match_hand_expansion_dim4():
    # index 1 in dimension 4: single ell = 0 summand in each family
    assert ftilde_terms(4, 1) == (term(-U, 0, 1),)
    assert fhat_terms(4, 1) == (term(-U, 1, 1),)
    assert g_terms(4, 1) == (term(U, 1, 3),)
    expr = build_kernel_even(4, 1)
    assert expr.scalar_terms == (term(-U, 0, 1), term(-U, 1, 1))
    assert expr.bivector_terms == (term(U, 1, 3),)


def test_family_terms_match_hand_expansion_dim6():
    # index 2 in dimension 6 exercises the ell = 1 tail; prefactor
    # (-1)^(m/2+i) = -1, ell = 0 gives s^2 jt_{3/2}, ell = 1 gives
    # (1/2)(2!/0!) jt_{1/2}
    assert fhat_terms(6, 2) == (term(-U, 0, 1), term(-U, 2, 3))


def test_odd_dimension_scalar_mixes_both_routes():
    # e_i multiplies the ftilde route, I conj(e_i) the fhat route
    plain = build_kernel_odd(3, 1, 1.0)
    phase = build_kernel_odd(3, 1, 1j)
    s, t = 0.4, 0.9
    sc_plain, g_plain = plain.profiles(s, t)
    sc_phase, g_phase = phase.profiles(s, t)
    ft = KernelExpr(3, ftilde_terms(3, 1), ())
    fh = KernelExpr(3, fhat_terms(3, 1), ())
    ft_val = complex(ft.profiles(s, t)[0])
    fh_val = complex(fh.profiles(s, t)[0])
    assert complex(sc_plain) == pytest.approx(ft_val + 1j * fh_val)
    assert complex(sc_phase) == pytest.approx(1j * ft_val + fh_val)
    assert complex(g_phase) == pytest.approx(1j * complex(g_plain))


def test_cf_kernel_is_negated_middle_index():
    for m in (2, 4, 6):
        cf = build_cf_kernel(m)
        mid = build_kernel_even(m, m // 2 - 1)
        assert terms_equal(cf.scalar_terms, scale_terms(mid.scalar_terms, -1)) is None
        assert terms_equal(cf.bivector_terms, scale_terms(mid.bivector_terms, -1)) is None


def test_zinv_dw_product_rule():
    # c s^a jt_alpha -> a c s^(a-1) jt_alpha + c s^(a+1) jt_(alpha+1)
    got = apply_zinv_dw([term(Exact(3), 2, 1)])
    assert got == (term(Exact(6), 1, 1), term(Exact(3), 3, 3))
    # a = 0 kills the descending term instead of making s^(-1)
    got = apply_zinv_dw([term(Exact(1), 0, 1)])
    assert got == (term(Exact(1), 1, 3),)


def test_shift_s_guards_negative_powers():
    assert shift_s([term(Exact(1), 2, 1)], -1) == (term(Exact(1), 1, 1),)
    with pytest.raises(ValueError):
        shift_s([term(Exact(1), 0, 1)], -1)


def test_terms_equal_reports_first_mismatch():
    a = [term(Exact(1), 1, 1), term(Exact(2), 2, 3)]
    b = [term(Exact(1), 1, 1), term(Exact(2), 2, 3)]
    assert terms_equal(a, b) is None
    b[1] = term(Exact(Fraction(2000001, 1000000)), 2, 3)  # perturbed coefficient
    mismatch = terms_equal(a, b)
    assert mismatch is not None
    assert mismatch[0] == 2 and mismatch[1] == 3


def test_recursion_steps_exact():
    for m in (2, 3, 4, 5):
        for i in range(m - 1):
            checks = verify_recursion(m, i)
            assert all(c.passed for c in checks), (m, i, [c.value for c in checks])
            assert len(checks) >= 2


def test_structural_identities_dim4():
    checks = verify_structural_identities(4)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert names == [
        "g-lowering", "fhat-lowering", "ftilde-lowering", "fhat0-ftilde1", "g0-g1",
    ]


def test_minus_kernel_is_reflected_conjugate():
    rng = np.random.default_rng(11)
    for kid in (KernelId(4, 1), KernelId(3, 1, e_i=1j), KernelId(5, 2)):
        plus = build_kernel(kid)
        minus = build_kernel(replace(kid, sign="minus"))
        x = rng.uniform(-1.5, 1.5, kid.m)
        y = rng.uniform(-1.5, 1.5, kid.m)
        got = eval_kernel(minus, x, y).to_multivector()
        want = eval_kernel(plus, x, -y).to_multivector().complex_conjugate()
        assert got.isclose(want, tol=1e-10)


def test_minus_counterpart_is_involutive():
    expr = build_kernel(KernelId(5, 1))
    twice = minus_counterpart(minus_counterpart(expr))
    assert terms_equal(twice.scalar_terms, expr.scalar_terms) is None
    assert terms_equal(twice.bivector_terms, expr.bivector_terms) is None


def test_pde_residual_small_on_random_points():
    rng = np.random.default_rng(3)
    for kid in (KernelId(2, 0), KernelId(4, 1), KernelId(3, 0)):
        for _ in range(5):
            x = rng.uniform(-1.2, 1.2, kid.m)
            y = rng.uniform(-1.2, 1.2, kid.m)
            assert pde_residual(kid, x, y) < 1e-6


def test_profile_system_residual():
    assert fg_system_residual(KernelId(4, 0), 0.6, 1.1) < 1e-6
    assert fg_system_residual(KernelId(3, 1), -0.4, 0.8) < 1e-6
    with pytest.raises(ValueError):
        fg_system_residual(KernelId(4, 0), 0.5, 1e-6)  # t must exceed the step


def test_json_round_trip_with_and_without_id():
    kid = KernelId(3, 1, "minus", e_i=1j)
    expr = build_kernel(kid)
    back, back_id = kernel_from_json(kernel_to_json(expr, kid))
    assert back_id == kid
    assert terms_equal(back.scalar_terms, expr.scalar_terms) is None
    back, back_id = kernel_from_json(kernel_to_json(expr))
    assert back_id is None
    assert terms_equal(back.bivector_terms, expr.bivector_terms) is None


def test_kernel_expr_canonicalizes():
    e = KernelExpr(4, (term(Exact(1), 0, 1), term(Exact(2), 0, 1)), ())
    assert e.scalar_terms == (term(Exact(3), 0, 1),)
    e = KernelExpr(4, (term(Exact(1), 0, 1), term(Exact(-1), 0, 1)), ())
    assert e.scalar_terms == ()


def test_eval_terms_converts_each_coefficient_once(monkeypatch):
    expr = build_kernel(KernelId(5, 2))
    # fresh terms: the cached kernel's terms may have been evaluated already
    terms = [replace(term) for term in expr.scalar_terms + expr.bivector_terms]
    converted = []
    to_complex = Exact.__complex__

    def counting(self):
        converted.append(self)
        return to_complex(self)

    monkeypatch.setattr(Exact, "__complex__", counting)
    s_pts, t_pts = np.array([0.3, -1.2]), np.array([0.5, 2.0])
    first = eval_terms(terms, s_pts, t_pts)
    second = eval_terms(terms, s_pts, t_pts)
    assert np.array_equal(first, second)
    assert len(converted) == len(terms)
    assert sorted(map(id, converted)) == sorted(id(term.coeff) for term in terms)
