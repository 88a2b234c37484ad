from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from clifft import kernels as kernels_module
from clifft.algebra import Multivector
from clifft.checks import worst
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
    eval_terms_by_parity,
    fg_system_residual,
    fhat_terms,
    ftilde_terms,
    g_terms,
    minus_counterpart,
    pde_residual,
    scale_terms,
    shift_s,
    terms_equal,
    verify_recursion,
    verify_structural_identities,
)


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
    assert expr.scalar_terms == (KernelTerm(-U, 0, -1),)
    assert expr.bivector_terms == (KernelTerm(U, 0, 1),)
    s, t = 0.7, 1.3
    scalar, g = expr.profiles(s, t)
    assert complex(scalar) == pytest.approx(-math.cos(t))
    assert complex(g) == pytest.approx(math.sin(t) / t)


def test_family_terms_match_hand_expansion_dim4():
    # index 1 in dimension 4: single ell = 0 summand in each family
    assert ftilde_terms(4, 1) == (KernelTerm(-U, 0, 1),)
    assert fhat_terms(4, 1) == (KernelTerm(-U, 1, 1),)
    assert g_terms(4, 1) == (KernelTerm(U, 1, 3),)
    expr = build_kernel_even(4, 1)
    assert expr.scalar_terms == (KernelTerm(-U, 0, 1), KernelTerm(-U, 1, 1))
    assert expr.bivector_terms == (KernelTerm(U, 1, 3),)


def test_family_terms_match_hand_expansion_dim6():
    # index 2 in dimension 6 exercises the ell = 1 tail; prefactor
    # (-1)^(m/2+i) = -1, ell = 0 gives s^2 jt_{3/2}, ell = 1 gives
    # (1/2)(2!/0!) jt_{1/2}
    assert fhat_terms(6, 2) == (KernelTerm(-U, 0, 1), KernelTerm(-U, 2, 3))


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
    got = apply_zinv_dw([KernelTerm(Exact(3), 2, 1)])
    assert got == (KernelTerm(Exact(6), 1, 1), KernelTerm(Exact(3), 3, 3))
    # a = 0 kills the descending term instead of making s^(-1)
    got = apply_zinv_dw([KernelTerm(Exact(1), 0, 1)])
    assert got == (KernelTerm(Exact(1), 1, 3),)


def test_shift_s_guards_negative_powers():
    assert shift_s([KernelTerm(Exact(1), 2, 1)], -1) == (KernelTerm(Exact(1), 1, 1),)
    with pytest.raises(ValueError):
        shift_s([KernelTerm(Exact(1), 0, 1)], -1)


def test_terms_equal_reports_first_mismatch():
    a = [KernelTerm(Exact(1), 1, 1), KernelTerm(Exact(2), 2, 3)]
    b = [KernelTerm(Exact(1), 1, 1), KernelTerm(Exact(2), 2, 3)]
    assert terms_equal(a, b) is None
    b[1] = KernelTerm(Exact(Fraction(2000001, 1000000)), 2, 3)  # perturbed coefficient
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
        "cf-kernel scalar", "cf-kernel bivector",
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


def _pde_residual_on_multivectors(kid, x, y):
    """pde_residual with every step in Multivector arithmetic: the reference
    for the blade-map quotients."""
    plus = build_kernel(replace(kid, sign="plus"))
    minus = build_kernel(replace(kid, sign="minus"))
    m, h = kid.m, 1e-4

    def K(expr, xx, yy):
        return eval_kernel(expr, xx, yy).to_multivector()

    dy, dx = Multivector(m), Multivector(m)
    for j in range(m):
        step = np.zeros(m)
        step[j] = h
        ej = Multivector(m, {1 << j: 0.5 / h})
        dy = dy + ej * (K(plus, x, y + step) - K(plus, x, y - step))
        dx = dx + (K(plus, x + step, y) - K(plus, x - step, y)) * ej
    kminus = K(minus, x, y)
    a = kernels_module._system_factor(m)
    rhs1 = (kminus * Multivector.from_vector(m, x)) * a
    rhs2 = (Multivector.from_vector(m, y) * kminus) * a
    r1 = (dy - rhs1).norm() / max(1.0, dy.norm(), rhs1.norm())
    r2 = (dx - rhs2).norm() / max(1.0, dx.norm(), rhs2.norm())
    return worst(r1, r2)


def test_pde_residual_equals_the_multivector_reference_bit_for_bit():
    rng = np.random.default_rng(44)
    kids = [KernelId(m, i) for m in range(2, 7) for i in (0, m - 2)]
    kids.append(KernelId(5, 2, e_i=np.exp(0.7j)))
    for kid in kids:
        e = np.eye(kid.m)
        points = [(rng.uniform(-1.6, 1.6, kid.m), rng.uniform(-1.6, 1.6, kid.m)) for _ in range(3)]
        points += [(e[0], 2.0 * e[0]), (np.zeros(kid.m), e[-1])]
        for x, y in points:
            assert pde_residual(kid, x, y) == _pde_residual_on_multivectors(kid, x, y), (kid, x, y)


def test_pde_residual_sees_faults_in_quotients_and_kernel(monkeypatch):
    """Fault matrix of the pointwise system: e_j on the wrong side of the
    difference quotient (blade_product with its arguments swapped) at
    every m = 2..6 and i, and one negated closed-form term of the plus
    kernel at m = 4 and 6; every sample that passes clean must fail."""
    rng = np.random.default_rng(2021)
    samples = {
        KernelId(m, i): [(rng.uniform(-1.6, 1.6, m), rng.uniform(-1.6, 1.6, m)) for _ in range(3)]
        for m in range(2, 7)
        for i in range(m - 1)
    }

    def residuals(kid):
        return [pde_residual(kid, x, y) for x, y in samples[kid]]

    for kid in samples:
        assert max(residuals(kid)) < 1e-6, kid

    blade_product = kernels_module.blade_product
    with monkeypatch.context() as patch:
        patch.setattr(kernels_module, "blade_product", lambda a, b: blade_product(b, a))
        for kid in samples:
            assert min(residuals(kid)) > 1e-6, kid

    build = kernels_module.build_kernel

    def negated_first_scalar_term(kid):
        expr = build(kid)
        if kid.sign != "plus":
            return expr
        first, *rest = expr.scalar_terms
        return replace(expr, scalar_terms=(replace(first, coeff=-first.coeff), *rest))

    monkeypatch.setattr(kernels_module, "build_kernel", negated_first_scalar_term)
    for kid in samples:
        if kid.m in (4, 6):
            assert min(residuals(kid)) > 1e-6, kid


def test_profile_system_residual():
    assert fg_system_residual(KernelId(4, 0), 0.6, 1.1) < 1e-6
    assert fg_system_residual(KernelId(3, 1), -0.4, 0.8) < 1e-6
    with pytest.raises(ValueError):
        fg_system_residual(KernelId(4, 0), 0.5, 1e-6)  # t must exceed the step
    with pytest.raises(ValueError):
        fg_system_residual(KernelId(4, 0), [0.5, 0.6], [1.0, 1e-6])  # at every point
    # over arrays: the worst of the one-point residuals, bit for bit
    rng = np.random.default_rng(11)
    s, t = rng.uniform(-2.0, 2.0, 12), rng.uniform(0.2, 2.0, 12)
    for kid in (KernelId(4, 1), KernelId(5, 2, e_i=np.exp(0.7j))):
        pointwise = [fg_system_residual(kid, a, b) for a, b in zip(s, t)]
        assert fg_system_residual(kid, s, t) == max(pointwise) < 1e-6


def test_kernel_term_takes_twice_the_order_as_an_int():
    # 1.5 is no twice-order; below -1 (order -1/2) is outside the calculus
    with pytest.raises(TypeError):
        KernelTerm(Exact(1), 0, 1.5)
    with pytest.raises(ValueError):
        KernelTerm(Exact(1), 0, -3)


def test_kernel_expr_canonicalizes():
    e = KernelExpr(4, (KernelTerm(Exact(1), 0, 1), KernelTerm(Exact(2), 0, 1)), ())
    assert e.scalar_terms == (KernelTerm(Exact(3), 0, 1),)
    e = KernelExpr(4, (KernelTerm(Exact(1), 0, 1), KernelTerm(Exact(-1), 0, 1)), ())
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
    points = [eval_terms(terms, s, t) for s, t in zip(s_pts.tolist(), t_pts.tolist())]
    assert np.array_equal(first, second)
    assert all(type(p) is complex for p in points)
    assert np.allclose(points, first, rtol=1e-14, atol=0.0)
    assert len(converted) == len(terms)
    assert sorted(map(id, converted)) == sorted(id(term.coeff) for term in terms)


def test_eval_terms_takes_a_list_like_its_tuple():
    terms = build_kernel(KernelId(4, 2)).scalar_terms
    s_pts, t_pts = np.array([0.3, -1.2, 2.0]), np.array([0.5, 2.0, 7.5])
    assert np.array_equal(eval_terms(list(terms), s_pts, t_pts), eval_terms(terms, s_pts, t_pts))
    assert eval_terms(list(terms), 0.3, 0.5) == eval_terms(terms, 0.3, 0.5)


def test_parity_split_gives_the_profile_at_plus_and_minus_s():
    # P(+-s, t) = E +- O for every closed-form profile of m = 2..6, both
    # signs, e_i = e^(0.7 I) at odd m; the error is taken relative to the
    # majorant sum |c| |s|^a jtilde_alpha(0), as in the mpmath test below
    rng = np.random.default_rng(43)
    s_pts = np.concatenate([[0.0, 0.7, -2.5], rng.uniform(-4.0, 4.0, 37)]).reshape(4, 10)
    t_pts = np.concatenate([[0.0, 0.999, 1.0], rng.uniform(0.0, 25.0, 37)]).reshape(4, 10)
    e_odd = complex(math.cos(0.7), math.sin(0.7))
    for m in range(2, 7):
        for i in range(m - 1):
            for sign in ("plus", "minus"):
                expr = build_kernel(KernelId(m, i, sign, e_odd if m % 2 else 1.0))
                for terms in (expr.scalar_terms, expr.bivector_terms):
                    even, odd = eval_terms_by_parity(terms, s_pts, t_pts)
                    assert even.shape == odd.shape == s_pts.shape
                    assert even.dtype == odd.dtype == eval_terms(terms, s_pts, t_pts).dtype
                    majorant = sum(
                        abs(complex(tm.coeff)) * np.abs(s_pts) ** tm.s_power
                        * eval_terms((KernelTerm(Exact(1), 0, tm.twice_order),), 0.0, 0.0)
                        for tm in terms
                    )
                    for sgn in (1, -1):
                        got = even + sgn * odd
                        want = eval_terms(terms, sgn * s_pts, t_pts)
                        assert np.all(np.abs(got - want) <= 4e-16 * len(terms) * majorant), (m, i, sign)


def test_parity_split_takes_one_bessel_call_per_order(monkeypatch):
    # the scalar profile of (4, 1) has the order 1/2 with the powers s^0
    # and s^1, so both parts share that order's Bessel values
    terms = build_kernel(KernelId(4, 1)).scalar_terms
    assert {tm.s_power % 2 for tm in terms} == {0, 1}
    calls = []
    jtilde = kernels_module.bessel_jtilde

    def counted(two, t):
        calls.append(two)
        return jtilde(two, t)

    monkeypatch.setattr(kernels_module, "bessel_jtilde", counted)
    even, odd = eval_terms_by_parity(terms, np.array([0.4, -1.0]), np.array([0.2, 3.0]))
    assert sorted(calls) == sorted({tm.twice_order for tm in terms})
    assert not np.iscomplexobj(even) and not np.iscomplexobj(odd)


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _jtilde_reference(two: int, t: float):
    """jtilde of twice-order two at t, from mpmath at the working precision."""
    nu = mpmath.mpf(two) / 2
    if t == 0:
        return 1 / (2**nu * mpmath.gamma(nu + 1))
    tm = mpmath.mpf(t)
    return mpmath.besselj(nu, tm) * tm ** (-nu)


def test_eval_terms_against_mpmath():
    # every closed-form kernel of m = 2..6, both signs, e_i = e^(0.7 I) at odd
    # m, on 0-d and array input; the error is taken relative to the majorant
    # sum |c| |s|^a jtilde_alpha(0), which bounds every term since
    # |jtilde_alpha(t)| <= jtilde_alpha(0) for alpha >= -1/2
    rng = np.random.default_rng(41)
    s_pts = np.concatenate([[0.0, 0.7, -2.5, 3.9], rng.uniform(-4.0, 4.0, 36)])
    t_pts = np.concatenate([[0.0, 0.999, 1.0, 3.999], rng.uniform(0.0, 25.0, 36)])
    e_odd = complex(math.cos(0.7), math.sin(0.7))
    jt_ref: dict = {}
    worst = 0.0
    with mpmath.workdps(60):
        u = mpmath.sqrt(mpmath.pi / 2)
        for m in range(2, 7):
            for i in range(m - 1):
                for sign in ("plus", "minus"):
                    expr = build_kernel(KernelId(m, i, sign, e_odd if m % 2 else 1.0))
                    for terms in (expr.scalar_terms, expr.bivector_terms):
                        coeffs = [
                            mpmath.mpc(_mp(tm.coeff.re), _mp(tm.coeff.im)) * u**tm.coeff.upow
                            for tm in terms
                        ]
                        array = eval_terms(terms, s_pts, t_pts)
                        for j, (s, t) in enumerate(zip(s_pts.tolist(), t_pts.tolist())):
                            ref = 0
                            majorant = 0
                            for tm, c in zip(terms, coeffs):
                                two = tm.twice_order
                                for key in ((two, t), (two, 0.0)):
                                    if key not in jt_ref:
                                        jt_ref[key] = _jtilde_reference(*key)
                                ref += c * mpmath.mpf(s) ** tm.s_power * jt_ref[two, t]
                                majorant += abs(c) * abs(s) ** tm.s_power * jt_ref[two, 0.0]
                            for got in (array[j], eval_terms(terms, s, t)):
                                # a zero majorant (every term has a factor s, at s = 0)
                                # allows no error at all
                                err = abs(got - ref) / majorant if majorant else abs(got)
                                worst = max(worst, float(err))
    assert worst < 2e-15, worst
