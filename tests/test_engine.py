from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from clifft import engine
from clifft.basis import monogenic_basis, psi
from clifft.engine import (
    QuadratureScheme,
    closed_form_eigenvalue,
    closed_form_eigenvalue_exact,
    apply_transform_batch,
    bochner_reduce,
    default_scheme,
    domain_membership,
    hankel_laguerre_residual,
    inversion_composition_residual,
    l2_bound_scan,
    radial_rule,
    sample_points,
    verify_diff_relations,
    verify_eigen,
    verify_inversion,
)
from clifft.kernels import KernelId
from clifft.series import eigenvalues_from_coefficients, series_coefficients


def test_scheme_self_test_and_sizes():
    s = default_scheme(2)
    assert len(s) == 64 * 64
    assert s.self_test() < 1e-12
    with pytest.raises(ValueError):
        QuadratureScheme(7)  # no default grid that large


def test_scheme_self_test_fails_on_a_nan_weight():
    scheme = QuadratureScheme(2, 16)
    assert scheme.self_test() < 1e-10
    scheme.weights[5] = np.nan
    with pytest.raises(RuntimeError, match="self-test failed"):
        scheme.self_test()


def test_scheme_integrates_polynomial_gaussian():
    s = default_scheme(2)
    vals = (s.points[:, 0] ** 2) * np.exp(-0.5 * np.sum(s.points**2, axis=1))
    # integral of x1^2 e^(-|x|^2/2) = (2 pi)^(m/2)
    assert s.integrate(vals).real == pytest.approx(2 * math.pi, rel=1e-12)


def test_radial_rule_covers_oscillation():
    rule = radial_rule(14.0, 0.5, 16)
    vals = rule.nodes**3 * np.exp(-0.5 * rule.nodes**2) * np.cos(5 * rule.nodes)
    import scipy.integrate as si

    want, _ = si.quad(lambda r: r**3 * math.exp(-0.5 * r * r) * math.cos(5 * r), 0, 14, limit=400)
    assert rule.integrate(vals).real == pytest.approx(want, abs=1e-12)


def test_closed_form_matches_series_functionals_exactly():
    for m in range(2, 8):
        for i in range(m - 1):
            coeffs = series_coefficients(KernelId(m, i))
            for k in range(0, 12):
                ev = eigenvalues_from_coefficients(coeffs, k)
                assert closed_form_eigenvalue_exact(m, i, k, "2p") == ev.even_exact
                assert closed_form_eigenvalue_exact(m, i, k, "2p+1") == ev.odd_exact


def test_closed_form_radial_alternation_and_guards():
    base = closed_form_eigenvalue(4, 0, 1, "2p", p=0)
    assert closed_form_eigenvalue(4, 0, 1, "2p", p=1) == -base
    with pytest.raises(ValueError):
        closed_form_eigenvalue(4, 0, 1, "3p")
    with pytest.raises(ValueError):
        closed_form_eigenvalue(4, 5, 1, "2p")


def test_closed_form_odd_dimension_phase():
    # plus kernel in dimension 3 with e_0 = 1: eigenvalue I on the Gaussian
    assert closed_form_eigenvalue(3, 0, 0, "2p") == pytest.approx(1j)
    # a unit phase e_i rotates the odd-route factor
    val = closed_form_eigenvalue(3, 0, 0, "2p", e_i=1j)
    assert val == pytest.approx(1j * (-1j))


def test_transform_reproduces_plane_eigenfunction():
    ys = sample_points(2, 10, 2.0, seed=4)
    bf = psi(0, 0, 1, 2)
    got = apply_transform_batch(KernelId(2, 0), [bf], ys)[0]
    want = -bf.values(ys)[0]  # eigenvalue -1
    assert np.max(np.abs(got[0] - want)) < 1e-12


def test_transform_batch_shares_kernel_evaluations():
    ys = sample_points(2, 6, 1.5, seed=9)
    fs = [psi(0, 0, 1, 2), psi(1, 0, 1, 2)]
    separate = [apply_transform_batch(KernelId(2, 0), [f], ys)[0] for f in fs]
    together = apply_transform_batch(KernelId(2, 0), fs, ys)
    for one, two in zip(separate, together):
        assert set(one) == set(two)
        for blade in one:
            assert np.allclose(one[blade], two[blade], atol=1e-14)


def test_transform_chunks_bound_point_pairs(monkeypatch):
    # 4096 grid points against 2,000 targets: a single chunk would hold
    # 8.2e6 (point, target) pairs
    scheme = QuadratureScheme(2, 64)
    rows = []
    chunks = scheme.chunks

    def recording_chunks(size):
        for pts, wts in chunks(size):
            rows.append(len(pts))
            yield pts, wts

    monkeypatch.setattr(scheme, "chunks", recording_chunks)
    monkeypatch.setattr(engine, "eval_terms", lambda terms, s, t: np.zeros(s.shape))
    ys = sample_points(2, 2000, 2.0, seed=3)
    apply_transform_batch(KernelId(2, 0), [psi(0, 0, 1, 2)], ys, scheme)
    assert len(rows) > 1 and sum(rows) == len(scheme)
    assert all(n * len(ys) <= 5_000_000 for n in rows), rows


def test_bochner_agrees_with_full_grid():
    # the radial reduction and the full grid are independent routes to
    # the same transform; compare them on a non-radial eigenfunction
    m, k = 3, 1
    kid = KernelId(m, 1)
    mono = monogenic_basis(m, k)[0]
    bf = psi(0, k, 1, m)
    ys = sample_points(m, 8, 1.9, seed=12)
    grid_vals = apply_transform_batch(kid, [bf], ys)[0]

    def f0(rr: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * rr * rr)

    radial_vals = bochner_reduce(kid, mono, f0, "2p", ys)
    for blade in set(grid_vals) | set(radial_vals):
        a = grid_vals.get(blade, 0.0)
        b = radial_vals.get(blade, 0.0)
        assert np.max(np.abs(a - b)) < 1e-10, blade


def test_verify_eigen_grid_and_radial():
    recs = verify_eigen(2)
    assert len(recs) == 6
    assert max(r.abs_error for r in recs) < 1e-10
    recs = verify_eigen(6, i_values=(0, 2, 4), k_values=(0, 1), j_values=(0, 1, 2))
    assert max(r.abs_error for r in recs) < 1e-10
    # j = 2 exercises the (-1)^p alternation in the reference value
    assert any(r.parity == "2p" for r in recs)


def test_verify_inversion_exact_and_radial_composition():
    rep = verify_inversion(4, k_max=60)
    assert rep.exact_ok and rep.first_failure is None
    assert inversion_composition_residual(4, 1) < 1e-12
    assert inversion_composition_residual(5, 0) < 1e-12


def test_diff_relations_couple_the_sign_pair():
    assert verify_diff_relations(KernelId(2, 0), psi(0, 0, 1, 2)) < 1e-5
    assert verify_diff_relations(KernelId(3, 1), psi(0, 1, 1, 3)) < 1e-5


def test_l2_scan_pattern():
    rep = l2_bound_scan(4, 1, 50)
    assert rep.bounded and rep.sup_magnitude == 1
    rep = l2_bound_scan(4, 2, 50)
    assert not rep.bounded and rep.first_exceed_k == 1
    # |eigenvalue| at (4, 2, k=4) is 5!!/3!! = 5
    assert closed_form_eigenvalue_exact(4, 2, 4, "2p").magnitude() == pytest.approx(5.0)
    rep = l2_bound_scan(6, 1, 50)
    assert rep.bounded and rep.sup_magnitude < 1


def test_domain_membership_screen():
    assert domain_membership(psi(0, 0, 1, 3), 1, 3).converged

    def flat(pts: np.ndarray):
        return {0: np.ones(len(pts))}

    assert not domain_membership(flat, 0, 3).converged


def test_hankel_laguerre_identity():
    worst = 0.0
    for m in (2, 3, 5):
        for k in (0, 2):
            for j in (0, 3):
                worst = max(worst, hankel_laguerre_residual(m, k, j, [0.4, 1.3, 2.7]))
    assert worst < 1e-11
