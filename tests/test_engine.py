from __future__ import annotations

import math
import tracemalloc
from types import SimpleNamespace
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from clifft import engine, series
from clifft.algebra import blade_product
from clifft.basis import CliffordPolynomial, GaussianPolynomial, PolynomialTable, monogenic_basis, psi
from clifft.engine import (
    CylindricalRule,
    QuadratureScheme,
    closed_form_eigenvalue,
    closed_form_eigenvalue_exact,
    apply_transform_batch,
    bochner_reduce,
    default_scheme,
    hankel_laguerre_residual,
    inversion_composition_residual,
    l2_bound_scan,
    radial_rule,
    sample_points,
    verify_diff_relations,
    verify_eigen,
    verify_inversion,
)
from clifft.kernels import KernelId, build_kernel, eval_terms
from clifft.series import eigenvalues_from_coefficients, jtilde_stack, series_coefficients
from clifft.special import double_factorial
from clifft.suites import run


def test_scheme_self_test_and_sizes():
    assert len(QuadratureScheme(2)) == 64 * 64
    with pytest.raises(ValueError):
        QuadratureScheme(7)  # no default grid that large


def test_scheme_rejects_a_node_count_below_one():
    for n in (0, -3):
        with pytest.raises(ValueError, match="nodes per axis"):
            QuadratureScheme(2, n)


@pytest.mark.parametrize("m, n", [(1, 9), (2, 9), (3, 7), (4, 6), (2, 64), (3, 48), (4, 36)])
def test_chunks_equal_a_meshgrid_reference_bitwise(m, n, monkeypatch):
    scheme = QuadratureScheme(m, n)
    grids = np.meshgrid(*([scheme.axis_nodes] * m), indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=1)
    weights = reduce(np.multiply.outer, [scheme.axis_weights] * m).reshape(-1)
    assert len(scheme) == len(points)
    # size 1 and 7 on the default grids would take too many chunks
    for size in (1, 7, 1000, 16_384) if len(points) < 20_000 else (1000, 16_384):
        monkeypatch.setattr(engine, "_CHUNK_ROWS", size)
        start = 0
        for pts, wts in scheme.chunks():
            stop = min(start + size, len(points))
            assert pts.shape == (stop - start, m) and wts.shape == (stop - start,)
            assert np.ascontiguousarray(pts).tobytes() == points[start:stop].tobytes()
            assert wts.tobytes() == weights[start:stop].tobytes()
            start = stop
        assert start == len(points)


def test_scheme_integrates_polynomial_gaussian():
    def f(pts: np.ndarray) -> np.ndarray:
        return pts[:, 0] ** 2 * np.exp(-0.5 * np.sum(pts**2, axis=1))

    # integral of x1^2 e^(-|x|^2/2) = (2 pi)^(m/2), summed chunk by chunk
    total = sum(np.sum(wts * f(pts)) for pts, wts in QuadratureScheme(2).chunks())
    assert total == pytest.approx(2 * math.pi, rel=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cylindrical_rule_parts(m):
    from scipy.special import roots_genlaguerre

    # Golub-Welsch against scipy's generalized Gauss-Laguerre rule
    alpha = (m - 3) / 2.0
    u, w = roots_genlaguerre(24, alpha)
    radii, radii_w = engine._radial_rule(m, 24)
    assert np.allclose(radii, np.sqrt(2.0 * u), rtol=1e-13, atol=0.0)
    assert np.allclose(radii_w, 2.0**alpha * w, rtol=1e-12, atol=1e-300)
    # the sphere rule integrates monomials exactly up to its degree: the
    # mean of omega^e over S^(m-2) is prod (e_j - 1)!! / (d (d + 2) ...
    # (d + |e| - 2)) for even e, d = m - 1, and 0 otherwise
    d = m - 1
    for degree in range(0, 7):
        omega, omega_w = engine._sphere_rule(m, degree)
        area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        assert np.allclose(np.sum(omega * omega, axis=1), 1.0)
        assert np.sum(omega_w) == pytest.approx(area, rel=1e-14)
        for expo in np.ndindex(*([degree + 1] * d)):
            if sum(expo) > degree:
                continue
            got = np.sum(omega_w * np.prod(omega ** np.array(expo), axis=1)) / area
            want = 0.0
            if not any(e % 2 for e in expo):
                want = math.prod(double_factorial(e - 1) for e in expo)
                want /= math.prod(d + 2 * j for j in range(sum(expo) // 2))
            assert got == pytest.approx(want, abs=1e-14), (degree, expo)
    # the frames complete each unit vector to an orthonormal basis
    yhat = sample_points(m, 50, 1.0, seed=2)
    yhat = np.concatenate([yhat / np.linalg.norm(yhat, axis=1)[:, None], -np.eye(m), np.eye(m)])
    frames = np.concatenate([yhat[:, :, None], engine._perp_frames(yhat)], axis=2)
    assert np.allclose(np.einsum("tji,tjk->tik", frames, frames), np.eye(m), atol=1e-15)
    with pytest.raises(ValueError, match="dimensions 2 to 4"):
        CylindricalRule(5)
    with pytest.raises(ValueError, match="cylindrical rule"):
        apply_transform_batch(KernelId(m, 0), [psi(0, 0, 1, m)], np.ones((1, m)), QuadratureScheme(m, 4))


def test_radial_count_grows_with_the_target_norm():
    # n radial nodes serve targets of norm up to (n - 12)/4
    rho = np.array([0.0, 2.2, 3.0, 3.01, 5.0, 7.0, 9.0, 11.0, 11.4])
    assert engine._radial_count(rho).tolist() == [24, 24, 24, 32, 32, 40, 48, 56, 64]


def test_radial_rule_covers_oscillation():
    nodes, weights = radial_rule([2 * math.pi])  # panels of width 0.5
    assert len(nodes) == 28 * 16
    vals = nodes**3 * np.exp(-0.5 * nodes**2) * np.cos(5 * nodes)
    import scipy.integrate as si

    want, _ = si.quad(lambda r: r**3 * math.exp(-0.5 * r * r) * math.cos(5 * r), 0, 14, limit=400)
    assert np.sum(weights * vals) == pytest.approx(want, abs=1e-12)


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
    # an e_i that no kernel has: any e_i but 1 at even m, off the unit
    # circle at odd m
    with pytest.raises(ValueError):
        closed_form_eigenvalue(4, 1, 1, "2p", e_i=2j)
    with pytest.raises(ValueError):
        closed_form_eigenvalue_exact(5, 1, 1, "2p", e_i=3.0)


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


def test_transform_is_linear_at_complex_profiles():
    # at m = 3 the profiles are complex, so W @ P has a real and an
    # imaginary block per row; T[g + h] = T[g] + T[h] with g + h one table row
    # set, and g, h keep their eigenvalues
    m = 3
    kid = KernelId(m, 1)
    assert np.iscomplexobj(eval_terms(build_kernel(kid).scalar_terms, 0.3, 0.8))
    g, h = psi(0, 1, 1, m), psi(1, 0, 1, m)
    g_plus_h = GaussianPolynomial(g.poly + h.poly)
    ys = sample_points(m, 5, 2.0, seed=21)
    t_g, t_h, t_gh = apply_transform_batch(kid, [g, h, g_plus_h], ys)
    for bf, got in ((g, t_g), (h, t_h)):
        lam = closed_form_eigenvalue(m, 1, bf.k, "2p+1" if bf.j % 2 else "2p")
        want = bf.values(ys)
        for blade in set(got) | set(want):
            assert np.max(np.abs(got.get(blade, 0.0) - lam * want.get(blade, 0.0))) < 1e-10, blade
    assert set(t_gh) == set(t_g) | set(t_h)
    for blade in t_gh:
        lin = t_g.get(blade, 0.0) + t_h.get(blade, 0.0)
        assert np.max(np.abs(t_gh[blade] - lin)) < 1e-14, blade


def test_transform_takes_gaussian_polynomials_only():
    with pytest.raises(TypeError, match="GaussianPolynomial"):
        apply_transform_batch(KernelId(2, 0), [lambda pts: {0: np.ones(len(pts))}], np.ones((1, 2)))


def test_transform_keeps_even_m_profiles_real(monkeypatch):
    # at m = 4 the kernel's coefficients are real, so the profile columns
    # are too; a complex copy of the same profiles gives the same transform
    m = 4
    kid = KernelId(m, 1)
    expr = build_kernel(kid)
    assert not np.iscomplexobj(eval_terms(expr.scalar_terms, 0.3, 0.8))
    assert not np.iscomplexobj(eval_terms(expr.bivector_terms, 0.3, 0.8))
    fs = [psi(0, 1, 1, m), psi(1, 1, 1, m)]
    ys = sample_points(m, 3, 2.0, seed=22)
    real = apply_transform_batch(kid, fs, ys)
    for bf, got in zip(fs, real):
        lam = closed_form_eigenvalue(m, 1, bf.k, "2p+1" if bf.j % 2 else "2p")
        want = bf.values(ys)
        for blade in set(got) | set(want):
            assert np.max(np.abs(got.get(blade, 0.0) - lam * want.get(blade, 0.0))) < 1e-10, blade

    def complex_terms(terms, s, t):
        return eval_terms(terms, s, t).astype(complex)

    monkeypatch.setattr(engine, "eval_terms", complex_terms)
    for one, two in zip(real, apply_transform_batch(kid, fs, ys)):
        assert set(one) == set(two)
        for blade in one:
            assert np.max(np.abs(one[blade] - two[blade])) < 1e-14, blade


def test_transform_chunks_bound_point_pairs(monkeypatch):
    # 2,000 targets of norm <= 2 take 24 radial nodes each; psi_{0,0,1} has
    # degree 0, so the rule has 1 axial node and 2 sphere points and the
    # table 1 row: 48 points per target, each counted as 1 row + 2
    # coordinates + 2 x 3 profile columns, 8.6e5 entries in one chunk.
    # With the bound lowered to 100,000 entries a chunk holds 231 targets
    calls = []
    evaluate = PolynomialTable.evaluate

    def recording(table, cols, weight=None):
        calls.append((len(table.rows), cols.shape[1]))
        return evaluate(table, cols, weight)

    monkeypatch.setattr(PolynomialTable, "evaluate", recording)
    monkeypatch.setattr(engine, "_RULE_CHUNK_ENTRIES", 100_000)
    ys = sample_points(2, 2000, 2.0, seed=3)
    bf = psi(0, 0, 1, 2)
    got = apply_transform_batch(KernelId(2, 0), [bf], ys)[0]
    assert [n for _, n in calls] == [231 * 48] * 8 + [(2000 - 8 * 231) * 48]
    assert all(n * (rows + 2 + 2 * 3) <= 100_000 for rows, n in calls), calls
    # chunking changes nothing: eigenvalue -1
    assert np.max(np.abs(got[0] + bf.values(ys)[0])) < 1e-13


def _full_grid_reference(kid: KernelId, fs, ys: np.ndarray, scheme: QuadratureScheme) -> list:
    """The transform summed over every point of the grid: per chunk one
    product W @ P, P holding A and B x_j at every point: the tensor-grid
    oracle of the target-aligned rule."""
    expr = build_kernel(kid)
    m, r = kid.m, len(ys)
    table = PolynomialTable(m, [f.poly for f in fs])
    sums = 0.0
    for pts, wts in scheme.chunks():
        cols = np.ascontiguousarray(pts.T)
        r2 = np.sum(cols * cols, axis=0)
        s = ys @ cols
        t = np.sqrt(np.maximum(np.outer(np.sum(ys * ys, axis=1), r2) - s * s, 0.0))
        a, b = eval_terms(expr.scalar_terms, s, t), eval_terms(expr.bivector_terms, s, t)
        profile = np.stack([a] + [b * x for x in cols]).astype(complex)
        w_mat = table.evaluate(cols, wts * np.exp(-0.5 * r2))
        sums = sums + np.tensordot(w_mat, profile, axes=([1], [2]))  # rows x (1 + m) x r
    norm = complex(series.transform_normalization(m))
    out = [dict() for _ in fs]
    for (fi, blade), blocks in zip(table.rows, norm * sums):
        terms = {blade: blocks[0]}
        biv = {
            (1 << j) | (1 << k): ys[:, k] * blocks[1 + j] - ys[:, j] * blocks[1 + k]
            for j in range(m) for k in range(j + 1, m)
        }
        for part in (terms, blade_product(biv, {blade: 1})):
            for mask, vals in part.items():
                out[fi][mask] = out[fi].get(mask, 0) + vals
    return out


def _mixed_parity_function(m: int) -> GaussianPolynomial:
    """(1 + x_1 + x_1 x_2^2) + (x_2 - 2 x_1^2) e_1 e_2, times the Gaussian:
    each blade has terms of both parities."""
    def expo(**powers):
        return tuple(powers.get(f"x{j + 1}", 0) for j in range(m))

    return GaussianPolynomial(CliffordPolynomial(m, {
        expo(): {0: Fraction(1)},
        expo(x1=1): {0: Fraction(1)},
        expo(x1=1, x2=2): {0: Fraction(1)},
        expo(x2=1): {0b11: Fraction(1)},
        expo(x1=2): {0b11: Fraction(-2)},
    }))


@pytest.mark.parametrize("m, n", [(2, 64), (3, 48)])
def test_cylindrical_rule_equals_the_full_grid(m, n):
    # the tensor grid at its default size is the second oracle of the
    # target-aligned rule; m = 3 has complex profiles, also with e_i off the
    # real axis, and one target is the origin
    scheme = QuadratureScheme(m, n)
    fs = [psi(j, k, 1, m) for j in (0, 1, 2) for k in (0, 1, 2)] + [_mixed_parity_function(m)]
    ys = np.concatenate([sample_points(m, 3, 2.0, seed=8), np.zeros((1, m))])
    kids = [KernelId(m, i, sign) for i in range(m - 1) for sign in ("plus", "minus")]
    if m % 2:
        kids.append(KernelId(m, 1, "plus", complex(math.cos(0.7), math.sin(0.7))))
    for kid in kids:
        got = apply_transform_batch(kid, fs, ys)
        want = _full_grid_reference(kid, fs, ys, scheme)
        for fi, (g, w) in enumerate(zip(got, want)):
            scale = max(float(np.max(np.abs(v))) for v in w.values())
            for blade in set(g) | set(w):
                err = np.max(np.abs(g.get(blade, 0.0) - w.get(blade, 0.0)))
                assert err <= 1e-13 * scale, (kid, fi, blade, err / scale)


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _moment(p: dict) -> complex:
    """(2 pi)^(-m/2) integral of p(x) exp(-|x|^2/2): each monomial gives
    the product of (e_j - 1)!! over its exponents, 0 if one is odd."""
    total = 0
    for expo, c in p.items():
        if not any(e % 2 for e in expo):
            total += c * math.prod(double_factorial(e - 1) for e in expo)
    return total


def _stand_in_reference(m: int, profiles, fs, y: np.ndarray) -> list[dict]:
    """The transforms at y of the functions fs under the kernel
    A + B (x wedge y) with polynomial profiles c s^a t^(2b), (c, a, b) per
    profile, by Gaussian moments alone: t^2 = |x|^2 |y|^2 - s^2 makes the
    integrand a polynomial times the Gaussian."""
    unit = [tuple(int(j == k) for j in range(m)) for k in range(m)]
    one = {(0,) * m: 1.0}
    s_poly = {unit[j]: float(y[j]) for j in range(m)}
    t2 = {tuple(2 * e for e in unit[j]): float(y @ y) for j in range(m)}
    for e, c in _poly_mul(s_poly, s_poly).items():
        t2[e] = t2.get(e, 0) - c

    def profile(c, a, b):
        out = {(0,) * m: c}
        for factor in [s_poly] * a + [t2] * b:
            out = _poly_mul(out, factor)
        return out

    a_poly, b_poly = (profile(*p) for p in profiles)
    # (blade of x wedge y, polynomial coefficient B (x_j y_k - x_k y_j))
    wedge = [((1 << j) | (1 << k), _poly_mul(b_poly, {unit[j]: float(y[k]), unit[k]: -float(y[j])}))
             for j in range(m) for k in range(j + 1, m)]
    out = []
    for f in fs:
        got: dict = {}
        blades = {blade for row in f.poly.terms.values() for blade in row}
        for blade in blades:
            p = {e: float(row[blade]) for e, row in f.poly.terms.items() if blade in row}
            got[blade] = got.get(blade, 0) + _moment(_poly_mul(a_poly, p))
            for mask, coeff in wedge:
                value = _moment(_poly_mul(coeff, p))
                for mask2, sign in blade_product({mask: 1}, {blade: 1}).items():
                    got[mask2] = got.get(mask2, 0) + sign * value
        out.append(got)
    return out


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cylindrical_rule_is_exact_on_polynomial_profiles(m, monkeypatch):
    # stand-in profiles A = c s^a t^(2b) and B = c' s^a' t^(2b'), a <= 3,
    # b <= 2, make the integrand a polynomial times the Gaussian: the axial
    # and sphere rules integrate it exactly, and so does the radial rule,
    # whose 24 nodes are exact up to degree 47 in u = r^2/2.  The reference
    # takes no quadrature at all
    def stand_in_terms(terms, s, t):
        return sum(c * s**a * t ** (2 * b) for c, a, b in (term.abc for term in terms))

    monkeypatch.setattr(engine, "eval_terms", stand_in_terms)
    c = complex(0.6, 0.8) if m % 2 else 1.0
    pairs = [((0, 0), (3, 2)), ((1, 1), (2, 1)), ((3, 2), (0, 0)), ((2, 0), (1, 2))]
    fs = [psi(0, 1, 1, m), psi(1, 2, 1, m), _mixed_parity_function(m)]
    ys = np.concatenate([sample_points(m, 2, 2.0, seed=40 + m), np.zeros((1, m))])
    for (a, b), (a2, b2) in pairs:
        profiles = ((c, a, b), (-0.7, a2, b2))
        expr = SimpleNamespace(m=m, scalar_terms=(SimpleNamespace(abc=profiles[0], s_power=a),),
                               bivector_terms=(SimpleNamespace(abc=profiles[1], s_power=a2),))
        got = apply_transform_batch(expr, fs, ys)
        wants = [_stand_in_reference(m, profiles, fs, y) for y in ys]
        # relative to the largest value of the pair's transforms
        scale = max(abs(v) for per_y in wants for want in per_y for v in want.values())
        for n, per_y in enumerate(wants):
            for fi, want in enumerate(per_y):
                for blade in set(got[fi]) | set(want):
                    err = abs(got[fi].get(blade, np.zeros(len(ys)))[n] - want.get(blade, 0))
                    assert err <= 1e-13 * scale, (profiles, n, fi, blade, err / scale)


def test_no_route_falls_back_to_the_tensor_grid(monkeypatch):
    # the eigen and diff suites transform on the target-aligned rule alone:
    # with the tensor grid's chunks raising, both still pass.  (The m = 2
    # composition's middle integral is the grid itself.)
    def no_grid(scheme):
        raise AssertionError("the tensor grid was used")

    monkeypatch.setattr(QuadratureScheme, "chunks", no_grid)
    assert max(r.residual for r in verify_eigen(3)) < 1e-12
    assert all(c.passed for c in run("diff", [2]))


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

    (radial_vals,) = bochner_reduce([series_coefficients(kid)], mono, f0, "2p", ys)
    for blade in set(grid_vals) | set(radial_vals):
        a = grid_vals.get(blade, 0.0)
        b = radial_vals.get(blade, 0.0)
        assert np.max(np.abs(a - b)) < 1e-10, blade


@pytest.mark.parametrize("m", [5, 6])
@pytest.mark.parametrize("parity", ["2p", "2p+1"])
def test_bochner_batch_equals_single_sources(m, parity):
    # one reduction for every kernel index gives each kernel exactly what
    # a reduction of its own gives
    k = 1
    mono = monogenic_basis(m, k)[0]
    ys = sample_points(m, 7, 2.2, seed=5)
    sources = [series_coefficients(KernelId(m, i)) for i in range(m - 1)]
    sources.append(series_coefficients(KernelId(m, 1, "minus")))

    def f0(rr: np.ndarray) -> np.ndarray:
        return (1.0 + rr * rr) * np.exp(-0.5 * rr * rr)

    batch = bochner_reduce(sources, mono, f0, parity, ys)
    assert len(batch) == len(sources)
    for source, got in zip(sources, batch):
        (single,) = bochner_reduce([source], mono, f0, parity, ys)
        assert got.keys() == single.keys()
        assert all(np.array_equal(got[blade], single[blade]) for blade in got)
    with pytest.raises(ValueError):
        bochner_reduce([series_coefficients(KernelId(m + 1, 0))], mono, f0, parity, ys)


@pytest.mark.parametrize("twice_order, z_power", [(2, 0), (1, 0), (4, 1), (3, 1)])
@pytest.mark.parametrize(
    "rule",
    [
        radial_rule([14.0]),  # the composition's forward rule, 1,008 nodes
        radial_rule([4 * math.pi]),  # 896 nodes: strips of 18 rows and up, the last partial
    ],
)
def test_radial_integral_triangle_matches_dense_table(rule, twice_order, z_power):
    nodes, weights = rule
    f0 = np.exp(-0.5 * nodes**2) * (1.0 + np.sin(3.0 * nodes))
    r_power = 3
    # the rule's own nodes, and general targets; the reference table comes
    # from the one-row stack, an independent route to the same orders
    for rho in (nodes, np.linspace(0.05, 3.0, 97)):
        z = nodes[:, None] * rho[None, :]
        want = (weights * nodes**r_power * f0) @ (jtilde_stack(twice_order, 0, z)[0] * z**z_power)
        got = engine._radial_bessel_integral(rule, f0, r_power, z_power, twice_order, rho)
        assert got.shape == (len(rho),)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_radial_integral_never_stores_the_table():
    nodes, _ = rule = radial_rule([14.0])
    f0 = np.exp(-0.5 * nodes**2)
    table_bytes = 8 * len(nodes) ** 2
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        engine._radial_bessel_integral(rule, f0, 3, 1, 4, nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # strips of 16,384 entries take about 1.8 MB, a stored table 8 MB
    assert peak < table_bytes / 3, (peak, table_bytes)


def test_verify_eigen_grid_and_radial():
    recs = verify_eigen(2)
    assert len(recs) == 6
    assert max(r.abs_error for r in recs) < 1e-10
    recs = verify_eigen(6, i_values=(0, 2, 4), k_values=(0, 1), j_values=(0, 1, 2))
    assert max(r.abs_error for r in recs) < 1e-10
    # records come in (i, k, j) order
    assert [(r.i, r.k) for r in recs] == [(i, k) for i in (0, 2, 4) for k in (0, 1) for _ in range(3)]
    # j = 2 exercises the (-1)^p alternation in the reference value
    assert any(r.parity == "2p" for r in recs)


def test_verify_inversion_exact_and_radial_composition():
    rep = verify_inversion(4, k_max=60)
    assert rep.exact_ok and rep.first_failure is None
    for m, i in ((3, 0), (4, 1), (5, 0), (6, 0), (8, 0), (10, 0), (12, 0)):
        assert inversion_composition_residual(m, i) < 1e-12, (m, i)


def test_minus_sign_references_reuse_the_streams_per_index(monkeypatch):
    built = []

    def counted(kid):
        built.append(kid)
        return series_coefficients(kid)

    monkeypatch.setattr(engine, "series_coefficients", counted)
    recs = verify_eigen(6, sign="minus", method="radial")
    assert len(recs) == 5 * 3 * 2
    assert built == [KernelId(6, i, "minus") for i in range(5)]
    assert max(r.abs_error for r in recs) < 1e-10
    # one bridge prefactor per dimension, not one per k
    series.bridge_prefactor.cache_clear()
    assert verify_inversion(7, k_max=12).exact_ok
    assert series.bridge_prefactor.cache_info().misses == 1


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


def test_hankel_laguerre_identity():
    worst = 0.0
    for m in (2, 3, 5):
        for k in (0, 2):
            for j in (0, 3):
                worst = max(worst, hankel_laguerre_residual(m, k, j, [0.4, 1.3, 2.7]))
    assert worst < 1e-11
