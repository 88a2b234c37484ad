from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from clifft import basis as basis_module
from clifft.algebra import Multivector, blade_product
from clifft.basis import (
    BasisFunction,
    CliffordPolynomial,
    GaussianPolynomial,
    PolynomialTable,
    creation_psi,
    dirac,
    harmonic_basis,
    harmonic_dimension,
    laguerre_poly_coeffs,
    laplace,
    monogenic_basis,
    monogenic_projection,
    psi,
    sphere_inner_exact,
    x_times,
)


def test_harmonic_dimension_spots():
    # dim H_k(R^m) = C(k+m-1, m-1) - C(k+m-3, m-1)
    assert harmonic_dimension(2, 0) == 1
    assert harmonic_dimension(2, 3) == 2
    assert harmonic_dimension(3, 2) == 5
    assert harmonic_dimension(4, 2) == 9
    assert harmonic_dimension(6, 4) == 105


def test_harmonic_basis_is_harmonic_and_orthogonal():
    for m, k in ((2, 3), (3, 2), (4, 3), (5, 4), (6, 3)):
        basis = harmonic_basis(m, k)
        assert len(basis) == harmonic_dimension(m, k)
        for p in basis:
            assert laplace(p).is_zero()
        for a in range(len(basis)):
            assert sphere_inner_exact(basis[a], basis[a]) > 0
            for b in range(a):
                assert sphere_inner_exact(basis[a], basis[b]) == 0


def _fraction_inner(m, u, v):
    total = Fraction(0)
    for ea, ca in u.items():
        for eb, cb in v.items():
            w = basis_module._moment(m, tuple(x + y for x, y in zip(ea, eb)))
            if w:
                total += ca * cb * w
    return total


def _fraction_primitive(v, order):
    denom_lcm = math.lcm(*(c.denominator for c in v.values()))
    ints = {e: int(c * denom_lcm) for e, c in v.items()}
    g = math.gcd(*ints.values())
    if ints[next(e for e in order if ints.get(e))] < 0:
        g = -g
    return {e: Fraction(c, g) for e, c in ints.items() if c}


def _fraction_harmonic_basis(m, k):
    """Class-by-class Laplacian nullspace, then Gram-Schmidt in Fractions
    on rational sphere moments: the reference for the integer route."""
    classes = {}
    for e in basis_module._monomials(m, k):
        classes.setdefault(tuple(x % 2 for x in e), []).append(e)
    row_monos = basis_module._monomials(m, k - 2) if k >= 2 else []
    out = []
    for par, sub in classes.items():
        rows_of = {e: {} for e in row_monos if tuple(x % 2 for x in e) == par}
        for col, e in enumerate(sub):
            for j in range(m):
                if e[j] >= 2:
                    row = rows_of[e[:j] + (e[j] - 2,) + e[j + 1 :]]
                    row[col] = row.get(col, Fraction(0)) + e[j] * (e[j] - 1)
        ortho, norms = [], []
        for vec in basis_module._nullspace(list(rows_of.values()), len(sub)):
            v = {sub[idx]: c for idx, c in enumerate(vec) if c}
            for u, nu in zip(ortho, norms):
                proj = _fraction_inner(m, v, u)
                if proj:
                    v = {
                        e: v.get(e, Fraction(0)) - (proj / nu) * u.get(e, Fraction(0))
                        for e in set(v) | set(u)
                    }
                    v = {e: c for e, c in v.items() if c}
            v = _fraction_primitive(v, sub)
            ortho.append(v)
            norms.append(_fraction_inner(m, v, v))
        out.extend(CliffordPolynomial(m, {e: {0: c} for e, c in v.items()}) for v in ortho)
    return out


HARMONIC_ORACLE_CASES = [(m, k) for m in range(2, 7) for k in range(5)] + [(8, 4)]


@pytest.mark.parametrize("m, k", HARMONIC_ORACLE_CASES)
def test_harmonic_basis_matches_fraction_gram_schmidt(m, k):
    built = harmonic_basis(m, k)
    assert list(built) == _fraction_harmonic_basis(m, k)
    position = {e: n for n, e in enumerate(basis_module._monomials(m, k))}
    for p in built:
        coeffs = [blades[0] for blades in p.terms.values()]
        assert set(b for blades in p.terms.values() for b in blades) == {0}
        assert all(c.denominator == 1 for c in coeffs)
        assert math.gcd(*(c.numerator for c in coeffs)) == 1
        assert coeffs[0] > 0
        order = [position[e] for e in p.terms]
        assert order == sorted(order)


def test_monogenic_dirac_annihilation_exact():
    for m, k in ((2, 2), (3, 3), (4, 2)):
        for mono in monogenic_basis(m, k):
            assert dirac(mono.poly).is_zero()
            assert mono.poly.is_homogeneous() and mono.poly.degree() == k


def test_monogenic_projection_requires_harmonic_input():
    # x (x 1) = -r^2 is scalar and homogeneous but not harmonic
    r2 = x_times(x_times(CliffordPolynomial.constant(2, Fraction(1))))
    with pytest.raises(ValueError):
        monogenic_projection(r2)


def test_radial_profile_spot_value():
    # psi_{2,0,1} in dimension 4: L_1^1(r^2) e^(-r^2/2) = (2 - r^2) e^(-r^2/2)
    bf = psi(2, 0, 1, 4)
    pts = np.array([[0.5, 0.0, -0.3, 0.2], [1.0, 1.0, 1.0, 1.0]])
    r2 = np.sum(pts**2, axis=1)
    want = (2.0 - r2) * np.exp(-0.5 * r2)
    got = bf.values(pts)
    assert set(got) == {0}
    assert np.allclose(got[0], want, atol=1e-14)


def test_psi_parity_and_blades():
    even = psi(0, 1, 1, 3)
    odd = psi(1, 1, 1, 3)
    # a degree-k monogenic has even grades only, x times it odd grades only
    assert all(bin(b).count("1") % 2 == 0 for b in even.values(np.ones((1, 3))))
    assert all(bin(b).count("1") % 2 == 1 for b in odd.values(np.ones((1, 3))))


def test_creation_operator_matches_laguerre_route():
    for m in (2, 3):
        for k in (0, 1):
            for j in range(4):
                a = psi(j, k, 1, m)
                b = creation_psi(j, k, 1, m)
                assert a.poly == b.poly, (m, k, j)


def test_ell_range_is_one_based():
    assert psi(0, 1, harmonic_dimension(3, 1), 3) is not None
    with pytest.raises(ValueError):
        psi(0, 1, 0, 3)
    with pytest.raises(ValueError):
        psi(0, 1, harmonic_dimension(3, 1) + 1, 3)


def test_gaussian_polynomial_dirac_product_rule():
    # (d - x) on P e^(-r^2/2) equals the dirac() of the wrapper, checked
    # against central differences
    m = 3
    poly = monogenic_basis(m, 2)[0].poly
    gp = GaussianPolynomial(poly)
    derived = gp.dirac()
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, m)
    h = 1e-5
    acc = Multivector(m)
    for jj in range(m):
        e = Multivector(m, {1 << jj: 1})
        xp, xm = x.copy(), x.copy()
        xp[jj] += h
        xm[jj] -= h
        fp = gp.evaluate(xp)
        fm = gp.evaluate(xm)
        acc = acc + e * ((fp - fm) * (0.5 / h))
    got = derived.evaluate(x)
    assert got.isclose(acc, tol=1e-8)


def test_laguerre_poly_coeffs_exact():
    # L_2^1(x) = 3 - 3x + x^2/2
    assert laguerre_poly_coeffs(2, Fraction(1)) == [
        Fraction(3), Fraction(-3), Fraction(1, 2),
    ]


def test_x_times_parity_flip():
    p = CliffordPolynomial.constant(3, Fraction(1))
    xp = x_times(p)
    assert xp.degree() == 1
    assert x_times(xp).degree() == 2


def test_orthogonality_of_monogenic_sectors():
    # distinct degrees are orthogonal on the sphere after weighting by
    # the correct power; exercised through the exact sphere inner product
    h1 = harmonic_basis(3, 1)[0]
    h2 = harmonic_basis(3, 2)[0]
    assert sphere_inner_exact(h1, h2) == 0


def test_gaussian_evaluate_matches_values():
    bf = psi(1, 1, 1, 3)
    pt = np.array([0.4, -0.7, 0.2])
    mv = GaussianPolynomial(bf.poly).evaluate(pt)
    vals = bf.values(pt[None, :])
    assert set(mv.blades) == set(vals)
    for blade, arr in vals.items():
        assert mv.blades[blade] == pytest.approx(arr[0])


def _majorant(p: CliffordPolynomial, pts: np.ndarray) -> dict[int, np.ndarray]:
    """Per blade, the sum of |coefficient x monomial| over the terms."""
    absolute = CliffordPolynomial(
        p.m, {e: {b: abs(c) for b, c in blades.items()} for e, blades in p.terms.items()}
    )
    return absolute.evaluate_batch(np.abs(pts))


def test_evaluate_batch_matches_pointwise_evaluate():
    # the batch builds each monomial from a table of powers by repeated
    # multiplication; the pointwise route raises each coordinate with **.
    # The grid and radial routes share the batch evaluator, so it is held
    # to this oracle one polynomial at a time and several in one table.
    rng = np.random.default_rng(17)
    for m in (2, 3, 4):
        pts = rng.uniform(-3.0, 3.0, size=(25, m))
        polys = [psi(j, k, 1, m).poly for j in range(3) for k in range(4)]
        polys += [CliffordPolynomial.constant(m, Fraction(-7, 3)), CliffordPolynomial(m)]
        table = PolynomialTable(m, polys)
        together = table.split(table.evaluate(np.ascontiguousarray(pts.T)))
        # rows of even degree come first; within a parity, polynomial order
        assert [(pi, b) for pi, vals in enumerate(together) for b in vals] == sorted(
            table.rows, key=lambda row: row[0]
        )
        for p, joint in zip(polys, together):
            scale = _majorant(p, pts)
            for batch in (p.evaluate_batch(pts), joint):
                assert set(batch) == set(scale)
                for n, pt in enumerate(pts):
                    single = p.evaluate(pt)
                    assert set(single.blades) <= set(batch)
                    for blade, vals in batch.items():
                        err = abs(vals[n] - single.blades.get(blade, 0))
                        assert err <= 1e-15 * max(1.0, scale[blade][n]), (m, p, blade, err)
    assert CliffordPolynomial(3).evaluate_batch(pts[:, :3]) == {}
    with pytest.raises(ValueError):
        CliffordPolynomial(3).evaluate_batch(np.zeros((4, 2)))


def test_polynomial_table_weight_multiplies_every_value():
    rng = np.random.default_rng(5)
    m = 3
    polys = [psi(j, k, 1, m).poly for j in range(3) for k in range(3)]
    cols = rng.uniform(-2.0, 2.0, size=(m, 40))
    weight = rng.uniform(0.1, 3.0, size=40)
    table = PolynomialTable(m, polys)
    plain, weighted = table.evaluate(cols), table.evaluate(cols, weight)
    assert weighted.shape == plain.shape == (len(table.rows), 40)
    assert np.max(np.abs(weighted - plain * weight)) <= 1e-14 * np.max(np.abs(plain * weight))
    assert PolynomialTable(m, []).evaluate(cols).shape == (0, 40)


def test_polynomial_table_puts_even_rows_first_and_adds_split_rows():
    # 1 + x_1 + x_1 x_2^2 on the scalar blade has terms of both parities, so
    # it takes one even and one odd row; x_2 e_1 is odd only
    m = 3
    mixed = CliffordPolynomial(m, {
        (0, 0, 0): {0: Fraction(1)},
        (1, 0, 0): {0: Fraction(1)},
        (1, 2, 0): {0: Fraction(1)},
        (0, 1, 0): {1: Fraction(3, 2)},
    })
    polys = [psi(1, 0, 1, m).poly, mixed, psi(0, 2, 1, m).poly]
    table = PolynomialTable(m, polys)
    assert table.rows.count((1, 0)) == 2
    cols = np.random.default_rng(9).uniform(-2.0, 2.0, size=(m, 30))
    vals = table.evaluate(cols)
    # x -> -x keeps the even rows and negates the odd ones
    mirrored = table.evaluate(-cols)
    assert np.array_equal(mirrored[: table.n_even], vals[: table.n_even])
    assert np.array_equal(mirrored[table.n_even :], -vals[table.n_even :])
    assert 0 < table.n_even < len(table.rows)
    # the split rows of a blade add up to its value, against the pointwise route
    for p, got in zip(polys, table.split(vals)):
        pointwise = [p.evaluate(pt).blades for pt in cols.T]
        assert set(got) == set().union(*pointwise)
        for blade, v in got.items():
            want = np.array([blades.get(blade, 0) for blades in pointwise])
            assert np.allclose(v, want, rtol=1e-14, atol=1e-14)


def _reference_vector_times(p: CliffordPolynomial, step: int) -> CliffordPolynomial:
    """sum_j e_j D_j p term by term through blade_product in Fractions:
    the reference for the integer route of dirac and x_times."""
    out = {}
    for expo, blades in p.terms.items():
        for j in range(p.m):
            factor = 1 if step > 0 else expo[j]
            if not factor:
                continue
            row = out.setdefault(expo[:j] + (expo[j] + step,) + expo[j + 1 :], {})
            for blade, c in blade_product({1 << j: factor}, blades).items():
                row[blade] = row.get(blade, Fraction(0)) + c
    return CliffordPolynomial(p.m, out)


def _random_polynomial(rng, m: int, n_terms: int, max_degree: int) -> CliffordPolynomial:
    terms = {}
    for _ in range(n_terms):
        expo = tuple(int(e) for e in rng.integers(0, max_degree + 1, m))
        row = terms.setdefault(expo, {})
        for blade in rng.choice(1 << m, size=int(rng.integers(1, 4)), replace=False):
            num, den = int(rng.integers(-40, 41)), int(rng.integers(1, 13))
            row[int(blade)] = Fraction(num, den)
    return CliffordPolynomial(m, terms)


def _ordered(p: CliffordPolynomial):
    return [(e, list(row.items())) for e, row in p.terms.items()]


def _assert_clean(p: CliffordPolynomial, m: int):
    """The invariants is_zero and == rely on."""
    assert p.m == m
    for expo, row in p.terms.items():
        assert type(expo) is tuple and len(expo) == m
        assert all(type(e) is int and e >= 0 for e in expo)
        assert row, expo
        for blade, c in row.items():
            assert type(blade) is int and 0 <= blade < 1 << m
            assert type(c) is Fraction and c != 0


def test_dirac_and_x_times_match_blade_product_reference():
    rng = np.random.default_rng(11)
    for m in (2, 3, 4, 5):
        for _ in range(25):
            p = _random_polynomial(rng, m, int(rng.integers(1, 9)), 4)
            for op, step in ((dirac, -1), (x_times, 1)):
                got, want = op(p), _reference_vector_times(p, step)
                assert got == want
                assert _ordered(got) == _ordered(want)
    # x(x q) = -r^2 q: the cross terms e_i e_j + e_j e_i cancel
    q = CliffordPolynomial(3, {(1, 0, 0): {0b110: Fraction(2, 3)}, (0, 1, 1): {1: Fraction(-5)}})
    assert x_times(x_times(q)) == basis_module._r2_times(q).scale(-1)


@pytest.mark.parametrize("m, k", [(m, k) for m in range(2, 7) for k in range(1, 5)])
def test_monogenic_route_matches_blade_product_reference(m, k):
    for h, mono in zip(harmonic_basis(m, k), monogenic_basis(m, k)):
        dh = _reference_vector_times(h, -1)
        want = h + _reference_vector_times(dh, 1).scale(Fraction(1, m + 2 * k - 2))
        assert _ordered(mono.poly) == _ordered(want)
        assert _reference_vector_times(mono.poly, -1).is_zero()


@pytest.mark.parametrize("m", range(2, 7))
def test_monogenic_projection_matches_the_composed_operators(m):
    # the composition the one-pass projection replaces, through the public
    # dirac, x_times, scale and +: equal term for term, in blade order
    for k in range(1, 5):
        for h in harmonic_basis(m, k):
            got = monogenic_projection(h)
            want = h + x_times(dirac(h)).scale(Fraction(1, m + 2 * k - 2))
            assert _ordered(got) == _ordered(want)
            assert all(type(c) is Fraction for row in got.terms.values() for c in row.values())
            _assert_clean(got, m)
    assert monogenic_projection(harmonic_basis(m, 0)[0]) == harmonic_basis(m, 0)[0]


def test_monogenic_projection_self_check_catches_a_wrong_bivector_part(monkeypatch):
    h = harmonic_basis(4, 2)[0]
    vector_times = basis_module._vector_times

    def flipped(m, rows, step):
        # x dH with its bivector part negated; dH and the check untouched
        out = vector_times(m, rows, step)
        if step < 0:
            return out
        return {e: {b: -n if b.bit_count() == 2 else n for b, n in row.items()}
                for e, row in out.items()}

    monkeypatch.setattr(basis_module, "_vector_times", flipped)
    with pytest.raises(RuntimeError, match="monogenic"):
        monogenic_projection(h)


def _fd_dirac(p: CliffordPolynomial, pts: np.ndarray, h: float) -> dict[int, np.ndarray]:
    """sum_j e_j d/dx_j of p's values by the five-point stencil, which
    is exact for polynomials of degree <= 4 up to rounding."""
    acc: dict[int, np.ndarray] = {}
    for j in range(p.m):
        step = np.zeros(p.m)
        step[j] = h
        vals = [p.evaluate_batch(pts + s * step) for s in (-2, -1, 1, 2)]
        blades = set().union(*vals)
        deriv = {
            b: sum(w * v.get(b, 0.0) for w, v in zip((1.0, -8.0, 8.0, -1.0), vals)) / (12 * h)
            for b in blades
        }
        for b, c in blade_product({1 << j: 1.0}, deriv).items():
            acc[b] = acc.get(b, 0.0) + c
    return acc


def _max_abs(values: dict[int, np.ndarray]) -> float:
    return max((float(np.max(np.abs(v))) for v in values.values()), default=0.0)


@pytest.mark.parametrize("m, k", [(m, k) for m in range(3, 6) for k in range(4)])
def test_monogenics_pass_a_finite_difference_dirac(m, k):
    rng = np.random.default_rng(100 * m + k)
    pts = rng.uniform(-1.0, 1.0, size=(12, m))
    for h, mono in zip(harmonic_basis(m, k), monogenic_basis(m, k)):
        scale = max(1.0, _max_abs(_majorant(mono.poly, np.abs(pts) + 0.1)))
        assert _max_abs(_fd_dirac(mono.poly, pts, 1e-2)) <= 1e-11 * scale
        # the same stencil sees the Dirac of the harmonic, which is not zero
        fd, exact = _fd_dirac(h, pts, 1e-2), dirac(h).evaluate_batch(pts)
        assert set(exact) <= set(fd)
        err = max(float(np.max(np.abs(fd[b] - exact.get(b, 0.0)))) for b in fd)
        assert err <= 1e-11 * scale
        if k:
            assert _max_abs(exact) > 1e-3


def test_trusted_results_keep_the_polynomial_invariants():
    rng = np.random.default_rng(5)
    for m in (2, 3, 4):
        for _ in range(10):
            p = _random_polynomial(rng, m, int(rng.integers(1, 7)), 3)
            q = _random_polynomial(rng, m, int(rng.integers(1, 7)), 3)
            results = [
                dirac(p), x_times(p), laplace(p), p.scale(Fraction(-3, 7)), p.scale(0),
                p + q, p - q, p - p, x_times(x_times(p)), dirac(x_times(p)),
                basis_module._r2_times(p),
            ]
            for r in results:
                _assert_clean(r, m)
            assert (p - p).is_zero() and p.scale(0).is_zero()
            assert p - p == CliffordPolynomial(m)
            assert p + q - q == p
        mono = monogenic_basis(m, 2)[-1].poly
        assert dirac(mono).is_zero() and dirac(mono) == CliffordPolynomial(m)
        _assert_clean(mono, m)
        _assert_clean(psi(3, 2, 1, m).poly, m)
