from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clifft.algebra import (
    Multivector,
    ParaBivector,
    geometric_product,
    hermitian_inner,
    invariants_of,
    wedge,
)

coeff = st.integers(min_value=-4, max_value=4)


def multivectors(m: int):
    n_blades = 1 << m
    return st.builds(
        lambda cs: Multivector(m, {b: c for b, c in enumerate(cs) if c}),
        st.lists(coeff, min_size=n_blades, max_size=n_blades),
    )


def vectors(m: int):
    return st.lists(coeff, min_size=m, max_size=m).map(
        lambda cs: np.array(cs, dtype=float)
    )


def test_generator_relations():
    m = 3
    for i in range(1, m + 1):
        e_i = Multivector.basis_blade(m, i)
        assert e_i * e_i == Multivector.scalar(m, -1)
        for j in range(i + 1, m + 1):
            e_j = Multivector.basis_blade(m, j)
            assert e_i * e_j + e_j * e_i == Multivector(m)


@settings(max_examples=60)
@given(multivectors(3), multivectors(3), multivectors(3))
def test_product_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60)
@given(multivectors(3), multivectors(3))
def test_main_anti_involution_reverses_products(a, b):
    assert (a * b).main_anti_involution() == b.main_anti_involution() * a.main_anti_involution()


@given(vectors(3), vectors(3))
def test_wedge_antisymmetric(x, y):
    assert wedge(x, y) == -wedge(y, x)
    assert wedge(x, x) == Multivector(3)


@given(vectors(3), vectors(3))
def test_vector_product_splits_into_inner_and_wedge(x, y):
    xv = Multivector.from_vector(3, x)
    yv = Multivector.from_vector(3, y)
    s = float(np.dot(x, y))
    assert xv * yv == Multivector.scalar(3, -s) + wedge(x, y)


@given(vectors(4), vectors(4))
def test_invariant_identities(x, y):
    inv = invariants_of(x, y)
    assert inv.t**2 == pytest.approx(inv.z**2 - inv.s**2, abs=1e-9)
    xv = Multivector.from_vector(4, x)
    w = wedge(x, y)
    # x anticommutes with x^y, and (x^y)^2 = -t^2
    assert xv * w == -(w * xv)
    assert (w * w).isclose(Multivector.scalar(4, -inv.t**2), tol=1e-9)


def test_invariants_at_origin_have_no_angle():
    inv = invariants_of(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert inv.z == 0.0 and inv.w is None


def test_grade_projection_and_scalar_part():
    m = 3
    a = Multivector(m, {0: 2.0, 0b011: 1.5, 0b111: -1.0})
    assert a.scalar_part() == 2.0
    assert a.grade_project(2) == Multivector(m, {0b011: 1.5})
    assert a.grade_project(1) == Multivector(m)


def test_hermitian_inner_conjugates_first_slot():
    a = Multivector(2, {0: 1j})
    b = Multivector(2, {0: 1j})
    assert hermitian_inner(a, b) == pytest.approx(1.0)
    assert a.norm() == pytest.approx(1.0)


def test_parabivector_matches_multivector_assembly():
    x = np.array([0.3, -1.2, 0.5])
    y = np.array([1.1, 0.4, -0.2])
    pb = ParaBivector.from_geometry(3, 2.0 - 1.0j, 0.75, x, y)
    direct = Multivector.scalar(3, 2.0 - 1.0j) + wedge(x, y) * 0.75
    assert pb.to_multivector().isclose(direct)
    assert pb.bivector_coefficient(1, 2) == pytest.approx(
        0.75 * (x[0] * y[1] - x[1] * y[0])
    )


def test_vector_wrapper_and_coefficients():
    mv = Multivector.from_vector(2, [1.0, 2.0])
    assert mv.coefficients == {(1,): 1.0, (2,): 2.0}


def test_json_round_trip():
    a = Multivector(3, {0: 1.0 + 2.0j, 0b101: -0.5})
    back = Multivector.from_json(a.to_json())
    assert back == a


def test_pseudoscalar_square():
    # (e_1...e_m)^2 = (-1)^(m(m+1)/2) with the negative-definite metric
    assert Multivector.pseudoscalar(3) * Multivector.pseudoscalar(3) == Multivector.scalar(3, 1.0)
    assert Multivector.pseudoscalar(2) * Multivector.pseudoscalar(2) == Multivector.scalar(2, -1.0)


@pytest.mark.parametrize("bad", [[], [[1.0, 2.0]], 3.0])
def test_vectors_must_be_one_dimensional_and_nonempty(bad):
    with pytest.raises(ValueError):
        invariants_of(bad, bad)
    with pytest.raises(ValueError):
        wedge(bad, bad)
