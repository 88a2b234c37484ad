from __future__ import annotations

from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clifft.algebra import (
    GeometricInvariants,
    Multivector,
    ParaBivector,
    _vector_components,
    blade_product,
    geometric_product,
    invariants_of,
    wedge,
)
from clifft.kernels import KernelId, pde_residual

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
        e_i = Multivector(m, {1 << (i - 1): 1})
        assert e_i * e_i == Multivector.scalar(m, -1)
        for j in range(i + 1, m + 1):
            e_j = Multivector(m, {1 << (j - 1): 1})
            assert e_i * e_j + e_j * e_i == Multivector(m)


@settings(max_examples=60)
@given(multivectors(3), multivectors(3), multivectors(3))
def test_product_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


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
    # the same bits as numpy's dot product and norm
    assert inv.s == float(np.dot(x, y))
    assert inv.z == float(np.linalg.norm(x) * np.linalg.norm(y))
    assert inv.t**2 == pytest.approx(inv.z**2 - inv.s**2, abs=1e-9)
    xv = Multivector.from_vector(4, x)
    w = wedge(x, y)
    # x anticommutes with x^y, and (x^y)^2 = -t^2
    assert xv * w == -(w * xv)
    assert (w * w).isclose(Multivector.scalar(4, -inv.t**2), tol=1e-9)


def test_invariants_at_origin_have_no_angle():
    inv = invariants_of(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert inv.z == 0.0 and inv.w is None


def test_scalar_part_and_norm():
    a = Multivector(3, {0: 2.0, 0b011: 1.5, 0b111: -1.0})
    assert a.scalar_part() == 2.0
    assert a.norm() == pytest.approx(np.sqrt(4.0 + 2.25 + 1.0))
    assert Multivector(2, {0: 1j}).norm() == pytest.approx(1.0)


def test_parabivector_matches_multivector_assembly():
    x = np.array([0.3, -1.2, 0.5])
    y = np.array([1.1, 0.4, -0.2])
    pb = ParaBivector.from_geometry(3, 2.0 - 1.0j, 0.75 + 0.5j, x, y)
    direct = Multivector.scalar(3, 2.0 - 1.0j) + wedge(x, y) * (0.75 + 0.5j)
    assert pb.to_multivector().isclose(direct)
    # one generator, a mask past e_3, three generators, an index pair
    for bad in ({0b001: 1.0}, {0b1001: 1.0}, {0b111: 1.0}, {(1, 2): 1.0}):
        with pytest.raises(ValueError):
            ParaBivector(3, 1.0, bad).to_multivector()


def test_parabivector_is_read_only_and_hashable():
    x = np.array([0.3, -1.2, 0.5])
    y = np.array([1.1, 0.4, -0.2])
    pb = ParaBivector.from_geometry(3, 2.0, 0.75, x, y)
    with pytest.raises(TypeError):
        pb.bivector[0b011] = 99.0
    # the value keeps a copy of the map it was given
    source = {0b011: 1.0}
    kept = ParaBivector(3, 2.0, source)
    source[0b011] = 5.0
    assert kept.bivector == {0b011: 1.0}
    # equal values hash alike, with any numeric type
    twin = ParaBivector(3, 2 + 0j, {0b011: 1 + 0j})
    assert kept == twin and hash(kept) == hash(twin)
    assert len({kept, twin, pb}) == 2


def test_vector_wrapper_and_coefficients():
    mv = Multivector.from_vector(2, [1.0, 2.0])
    assert mv.blades == {0b01: 1.0, 0b10: 2.0}
    # zero coefficients are not stored, and the map is read-only
    assert Multivector(2, {0: 0.0, 0b11: -0.0}).blades == {} == (mv - mv).blades
    with pytest.raises(TypeError):
        mv.blades[0] = 1.0
    for bad in (-1, 0b100, (1,), 1.0):
        with pytest.raises(ValueError):
            Multivector(2, {bad: 1.0})


def test_pseudoscalar_square():
    # (e_1...e_m)^2 = (-1)^(m(m+1)/2) with the negative-definite metric
    for m, square in ((2, -1.0), (3, 1.0)):
        pseudoscalar = Multivector(m, {(1 << m) - 1: 1})
        assert pseudoscalar * pseudoscalar == Multivector.scalar(m, square)


@pytest.mark.parametrize("bad", [[], [[1.0, 2.0]], 3.0])
def test_vectors_must_be_one_dimensional_and_nonempty(bad):
    with pytest.raises(ValueError):
        invariants_of(bad, bad)
    with pytest.raises(ValueError):
        wedge(bad, bad)
    with pytest.raises(ValueError):
        pde_residual(KernelId(2, 0), bad, bad)


def _bits(value) -> tuple:
    """Every float of an invariants record, parabivector or multivector as hex."""
    if isinstance(value, GeometricInvariants):
        return tuple(None if v is None else float(v).hex() for v in vars(value).values())
    if isinstance(value, ParaBivector):
        value = value.to_multivector()
    return tuple((mask, c.real.hex(), c.imag.hex()) for mask, c in value.blades.items())


def test_vector_forms_give_the_same_bits():
    x, y = [3, -7, 1, 5], [2, 9, -4, 6]
    f64 = np.array(x, dtype=float), np.array(y, dtype=float)
    # a one-dimensional float64 array passes through as it is
    assert _vector_components(f64[0]) is f64[0]
    forms = [
        f64,
        ([float(v) for v in x], [float(v) for v in y]),
        (x, y),
        (np.array(x, dtype=np.float32), np.array(y, dtype=np.float32)),
    ]
    want = None
    for xs, ys in forms:
        got = (
            _bits(invariants_of(xs, ys)),
            _bits(ParaBivector.from_geometry(4, 0.5, 1.25 - 0.5j, xs, ys)),
            _bits(wedge(xs, ys)),
        )
        want = want or got
        assert got == want
    # complex components keep the complex path
    xc, yc = f64[0] * (1 + 1j), f64[1] * (1 - 2j)
    assert np.iscomplexobj(_vector_components(xc))
    inv = invariants_of(xc, yc)
    assert inv.s == float(np.real(np.dot(xc, yc)))
    assert inv.z == float(np.linalg.norm(xc) * np.linalg.norm(yc))
    assert wedge(xc, yc).blades[0b11] == xc[0] * yc[1] - xc[1] * yc[0]
    # float64 arrays that are 0-d, 2-D or empty are still refused
    for bad in (np.array(3.0), np.ones((1, 4)), np.zeros(0)):
        with pytest.raises(ValueError):
            invariants_of(bad, bad)
        with pytest.raises(ValueError):
            wedge(bad, bad)
        with pytest.raises(ValueError):
            ParaBivector.from_geometry(4, 1.0, 1.0, bad, bad)


def test_blade_product_bivector_rules():
    assert blade_product({0b11: 1}, {0b01: 1}) == {0b10: 1}  # e12 e1 = e2
    assert blade_product({0b11: 1}, {0b10: 1}) == {0b01: -1}  # e12 e2 = -e1
    assert blade_product({0b11: 1}, {0b11: 1}) == {0: -1}


def _clifford_matrices(m: int) -> dict[int, np.ndarray]:
    """Complex matrices of the 2**m blades of Cl(0, m), built without the
    library's sign rule.  e_j = i G_j, where the G_j are Hermitian,
    anticommuting and square to one: Jordan-Wigner strings Z..Z X 1..1 and
    Z..Z Y 1..1 of Pauli matrices on ceil(m/2) qubits.  With m rounded up
    to even the strings generate every matrix of that size, so the
    representation is faithful; the blade of a mask is the product of its
    generators in increasing order."""
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    pauli_y = np.array([[0, -1j], [1j, 0]])
    pauli_z = np.diag([1.0 + 0j, -1.0])
    qubits = (m + 1) // 2
    gens = [
        1j * reduce(np.kron, [pauli_z] * q + [p] + [np.eye(2)] * (qubits - q - 1))
        for q in range(qubits)
        for p in (pauli_x, pauli_y)
    ][:m]
    blades = {}
    for mask in range(1 << m):
        mat = np.eye(1 << qubits, dtype=complex)
        for j in range(m):
            if mask >> j & 1:
                mat = mat @ gens[j]
        blades[mask] = mat
    return blades


def _as_matrix(blades: dict[int, np.ndarray], values: dict) -> np.ndarray:
    """sum_A values[A] E_A; array coefficients give one matrix per point."""
    return sum((np.multiply.outer(c, blades[mask]) for mask, c in values.items()), 0 * blades[0])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_blade_product_matches_clifford_matrices(m):
    blades = _clifford_matrices(m)
    one = blades[0]
    for j in range(m):
        e_j = blades[1 << j]
        assert np.allclose(e_j @ e_j, -one)
        for k in range(j + 1, m):
            e_k = blades[1 << k]
            assert np.allclose(e_j @ e_k + e_k @ e_j, 0 * one)
    # independent blade matrices: equal matrices mean equal coefficients
    flat = np.array([mat.ravel() for mat in blades.values()])
    assert np.linalg.matrix_rank(flat) == 1 << m

    rng = np.random.default_rng(40 + m)

    def numbers():
        return {
            mask: complex(rng.normal(), rng.normal())
            for mask in range(1 << m) if rng.random() < 0.7
        }

    def arrays():
        return {mask: rng.normal(size=7) + 1j * rng.normal(size=7) for mask in range(1 << m)}

    for a, b in ((numbers(), numbers()), (arrays(), arrays()), (numbers(), arrays())):
        got = _as_matrix(blades, blade_product(a, b))
        want = _as_matrix(blades, a) @ _as_matrix(blades, b)
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_blade_product_keeps_fractions_exact():
    prod = blade_product({0b001: Fraction(1, 3), 0b110: Fraction(-2, 7)}, {0b011: Fraction(5, 2)})
    assert prod == {0b010: Fraction(-5, 6), 0b101: Fraction(-5, 7)}  # e1 e12 = -e2
    assert all(type(c) is Fraction for c in prod.values())
