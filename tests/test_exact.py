from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clifft.exact import Exact, I_UNIT, ONE, U, U_FLOAT, ZERO

fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
upows = st.integers(min_value=-3, max_value=3)


def exacts(upow=upows):
    return st.builds(Exact, fractions, fractions, upow)


def test_zero_normalizes_power():
    assert Exact(0, 0, 5) == ZERO
    assert Exact(0, 0, 5).upow == 0


def test_add_requires_matching_power():
    with pytest.raises(ValueError):
        Exact(1) + Exact(1, 0, 1)
    # zero absorbs into either power
    assert ZERO + Exact(2, 0, 3) == Exact(2, 0, 3)
    assert Exact(2, 0, -1) + ZERO == Exact(2, 0, -1)


@given(exacts(), exacts())
def test_mul_adds_powers(a, b):
    prod = a * b
    if not (a.is_zero or b.is_zero):
        assert prod.upow == a.upow + b.upow
    assert complex(prod) == pytest.approx(complex(a) * complex(b), rel=1e-12, abs=1e-30)


@given(exacts(upow=st.just(0)), exacts(upow=st.just(0)), exacts(upow=st.just(0)))
def test_ring_laws_at_fixed_power(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(exacts())
def test_conjugate_involution(a):
    assert a.conjugate().conjugate() == a
    assert complex(a.conjugate()) == pytest.approx(complex(a).conjugate(), rel=1e-12, abs=1e-30)


def test_u_is_sqrt_pi_over_2():
    assert U_FLOAT == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-15)
    assert float(U * U) == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert U.upow == 1


def test_division_subtracts_powers():
    q = Exact(3, 0, 2) / Exact(2, 0, 1)
    assert q == Exact(Fraction(3, 2), 0, 1)
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_powers_of_i():
    assert I_UNIT * I_UNIT == Exact(-1)
    assert I_UNIT**4 == ONE
    with pytest.raises(TypeError):
        I_UNIT ** (-1)  # only nonnegative integer powers are defined


def test_coercion_of_mixed_operands():
    assert Exact(1) + 1 == Exact(2)
    assert Exact(1) * Fraction(1, 3) == Exact(Fraction(1, 3))
    assert Exact(2) * 0.5 == Exact(1)
    assert Exact(1) * 1j == I_UNIT
    assert Exact._coerce("nope") is None


def test_float_of_imaginary_raises():
    with pytest.raises(ValueError):
        float(I_UNIT)


often_zero = st.one_of(st.just(Fraction(0)), fractions)
sparse_exacts = st.builds(Exact, often_zero, often_zero, upows)
plain_operands = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    often_zero,
    st.builds(
        complex,
        st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
        st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
    ),
)


def _four_products(a: Exact, b: Exact) -> tuple[Fraction, Fraction, int]:
    re = a.re * b.re - a.im * b.im
    im = a.re * b.im + a.im * b.re
    return re, im, (a.upow + b.upow) if (re or im) else 0


@given(sparse_exacts, st.one_of(sparse_exacts, plain_operands))
def test_mul_real_operand_paths_match_four_products(a, b):
    want = _four_products(a, Exact._coerce(b))
    for prod in (a * b, b * a):
        assert isinstance(prod, Exact)
        assert isinstance(prod.re, Fraction) and isinstance(prod.im, Fraction)
        assert (prod.re, prod.im, prod.upow) == want


@pytest.mark.parametrize(
    "value, number",
    [
        (Exact(3), 3),
        (Exact(-7), -7),
        (Exact(Fraction(-7, 3)), Fraction(-7, 3)),
        (Exact(Fraction(1, 2)), 0.5),
        (Exact(Fraction(-3, 8), Fraction(5, 4)), complex(-0.375, 1.25)),
        (Exact(0, 1), 1j),
        (Exact(2), 2.0 + 0j),
        (ZERO, 0),
        (Exact(0, 0, 3), 0.0),
    ],
)
def test_hash_agrees_with_eq_on_numbers(value, number):
    assert value == number
    assert hash(value) == hash(number)
    assert len({value, number}) == 1
    assert {number: "x"}.get(value) == "x"
    assert {value: "x"}.get(number) == "x"


def test_hash_of_values_no_number_equals():
    # a power of u, or a part no binary float holds, equals only an Exact
    for value in (Exact(3, 0, 1), Exact(Fraction(1, 3), 1), Exact(10**400, 1)):
        assert hash(value) == hash(Exact(value.re, value.im, value.upow))
        assert len({value, Exact(value.re, value.im, value.upow)}) == 1
    assert Exact(Fraction(1, 3), 1) != complex(1 / 3, 1)


def test_public_constructor_still_rejects_non_finite_and_strings():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Exact(bad)
        with pytest.raises(ValueError):
            Exact(0, bad)
        with pytest.raises(ValueError):
            Exact(1) * complex(bad, 0.0)
    with pytest.raises(TypeError):
        Exact("1")
    with pytest.raises(TypeError):
        Exact(0, "1")
    assert Exact(0, 0, -4).upow == 0


# Reference for the arithmetic results: plain (Fraction, Fraction)
# complex numbers and an integer power of u (products by _four_products),
# each result then built through the public constructor.


def _ref_add(a, b):
    if not (a.re or a.im):
        return b.re, b.im, b.upow
    if not (b.re or b.im):
        return a.re, a.im, a.upow
    return a.re + b.re, a.im + b.im, a.upow


def _ref_neg(a):
    return -a.re, -a.im, a.upow


def _ref_div(a, b):
    d = b.re * b.re + b.im * b.im
    return (
        (a.re * b.re + a.im * b.im) / d,
        (a.im * b.re - a.re * b.im) / d,
        a.upow - b.upow,
    )


def _assert_built_as(got, ref):
    want = Exact(*ref)
    assert isinstance(got, Exact)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert type(got.upow) is int
    assert (got.re, got.im, got.upow) == (want.re, want.im, want.upow)
    if not (got.re or got.im):
        assert got.upow == 0


@given(sparse_exacts, sparse_exacts)
def test_trusted_results_match_fraction_pair_reference(a, b):
    _assert_built_as(-a, _ref_neg(a))
    _assert_built_as(a.conjugate(), (a.re, -a.im, a.upow))
    _assert_built_as(a * b, _four_products(a, b))
    if a.upow == b.upow or a.is_zero or b.is_zero:
        _assert_built_as(a + b, _ref_add(a, b))
        _assert_built_as(a - b, _ref_add(a, Exact(*_ref_neg(b))))
    if not b.is_zero:
        _assert_built_as(a / b, _ref_div(a, b))


@given(sparse_exacts, st.integers(min_value=0, max_value=6))
def test_trusted_powers_match_repeated_reference_products(a, n):
    ref = (Fraction(1), Fraction(0), 0)
    for _ in range(n):
        ref = _four_products(Exact(*ref), a)
    _assert_built_as(a**n, ref)


@given(sparse_exacts, st.one_of(st.integers(-10**6, 10**6), often_zero))
def test_int_and_fraction_operands_coerce_like_the_public_constructor(a, x):
    o = Exact._coerce(x)
    _assert_built_as(o, (Fraction(x), Fraction(0), 0))
    _assert_built_as(a * x, _four_products(a, Exact(x)))
    _assert_built_as(x * a, _four_products(Exact(x), a))
    if a.upow == 0 or a.is_zero or not x:
        _assert_built_as(a + x, _ref_add(a, Exact(x)))
        _assert_built_as(x - a, _ref_add(Exact(x), Exact(*_ref_neg(a))))
    if x:
        _assert_built_as(a / x, _ref_div(a, Exact(x)))


def test_eq_against_non_finite_numbers_is_false():
    for bad in (math.nan, math.inf, -math.inf, complex(math.nan, 0.0), complex(0.0, math.inf)):
        for value in (Exact(1), ZERO, Exact(2, 3, 1)):
            assert not value == bad
            assert value != bad
            assert not bad == value
    # arithmetic with a non-finite operand still raises
    for op in (lambda v: Exact(1) + v, lambda v: v - Exact(1), lambda v: Exact(1) / v):
        with pytest.raises(ValueError):
            op(math.inf)
        with pytest.raises(ValueError):
            op(complex(math.nan, 1.0))


def test_upow_must_be_an_integer():
    for bad in (2.7, 2.0, "2", Fraction(2)):
        with pytest.raises(TypeError):
            Exact(1, 0, bad)
    assert Exact(1, 0, True).upow == 1
    assert type(Exact(3, 0, np.int64(-2)).upow) is int
    assert Exact(3, 0, np.int64(-2)) == Exact(3, 0, -2)


def _assert_canonical(x):
    """(a + I b)/d u**upow with d > 0 and gcd(a, b, d) = 1; zero is
    0/1 with upow 0; re and im are Fraction views of a/d and b/d."""
    assert isinstance(x, Exact)
    a, b, d = x._a, x._b, x._d
    assert type(a) is int and type(b) is int and type(d) is int and type(x.upow) is int
    assert d > 0 and math.gcd(a, b, d) == 1
    if not (a or b):
        assert (d, x.upow) == (1, 0)
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert (x.re, x.im) == (Fraction(a, d), Fraction(b, d))


plain_floats = st.one_of(st.just(0.0), st.floats(-1e6, 1e6), st.floats(-1e-3, 1e-3))


@given(
    st.one_of(fractions, st.integers(-10**6, 10**6), plain_floats),
    st.one_of(often_zero, st.integers(-10**6, 10**6), plain_floats),
    upows,
)
def test_public_constructor_is_canonical(re, im, upow):
    x = Exact(re, im, upow)
    _assert_canonical(x)
    assert (x.re, x.im) == (Fraction(re), Fraction(im))
    assert x.upow == (upow if (re or im) else 0)


@given(sparse_exacts, st.one_of(sparse_exacts, plain_operands), st.integers(0, 5))
def test_every_operation_returns_the_canonical_form(a, b, n):
    results = [-a, a.conjugate(), a**n, a * b, b * a, Exact._coerce(b)]
    o = Exact._coerce(b)
    if a.upow == o.upow or a.is_zero or o.is_zero:
        results += [a + b, b + a, a - b, b - a, a - a]
    if not o.is_zero:
        results += [a / b]
    if not a.is_zero:
        results += [b / a, a / a]
    for x in results:
        _assert_canonical(x)
    # equal values have equal quadruples, whichever way they were made
    assert a * b == b * a and hash(a * b) == hash(b * a)
