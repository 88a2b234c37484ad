"""Faults injected into the library, each of which some suite must report.

The Bessel faults are ``monkeypatch``es that scale one branch of
``clifft.special`` by 1 + 1e-6.  The series suite compares the closed
form, which reads Bessel orders of the parity of m - 1, with the series,
whose ``jtilde_stack`` starts from ``bessel_jtilde`` base rows of the
parity of m - 2.  So the two routes share the base branches across
dimensions, and a fault in one of them must show at every m: at one
parity in the closed form, at the other in the series.

The generic branch ``_jv``, the three-term relation for every order
other than -1/2, 0, 1/2 and 1, serves the closed form where a kernel reads
such an order: of m = 2..7, from m = 4 (twice-order 3) on.  At m = 2 and 3
the kernels read the base orders only.  It also serves the radial route's
Hankel integral, whose twice-orders 2k + m - 2 and 2k + m are at least 3
from m = 5 on, so the eigen suite must report it at m = 5, 6 and 7 (its
rows read 7.5e-6, 1.5e-5 and 5.3e-5 against 1e-8).  The inversion suite
at m = 4 reads 1.2e-6 under it and passes its 1e-5 bound: a known gap.
``_jv`` runs from the base pair, so a fault in J_0 or in the form of order
-1/2 reaches it too.  The form of order -1/2 is faulted at its cos t, the
one value that a direct call of that order and ``_jv``'s base pair both
read.

The quadrature fault scales the first weight of the transform's radial
rule by 1 + 1e-5, and the eigen suite must report it at every m of the
grid route.  Its eigen rows read about 1.0, 0.76 and 1.5 times the scale
minus one at m = 2, 3 and 4, so 1 + 2e-6 is the smallest scale of the
form 1 + k 10^-n that all three report against the 1e-6 bound.

The radial-rule fault scales every weight of ``radial_rule``, the rule of
the radial route's Hankel integrals, by 1 + 1e-5.  The eigen suite must
report it at m = 5, 6 and 7, whose rows read 7.5e-5, 1.5e-4 and 5.3e-4
against 1e-8, and the inversion suite at m = 4, 6 and 8, whose
compositions integrate twice on it and read 1.88e-5 against 1e-5; at
1 + 2e-6 they read 3.8e-6 and pass.  The m = 2 composition runs on the
tensor grid and must pass.

The tensor-grid fault scales every weight of ``QuadratureScheme.chunks``,
the middle rule of the inversion suite's m = 2 composition, by 1 + 2e-5.
The composition residual reads about 0.59 times the scale minus one, so
1 + 2e-5 (1.2e-5) is the smallest scale of that form the 1e-5 bound
reports; 1 + 1e-5 reads 5.9e-6 and passes.  The other dimensions compose
on the radial rule and must pass.
"""

from __future__ import annotations

import pytest

from clifft import engine, kernels, series, special
from clifft.suites import run

FAULT = 1.0 + 1e-6


def _trig_order_minus_half(monkeypatch) -> None:
    """The closed form of order -1/2, sqrt(2/pi) cos t, for t >= 1, at
    the cos t of ``_sin_cos``.  Hankel's J_0 and J_1 read that cos t too,
    but only from t = 25, beyond the series suite's z <= 9."""
    sin_cos = special._sin_cos

    def faulty(t):
        st, ct = sin_cos(t)
        return st, ct * FAULT

    monkeypatch.setattr(special, "_sin_cos", faulty)


def _j0(monkeypatch) -> None:
    """clifft's J_0 (Taylor expansions below t = 25, Hankel's expansion
    above), order 0 for t >= 1 and half of the integer base pair."""
    j0 = special._j0
    monkeypatch.setattr(special, "_j0", lambda t: j0(t) * FAULT)


def _generic_order(monkeypatch) -> None:
    """The three-term relation for every order without a branch of its
    own: integer orders from 2 and half-integer ones from 3/2, t >= 1."""
    jv = special._jv
    monkeypatch.setattr(special, "_jv", lambda twice_order, t: jv(twice_order, t) * FAULT)


FAULTS = {"trig order -1/2": _trig_order_minus_half, "j0": _j0}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_series_suite_reports_a_bessel_branch_fault(fault, m, monkeypatch):
    FAULTS[fault](monkeypatch)
    failed = [c for c in run("series", [m]) if not c.passed]
    assert failed, f"the {fault} fault passes the series suite at m = {m}"


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_closed_form_and_series_start_from_different_base_pairs(m, monkeypatch):
    # the premise of the Bessel faults: every order the closed form reads
    # has the parity of m - 1, and every base row of the series stack the
    # parity of m - 2
    read = {kernels: set(), series: set()}
    for module in read:
        def recording(twice_order, t, module=module):
            read[module].add(twice_order % 2)
            return special.bessel_jtilde(twice_order, t)

        monkeypatch.setattr(module, "bessel_jtilde", recording)
    run("series", [m])
    assert read == {kernels: {(m - 1) % 2}, series: {m % 2}}


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_series_suite_reports_a_generic_order_fault_where_a_kernel_reads_one(m, monkeypatch):
    _generic_order(monkeypatch)
    failed = [c for c in run("series", [m]) if not c.passed]
    assert bool(failed) == (m >= 4), f"m = {m}: {len(failed)} failed checks"


def _radial_weight(monkeypatch) -> None:
    """The first weight of every radial rule of apply_transform_batch."""
    rule = engine._radial_rule

    def faulty(m, count):
        radii, weights = rule(m, count)
        weights = weights.copy()
        weights[0] *= 1.0 + 1e-5
        return radii, weights

    monkeypatch.setattr(engine, "_radial_rule", faulty)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_eigen_suite_reports_a_quadrature_weight_fault(m, monkeypatch):
    _radial_weight(monkeypatch)
    failed = [c for c in run("eigen", [m]) if not c.passed]
    assert failed, f"the radial weight fault passes the eigen suite at m = {m}"


def _grid_weight(monkeypatch) -> None:
    """Every weight of the tensor Gauss-Hermite grid."""
    chunks = engine.QuadratureScheme.chunks

    def faulty(scheme):
        for pts, wts in chunks(scheme):
            yield pts, wts * (1.0 + 2e-5)

    monkeypatch.setattr(engine.QuadratureScheme, "chunks", faulty)


@pytest.mark.parametrize("m", [2, 4])
def test_inversion_suite_reports_a_tensor_grid_weight_fault_at_m_2(m, monkeypatch):
    _grid_weight(monkeypatch)
    failed = [c for c in run("inversion", [m]) if not c.passed]
    assert bool(failed) == (m == 2), f"m = {m}: {len(failed)} failed checks"


def _radial_rule_weights(monkeypatch) -> None:
    """Every weight of the radial route's Hankel-integral rule."""
    rule = engine.radial_rule

    def faulty(rho):
        nodes, weights = rule(rho)
        return nodes, weights * (1.0 + 1e-5)

    monkeypatch.setattr(engine, "radial_rule", faulty)


RADIAL_FAULTS = {"generic order": _generic_order, "radial rule weights": _radial_rule_weights}


@pytest.mark.parametrize("m", [5, 6, 7])
@pytest.mark.parametrize("fault", sorted(RADIAL_FAULTS))
def test_eigen_suite_reports_a_fault_of_the_radial_route(fault, m, monkeypatch):
    RADIAL_FAULTS[fault](monkeypatch)
    failed = [c for c in run("eigen", [m]) if not c.passed]
    assert failed, f"the {fault} fault passes the eigen suite at m = {m}"


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_inversion_suite_reports_a_radial_rule_weight_fault_from_m_4(m, monkeypatch):
    _radial_rule_weights(monkeypatch)
    failed = [c for c in run("inversion", [m]) if not c.passed]
    assert bool(failed) == (m >= 4), f"m = {m}: {len(failed)} failed checks"
