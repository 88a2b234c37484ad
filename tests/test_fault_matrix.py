"""Faults injected into the library, each of which some suite must report.

The Bessel faults are ``monkeypatch``es that scale one branch of
``clifft.special`` by 1 + 1e-6.  The series suite compares the closed
form, which reads Bessel orders of the parity of m - 1, with the series,
whose ``jtilde_stack`` starts from ``bessel_jtilde`` base rows of the
parity of m - 2.  So the two routes share the base branches across
dimensions, and a fault in one of them must show at every m: at one
parity in the closed form, at the other in the series.

The generic branch ``_jv``, the three-term relation for every order
without a branch of its own, serves only the closed form, and only where
a kernel reads such an order: of m = 2..5, at m = 5 (twice-order 4).  It
also runs from the base pair, so a fault in J_0 reaches it too.

The quadrature fault scales the first weight of the transform's radial
rule by 1 + 1e-5, and the eigen suite must report it at every m of the
grid route.  Its eigen rows read about 1.0, 0.76 and 1.5 times the scale
minus one at m = 2, 3 and 4, so 1 + 2e-6 is the smallest scale of the
form 1 + k 10^-n that all three report against the 1e-6 bound.
"""

from __future__ import annotations

import pytest

from clifft import engine, kernels, series, special
from clifft.suites import run

FAULT = 1.0 + 1e-6


def _trig_order_minus_half(monkeypatch) -> None:
    """The closed form of order -1/2, sqrt(2/pi) cos t, for t >= 1."""
    trig = special._jtilde_trig

    def faulty(twice_order, t):
        val = trig(twice_order, t)
        return val * FAULT if twice_order == -1 else val

    monkeypatch.setattr(special, "_jtilde_trig", faulty)


def _j0(monkeypatch) -> None:
    """clifft's J_0 (Taylor expansions below t = 25, Hankel's expansion
    above), order 0 for t >= 1 and half of the integer base pair."""
    j0 = special._j0
    monkeypatch.setattr(special, "_j0", lambda t: j0(t) * FAULT)


def _generic_order(monkeypatch) -> None:
    """The three-term relation for every order without a branch of its
    own: integer orders from 2 and half-integer ones from 11/2, t >= 1."""
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


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_series_suite_reports_a_generic_order_fault_where_a_kernel_reads_one(m, monkeypatch):
    _generic_order(monkeypatch)
    failed = [c for c in run("series", [m]) if not c.passed]
    assert bool(failed) == (m == 5), f"m = {m}: {len(failed)} failed checks"


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
