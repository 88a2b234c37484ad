"""Faults injected into the library, each of which some suite must report.

Each fault is a ``monkeypatch`` that scales one branch of
``clifft.special`` by 1 + 1e-6.  The series suite compares the closed
form, which reads Bessel orders of the parity of m - 1, with the series,
whose ``jtilde_stack`` starts from ``bessel_jtilde`` base rows of the
parity of m - 2.  So the two routes share these branches across
dimensions, and a fault in one of them must show at every m: at one
parity in the closed form, at the other in the series.
"""

from __future__ import annotations

import pytest

from clifft import special
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
    """scipy's J_0, order 0 for t >= 1."""
    j0 = special._j0
    monkeypatch.setattr(special, "_j0", lambda t: j0(t) * FAULT)


FAULTS = {"trig order -1/2": _trig_order_minus_half, "j0": _j0}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_series_suite_reports_a_bessel_branch_fault(fault, m, monkeypatch):
    FAULTS[fault](monkeypatch)
    failed = [c for c in run("series", [m]) if not c.passed]
    assert failed, f"the {fault} fault passes the series suite at m = {m}"
