"""Fixtures shared by the acceptance criteria and the golden outputs."""

from __future__ import annotations

import time

import pytest

from clifft.checks import Check
from clifft.suites import run


@pytest.fixture(scope="session")
def suite_run():
    """``suite_run(name, ms)``: the checks of ``run(name, ms)`` and the
    seconds that run took, computed once per session for each suite and
    tuple of dimensions.  Whichever test asks first pays for the one real
    computation; every later test reads its checks and its time."""
    done: dict[tuple[str, tuple[int, ...]], tuple[list[Check], float]] = {}

    def timed(name: str, ms) -> tuple[list[Check], float]:
        key = name, tuple(ms)
        if key not in done:
            t0 = time.perf_counter()
            checks = run(name, list(ms))
            done[key] = checks, time.perf_counter() - t0
        checks, elapsed = done[key]
        return list(checks), elapsed

    return timed
