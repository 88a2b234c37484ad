"""Machine-speed calibration of the reported times.

On a shared machine the clock speed of the cores moves between levels
that differ by up to half, every few seconds, and code speeds up or slows
down with it by an amount that depends on its kind: interpreter-bound
code follows the clock fully, memory-bound array code much less.  Each
pass therefore runs a short fixed task after its imports, before its
first job, between jobs every quarter second and after its last job.
The task has four parts, one per kind of work: an integer loop
(interpreter), sines on an array that stays in cache (vector), a pass
over arrays larger than the cache (memory) and Bessel functions
(special).  A workload weighs the parts by the kind of work it does, and
the speed of one run of the task is

    speed = sum over parts of weight * duration / REFERENCE_S[part].

The benchmark divides the pass's times by the speed around them, so that
times are reported in calibrated seconds: seconds on a machine where each
part takes its REFERENCE_S.  The task runs no ``clifft`` code, so a change
to the library moves calibrated times as it moves raw ones.  Its own time
is left out of every timing, and the raw times are kept in the result
files.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import jv

REFERENCE_S = {"interp": 0.003, "vector": 0.003, "memory": 0.003, "special": 0.003}

_SMALL = np.linspace(0.0, 3.0, 2_048)
_SMALL_OUT = np.full_like(_SMALL, 0.0)
_BESSEL = np.linspace(0.5, 30.0, 1_024)
_BESSEL_OUT = np.full_like(_BESSEL, 0.0)
_BIG = np.linspace(0.0, 1.0, 1 << 20)
# Written now, so that no probe pays for first-touch page faults.
_BIG_OUT = np.full_like(_BIG, 0.0)


def _interp() -> None:
    acc = 0
    for i in range(33_000):
        acc += i * i % 7


def _vector() -> None:
    for _ in range(66):
        np.sin(_SMALL, out=_SMALL_OUT)
        np.cos(_SMALL_OUT, out=_SMALL_OUT)


def _memory() -> None:
    for _ in range(2):
        np.multiply(_BIG, 1.0000001, out=_BIG_OUT)
        np.add(_BIG_OUT, _BIG, out=_BIG_OUT)


def _special() -> None:
    for _ in range(4):
        jv(2.0, _BESSEL, out=_BESSEL_OUT)


PARTS = {"interp": _interp, "vector": _vector, "memory": _memory, "special": _special}


def speed(weights: dict[str, float]) -> float:
    """Run the weighted parts of the task once and return their speed."""
    total = 0.0
    for part, weight in weights.items():
        t0 = time.perf_counter()
        PARTS[part]()
        total += weight * (time.perf_counter() - t0) / REFERENCE_S[part]
    return total
