"""Jobs, their checks, and the closed-loop runner of one pass.

A job is one call into the library followed by the checks of its
result.  The runner calls the jobs one after another, timing each, and
counts failures instead of stopping: a job that raises counts as one
failed check and the exception type is recorded.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Digits a float64 error can sit below its tolerance: a check whose error
# is exactly zero, and a workload with no float checks, read this value.
DIGITS_CAP = 16.0
# The reported margin has this many smaller margins beyond it, so that a
# single unlucky sample of a seeded input does not decide it.
MARGIN_TAIL = 10
# Seconds between two speed measurements during a pass (see calibrate.py).
PROBE_EVERY_S = 0.25


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    errors: np.ndarray | None = None
    tol: float | None = None


def float_check(name: str, errors, tol: float) -> Check:
    """Passes when every error is finite and at most ``tol``."""
    errs = np.atleast_1d(np.asarray(errors, dtype=float)).ravel()
    passed = errs.size > 0 and bool(np.all(np.isfinite(errs))) and bool(np.all(errs <= tol))
    return Check(name, passed, errs, float(tol))


def exact_check(name: str, ok: bool) -> Check:
    return Check(name, bool(ok))


@dataclass(frozen=True)
class Job:
    name: str
    fn: Callable[[], list[Check]]


def margins(check: Check) -> np.ndarray:
    """log10(tolerance / error) per sample, capped at DIGITS_CAP; an
    error that is not finite gets -inf."""
    errs = check.errors
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.minimum(DIGITS_CAP, np.log10(check.tol / np.abs(errs)))
    return np.where(np.isfinite(errs), out, -np.inf)


def tail_margin(values: np.ndarray) -> float:
    """The margin with MARGIN_TAIL smaller ones beyond it (the smallest
    when there are fewer samples); DIGITS_CAP when there are none."""
    if values.size == 0:
        return DIGITS_CAP
    k = MARGIN_TAIL if values.size > MARGIN_TAIL else 0
    return float(np.partition(values, k)[k])


def run_jobs(jobs: list[Job], span: Callable | None = None, probe: Callable[[], float] | None = None) -> dict:
    """Run jobs in order; ``span(name)`` wraps each job when tracing.

    ``probe`` measures the machine's speed (see calibrate.py): it runs
    before the first job, between jobs once PROBE_EVERY_S have passed
    since it last ran, and after the last job.  The speeds are returned
    with the probes' total time and, for each job, the index of the last
    speed measured before it.
    """
    clock = time.perf_counter
    scope = span or (lambda name: contextlib.nullcontext())
    speeds: list[float] = []
    probe_s = 0.0
    last_probe = -math.inf

    def measure_speed() -> None:
        nonlocal probe_s, last_probe
        t0 = clock()
        with scope("probe.calibrate"):
            speeds.append(probe())
        last_probe = clock()
        probe_s += last_probe - t0

    latencies: list[float] = []
    job_probes: list[int] = []
    failures: list[dict] = []
    found: list[np.ndarray] = []
    attempted = 0
    for job in jobs:
        if probe is not None and clock() - last_probe >= PROBE_EVERY_S:
            measure_speed()
        job_probes.append(len(speeds) - 1)
        with scope("bench.job"):
            t0 = clock()
            try:
                checks = job.fn()
            except Exception as exc:  # a crashing job is a failed check, not a crash
                latencies.append(clock() - t0)
                attempted += 1
                failures.append({"job": job.name, "error": type(exc).__name__, "detail": str(exc)[:200]})
                continue
            latencies.append(clock() - t0)
            if not checks:
                attempted += 1
                failures.append({"job": job.name, "error": "NoChecks", "detail": "job returned no checks"})
                continue
            for check in checks:
                attempted += 1
                if check.errors is not None:
                    found.append(margins(check))
                if not check.passed:
                    worst = None
                    if check.errors is not None and check.errors.size:
                        worst = float(np.nanmax(np.abs(check.errors)))
                    failures.append(
                        {"job": job.name, "check": check.name, "tol": check.tol, "worst_error": worst}
                    )
    if probe is not None:
        measure_speed()
    all_margins = np.concatenate(found) if found else np.empty(0)
    return {
        "speeds": speeds,
        "probe_s": probe_s,
        "latencies_s": latencies,
        "job_probes": job_probes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "margin_digits": tail_margin(all_margins),
        "margin_min_digits": float(all_margins.min()) if all_margins.size else DIGITS_CAP,
        "margin_samples": int(all_margins.size),
    }
