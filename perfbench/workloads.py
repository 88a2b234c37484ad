"""The four workloads, one per certification route of the library.

Each workload's ``prepare(seed)`` does the one-off set-up (cold caches
included) and returns its jobs; inputs come only from the seed.  The
sizes are chosen so that one pass takes a few seconds on two cores,
which lets a run repeat the pass in fresh processes and report medians.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Library functions are looked up on their modules at call time, so that
# the tracer's wrappers, installed in those namespaces, see every call.
from clifft import basis, cli, engine, kernels, series
from clifft.kernels import KernelId

from jobs import Check, Job, exact_check, float_check

PARITIES = ("2p", "2p+1")


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int], list[Job]]
    sizes: dict
    # Weights of the calibration task's parts (calibrate.py), by the kind
    # of work the workload's traced profile shows.
    probe_weights: dict[str, float]


# ---------------------------------------------------------------------------
# grid: full Gauss-Hermite quadrature of the transform


GRID = {
    "kernels": [(2, 0), (3, 0), (3, 1), (4, 1)],
    "functions": "psi_{j,k,1}, j in 0..1, k in 0..2",
    "targets_per_kernel": 2,
    "target_radius": 2.2,
    "tolerance": 1e-6,
}


def _targets(rng: np.random.Generator, m: int, n: int, radius: float) -> np.ndarray:
    dirs = rng.normal(size=(n, m))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return dirs * rng.uniform(0.3, radius, size=n)[:, None]


def _grid_job(m: int, i: int, fs, ys: np.ndarray, scheme, wants) -> Job:
    kid = KernelId(m, i)

    def run() -> list[Check]:
        out = engine.apply_transform_batch(kid, fs, ys, scheme)
        checks = []
        for bf, got, want in zip(fs, out, wants):
            scale = max(float(np.max(np.abs(v))) for v in want.values())
            diff = np.zeros(len(ys))
            zero = np.zeros(len(ys))
            for blade in set(got) | set(want):
                diff = np.maximum(diff, np.abs(got.get(blade, zero) - want.get(blade, zero)))
            checks.append(float_check(f"psi_{bf.j},{bf.k}", diff / scale, GRID["tolerance"]))
        return checks

    return Job(f"transform m={m} i={i}", run)


def prepare_grid(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    for m, i in GRID["kernels"]:
        scheme = engine.default_scheme(m)
        fs = [basis.psi(j, k, 1, m) for j in (0, 1) for k in (0, 1, 2)]
        ys = _targets(rng, m, GRID["targets_per_kernel"], GRID["target_radius"])
        wants = []
        for bf in fs:
            lam = engine.closed_form_eigenvalue(m, i, bf.k, PARITIES[bf.j % 2]) * (-1) ** (bf.j // 2)
            wants.append({blade: lam * v for blade, v in bf.values(ys).items()})
        jobs.append(_grid_job(m, i, fs, ys, scheme, wants))
    return jobs


# ---------------------------------------------------------------------------
# series: Bessel-Gegenbauer series against the closed form, radial route


SERIES = {
    "all_kernels": "m = 2..6, every i, both signs",
    "all_kernels_points": 600,
    "all_kernels_z_max": 9.0,
    "bounded_kernels": "m = 2..6, i = 0, both signs",
    "bounded_kernels_points": 1500,
    "bounded_kernels_z_max": 30.0,
    "truncation_eps": 1e-9,
    "tolerance": 1e-8,
    "radial_eigen_m": [5, 6, 7, 8, 9],
    "composition_m": [4],
    "composition_tolerance": 1e-5,
}


def _series_job(kid: KernelId, z: np.ndarray, w: np.ndarray, z_max: float) -> Job:
    def run() -> list[Check]:
        coeffs = series.series_coefficients(kid)
        n = series.truncation_bound(coeffs, z_max, SERIES["truncation_eps"])
        a_ser, b_ser = series.eval_series(coeffs, z, w, n)
        scalar, biv = kernels.build_kernel(kid).profiles(z * w, z * np.sqrt(1.0 - w * w))
        err = np.maximum(np.abs(scalar - a_ser), np.abs(biv - b_ser))
        return [float_check("series vs closed form", err, SERIES["tolerance"])]

    return Job(f"series m={kid.m} i={kid.i} {kid.sign} z<={z_max:g}", run)


def _eigen_job(m: int) -> Job:
    def run() -> list[Check]:
        records = engine.verify_eigen(m, method="radial")
        return [float_check("radial eigenvalues", [r.abs_error for r in records], SERIES["tolerance"])]

    return Job(f"verify_eigen radial m={m}", run)


def _composition_job(m: int) -> Job:
    def run() -> list[Check]:
        residual = engine.inversion_composition_residual(m)
        return [float_check("composition", residual, SERIES["composition_tolerance"])]

    return Job(f"composition m={m}", run)


def prepare_series(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    for m in range(2, 7):
        for i in range(m - 1):
            for sign in ("plus", "minus"):
                n = SERIES["all_kernels_points"]
                z = rng.uniform(0.0, SERIES["all_kernels_z_max"], n)
                w = rng.uniform(-1.0, 1.0, n)
                jobs.append(_series_job(KernelId(m, i, sign), z, w, SERIES["all_kernels_z_max"]))
    for m in range(2, 7):
        for sign in ("plus", "minus"):
            n = SERIES["bounded_kernels_points"]
            z = rng.uniform(0.0, SERIES["bounded_kernels_z_max"], n)
            w = rng.uniform(-1.0, 1.0, n)
            jobs.append(_series_job(KernelId(m, 0, sign), z, w, SERIES["bounded_kernels_z_max"]))
    jobs += [_eigen_job(m) for m in SERIES["radial_eigen_m"]]
    jobs += [_composition_job(m) for m in SERIES["composition_m"]]
    return jobs


# ---------------------------------------------------------------------------
# exact: rational arithmetic, term calculus and exact nullspaces


EXACT = {
    "cli_suites": ["recursion", "structural", "constraint", "l2"],
    "inversion_m": list(range(2, 10)),
    "inversion_k_max": 40,
    "monogenic": "m = 2..6, k = 0..4",
    "harmonic": [8, 4],
}


def _cli_job(suite: str) -> Job:
    def run() -> list[Check]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--suite", suite])
        report = json.loads(buf.getvalue())
        return [exact_check("exit code 0", code == 0), exact_check("passed", report["passed"] is True)]

    return Job(f"clifft verify --suite {suite}", run)


def _inversion_job(m: int) -> Job:
    def run() -> list[Check]:
        rep = engine.verify_inversion(m, k_max=EXACT["inversion_k_max"])
        return [exact_check("eigenvalue products are 1", rep.exact_ok)]

    return Job(f"verify_inversion m={m}", run)


def _monogenic_job(m: int, k: int) -> Job:
    def run() -> list[Check]:
        monos = basis.monogenic_basis(m, k)
        return [
            exact_check("dimension", len(monos) == basis.harmonic_dimension(m, k)),
            exact_check("dirac annihilates", all(basis.dirac(mono.poly).is_zero() for mono in monos)),
        ]

    return Job(f"monogenic_basis m={m} k={k}", run)


def _harmonic_job(m: int, k: int) -> Job:
    def run() -> list[Check]:
        return [exact_check("dimension", len(basis.harmonic_basis(m, k)) == basis.harmonic_dimension(m, k))]

    return Job(f"harmonic_basis m={m} k={k}", run)


def prepare_exact(seed: int) -> list[Job]:
    jobs = [_cli_job(suite) for suite in EXACT["cli_suites"]]
    jobs += [_inversion_job(m) for m in EXACT["inversion_m"]]
    jobs += [_monogenic_job(m, k) for m in range(2, 7) for k in range(5)]
    jobs.append(_harmonic_job(*EXACT["harmonic"]))
    return jobs


# ---------------------------------------------------------------------------
# pointwise: the first-order system, one point per call


POINTWISE = {
    "kernels": "m = 2..6, every i, plus sign",
    "points_per_kernel": 40,
    "box": 1.6,
    "tolerance": 1e-6,
}


def _pde_job(kid: KernelId, x: np.ndarray, y: np.ndarray) -> Job:
    def run() -> list[Check]:
        return [float_check("pde residual", kernels.pde_residual(kid, x, y), POINTWISE["tolerance"])]

    return Job(f"pde_residual m={kid.m} i={kid.i}", run)


def prepare_pointwise(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    box = POINTWISE["box"]
    jobs = []
    for m in range(2, 7):
        for i in range(m - 1):
            kid = KernelId(m, i)
            for _ in range(POINTWISE["points_per_kernel"]):
                x = rng.uniform(-box, box, m)
                y = rng.uniform(-box, box, m)
                jobs.append(_pde_job(kid, x, y))
    return jobs


WORKLOADS = {
    # contraction and basis values on 150k-point arrays, then jv and trig
    "grid": Workload(prepare_grid, GRID, {"memory": 0.7, "special": 0.2, "vector": 0.1}),
    # three quarters scipy jv, the rest exact streams and small arrays
    "series": Workload(prepare_series, SERIES, {"special": 0.75, "interp": 0.15, "memory": 0.1}),
    # Fraction arithmetic and term calculus: interpreter work that allocates
    # heavily, so it follows clock changes less than a pure integer loop
    "exact": Workload(prepare_exact, EXACT, {"interp": 0.5, "vector": 0.5}),
    # one point per call: interpreter and numpy dispatch on tiny arrays
    "pointwise": Workload(prepare_pointwise, POINTWISE, {"interp": 0.8, "vector": 0.2}),
}
