"""Command line interface.

Subcommands:

* kernel-eval: tabulate kernel profiles on (s, t) points, optionally
  against the series representation.
* verify: run a verification suite and emit a JSON report.
* eigentable: tabulate closed-form eigenvalues.
* coeffs: tabulate series coefficient streams, optionally with the
  inverse streams and the bridged products.

Exit status: 0 on success (for verify: at least one check ran and every
check passed), 1 when a verification check failed, 2 for bad input (a
dimension outside a suite's domain, a non-finite number, a negative
--k-max, a series range a float cannot bound), 3 for an internal error.

All numeric output uses repr-faithful 17-digit formatting so tables are
reproducible bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import traceback

import numpy as np

from .basis import psi
from .checks import Check, worst
from .engine import (
    inversion_composition_residual,
    l2_bound_scan,
    closed_form_eigenvalue,
    verify_diff_relations,
    verify_eigen,
    verify_inversion,
)
from .kernels import (
    KernelId,
    build_kernel,
    pde_residual,
    verify_recursion,
    verify_structural_identities,
)
from .series import (
    check_cf_constraint,
    classical_coefficients,
    coefficient_rows,
    eval_series,
    series_coefficients,
    truncation_bound,
)

__all__ = ["main"]

FMT = "{:.17g}"


def _fmt(x: float) -> str:
    return FMT.format(float(x))


@contextlib.contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise SystemExit(f"error: cannot write {path}: {exc.strerror or exc}")
    with fh:
        yield fh


def _check_writable(path: str) -> None:
    """Exit 2 before any work when ``path`` cannot be opened for writing.

    The probe appends nothing and removes the file again if it had to
    create it, so a run that fails later leaves no report behind.
    """
    if path == "-":
        return
    existed = os.path.exists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise SystemExit(f"error: cannot write {path}: {exc.strerror or exc}")
    if not existed:
        os.remove(path)


def _parse_floats(text: str, opt: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise SystemExit(f"error: {opt} expects comma-separated numbers: {exc}")
    if not all(math.isfinite(v) for v in values):
        raise SystemExit(f"error: {opt} values must be finite")
    return values


# ---------------------------------------------------------------------------
# kernel-eval


def _cmd_kernel_eval(args: argparse.Namespace) -> int:
    kid = KernelId(args.m, args.i, args.sign)
    expr = build_kernel(kid)
    s_vals = _parse_floats(args.s, "--s")
    t_vals = _parse_floats(args.t, "--t")
    if any(t < 0 for t in t_vals):
        raise SystemExit("error: --t values must be >= 0")
    pairs = [(s, t) for s in s_vals for t in t_vals]
    s_arr = np.array([p[0] for p in pairs])
    t_arr = np.array([p[1] for p in pairs])
    scalar, biv = expr.profiles(s_arr, t_arr)

    header = ["s", "t", "scalar_re", "scalar_im", "g_re", "g_im"]
    extra = None
    if args.compare_series:
        coeffs = series_coefficients(kid)
        z = np.hypot(s_arr, t_arr)
        w = np.where(z > 0, s_arr / np.maximum(z, 1e-300), 0.0)
        n_terms = truncation_bound(coeffs, float(np.max(z)), args.eps)
        a_ser, b_ser = eval_series(coeffs, z, w, n_terms)
        extra = (np.abs(scalar - a_ser), np.abs(biv - b_ser))
        header += ["scalar_delta", "g_delta"]

    with _open_out(args.output) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for idx, (s, t) in enumerate(pairs):
            row = [
                _fmt(s), _fmt(t),
                _fmt(scalar[idx].real), _fmt(scalar[idx].imag),
                _fmt(biv[idx].real), _fmt(biv[idx].imag),
            ]
            if extra is not None:
                row += [_fmt(extra[0][idx]), _fmt(extra[1][idx])]
            writer.writerow(row)
    return 0


# ---------------------------------------------------------------------------
# verify suites
#
# A suite is one row of _SUITES: its default dimensions, the units of work
# for a list of dimensions (``list`` when the unit is the dimension itself),
# the check of one unit, and the dimensions it accepts.  Each check returns
# a list of Check records; each becomes one JSON row (see _row).


def _kernel_units(ms: list[int]) -> list[tuple[int, int]]:
    return [(m, i) for m in ms for i in range(m - 1)]


def _signed_units(ms: list[int]) -> list[tuple[int, int, str]]:
    return [(m, i, sign) for m, i in _kernel_units(ms) for sign in ("plus", "minus")]


def _diff_units(ms: list[int]) -> list[tuple[int, int, int]]:
    return [(m, i, k) for m, i in _kernel_units(ms) for k in (0, 1)]


def _check_recursion(unit) -> list[Check]:
    return verify_recursion(*unit)


def _check_structural(m: int) -> list[Check]:
    return verify_structural_identities(m)


def _check_series(unit) -> list[Check]:
    m, i, sign = unit
    kid = KernelId(m, i, sign)
    expr = build_kernel(kid)
    coeffs = series_coefficients(kid)
    rng = np.random.default_rng(97)
    z = rng.uniform(0.0, 9.0, 160)
    w = rng.uniform(-1.0, 1.0, 160)
    s = z * w
    t = z * np.sqrt(1.0 - w * w)
    scalar, biv = expr.profiles(s, t)
    a_ser, b_ser = eval_series(coeffs, z, w, truncation_bound(coeffs, 9.0, 1e-9))
    delta = worst(np.abs(scalar - a_ser), np.abs(biv - b_ser))
    return [Check.within("series vs closed form", {"m": m, "i": i, "sign": sign}, delta, 1e-8)]


def _check_pde(unit) -> list[Check]:
    m, i = unit
    kid = KernelId(m, i)
    rng = np.random.default_rng(53 + 7 * m + i)
    residuals = []
    for _ in range(50):
        x = rng.uniform(-1.6, 1.6, m)
        y = rng.uniform(-1.6, 1.6, m)
        residuals.append(pde_residual(kid, x, y))
    return [Check.within("pde residual", {"m": m, "i": i}, worst(*residuals), 1e-6)]


def _check_eigen(m: int) -> list[Check]:
    errors = [r.abs_error for r in verify_eigen(m)]
    return [Check.within("eigenvalue error", {"m": m}, worst(*errors), 1e-6 if m <= 4 else 1e-8)]


def _check_inversion(m: int) -> list[Check]:
    rep = verify_inversion(m, k_max=100)
    failure = None if rep.first_failure is None else "i={} k={} {}".format(*rep.first_failure)
    checks = [Check("eigenvalue products are 1", {"m": m, "k_max": 100}, failure, None, rep.exact_ok)]
    if m >= 3:
        residual = inversion_composition_residual(m, 0)
        checks.append(Check.within("composition residual", {"m": m}, residual, 1e-5))
    return checks


def _check_diff(unit) -> list[Check]:
    m, i, k = unit
    res = verify_diff_relations(KernelId(m, i), psi(0, k, 1, m))
    return [Check.within("diff relations", {"m": m, "i": i, "k": k}, res, 1e-5)]


def _check_l2(unit) -> list[Check]:
    m, i = unit
    rep = l2_bound_scan(m, i, 200)
    params = {"m": m, "i": i}
    checks = [Check("bounded iff 2i <= m-2", params, rep.first_exceed_k, None,
                    rep.bounded == (2 * i <= m - 2))]
    if m % 2 == 0 and 2 * i == m - 2:
        sup = rep.sup_magnitude
        checks.append(Check("unimodular at 2i = m-2", params, float(sup), None, sup == 1))
    return checks


def _constraint_units(ms: list[int]) -> list[tuple[int, int | None, str]]:
    # The classical stream of odd m >= 3 satisfies the constraint exactly
    # when m = 1 mod 4; its rows follow the kernel rows.
    classical = [(m, None, "classical") for m in ms if m >= 3 and m % 2]
    return _signed_units(ms) + classical


def _check_constraint(unit) -> list[Check]:
    m, i, stream = unit
    if stream == "classical":
        check = check_cf_constraint(classical_coefficients(m))
        return [Check("classical stream satisfies iff m = 1 mod 4",
                      {"m": m, "stream": "classical"}, check.value, None,
                      check.passed == (m % 4 == 1))]
    return [check_cf_constraint(series_coefficients(KernelId(m, i, stream)))]


def _strict(x):
    """x, with a non-finite float spelled as the string "NaN", "Infinity"
    or "-Infinity": strict JSON (RFC 8259) has no bare NaN or Infinity."""
    return json.dumps(x) if isinstance(x, float) and not math.isfinite(x) else x


def _row(check: Check) -> dict:
    return {"check": check.name, "params": check.params, "value": _strict(check.value),
            "tolerance": check.tolerance, "margin_digits": _strict(check.margin_digits),
            "passed": check.passed}


# suite: (default dimensions, units, check, (m_min, m_max or None, even only))
_SUITES = {
    "recursion": ((2, 3, 4, 5, 6, 7, 8, 9), _kernel_units, _check_recursion, (2, 10, False)),
    "structural": ((4, 6, 8), list, _check_structural, (4, None, True)),
    "series": ((2, 3, 4, 5), _signed_units, _check_series, (2, None, False)),
    "pde": ((2, 3, 4, 5, 6), _kernel_units, _check_pde, (2, 6, False)),
    "eigen": ((2, 3, 5, 6, 7), list, _check_eigen, (2, None, False)),
    "inversion": ((2, 4, 6, 8), list, _check_inversion, (2, None, True)),
    "diff": ((2, 3), _diff_units, _check_diff, (2, 3, False)),
    "l2": ((2, 3, 4, 5, 6, 7, 8, 9), _kernel_units, _check_l2, (2, None, False)),
    "constraint": ((2, 3, 4, 5, 6, 7, 8, 9), _constraint_units, _check_constraint, (2, None, False)),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    defaults, units, check, (m_min, m_max, even_only) = _SUITES[args.suite]
    ms = sorted(set(args.m)) if args.m else list(defaults)
    outside = [m for m in ms if m < m_min or (m_max is not None and m > m_max)
               or (even_only and m % 2)]
    if outside:
        bounds = f"m >= {m_min}" if m_max is None else f"{m_min} <= m <= {m_max}"
        parity = "even " if even_only else ""
        raise ValueError(f"suite {args.suite} accepts {parity}{bounds}, got m = {outside}")
    checks = [c for unit in units(ms) for c in check(unit)]
    passed = bool(checks) and all(c.passed for c in checks)
    report = {
        "suite": args.suite,
        "dimensions": ms,
        "passed": passed,
        "checks": [_row(c) for c in checks],
    }
    with _open_out(args.output) as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# eigentable / coeffs


def _check_k_max(k_max: int) -> None:
    if k_max < 0:
        raise SystemExit(f"error: --k-max must be >= 0, got {k_max}")


def _cmd_eigentable(args: argparse.Namespace) -> int:
    m = args.m
    if m < 2:
        raise SystemExit(f"error: dimension must be >= 2, got {m}")
    _check_k_max(args.k_max)
    i_list = sorted(set(args.i)) if args.i else list(range(m - 1))
    for i in i_list:
        if not 0 <= i <= m - 2:
            raise SystemExit(f"error: index i={i} out of range 0..{m - 2}")
    with _open_out(args.output) as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "i", "k", "parity", "re", "im", "factor"])
        for i in i_list:
            for k in range(args.k_max + 1):
                for parity in ("2p", "2p+1"):
                    val = closed_form_eigenvalue(m, i, k, parity)
                    writer.writerow(
                        [m, i, k, parity, _fmt(val.real), _fmt(val.imag), "(-1)^p"]
                    )
    return 0


def _cmd_coeffs(args: argparse.Namespace) -> int:
    kid = KernelId(args.m, args.i, args.sign)
    _check_k_max(args.k_max)
    rows = coefficient_rows(series_coefficients(kid), args.k_max, args.inverse)
    header = ["k", "alpha_re", "alpha_im", "beta_re", "beta_im"]
    if args.inverse:
        header += [
            "inv_alpha_re", "inv_alpha_im", "inv_beta_re", "inv_beta_im",
            "prod_even_re", "prod_even_im", "prod_odd_re", "prod_odd_im",
        ]
    with _open_out(args.output) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            out = [row["k"],
                   _fmt(row["alpha"].real), _fmt(row["alpha"].imag),
                   _fmt(row["beta"].real), _fmt(row["beta"].imag)]
            if args.inverse:
                out += [
                    _fmt(row["inv_alpha"].real), _fmt(row["inv_alpha"].imag),
                    _fmt(row["inv_beta"].real), _fmt(row["inv_beta"].imag),
                    _fmt(row["prod_even"].real), _fmt(row["prod_even"].imag),
                    _fmt(row["prod_odd"].real), _fmt(row["prod_odd"].imag),
                ]
            writer.writerow(out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clifft",
        description="Clifford-Fourier transform kernels: tables and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel-eval", help="tabulate kernel profiles at (s, t) points")
    p.add_argument("--m", type=int, required=True, help="dimension (>= 2)")
    p.add_argument("--i", type=int, required=True, help="kernel index, 0 <= i <= m-2")
    p.add_argument("--sign", choices=("plus", "minus"), default="plus")
    p.add_argument("--s", required=True, help="comma-separated s values")
    p.add_argument("--t", required=True, help="comma-separated t values (>= 0)")
    p.add_argument("--compare-series", action="store_true",
                   help="add series-representation delta columns")
    p.add_argument("--eps", type=float, default=1e-9,
                   help="series truncation target (with --compare-series)")
    p.add_argument("--output", default="-", help="output file, - for stdout")
    p.set_defaults(func=_cmd_kernel_eval)

    p = sub.add_parser("verify", help="run a verification suite, emit a JSON report")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p.add_argument("--m", type=int, action="append",
                   help="restrict to this dimension (repeatable)")
    p.add_argument("--output", default="-", help="output file, - for stdout")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eigentable", help="closed-form eigenvalue table (CSV)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--i", type=int, action="append",
                   help="kernel index (repeatable, default: all)")
    p.add_argument("--k-max", type=int, default=12)
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_eigentable)

    p = sub.add_parser("coeffs", help="series coefficient table (CSV)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--sign", choices=("plus", "minus"), default="plus")
    p.add_argument("--k-max", type=int, default=20)
    p.add_argument("--inverse", action="store_true",
                   help="add inverse streams and bridged product columns")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_coeffs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_writable(args.output)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
