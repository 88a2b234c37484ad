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

from .checks import Check
from .engine import closed_form_eigenvalue
from .kernels import KernelId, build_kernel
from .series import coefficient_rows, eval_series, series_coefficients, truncation_bound
from .suites import SUITES, run

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
            row = [_fmt(x) for x in (s, t, scalar[idx].real, scalar[idx].imag,
                                     biv[idx].real, biv[idx].imag)]
            if extra is not None:
                row += [_fmt(extra[0][idx]), _fmt(extra[1][idx])]
            writer.writerow(row)
    return 0


# ---------------------------------------------------------------------------
# verify


def _strict(x):
    """x, with a non-finite float spelled as the string "NaN", "Infinity"
    or "-Infinity": strict JSON (RFC 8259) has no bare NaN or Infinity."""
    return json.dumps(x) if isinstance(x, float) and not math.isfinite(x) else x


def _row(check: Check) -> dict:
    return {"check": check.name, "params": check.params, "value": _strict(check.value),
            "tolerance": check.tolerance, "margin_digits": _strict(check.margin_digits),
            "passed": check.passed}


def _cmd_verify(args: argparse.Namespace) -> int:
    ms = sorted(set(args.m)) if args.m else list(SUITES[args.suite].defaults)
    checks = run(args.suite, ms)
    passed = bool(checks) and all(c.passed for c in checks)
    report = {"suite": args.suite, "dimensions": ms, "passed": passed,
              "checks": [_row(c) for c in checks]}
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
                    writer.writerow([m, i, k, parity, _fmt(val.real), _fmt(val.imag), "(-1)^p"])
    return 0


def _cmd_coeffs(args: argparse.Namespace) -> int:
    kid = KernelId(args.m, args.i, args.sign)
    _check_k_max(args.k_max)
    rows = coefficient_rows(series_coefficients(kid), args.k_max, args.inverse)
    columns = ["alpha", "beta"]
    if args.inverse:
        columns += ["inv_alpha", "inv_beta", "prod_even", "prod_odd"]
    with _open_out(args.output) as fh:
        writer = csv.writer(fh)
        writer.writerow(["k"] + [f"{c}_{part}" for c in columns for part in ("re", "im")])
        for row in rows:
            values = [x for c in columns for x in (row[c].real, row[c].imag)]
            writer.writerow([row["k"]] + [_fmt(x) for x in values])
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
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
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
