"""Golden outputs of the floating-point suites, compared as text.

Each file in ``tests/golden/quadrature/`` is the standard output of
``clifft verify --suite eigen|diff|series|pde|inversion`` at the default
dimensions.  The eigen and diff suites integrate numerically on the
Gauss-Hermite grid, the inversion suite on the radial rule, and the
series and pde suites evaluate the closed forms in floating point.  A
change that moves a digit regenerates the files, and the diff of the
committed files lists every digit that moved.

Every suite reads the same with one, two and four BLAS threads, so every
file is rendered in process with no thread pin.  (The inversion suite's
radial composition sums its Bessel tables with einsum rather than a BLAS
product, whose summation order follows the thread count.)

The files do follow numpy's SIMD dispatch of float64 ``tan`` and ``exp``:
the Bessel closed forms take sin and cos from ``tan``, the quadrature
weights and Gaussians take ``exp``, and numpy picks both kernels by CPU.
The committed files were rendered on an AVX-512 (X86_V4) CPU; on another
CPU they may differ in the last digits.

A file that differs fails with the rows that moved, one line each: the
check, its params, and every field that changed, old -> new.  Only the
message reads the JSON; the comparison is of the text, bit for bit.

Regenerate the files after a deliberate change of output with

    PYTHONPATH=src python tests/test_golden_quadrature.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from clifft import cli

GOLDEN = Path(__file__).parent / "golden" / "quadrature"

COMMANDS = {
    f"verify_{suite}.json": ["verify", "--suite", suite]
    for suite in ("eigen", "diff", "series", "pde", "inversion")
}


def _render(name: str) -> str:
    argv = COMMANDS[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"clifft {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _text(value) -> str:
    # NaN is unequal to itself; its JSON text is not
    return json.dumps(value, sort_keys=True)


def _moved_rows(want: str, got: str) -> str:
    """The rows of two suite reports that differ, one line each: check,
    params and each changed field as old -> new; then any other top-level
    field that changed."""
    old, new = json.loads(want), json.loads(got)
    old_rows, new_rows = old.pop("checks", []), new.pop("checks", [])
    lines = []
    for k in range(max(len(old_rows), len(new_rows))):
        a = old_rows[k] if k < len(old_rows) else {}
        b = new_rows[k] if k < len(new_rows) else {}
        if _text(a) == _text(b):
            continue
        row = b or a
        changed = ", ".join(
            f"{field} {a.get(field)!r} -> {b.get(field)!r}"
            for field in sorted(a.keys() | b.keys())
            if _text(a.get(field)) != _text(b.get(field))
        )
        lines.append(f"{row.get('check')} {_text(row.get('params'))}: {changed}")
    lines += [
        f"{field}: {old.get(field)!r} -> {new.get(field)!r}"
        for field in sorted(old.keys() | new.keys())
        if _text(old.get(field)) != _text(new.get(field))
    ]
    return "\n".join(["moved rows (old -> new):", *lines] if lines else ["same rows, other text"])


def test_moved_rows_name_check_params_and_both_values():
    with open(GOLDEN / "verify_inversion.json", newline="") as fh:
        want = fh.read()
    report = json.loads(want)
    row = next(r for r in report["checks"] if r["value"] is not None)
    old_value, row["value"] = row["value"], row["value"] * 2
    message = _moved_rows(want, json.dumps(report, indent=2))
    assert message.splitlines() == [
        "moved rows (old -> new):",
        f"{row['check']} {_text(row['params'])}: value {old_value!r} -> {row['value']!r}",
    ]


def test_golden_files_are_the_command_set():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_text(name):
    with open(GOLDEN / name, newline="") as fh:
        want = fh.read()
    got = _render(name)
    assert got == want, _moved_rows(want, got)


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in COMMANDS:
        with open(GOLDEN / name, "w", newline="") as fh:
            fh.write(_render(name))


if __name__ == "__main__":
    main()
