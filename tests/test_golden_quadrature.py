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

Regenerate the files after a deliberate change of output with

    PYTHONPATH=src python tests/test_golden_quadrature.py
"""

from __future__ import annotations

import contextlib
import io
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


def test_golden_files_are_the_command_set():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_text(name):
    with open(GOLDEN / name, newline="") as fh:
        want = fh.read()
    assert _render(name) == want


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in COMMANDS:
        with open(GOLDEN / name, "w", newline="") as fh:
            fh.write(_render(name))


if __name__ == "__main__":
    main()
