"""Golden outputs of the floating-point suites, compared as text.

Each file in ``tests/golden/quadrature/`` is the standard output of
``clifft verify --suite eigen|diff|series|pde|inversion`` at the default
dimensions.  The eigen and diff suites integrate numerically on the
Gauss-Hermite grid, the inversion suite on the radial rule, and the
series and pde suites evaluate the closed forms in floating point.  A
change that moves a digit regenerates the files, and the diff of the
committed files lists every digit that moved.

Every suite but one reads the same with one and with two BLAS threads,
and is rendered in process.  The inversion suite's m = 4 composition
residual reads 1.1657341758564144e-15 with one OpenBLAS thread and
1.3322676295501878e-15 with two, so that suite is rendered in a
subprocess pinned to one thread.

Regenerate the files after a deliberate change of output with

    PYTHONPATH=src python tests/test_golden_quadrature.py
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clifft
from clifft import cli

GOLDEN = Path(__file__).parent / "golden" / "quadrature"

COMMANDS = {
    f"verify_{suite}.json": ["verify", "--suite", suite]
    for suite in ("eigen", "diff", "series", "pde", "inversion")
}
ONE_THREAD = {"verify_inversion.json"}


def _render_in_process(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"clifft {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _render_one_thread(argv: list[str]) -> str:
    src = str(Path(clifft.__file__).parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from clifft import cli; sys.exit(cli.main(sys.argv[1:]))",
         *argv],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"clifft {' '.join(argv)} exited with {proc.returncode}: {proc.stderr}")
    return proc.stdout


def _render(name: str) -> str:
    render = _render_one_thread if name in ONE_THREAD else _render_in_process
    return render(COMMANDS[name])


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
