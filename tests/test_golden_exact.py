"""Golden outputs of the exact route, compared as text.

Each file in ``tests/golden/exact/`` is the standard output of one
``clifft`` command: ``verify --suite recursion|structural|constraint|l2``
at the default dimensions, ``coeffs`` for every m <= 6, i and sign,
with and without ``--inverse --k-max 30``, and ``eigentable`` for every
m <= 6.  None of these integrate numerically, so their text does not
depend on the BLAS thread count.

Regenerate the files after a deliberate change of output with

    PYTHONPATH=src python tests/test_golden_exact.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from clifft import cli

GOLDEN = Path(__file__).parent / "golden" / "exact"


def _commands() -> dict[str, list[str]]:
    out = {
        f"verify_{suite}.json": ["verify", "--suite", suite]
        for suite in ("recursion", "structural", "constraint", "l2")
    }
    for m in range(2, 7):
        out[f"eigentable_m{m}.csv"] = ["eigentable", "--m", str(m)]
        for i in range(m - 1):
            for sign in ("plus", "minus"):
                argv = ["coeffs", "--m", str(m), "--i", str(i), "--sign", sign]
                out[f"coeffs_m{m}_i{i}_{sign}.csv"] = argv
                out[f"coeffs_m{m}_i{i}_{sign}_inverse.csv"] = argv + ["--inverse", "--k-max", "30"]
    return out


COMMANDS = _commands()


def _render(argv: list[str]) -> str:
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
    assert _render(COMMANDS[name]) == want


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in COMMANDS.items():
        with open(GOLDEN / name, "w", newline="") as fh:
            fh.write(_render(argv))


if __name__ == "__main__":
    main()
