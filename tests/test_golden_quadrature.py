"""Golden outputs of the floating-point suites, compared as text.

Each golden file is the standard output of ``clifft verify --suite
eigen|diff|series|pde|inversion`` at the default dimensions.  The eigen and
diff suites and the inversion suite's m = 2 composition integrate
numerically on the transform's target-aligned cylindrical rule, the rest
of the inversion suite on the radial rule, and the series and pde suites
evaluate the closed forms in floating point.  A change that moves a digit regenerates
the files, and the diff of the committed files lists every digit that
moved.

Every suite reads the same with one, two and four BLAS threads, so every
file is rendered in process with no thread pin.  (The inversion suite's
radial composition sums its Bessel tables with einsum rather than a BLAS
product, whose summation order follows the thread count.)

The files do follow numpy's SIMD dispatch of float64 ``tan`` and ``exp``:
the Bessel closed forms take sin and cos from ``tan``, the quadrature
weights and Gaussians take ``exp``, and numpy picks both kernels by CPU.
On x86-64 this gives two sets of files: ``tests/golden/quadrature/`` for a
CPU with AVX-512 (numpy's X86_V4), and ``tests/golden/quadrature_no_x86_v4/``
for one without, rendered with
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` (the X86_V2
baseline renders the same files as X86_V3).  The test compares the set of
the running dispatch in process, and renders the other set in a subprocess
with that variable set or cleared, so an AVX-512 CPU checks both; a CPU
without AVX-512 cannot render the first set and skips it.

A file that differs fails with the rows that moved, one line each: the
check, its params, and every field that changed, old -> new.  Only the
message reads the JSON; the comparison is of the text, bit for bit.

Regenerate both sets after a deliberate change of output with

    PYTHONPATH=src python tests/test_golden_quadrature.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clifft
from clifft import cli

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

X86_V4 = bool(__cpu_features__.get("X86_V4"))
NARROWED = "X86_V4 AVX512_ICL AVX512_SPR"
SETS = {
    True: Path(__file__).parent / "golden" / "quadrature",
    False: Path(__file__).parent / "golden" / "quadrature_no_x86_v4",
}
GOLDEN = SETS[X86_V4]

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


def _render_in_subprocess(x86_v4: bool) -> tuple[bool, dict[str, str]]:
    """Every file, rendered in a fresh process whose dispatch is narrowed
    (x86_v4 False) or left whole, with the X86_V4 flag that it ran with."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    if not x86_v4:
        env["NPY_DISABLE_CPU_FEATURES"] = NARROWED
    src = str(Path(clifft.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, __file__, "--print"], env=env, check=True,
                         capture_output=True, text=True)
    rendered = json.loads(out.stdout)
    return rendered["x86_v4"], rendered["files"]


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
    for directory in SETS.values():
        assert sorted(p.name for p in directory.iterdir()) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_text(name, suite_run, monkeypatch):
    with open(GOLDEN / name, newline="") as fh:
        want = fh.read()
    # the checks of each suite are computed once per session, shared with
    # the acceptance criteria that run the same dimensions
    monkeypatch.setattr(cli, "run", lambda suite, ms: suite_run(suite, ms)[0])
    got = _render(name)
    assert got == want, _moved_rows(want, got)


def test_other_dispatch_matches_its_golden_text():
    x86_v4, files = _render_in_subprocess(not X86_V4)
    if x86_v4 == X86_V4:
        pytest.skip(f"this CPU cannot dispatch to the set of {SETS[not X86_V4].name}")
    moved = []
    for name, got in sorted(files.items()):
        with open(SETS[x86_v4] / name, newline="") as fh:
            want = fh.read()
        if got != want:
            moved.append(f"{SETS[x86_v4].name}/{name}: {_moved_rows(want, got)}")
    assert not moved, "\n".join(moved)


def main(argv: list[str]) -> None:
    if argv == ["--print"]:
        print(json.dumps({"x86_v4": X86_V4, "files": {name: _render(name) for name in COMMANDS}}))
        return
    rendered = dict([(X86_V4, {name: _render(name) for name in COMMANDS}),
                     _render_in_subprocess(not X86_V4)])
    for x86_v4, files in rendered.items():
        SETS[x86_v4].mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            with open(SETS[x86_v4] / name, "w", newline="") as fh:
                fh.write(text)
    if len(rendered) == 1:
        print(f"this CPU cannot dispatch to the set of {SETS[not X86_V4].name}; "
              "it was left as it is", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
