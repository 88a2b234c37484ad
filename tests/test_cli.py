from __future__ import annotations

import csv
import io
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from clifft import engine, suites
from clifft.cli import main
from clifft.engine import closed_form_eigenvalue
from clifft.kernels import KernelId, build_kernel


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_kernel_eval_rows_match_library(capsys):
    code, out = run_cli(
        capsys, "kernel-eval", "--m", "4", "--i", "1", "--s", "0.5,1.5", "--t", "0.8",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    expr = build_kernel(KernelId(4, 1))
    for row in rows:
        scalar, biv = expr.profiles(float(row["s"]), float(row["t"]))
        assert float(row["scalar_re"]) == pytest.approx(complex(scalar).real)
        assert float(row["g_re"]) == pytest.approx(complex(biv).real)


def test_kernel_eval_series_deltas_are_small(capsys):
    code, out = run_cli(
        capsys, "kernel-eval", "--m", "3", "--i", "0", "--sign", "minus",
        "--s", "0.2,1.1,2.5", "--t", "0.0,1.7", "--compare-series",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    for row in rows:
        assert float(row["scalar_delta"]) < 1e-8
        assert float(row["g_delta"]) < 1e-8


def test_eigentable_matches_closed_form(capsys):
    code, out = run_cli(capsys, "eigentable", "--m", "5", "--i", "2", "--k-max", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    for row in rows:
        want = closed_form_eigenvalue(5, 2, int(row["k"]), row["parity"])
        assert float(row["re"]) == pytest.approx(want.real, abs=1e-15)
        assert float(row["im"]) == pytest.approx(want.imag, abs=1e-15)
        assert row["factor"] == "(-1)^p"


def test_coeffs_inverse_products(capsys):
    code, out = run_cli(
        capsys, "coeffs", "--m", "6", "--i", "2", "--k-max", "5", "--inverse",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        assert float(row["prod_even_re"]) == 1.0
        assert float(row["prod_even_im"]) == 0.0
        assert float(row["prod_odd_re"]) == 1.0


def test_coeffs_at_a_dimension_beyond_the_recursion_limit(capsys):
    # gamma2pow(2203, 1, 0) needs 2201!!, about 1,100 factors
    code, out = run_cli(capsys, "coeffs", "--m", "2203", "--i", "0", "--k-max", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["k"]) for r in rows] == [0, 1, 2]


def test_verify_suite_json_and_exit_code(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "l2", "--m", "4", "--m", "6")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "l2"
    assert report["passed"] is True
    assert report["dimensions"] == [4, 6]
    assert set(report) == {"suite", "dimensions", "passed", "checks"}
    assert all("passed" in c for c in report["checks"])


def test_verify_constraint_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "constraint", "--m", "5")
    assert code == 0
    report = json.loads(out)
    classical = [c for c in report["checks"] if c["params"].get("stream") == "classical"]
    assert classical and classical[0]["passed"] is True
    assert classical[0]["value"] == 0.0 and "satisfied" not in classical[0]


def test_verify_inversion_composes_at_m_2(capsys, monkeypatch):
    # the golden files run the composition itself; here only its row counts
    monkeypatch.setattr(suites, "inversion_composition_residual", lambda m, i: 1e-15)
    code, out = run_cli(capsys, "verify", "--suite", "inversion", "--m", "2")
    assert code == 0
    rows = [r for r in json.loads(out)["checks"] if r["check"] == "composition residual"]
    assert [r["params"] for r in rows] == [{"m": 2}]


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_domain_error_exits_two(capsys):
    code = main(["kernel-eval", "--m", "4", "--i", "9", "--s", "1", "--t", "1"])
    assert code == 2
    assert "i" in capsys.readouterr().err


def test_bad_number_list_exits_two(capsys):
    code = main(["kernel-eval", "--m", "4", "--i", "1", "--s", "1,zap", "--t", "1"])
    assert code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, _ = run_cli(
        capsys, "eigentable", "--m", "2", "--k-max", "1", "--output", str(target),
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("m,i,k,parity,re,im,factor")
    assert len(text.strip().splitlines()) == 5


@pytest.mark.parametrize(
    "suite, m",
    [
        ("recursion", 1),
        ("structural", 2), ("structural", 5),
        ("series", 1),
        ("pde", 1), ("pde", 13),
        ("eigen", 1),
        ("inversion", 0), ("inversion", 3),
        ("diff", 1), ("diff", 4),
        ("l2", 1),
        ("constraint", 1),
    ],
)
def test_verify_rejects_out_of_domain_dimension(capsys, suite, m):
    code = main(["verify", "--suite", suite, "--m", "4", "--m", str(m)])
    captured = capsys.readouterr()
    assert code == 2
    assert '"passed": true' not in captured.out
    assert f"suite {suite} accepts" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel-eval", "--m", "4", "--i", "1", "--s", "nan", "--t", "1"],
        ["kernel-eval", "--m", "4", "--i", "1", "--s", "1", "--t", "0.5,inf"],
        ["kernel-eval", "--m", "4", "--i", "1", "--s=-inf", "--t", "1"],
        ["kernel-eval", "--m", "3", "--i", "0", "--s", "1e300", "--t", "1",
         "--compare-series"],
        ["kernel-eval", "--m", "4", "--i", "1", "--s", "1", "--t", "1",
         "--eps", "nan", "--compare-series"],
        ["eigentable", "--m", "1"],
        ["eigentable", "--m", "4", "--k-max", "-1"],
        ["coeffs", "--m", "4", "--i", "1", "--k-max", "-3"],
        ["eigentable", "--m", "4", "--output", "/nonexistent/x.csv"],
        ["verify", "--suite", "l2", "--m", "4", "--output", "/nonexistent/x.json"],
        ["kernel-eval", "--m", "4", "--i", "1", "--s", "1", "--t", "1",
         "--eps", "inf", "--compare-series"],
    ],
)
def test_bad_input_exits_two(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(kid):
        raise RuntimeError("boom")

    monkeypatch.setattr("clifft.cli.build_kernel", broken)
    code = main(["kernel-eval", "--m", "4", "--i", "1", "--s", "1", "--t", "1"])
    assert code == 3
    assert "boom" in capsys.readouterr().err


def _raising_suite(monkeypatch, suite: str) -> list:
    """Replace the suite's function with one that records its calls and
    raises."""
    calls = []

    def broken(ms):
        calls.append(ms)
        raise RuntimeError("suite ran")

    monkeypatch.setitem(suites.SUITES, suite, suites.SUITES[suite]._replace(checks=broken))
    return calls


def test_verify_checks_output_path_before_any_unit(capsys, monkeypatch, tmp_path):
    calls = _raising_suite(monkeypatch, "eigen")
    target = tmp_path / "missing" / "x.json"
    code = main(["verify", "--suite", "eigen", "--output", str(target)])
    assert code == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert not target.parent.exists()


def test_failed_verify_leaves_no_report_file(capsys, monkeypatch, tmp_path):
    calls = _raising_suite(monkeypatch, "eigen")
    target = tmp_path / "x.json"
    code = main(["verify", "--suite", "eigen", "--output", str(target)])
    assert code == 3
    assert len(calls) == 1
    assert not target.exists()


# Each stub makes one sample after the first NaN in the quantity a suite
# measures; the fold over samples must not drop it.


def _nan_bivector_series(monkeypatch):
    real = suites.eval_series

    def eval_series(*args):
        a, b = real(*args)
        b = b.copy()
        b[1] = np.nan
        return a, b

    monkeypatch.setattr(suites, "eval_series", eval_series)


def _nan_pde_sample(monkeypatch):
    residuals = itertools.chain([1e-9, np.nan], itertools.repeat(1e-9))
    monkeypatch.setattr(suites, "pde_residual", lambda kid, x, y: next(residuals))


def _nan_fg_sample(monkeypatch):
    # the pde rows pass; one (s, t) sample of the profile form is NaN
    monkeypatch.setattr(suites, "pde_residual", lambda kid, x, y: 1e-9)
    real = suites.fg_system_residual

    def fg_system_residual(kid, s, t):
        s = s.copy()
        s[1] = np.nan
        return real(kid, s, t)

    monkeypatch.setattr(suites, "fg_system_residual", fg_system_residual)


def _nan_eigen_record(monkeypatch):
    records = [SimpleNamespace(abs_error=e, residual=1e-12) for e in (1e-9, np.nan, 1e-9)]
    monkeypatch.setattr(suites, "verify_eigen", lambda m: records)


def _nan_odd_composition_chain(monkeypatch):
    monkeypatch.setattr(suites, "verify_inversion", lambda m, k_max: SimpleNamespace(
        exact_ok=True, first_failure=None))
    real = engine.bessel_jtilde

    def bessel_jtilde(order, z):
        out = real(order, z)
        if order == 4:  # the odd chain at m = 4, after the even one
            out = out.copy()
            out.flat[1] = np.nan
        return out

    monkeypatch.setattr(engine, "bessel_jtilde", bessel_jtilde)


def _nan_second_diff_relation(monkeypatch):
    def batch(kid, fs, ys, scheme=None):
        out = [{0: np.zeros(len(ys))} for _ in fs]
        if len(fs) == 2:  # the plus side, F_+[x f] and F_+[d f]; not F_-[f]
            out[1][0][1] = np.nan
        return out

    monkeypatch.setattr(engine, "apply_transform_batch", batch)


def _add_on_pseudoscalar(real, ys_arg: int):
    """real, with 0.5 added on the pseudoscalar blade of every output."""

    def faulty(*args):
        ys = np.atleast_2d(args[ys_arg])
        pseudoscalar = (1 << ys.shape[1]) - 1
        out = real(*args)
        for vals in out:
            vals[pseudoscalar] = vals.get(pseudoscalar, 0) + np.full(len(ys), 0.5)
        return out

    return faulty


@pytest.mark.parametrize("m, rayleigh_sees_it", [(2, True), (3, False), (5, False)])
def test_eigen_residual_sees_a_pseudoscalar_fault(monkeypatch, tmp_path, m, rayleigh_sees_it):
    # m = 2, 3 take the grid route, m = 5 the radial one.  Only at m = 2
    # does some psi (psi_{0,1,1} and psi_{0,2,1}) carry the pseudoscalar,
    # so elsewhere the Rayleigh quotient cannot see the fault and the
    # residual over every blade must
    monkeypatch.setattr(engine, "apply_transform_batch",
                        _add_on_pseudoscalar(engine.apply_transform_batch, 2))
    monkeypatch.setattr(engine, "bochner_reduce", _add_on_pseudoscalar(engine.bochner_reduce, 4))
    target = tmp_path / "eigen.json"
    assert main(["verify", "--suite", "eigen", "--m", str(m), "--output", str(target)]) == 1
    rows = {row["check"]: row for row in json.loads(target.read_text())["checks"]}
    assert rows["eigenvalue error"]["passed"] is not rayleigh_sees_it
    assert not rows["eigen residual"]["passed"]
    assert rows["eigen residual"]["value"] > 0.1


def _reject_constant(name):
    raise ValueError(f"bare {name} is not strict JSON")


@pytest.mark.parametrize(
    "suite, m, inject",
    [
        ("series", 2, _nan_bivector_series),
        ("pde", 2, _nan_pde_sample),
        ("pde", 3, _nan_fg_sample),
        ("eigen", 2, _nan_eigen_record),
        ("inversion", 4, _nan_odd_composition_chain),
        ("diff", 2, _nan_second_diff_relation),
    ],
)
def test_verify_fails_on_a_nan_sample(capsys, monkeypatch, suite, m, inject):
    inject(monkeypatch)
    code, out = run_cli(capsys, "verify", "--suite", suite, "--m", str(m))
    report = json.loads(out, parse_constant=_reject_constant)
    assert code == 1
    assert report["passed"] is False


# Dimensions that give every kind of row of each suite.
_ROW_DIMENSIONS = {
    "recursion": 2, "structural": 4, "series": 2, "pde": 2, "eigen": 2,
    "inversion": 4, "diff": 2, "l2": 4, "constraint": 5,
}


@pytest.mark.parametrize("suite", sorted(suites.SUITES))
def test_every_suite_emits_one_row_schema(capsys, monkeypatch, suite):
    monkeypatch.setattr(suites, "verify_eigen", lambda m: [SimpleNamespace(abs_error=1e-12, residual=1e-12)])
    monkeypatch.setattr(suites, "verify_diff_relations", lambda kid, bf: 1e-9)
    assert set(_ROW_DIMENSIONS) == set(suites.SUITES)
    code, out = run_cli(capsys, "verify", "--suite", suite, "--m", str(_ROW_DIMENSIONS[suite]))
    assert code == 0
    rows = json.loads(out)["checks"]
    assert rows
    for row in rows:
        assert set(row) == {"check", "params", "value", "tolerance", "margin_digits", "passed"}
        assert isinstance(row["value"], (type(None), bool, int, float, str))
        assert set(row["params"]) >= {"m"}
        assert (row["tolerance"] is None) == (row["margin_digits"] is None)
