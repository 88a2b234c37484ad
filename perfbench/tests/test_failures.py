import argparse
import json

import numpy as np

import run as bench_run
from jobs import DIGITS_CAP, Job, exact_check, float_check, run_jobs, tail_margin


def _raises():
    raise ZeroDivisionError("injected")


def _wrong():
    return [float_check("injected wrong result", [1e-9, 0.5], 1e-6)]


def _right():
    return [float_check("ok", [1e-9, 1e-10], 1e-6), exact_check("exact ok", True)]


def test_raising_job_is_a_failed_check_and_the_run_goes_on():
    record = run_jobs([Job("boom", _raises), Job("fine", _right)])
    assert record["attempted"] == 3
    assert record["failed"] == 1
    assert record["failures"][0]["error"] == "ZeroDivisionError"
    assert len(record["latencies_s"]) == 2


def test_wrong_result_is_a_failed_check():
    record = run_jobs([Job("wrong", _wrong), Job("fine", _right)])
    assert record["failed"] == 1
    assert record["failures"][0]["check"] == "injected wrong result"
    assert record["failures"][0]["worst_error"] == 0.5
    assert record["margin_min_digits"] < 0


def test_nan_and_empty_results_fail():
    assert not float_check("nan", [np.nan], 1.0).passed
    assert not float_check("empty", [], 1.0).passed
    record = run_jobs([Job("nothing", lambda: [])])
    assert record["failed"] == 1


def test_margin_skips_the_ten_worst_samples():
    values = np.arange(20, dtype=float)
    assert tail_margin(values) == 10.0
    assert tail_margin(np.array([3.0, 1.0])) == 1.0
    assert tail_margin(np.empty(0)) == DIGITS_CAP


def _fake_pass(jobs):
    record = run_jobs(jobs, probe=lambda: 1.0)
    record.update(
        workload="grid", seed=1, trace=0, import_s=0.1, prep_s=0.1, setup_s=0.2, wall_s=1.0,
        peak_rss_mb=10.0, speed=1.0, setup_speed=1.0, calls=len(jobs), sizes={}, probe_weights={},
        versions={"python": "3", "numpy": "2", "scipy": "1", "blas": {"name": "b", "version": "0"}},
    )
    return record


def _run_with(monkeypatch, tmp_path, capsys, jobs):
    monkeypatch.setattr(bench_run, "collect", lambda args: [(_fake_pass(jobs), None)] * 3)
    args = argparse.Namespace(workload="grid", seed=1, trace=0, seconds=1.0, out=str(tmp_path))
    code = bench_run.run(args)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_command_exits_nonzero_when_a_check_failed(monkeypatch, tmp_path, capsys):
    for bad in (_raises, _wrong):
        code, result = _run_with(monkeypatch, tmp_path, capsys, [Job("bad", bad), Job("fine", _right)])
        assert code == 1
        assert result["correct"] is False
        assert result["failed"] == 3 and result["attempted"] > result["failed"]
        saved = json.loads((tmp_path / "grid-seed1-trace0.json").read_text())
        assert saved["fail_ratio"] > 0
        assert saved["failures"][0]["job"] == "bad"
        assert set(result["metrics"]) == {name for name, _ in bench_run.E2E_METRICS}


def test_command_exits_zero_when_every_check_passed(monkeypatch, tmp_path, capsys):
    code, result = _run_with(monkeypatch, tmp_path, capsys, [Job("fine", _right)])
    assert code == 0
    assert result == {
        "correct": True, "attempted": 6, "failed": 0,
        "metrics": result["metrics"],
    }
    saved = json.loads((tmp_path / "grid-seed1-trace0.json").read_text())
    assert saved["fail_ratio"] == 0
    assert {"nproc", "python", "numpy", "scipy", "blas", "blas_threads", "seed", "sizes",
            "git_commit", "source_sha256"} <= set(saved["env"])
