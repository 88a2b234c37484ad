import json
from pathlib import Path

import run as bench_run
from report import compare, verdict
from tracer import LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench_run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_verdicts():
    old = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert verdict(old, [v * 1.3 for v in old], 0, 10, 0.1, True) == "worse"
    assert verdict(old, [v * 0.7 for v in old], 10, 10, 0.1, True) == "improved"
    assert verdict(old, [v * 1.02 for v in old], 3, 10, 0.1, True) == "no worse"
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    assert verdict(old, noisy, 5, 10, 0.1, True) == "unresolved"
    # higher is better: a drop is a regression
    assert verdict(old, [v * 0.7 for v in old], 0, 10, 0.1, False) == "worse"


def _write_set(directory: Path, python: str, wall: float) -> None:
    directory.mkdir()
    for seed in (1, 2, 3):
        metrics = {name: {"value": wall if name == "wall_s" else 1.0, "unit": unit}
                   for name, unit in bench_run.E2E_METRICS}
        env = {"nproc": 2, "machine": "x86_64", "python": python, "numpy": "2", "scipy": "1",
               "blas": "b 0", "blas_threads": 2, "sizes": {"n": 1}}
        result = {"workload": "grid", "seed": seed, "trace": 0, "metrics": metrics, "env": env,
                  "failed": 0, "attempted": 4}
        (directory / f"grid-seed{seed}-trace0.json").write_text(json.dumps(result))


def test_compare_refuses_results_from_another_environment(tmp_path, capsys):
    _write_set(tmp_path / "a", "3.11.7", 1.0)
    _write_set(tmp_path / "b", "3.10.0", 1.0)
    assert compare(tmp_path / "a", tmp_path / "b", ROOT / "BENCHMARK.json") == 2
    assert "python" in capsys.readouterr().err


def test_compare_prints_one_row_per_workload(tmp_path, capsys):
    _write_set(tmp_path / "a", "3.11.7", 1.0)
    _write_set(tmp_path / "b", "3.11.7", 2.0)
    assert compare(tmp_path / "a", tmp_path / "b", ROOT / "BENCHMARK.json") == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("grid")]
    assert len(rows) == 1
    assert "wall_s 1 [1, 1] -> 2 [2, 2] s, won 0/3, worse" in rows[0]
    assert "setup_s 1 [1, 1] -> 1 [1, 1] s, won 0/3, no worse" in rows[0]
