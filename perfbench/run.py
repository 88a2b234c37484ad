"""Benchmark of the clifft certification routes.

Run one workload and print its metrics; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 24 --trace 0

The run repeats the workload's pass, each time in a fresh process with
cold caches (``perfbench/child.py``), until ``--seconds`` have passed and
at least three passes are done, and reports medians over the passes.
Times are in calibrated seconds: each pass's times are divided by the
machine speed measured around and between its jobs (``calibrate.py``);
the raw times are kept in the result file.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics, the tracing overhead among them.  Every run also writes a result
file with its environment to ``--out`` (default ``.perfbench/results``).

Two result sets are compared, and one is summarized, with

    python3 perfbench/run.py --compare OLD_DIR NEW_DIR
    python3 perfbench/run.py --summary DIR

Exit codes: 0 when every check passed, 1 when a check failed (the metrics
are still printed), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"

WORKLOADS = ("grid", "series", "exact", "pointwise")
# (name, unit) of every end-to-end metric; BENCHMARK.json holds their bounds.
E2E_METRICS = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("margin_digits", "digits"),
    ("call_p50_ms", "ms"),
    ("call_p99_ms", "ms"),
)
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# One BLAS thread: a pass then runs on one core, the core its calibration
# task measures, and two concurrent threads never wait on each other.
BLAS_THREADS = 1
# A run stops starting passes when the next one could end past this.
HARD_LIMIT_S = 160.0
# Environment keys that must match before two result sets are compared.
COMPARED_ENV_KEYS = (
    "nproc", "machine", "python", "numpy", "scipy", "blas", "blas_threads", "sizes", "probe_weights",
)


class BenchError(Exception):
    """The benchmark itself could not run; exit code 2."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "clifft").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """Commit of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args, first_pass: dict) -> dict:
    versions = first_pass["versions"]
    return {
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "blas": f'{versions["blas"]["name"]} {versions["blas"]["version"]}',
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "sizes": first_pass["sizes"],
        "probe_weights": first_pass["probe_weights"],
    }


# ---------------------------------------------------------------------------
# passes


def run_pass(workload: str, seed: int, trace: int, timeout: float) -> dict:
    """One pass in a fresh process; returns the child's record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    fd, out = tempfile.mkstemp(prefix=f"{workload}-", suffix=".json", dir=tmp)
    os.close(fd)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", out]
    if trace:
        spans = WORK_DIR / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}.npz")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"pass exited with code {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(Path(out).read_text())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within {timeout:.0f} s") from exc
    finally:
        Path(out).unlink(missing_ok=True)


def collect(args) -> list[tuple[dict, dict | None]]:
    """(untraced, traced or None) pass records until the time is up."""
    start = time.monotonic()
    passes: list[tuple[dict, dict | None]] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(passes) >= (MIN_TRACED_PAIRS if args.trace else MIN_PASSES) and elapsed >= args.seconds:
            break
        if passes and elapsed + longest > HARD_LIMIT_S:
            break
        t0 = time.monotonic()
        plain = run_pass(args.workload, args.seed, 0, HARD_LIMIT_S - elapsed)
        traced = None
        if args.trace:
            traced = run_pass(args.workload, args.seed, 1, HARD_LIMIT_S - (time.monotonic() - start))
        passes.append((plain, traced))
        longest = max(longest, time.monotonic() - t0)
    return passes


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def calibrated_latencies(r: dict) -> list[float]:
    """Job latencies of a pass, each divided by the speed of the probes
    on either side of it."""
    speeds = r["speeds"]
    return [2 * lat / (speeds[k] + speeds[k + 1]) for lat, k in zip(r["latencies_s"], r["job_probes"])]


def calibrated_wall(r: dict) -> float:
    """The pass's wall time with each job calibrated by its local speed
    and the runner's own time between jobs by the pass's mean speed."""
    jobs = sum(r["latencies_s"])
    return sum(calibrated_latencies(r)) + (r["wall_s"] - jobs) / r["speed"]


def call_latencies_ms(records: list[dict]) -> list[float]:
    """Each call's median calibrated latency over the passes, which all
    run the same calls on the same inputs."""
    return [1e3 * statistics.median(call) for call in zip(*map(calibrated_latencies, records))]


def e2e_metrics(records: list[dict]) -> dict:
    """End-to-end metrics, times in calibrated seconds (see calibrate.py)."""
    calls = call_latencies_ms(records)
    return {
        "wall_s": statistics.median(calibrated_wall(r) for r in records),
        "setup_s": statistics.median(r["setup_s"] / r["setup_speed"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "margin_digits": min(r["margin_digits"] for r in records),
        "call_p50_ms": percentile(calls, 50),
        "call_p99_ms": percentile(calls, 99),
    }


def layer_metrics(passes: list[tuple[dict, dict]]) -> dict:
    """Per-layer medians over the traced passes, times calibrated."""
    timed = {name for name, unit in LAYER_METRICS if unit in ("s", "us")}
    traced = [
        {name: value / t["speed"] if name in timed else value for name, value in t["layers"].items()}
        for _, t in passes
    ]
    out = {name: statistics.median(layers[name] for layers in traced) for name in traced[0]}
    untraced_wall = statistics.median((p["prep_s"] + p["wall_s"]) / p["speed"] for p, _ in passes)
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out


def _finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def summarize(args, passes: list[tuple[dict, dict | None]]) -> dict:
    """The result record of a run: metrics, counts and environment."""
    records = [p for pair in passes for p in pair if p is not None]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    plain = [p for p, _ in passes]
    if args.trace:
        values = layer_metrics(passes)
        units = dict(LAYER_METRICS)
    else:
        values = e2e_metrics(plain)
        units = dict(E2E_METRICS)
    failures = [dict(f, seed=r["seed"], trace=r["trace"]) for r in records for f in r["failures"]]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {name: {"value": _finite(values[name]), "unit": units[name]} for name in units},
        "passes": [
            {key: r[key] for key in (
                "trace", "import_s", "prep_s", "setup_s", "wall_s", "speed", "setup_speed", "peak_rss_mb",
                "margin_digits", "margin_min_digits", "margin_samples", "attempted", "failed", "calls",
            )}
            for r in records
        ],
        "latency_samples": sum(len(r["latencies_s"]) for r in plain),
        "raw": {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "speed": statistics.median(r["speed"] for r in plain),
        },
        "failures": failures[:50],
        "env": environment(args, plain[0]),
    }


def run(args) -> int:
    if not (SRC / "clifft" / "__init__.py").is_file():
        raise BenchError(f"no clifft package under {SRC}")
    # On SIGTERM unwind through subprocess.run, which kills and reaps the pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = summarize(args, collect(args))
    out_dir = Path(args.out) if args.out else WORK_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(result['passes'])} passes, {result['latency_samples']} timed calls")
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed, "
          f"fail_ratio {result['fail_ratio']:.4g}")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(f"result file: {path}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the clifft certification routes.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the result file (default .perfbench/results)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"),
                        help="compare two result sets against the BENCHMARK.json bounds")
    parser.add_argument("--summary", metavar="DIR", help="summarize one result set as markdown")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            from report import compare

            return compare(Path(args.compare[0]), Path(args.compare[1]), ROOT / "BENCHMARK.json")
        if args.summary:
            from report import summary

            print(summary(Path(args.summary)))
            return 0
        if args.workload is None:
            parser.error("--workload is required unless --compare or --summary is given")
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
