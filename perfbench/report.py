"""Compare two result sets, or summarize one.

A result set is a directory of result files written by ``run.py``, one
per (workload, seed, trace).  Runs with the same seed in both sets form
a pair.  Results from machines whose environment differs are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import COMPARED_ENV_KEYS, E2E_METRICS, WORKLOADS


def load(directory: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """{(workload, trace): {seed: result}} of a result set."""
    out: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if not {"workload", "seed", "trace", "metrics", "env"} <= set(result):
            continue
        out.setdefault((result["workload"], result["trace"]), {})[result["seed"]] = result
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def env_mismatches(old: dict, new: dict) -> list[str]:
    """Differences in the compared environment keys, as readable lines."""
    lines = []
    for key in sorted(set(old) & set(new)):
        env_old = next(iter(old[key].values()))["env"]
        for seed, result in new[key].items():
            for name in COMPARED_ENV_KEYS:
                if env_old.get(name) != result["env"].get(name):
                    lines.append(f"{key[0]} seed {seed}: {name} {env_old.get(name)!r} != {result['env'].get(name)!r}")
    return lines


def verdict(old: list[float], new: list[float], won: int, pairs: int, bound: float,
            lower_better: bool) -> str:
    """improved, no worse, unresolved or worse, by the benchmark's rules."""
    sign = 1.0 if lower_better else -1.0
    q1o, mo, q3o = quartiles(old)
    q1n, mn, q3n = quartiles(new)
    worse_by = sign * (mn - mo) / (abs(mo) or 1.0)
    spread = max((q3o - q1o) / (abs(mo) or 1.0), (q3n - q1n) / (abs(mn) or 1.0))
    always_better = all(sign * (n - o) < 0 for n in new for o in old)
    if spread > bound and not always_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    gain = worse_by < 0 and abs(mn - mo) > q3o - q1o and pairs > 0 and won >= 0.9 * pairs
    return "improved" if gain or always_better else "no worse"


def compare(old_dir: Path, new_dir: Path, bench_json: Path) -> int:
    spec = json.loads(bench_json.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old, new = load(old_dir), load(new_dir)
    mismatches = env_mismatches(old, new)
    if mismatches:
        print("error: refusing to compare results from different environments:", file=sys.stderr)
        for line in mismatches[:20]:
            print(f"  {line}", file=sys.stderr)
        return 2
    print(f"old {old_dir}  ->  new {new_dir}")
    print("per metric: old median [q1, q3] -> new median [q1, q3], pairs won by new, verdict")
    for workload in WORKLOADS:
        a, b = old.get((workload, 0)), new.get((workload, 0))
        if not a or not b:
            continue
        seeds = sorted(set(a) & set(b))
        cells = []
        for name, unit in E2E_METRICS:
            metric = bounds[name]
            lower = metric["better"] == "lower"
            va = [r["metrics"][name]["value"] for r in a.values()]
            vb = [r["metrics"][name]["value"] for r in b.values()]
            won = sum(
                (b[s]["metrics"][name]["value"] < a[s]["metrics"][name]["value"]) == lower
                and b[s]["metrics"][name]["value"] != a[s]["metrics"][name]["value"]
                for s in seeds
            )
            qa, qb = quartiles(va), quartiles(vb)
            cells.append(
                f"{name} {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] -> {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {unit}, "
                f"won {won}/{len(seeds)}, {verdict(va, vb, won, len(seeds), metric['bound'], lower)}"
            )
        failed_a = sum(r["failed"] for r in a.values())
        failed_b = sum(r["failed"] for r in b.values())
        print(f"{workload} (failed {failed_a} -> {failed_b}): " + " | ".join(cells))
    return 0


def _number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.4g}"


def summary(directory: Path) -> str:
    """Markdown tables: end-to-end medians per workload, per-layer medians."""
    results = load(directory)
    if not results:
        return f"no result files in {directory}"
    env = next(iter(next(iter(results.values())).values()))["env"]
    lines = [
        f"Environment: {env['nproc']} cores ({env['machine']}), Python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}, BLAS threads {env['blas_threads']}; "
        f"commit {env['git_commit']}, source sha256 {env['source_sha256'][:12]}.",
        "",
        "End to end, median [q1, q3] over seeds:",
        "",
        "| workload | seeds | failed / attempted | " + " | ".join(f"{n} ({u})" for n, u in E2E_METRICS) + " |",
        "|---" * (3 + len(E2E_METRICS)) + "|",
    ]
    for workload in WORKLOADS:
        runs = results.get((workload, 0))
        if not runs:
            continue
        cells = []
        for name, _ in E2E_METRICS:
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs.values()])
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        failed = sum(r["failed"] for r in runs.values())
        attempted = sum(r["attempted"] for r in runs.values())
        lines.append(f"| {workload} | {len(runs)} | {failed} / {attempted} | " + " | ".join(cells) + " |")
    traced = {w: results.get((w, 1)) for w in WORKLOADS if results.get((w, 1))}
    if traced:
        names = list(next(iter(next(iter(traced.values())).values()))["metrics"])
        lines += [
            "",
            "Per layer (traced runs), median over seeds:",
            "",
            "| metric | unit | " + " | ".join(traced) + " |",
            "|---" * (2 + len(traced)) + "|",
        ]
        for name in names:
            unit = next(iter(next(iter(traced.values())).values()))["metrics"][name]["unit"]
            cells = [
                _number(statistics.median(r["metrics"][name]["value"] for r in runs.values()))
                for runs in traced.values()
            ]
            lines.append(f"| {name} | {unit} | " + " | ".join(cells) + " |")
    return "\n".join(lines)
