"""One pass of one workload, in a fresh process with cold caches.

    python3 perfbench/child.py --workload grid --seed 1 --trace 0 --out pass.json

Times ``import clifft`` and the workload's preparation (together the
set-up), then the jobs, and writes one JSON record to ``--out``.  With
``--trace 1`` the library is wrapped by the tracer for preparation and
jobs, and the record also holds the per-layer metrics.  The library is
imported from the ``src`` directory of the checkout this file sits in.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _blas() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="write the traced pass's spans to this .npz file")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import clifft

    import_s = time.perf_counter() - t0
    if not Path(clifft.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: clifft imported from {clifft.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    import calibrate
    from jobs import run_jobs
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    def probe() -> float:
        return calibrate.speed(workload.probe_weights)

    setup_probe = probe()
    tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}") if args.trace else None
    if tracer is not None:
        tracer.install()
    t_prep = time.perf_counter()
    if tracer is not None:
        with tracer.span("bench.prepare"):
            jobs = workload.prepare(args.seed)
    else:
        jobs = workload.prepare(args.seed)
    prep_s = time.perf_counter() - t_prep
    t_pass = time.perf_counter()
    record = run_jobs(jobs, span=tracer.span if tracer is not None else None, probe=probe)
    gross_s = time.perf_counter() - t_pass
    wall_s = gross_s - record["probe_s"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    speeds = record["speeds"]
    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        import_s=import_s,
        prep_s=prep_s,
        setup_s=import_s + prep_s,
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
        speed=sum(speeds) / len(speeds),
        setup_speed=(setup_probe + speeds[0]) / 2,
        probe_weights=workload.probe_weights,
        calls=len(jobs),
        sizes=workload.sizes,
        versions={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas(),
        },
    )
    if tracer is not None:
        builds = clifft.basis.harmonic_basis.cache_info().misses
        layers = layer_metrics(tracer, prep_s + gross_s, len(jobs), builds)
        layers["trace.wall_s"] = prep_s + wall_s
        record["layers"] = layers
        if args.spans:
            tracer.save(args.spans)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
