"""Layer-by-layer benchmark of the etslam pipeline.

Run from the repository root:

    python3 bench/run.py --workload ci_trials --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``ci_trials``, ``ofdm_full``, ``map_eval``.
The benchmark imports etslam from ``src/`` of the checkout it sits in, builds
the workload's inputs from ``--seed`` (set-up, repeated and timed as
``setup_s``), then runs whole passes of the workload's fixed work for about
``--seconds``, checking every pass's outputs.  Every pass does the same work,
so its outputs must be byte-identical to the first pass's.

Times are reference seconds: wall seconds times the machine speed that
``probe.py`` samples while the timed code runs, so the shared host's speed
drift cancels.  The report also carries the wall-clock figures.

With ``--trace 0`` the last line reports the end-to-end metrics:
``setup_s``, ``work_per_s`` (SLAM steps per second on ``ci_trials`` and
``ofdm_full``, ET-GOSPA and DBSCAN evaluations per second on ``map_eval``;
median over passes) and ``peak_rss_mb``.  With ``--trace 1`` passes
alternate between untraced and traced; the traced ones wrap etslam's public
functions (``spans.py``) and the last line reports the per-layer metrics,
per pass, median over traced passes.  The spans are written to
``.bench_out/`` at exit.  The line before the last carries the report:
output sha256, failed-operation share, pass times, environment, pinned
environment variables and ``src_lines``.

``--tiny`` shrinks every workload for the benchmark's own smoke check
(``smoke.py``).  The benchmark refuses to run when ``ETSLAM_SEED`` is set,
because the config loader would silently apply it over ``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# repeats workloads.WORKLOADS, which cannot be imported before numpy is pinned
WORKLOAD_NAMES = ("ci_trials", "ofdm_full", "map_eval")
SETUP_REPEATS = 5
SEED_ENV_VAR = "ETSLAM_SEED"
THREADS = 1
# Set before numpy is imported.  numpy's BLAS (ofdm's column matmul) otherwise
# picks its own thread count, and numpy's transparent-huge-page advice makes
# peak RSS depend on how many huge pages the host has free.
PINNED_ENV = {
    **{var: str(THREADS) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
    "NUMPY_MADVISE_HUGEPAGE": "0",
}

END_TO_END_UNITS = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "cells": "count",
              "rays": "count", "candidates": "count", "matched_ratio": "ratio",
              "detections": "count", "points": "count", "bytes": "B"}
LAYER_STATS = (
    ("assignment.solve_assignment", ("calls", "s", "cells")),
    ("metrics.cost_matrix", ("calls", "s", "cells")),
    ("metrics.et_gospa", ("self_s",)),
    ("slam.update_grid", ("calls", "s", "rays")),
    ("slam.match_scan", ("calls", "s", "candidates", "matched_ratio")),
    ("slam.run_slam", ("self_s",)),
    ("ofdm.sense", ("calls", "self_s", "detections")),
    ("ofdm.detect_peaks", ("calls", "s")),
    ("scene.ground_truth_scan", ("calls", "s")),
    ("parametric.sense_parametric", ("calls", "self_s")),
    ("clustering.dbscan", ("calls", "s", "points")),
    ("harness.run_trial", ("self_s",)),
    ("harness.emit_csv", ("calls", "s", "bytes")),
)
PER_LAYER_UNITS = {
    f"{layer}.{stat}": STAT_UNITS[stat] for layer, stats in LAYER_STATS for stat in stats
}
PER_LAYER_UNITS.update({"traced_minus_untraced_s": "s", "trace.pass_s": "s",
                        "trace.covered_frac": "ratio"})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="length of the timed section")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke check")
    return p.parse_args(argv)


def src_lines(package: Path) -> int:
    """Non-blank, non-comment lines of the files under ``package``."""
    n = 0
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            n += sum(1 for line in path.read_text().splitlines()
                     if line.strip() and not line.strip().startswith("#"))
    return n


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get(SEED_ENV_VAR):
        print(f"bench: refusing to run with {SEED_ENV_VAR} set; the seed comes from --seed",
              file=sys.stderr)
        return 2
    if not (SRC / "etslam" / "__init__.py").is_file():
        print(f"bench: no etslam sources at {SRC / 'etslam'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.dont_write_bytecode = True  # every run compiles src/ alike and leaves nothing behind
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import numpy
    from probe import SpeedProbe

    probe = SpeedProbe()
    with probe.sampling():
        import scipy

        import etslam
        from etslam import clustering, harness, metrics, ofdm, parametric, slam
        from spans import Tracer, layer_stats, median_stats
        from workloads import WORKLOADS
        import_s = time.perf_counter() - t0
        if Path(etslam.__file__).resolve().parent != SRC / "etslam":
            print(f"bench: imported etslam from {etslam.__file__}, not {SRC}", file=sys.stderr)
            return 2
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl = WORKLOADS[args.workload](args.seed, args.tiny)
            setup_times.append(time.perf_counter() - t)
    setup_wall_s = import_s + statistics.median(setup_times)
    setup_speed = probe.speed()

    modules = {"harness": harness, "metrics": metrics, "clustering": clustering,
               "slam": slam, "parametric": parametric, "ofdm": ofdm}
    tracer = Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    passes, traced_stats = [], []
    first_digests = None
    attempted = failed = 0
    start = time.perf_counter()
    pass_s = 0.0
    # whole passes only: start another while at least half of it fits in --seconds
    while (time.perf_counter() - start + pass_s / 2 < args.seconds
           or (tracer and not traced_stats)):
        traced = tracer is not None and len(passes) % 2 == 1
        first_span = len(tracer.spans) if traced else 0
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            with tracer.installed(modules) if traced else contextlib.nullcontext():
                with probe.sampling():
                    t = time.perf_counter()
                    outputs = wl.run_pass(Path(tmp))
                    pass_s = time.perf_counter() - t
            results, counts = wl.check(outputs)
        digests = [r.digest for r in results]
        first_digests = first_digests or digests
        attempted += len(results)
        failed += sum(not (r.ok and d == d0) for r, d, d0 in zip(results, digests, first_digests))
        speed = probe.speed()
        passes.append({"s": pass_s, "speed": speed, "ref_s": pass_s * speed,
                       "traced": traced, **counts})
        if traced:
            traced_stats.append(layer_stats(tracer.spans[first_span:], pass_s, speed))

    untraced = [p for p in passes if not p["traced"]]
    unit = wl.work_unit
    rates = {u: statistics.median(p[u] / p["ref_s"] for p in untraced)
             for u in ("sim_steps", "metric_evals")}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "sha256": hashlib.sha256("\n".join(first_digests).encode()).hexdigest(),
        "passes": passes,
        "failed_ops_frac": failed / attempted,
        "sim_steps_per_s": rates["sim_steps"],
        "metric_evals_per_s": rates["metric_evals"],
        "work_unit": unit,
        "wall_work_per_s": statistics.median(p[unit] / p["s"] for p in untraced),
        "setup_wall_s": setup_wall_s,
        "setup_speed": setup_speed,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "src_lines": src_lines(SRC / "etslam"),
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "threads": THREADS,
            "pinned_env": PINNED_ENV,
        },
    }
    if tracer:
        spans_path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        values = median_stats(traced_stats, PER_LAYER_UNITS)
        values["traced_minus_untraced_s"] = (
            statistics.median(p["ref_s"] for p in passes if p["traced"])
            - statistics.median(p["ref_s"] for p in untraced)
        )
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": setup_wall_s * setup_speed,
            "work_per_s": rates[unit],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
