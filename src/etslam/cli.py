"""Command-line interface.

Subcommands: simulate, sweep, metric, cluster, scene.  All errors exit
nonzero with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from etslam import harness
from etslam.clustering import ClusterParams, dbscan
from etslam.metrics import MetricParams, et_gospa
from etslam.scene import load_scene


def _add_run_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--config", required=True, help="experiment config YAML")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out", default="out", help="output directory for CSV files")
    sub.add_argument("--trials", type=int, default=None, help="override trial count")
    sub.add_argument("--parallel", type=int, default=1, help="worker process count")


def _load_cfg(args) -> harness.ExperimentConfig:
    cfg = harness.load_experiment(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.trials is not None:
        updates["trials"] = args.trials
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _read_csv(path: str, n_cols: int) -> np.ndarray:
    """Finite numeric rows of exactly ``n_cols`` fields; only the first data line may be
    a header, and only when none of its fields is a number."""
    rows = []
    header_allowed = True
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        first, header_allowed = header_allowed, False
        parts = line.split(",")
        try:
            values = [float(p) for p in parts[:n_cols]]
        except ValueError:
            if first and not any(map(_is_number, parts)):
                continue  # header line
            raise ValueError(f"{path}:{lineno}: non-numeric row {line!r}") from None
        if len(parts) != n_cols:
            raise ValueError(f"{path}:{lineno}: expected {n_cols} fields, got {len(parts)}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{path}:{lineno}: non-finite value in row {line!r}")
        rows.append(values)
    return np.array(rows).reshape(-1, n_cols)


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    report = harness.run_monte_carlo(cfg, parallel=args.parallel)
    files = harness.emit_csv(report, args.out)
    print(f"wrote {len(files)} files to {args.out}")
    print(f"final mean et-gospa: {report.et_gospa_mean[-1]:.6g}")
    print(f"final mean agv mse:  {report.mse_mean[-1]:.6g}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    results = harness.sweep_conditions(cfg, parallel=args.parallel)
    for name, report in results:
        outdir = Path(args.out) / name
        harness.emit_csv(report, outdir)
        print(f"{name}: final mean et-gospa {report.et_gospa_mean[-1]:.6g} -> {outdir}")
    return 0


def cmd_metric(args) -> int:
    truth_rows = _read_csv(args.truth, 3)  # target_id, x, y
    est = _read_csv(args.est, 2)
    ids = truth_rows[:, 0]
    fractional = ids[ids != np.round(ids)]
    if len(fractional):
        raise ValueError(f"{args.truth}: target id {float(fractional[0])!r} is not an integer")
    targets = [truth_rows[ids == tid, 1:3] for tid in np.unique(ids)]
    params = MetricParams(c=args.c, p=args.p, alpha=args.alpha)
    result = et_gospa(targets, est, params)
    names = ["value", "sum_pair_costs", "cardinality_term", "missed_count", "extra_count"]
    fmts = ["%.9g"] * 3 + ["%d"] * 2
    values = [getattr(result, name) for name in names]
    for name, fmt, value in zip(names, fmts, values):
        print(f"{name} {fmt % value}")
    if args.csv:
        harness.write_csv(args.csv, ",".join(names), [[value] for value in values], fmts)
    return 0


def cmd_cluster(args) -> int:
    points = _read_csv(args.input, 2)
    labels = dbscan(points, ClusterParams(eps=args.eps, min_pts=args.min_pts))
    harness.write_csv(args.output, "x,y,label", (points, labels), ["%.9g", "%.9g", "%d"])
    n_clusters = int(labels.max() + 1) if len(labels) else 0
    print(f"{n_clusters} clusters, {int(np.sum(labels < 0))} noise points")
    return 0


def cmd_scene(args) -> int:
    scene = load_scene(harness._find_config(args.config, "scene document"))
    print(f"scene ok: {len(scene.targets)} targets, "
          f"trajectory length {scene.trajectory.total_length:.6g} m")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="etslam",
                                     description="extended-target SLAM simulator and metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one Monte Carlo experiment")
    _add_run_flags(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep", help="run the config's sweep conditions")
    _add_run_flags(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("metric", help="evaluate a mapping-error metric")
    msub = p.add_subparsers(dest="metric_name", required=True)
    m = msub.add_parser("et-gospa")
    m.add_argument("--truth", required=True, help="CSV rows: target_id,x,y")
    m.add_argument("--est", required=True, help="CSV rows: x,y")
    for name in ("c", "p", "alpha"):
        m.add_argument(f"--{name}", type=float, default=getattr(MetricParams, name))
    m.add_argument("--csv", default=None, help="also write the result as a CSV row")
    m.set_defaults(fn=cmd_metric)

    p = sub.add_parser("cluster", help="DBSCAN a CSV of points")
    p.add_argument("--input", required=True, help="CSV rows: x,y")
    p.add_argument("--output", required=True, help="CSV rows: x,y,label")
    p.add_argument("--eps", type=float, default=ClusterParams.eps)
    p.add_argument("--min-pts", type=int, default=ClusterParams.min_pts)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("scene", help="scene utilities")
    p.add_argument("action", choices=["validate"])
    p.add_argument("--config", required=True, help="scene YAML")
    p.set_defaults(fn=cmd_scene)

    return parser


def main(argv=None) -> int:
    harness.one_blas_thread()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # surface a diagnostic, exit nonzero
        print(f"etslam: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
