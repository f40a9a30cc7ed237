"""The benchmark's workloads: seeded inputs, the timed calls, the checks.

Each workload builds its inputs in ``__init__`` (the set-up the benchmark
times as ``setup_s``), calls etslam's public functions in ``run_pass`` (the
timed section) and checks the outputs of one pass in ``check``.  A pass does
the same fixed work every time it runs, so its outputs must be
byte-identical from pass to pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from etslam import clustering, harness, metrics, scene


@dataclass
class OpResult:
    """One checked operation of a pass: its output digest and its verdict."""

    name: str
    digest: str
    ok: bool


def _failed(name: str, exc: BaseException) -> OpResult:
    traceback.print_exception(exc)
    return OpResult(name, "", False)


def _et_ok(values) -> bool:
    values = np.asarray(values, dtype=float)
    return values.size > 0 and bool(np.all(np.isfinite(values)) and np.all(values >= 0.0))


def _trial_digest(rec) -> str:
    h = hashlib.sha256()
    for arr in (rec.et_gospa, rec.map_points, rec.cluster_labels):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _slam_steps(rec, cfg) -> int:
    return int(round(rec.times[-1] / cfg.scene.trajectory.step_interval))


class CiTrials:
    """One trial of each ``ci.yaml`` sweep condition, then CSV emission.

    The ``etslam simulate``/``sweep`` path and ROADMAP's headline figure;
    the metric's assignment and ``update_grid`` dominate it.
    """

    name = "ci_trials"
    work_unit = "sim_steps"
    tiny_duration_s = 5.0

    def __init__(self, seed: int, tiny: bool):
        base = harness.load_experiment("ci.yaml")
        updates = {"seed": seed, "trials": 1}
        if tiny:
            updates["duration"] = self.tiny_duration_s
        base = dataclasses.replace(base, **updates)
        self.conditions = [
            (str(cond["name"]), harness.apply_condition(base, cond))
            for cond in base.sweep_conditions
        ]

    def run_pass(self, outdir: Path) -> list:
        outputs = []
        for name, cfg in self.conditions:
            try:
                report = harness.run_monte_carlo(cfg)
                files = harness.emit_csv(report, outdir / name)
                outputs.append((name, cfg, report, files))
            except Exception as exc:  # a raising operation is a failed op
                outputs.append((name, cfg, exc, None))
        return outputs

    def check(self, outputs) -> tuple[list[OpResult], dict]:
        results, steps, evals = [], 0, 0
        for name, cfg, report, files in outputs:
            if isinstance(report, BaseException):
                results.append(_failed(name, report))
                continue
            ok = _et_ok(report.per_trial_et) and all(len(r.map_points) for r in report.trials)
            h = hashlib.sha256()
            for path in sorted(files):
                data = path.read_bytes()
                h.update(path.name.encode() + b"\0" + data)
                ok = ok and _csv_reparses(data.decode(), path.name, report)
            results.append(OpResult(name, h.hexdigest(), ok))
            for rec in report.trials:
                steps += _slam_steps(rec, cfg)
                evals += len(rec.times) + 1  # one ET-GOSPA per snapshot, one DBSCAN
        return results, {"sim_steps": steps, "metric_evals": evals}


def _csv_reparses(text: str, name: str, report) -> bool:
    """The file parses under the v1 header with the row count the report implies."""
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != harness.CSV_HEADER_COMMENT:
        return False
    n_cols = len(lines[1].split(","))
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    except ValueError:
        return False
    rows = rows.reshape(-1, n_cols) if rows.size else np.zeros((0, n_cols))
    if name in ("metric_curve.csv", "agv_mse.csv"):
        expected = report.et_gospa_mean if name == "metric_curve.csv" else report.mse_mean
        return len(rows) == len(expected) and np.allclose(rows[:, 1], expected, rtol=1e-8)
    index = int(name.rsplit("_", 1)[1].split(".")[0])
    rec = next(r for r in report.trials if r.trial_index == index)
    return len(rows) == len(rec.map_points) and np.allclose(
        rows[:, -2:] if name.startswith("map_") else rows[:, :2], rec.map_points, rtol=1e-8
    )


class OfdmFull:
    """One trial of the paper-scale OFDM backend (N=10240), shortened in time.

    ``ofdm.sense`` dominates it: an OFDM change should move this workload, a
    grid or assignment change should barely move it.
    """

    name = "ofdm_full"
    work_unit = "sim_steps"
    duration_s = 10.0
    tiny_duration_s = 1.0

    def __init__(self, seed: int, tiny: bool):
        cfg = harness.load_experiment("full_scale.yaml")
        duration = self.tiny_duration_s if tiny else self.duration_s
        self.cfg = dataclasses.replace(cfg, seed=seed, trials=1, duration=duration)

    def run_pass(self, outdir: Path) -> list:
        try:
            return [harness.run_trial(self.cfg, 0)]
        except Exception as exc:  # a raising operation is a failed op
            return [exc]

    def check(self, outputs) -> tuple[list[OpResult], dict]:
        (rec,) = outputs
        if isinstance(rec, BaseException):
            return [_failed("trial", rec)], {"sim_steps": 0, "metric_evals": 0}
        ok = _et_ok(rec.et_gospa) and len(rec.map_points) > 0
        counts = {"sim_steps": _slam_steps(rec, self.cfg), "metric_evals": len(rec.times) + 1}
        return [OpResult("trial", _trial_digest(rec), ok)], counts


class MapEval:
    """Offline evaluation of stored maps: ET-GOSPA and DBSCAN, no sensing or SLAM.

    Set-up ray-casts the scene along the trajectory and adds Gaussian noise
    and uniform clutter.  The timed part scores uncapped estimate sets of
    tens to a few hundred points, where the assignment cost grows steeply
    with the estimate count, and clusters the full maps.
    """

    name = "map_eval"
    work_unit = "metric_evals"
    # (position noise std [m], clutter share of the map)
    maps = ((0.05, 0.02), (0.2, 0.10))
    estimate_sizes = (20, 50, 100, 200, 300)
    map_duration_s = 60.0
    tiny_estimate_sizes = (20, 50)
    tiny_map_duration_s = 5.0

    def __init__(self, seed: int, tiny: bool):
        cfg = harness.load_experiment("ci.yaml")
        self.scene, self.metric, self.cluster = cfg.scene, cfg.metric, cfg.cluster
        self.truth = cfg.truth_sets()
        rng = np.random.default_rng(seed)
        duration = self.tiny_map_duration_s if tiny else self.map_duration_s
        sizes = self.tiny_estimate_sizes if tiny else self.estimate_sizes
        hits = self._ray_hits(duration)
        self.map_points, self.estimates = [], []
        for k, (noise_std, clutter) in enumerate(self.maps):
            pts = hits + noise_std * rng.standard_normal(hits.shape)
            n_clutter = int(round(clutter * len(hits)))
            junk = rng.uniform(self.scene.bounds_min, self.scene.bounds_max, (n_clutter, 2))
            pts = np.vstack([pts, junk])[rng.permutation(len(pts) + n_clutter)]
            self.map_points.append(pts)
            for n in sizes:
                self.estimates.append((f"map{k}_n{n}", pts[rng.choice(len(pts), n, replace=False)]))

    def _ray_hits(self, duration: float) -> np.ndarray:
        traj = self.scene.trajectory
        bearings = np.radians(np.arange(0.0, 360.0, 2.0))
        n_steps = int(round(duration / traj.step_interval))
        return np.vstack([
            scene.ground_truth_scan(
                self.scene, scene.trajectory_pose(traj, k * traj.step_interval), bearings
            ).points
            for k in range(1, n_steps + 1)
        ])

    def run_pass(self, outdir: Path) -> list:
        outputs = []
        for name, est in self.estimates:
            try:
                outputs.append(("et_gospa", name, est, metrics.et_gospa(self.truth, est, self.metric)))
            except Exception as exc:  # a raising operation is a failed op
                outputs.append(("et_gospa", name, est, exc))
        for k, pts in enumerate(self.map_points):
            try:
                labels = clustering.dbscan(pts, self.cluster)
                centroids = clustering.cluster_centroids(pts, labels)
                found = clustering.recovered_target_count(centroids, self.scene.targets)
                outputs.append(("dbscan", f"map{k}", pts, (labels, found)))
            except Exception as exc:  # a raising operation is a failed op
                outputs.append(("dbscan", f"map{k}", pts, exc))
        return outputs

    def check(self, outputs) -> tuple[list[OpResult], dict]:
        results = []
        for kind, name, data, out in outputs:
            if isinstance(out, BaseException):
                results.append(_failed(name, out))
            elif kind == "et_gospa":
                results.append(OpResult(name, repr(dataclasses.astuple(out)),
                                        self._et_gospa_ok(data, out)))
            else:
                labels, found = out
                ok = len(labels) == len(data) and 0 <= found <= len(self.scene.targets)
                digest = hashlib.sha256(np.ascontiguousarray(labels).tobytes()).hexdigest()
                results.append(OpResult(name, f"{digest}:{found}", ok))
        return results, {"sim_steps": 0, "metric_evals": len(outputs)}

    def _et_gospa_ok(self, est: np.ndarray, result) -> bool:
        """Finite, >= 0, and the pair-cost sum equals scipy's LAP on the same matrix."""
        if not (math.isfinite(result.value) and result.value >= 0.0):
            return False
        costs = metrics.cost_matrix(self.truth, est, self.metric)
        rows, cols = linear_sum_assignment(costs)
        reference = float(costs[rows, cols].sum())
        return abs(result.sum_pair_costs - reference) <= 1e-9 * abs(reference)


WORKLOADS = {w.name: w for w in (CiTrials, OfdmFull, MapEval)}
