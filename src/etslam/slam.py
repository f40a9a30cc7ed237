"""Occupancy-grid SLAM loop: dead reckoning, scan matching, map update.

Localization uses correlative scan matching over a discrete (dx, dy, dtheta)
window around the dead-reckoned prior; the map is a clamped log-odds grid
plus the accumulated world-frame point cloud.  ``OccupancyGrid.index_of``
(``cell_of``, then ``index_of_cells``) is the one point-to-cell rule: the
matcher reads log-odds and the inverse sensor model writes them through it,
and both ignore points outside the grid.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from etslam.scene import (RAY_BLOCK, GroundTruthScan, Pose, Scene, ground_truth_scans,
                          rotation, trajectory_pose, wrap_angle)

LOG_ODDS_CLAMP = 10.0


class Sensor(Protocol):
    """A sensor turns the ground-truth scan of its fan ``bearings`` (relative
    to the pose heading) into a noisy scan of sensor-frame points, shape (n, 2)."""

    bearings: np.ndarray

    def __call__(self, gt: GroundTruthScan, rng: np.random.Generator) -> np.ndarray: ...


@dataclass
class OccupancyGrid:
    origin: np.ndarray          # world position of cell (0, 0) corner
    resolution: float
    log_odds: np.ndarray        # (nx, ny)
    l_occ: float = 0.85
    l_free: float = 0.4

    def __post_init__(self):
        if not self.resolution > 0:
            raise ValueError("grid resolution must be > 0")
        self.origin = np.asarray(self.origin, dtype=float)

    @classmethod
    def for_scene(cls, scene: Scene, resolution: float = 0.1, margin: float = 2.0, **kw):
        origin = scene.bounds_min - margin
        extent = scene.bounds_max + margin - origin
        shape = np.ceil(extent / resolution).astype(int)
        return cls(origin=origin, resolution=resolution,
                   log_odds=np.zeros(tuple(shape)), **kw)

    @property
    def shape(self) -> tuple[int, int]:
        return self.log_odds.shape

    def cell_of(self, points: np.ndarray) -> np.ndarray:
        return np.floor((np.atleast_2d(points) - self.origin) / self.resolution).astype(int)

    def index_of(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-major ``log_odds`` index of each point's cell and whether it is in the grid.

        Out-of-grid points get index 0; callers mask them with the second array.
        """
        cells = self.cell_of(points)
        return self.index_of_cells(cells[..., 0], cells[..., 1])

    def index_of_cells(self, cx: np.ndarray, cy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``index_of`` for cell coordinates; ``cx`` and ``cy`` broadcast together."""
        nx, ny = self.shape
        ok = (cx >= 0) & (cx < nx) & (cy >= 0) & (cy < ny)
        return np.where(ok, cx * ny + cy, 0), ok

    def has_occupied(self) -> bool:
        """Whether any cell's log-odds is above 0, read from ``log_odds`` itself."""
        return bool(self.log_odds.max(initial=0.0) > 0.0)


def scan_to_points(scan: np.ndarray, pose: Pose) -> np.ndarray:
    """Sensor-frame points, shape (n, 2), transformed to the world frame."""
    return scan @ rotation(pose.heading).T + pose.position


@dataclass(frozen=True)
class SearchWindow:
    dxy_max: float = 0.5
    dxy_step: float = 0.1
    dtheta_max: float = math.radians(2.0)
    dtheta_step: float = math.radians(0.5)

    def __post_init__(self):
        for name in ("dxy_max", "dtheta_max"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"search window {name} must be finite and >= 0")
        for name in ("dxy_step", "dtheta_step"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"search window {name} must be finite and > 0")

    def offsets(self):
        n_xy = int(round(self.dxy_max / self.dxy_step))
        n_th = int(round(self.dtheta_max / self.dtheta_step))
        dxy = np.arange(-n_xy, n_xy + 1) * self.dxy_step
        dth = np.arange(-n_th, n_th + 1) * self.dtheta_step
        return dxy, dth


@functools.cache
def _candidates(window: SearchWindow) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets and (dtheta, dx, dy) candidate order: magnitude, then (dx, dy, dtheta)."""
    dxy, dth = window.offsets()
    th_g, dx_g, dy_g = np.meshgrid(dth, dxy, dxy, indexing="ij")
    mag = dx_g**2 + dy_g**2 + th_g**2
    order = np.lexsort((th_g.ravel(), dy_g.ravel(), dx_g.ravel(), mag.ravel()))
    for arr in (dxy, dth, order):
        arr.flags.writeable = False  # shared by every call with this window
    return dxy, dth, order


@dataclass(frozen=True)
class MatchResult:
    pose: Pose
    score: float
    matched: bool


def match_scan(
    scan: np.ndarray,
    grid: OccupancyGrid,
    prior: Pose,
    window: SearchWindow = SearchWindow(),
) -> MatchResult:
    """Correlative match: maximize summed log-odds at transformed scan points.

    Ties are broken by smallest correction magnitude, then lexicographically
    by (dx, dy, dtheta).  Empty scan or empty grid returns the prior flagged.
    """
    if len(scan) == 0 or not grid.has_occupied():
        return MatchResult(prior, 0.0, False)
    dxy, dth, order = _candidates(window)
    world = np.stack([scan @ rotation(prior.heading + dt).T + prior.position
                      for dt in dth])  # (A, P, 2)
    # a shift (dx, dy) moves x cells by dx alone and y cells by dy alone, so
    # one cell_of per shift value gives every candidate's cells: (A, n, P, 2)
    cells = grid.cell_of(world[:, None] + dxy[None, :, None, None])
    lin, ok = grid.index_of_cells(cells[:, :, None, :, 0], cells[:, None, :, :, 1])
    scores = np.where(ok, grid.log_odds.ravel()[lin], 0.0).sum(axis=-1)  # (A, n, n)
    best = order[np.argmax(scores.ravel()[order])]
    a, i, j = np.unravel_index(best, scores.shape)
    corrected = Pose(
        prior.x + dxy[i], prior.y + dxy[j], prior.heading + dth[a]
    )
    return MatchResult(corrected, float(scores[a, i, j]), True)


def update_grid(grid: OccupancyGrid, pose: Pose, scan: np.ndarray) -> OccupancyGrid:
    """Inverse sensor model: -l_free along each ray, +l_occ at the endpoint.

    Cells are deduplicated per ray so one observation contributes one
    increment; log-odds are clamped to +-LOG_ODDS_CLAMP.  Mutates and
    returns ``grid``.
    """
    ends = scan_to_points(scan, pose)
    start = pose.position
    end_idx, end_ok = grid.index_of(ends)
    end_idx = end_idx[end_ok]
    dists = np.linalg.norm(ends - start, axis=1)
    step = grid.resolution * 0.5
    counts = np.maximum(1, np.ceil(dists / step).astype(int))
    ray_idx = np.repeat(np.arange(len(scan)), counts)
    # sample j of a ray with k samples sits at fraction j / k along it
    first = np.repeat(np.cumsum(counts) - counts, counts)  # flat index of each ray's sample 0
    fracs = (np.arange(len(ray_idx)) - first) / counts[ray_idx]
    # samples as (2, N) coordinate rows, which keeps numpy's inner loops N long
    idx, ok = grid.index_of((start[:, None] + fracs * np.take((ends - start).T, ray_idx, axis=1)).T)
    flat = grid.log_odds.reshape(-1)
    # drop samples landing in any endpoint cell of this scan: grazing rays
    # must not erode cells another ray just observed as occupied
    is_end = np.zeros(flat.size, dtype=bool)
    is_end[end_idx] = True
    keep = ok & ~is_end[idx]
    # each ray decrements a crossed cell once: a ray's samples are monotone in
    # x and in y, so its samples in one cell are consecutive
    ray_idx, idx = ray_idx[keep], idx[keep]
    run_start = np.ones(len(idx), dtype=bool)
    run_start[1:] = (ray_idx[1:] != ray_idx[:-1]) | (idx[1:] != idx[:-1])
    free_idx = idx[run_start]
    # hit protection: grazing traversal samples quantize into wall cells;
    # never erode a cell already observed as occupied
    np.add.at(flat, free_idx[flat[free_idx] <= 0.0], -grid.l_free)
    np.add.at(flat, end_idx, grid.l_occ)
    # cells no update touched are already inside the clamp
    touched = np.concatenate([free_idx, end_idx])
    flat[touched] = np.clip(flat[touched], -LOG_ODDS_CLAMP, LOG_ODDS_CLAMP)
    return grid


@dataclass(frozen=True)
class OdometryModel:
    translation_noise_std: float = 0.0  # m per step
    rotation_noise_std: float = 0.0     # rad per step

    def __post_init__(self):
        for name in ("translation_noise_std", "rotation_noise_std"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"odometry {name} must be finite and >= 0")


@dataclass(frozen=True)
class SlamConfig:
    resolution: float = 0.1
    window: SearchWindow = SearchWindow()
    l_occ: float = 0.85
    l_free: float = 0.4
    matching_enabled: bool = True

    def __post_init__(self):
        for name in ("resolution", "l_occ", "l_free"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"slam {name} must be finite and > 0")


@dataclass(frozen=True)
class Snapshot:
    t: float
    pose_truth: Pose
    pose_estimate: Pose
    map_size: int


@dataclass
class SlamRun:
    snapshots: list[Snapshot]
    map_points: np.ndarray   # (n, 2) world frame, chronological
    map_times: np.ndarray    # (n,)

    def map_at(self, snapshot: Snapshot) -> np.ndarray:
        return self.map_points[: snapshot.map_size]


def run_slam(
    scene: Scene,
    sensor: Sensor,
    odometry: OdometryModel,
    rng: np.random.Generator,
    duration: float,
    cfg: SlamConfig = SlamConfig(),
    snapshot_cadence: Optional[float] = None,
) -> SlamRun:
    """Run the SLAM loop for ``duration`` seconds at the trajectory step interval.

    Each step dead-reckons the estimate from the true motion plus odometry
    noise, senses the ground-truth scan of the sensor's fan from the true
    pose, corrects the estimate by scan matching and adds the scan to the
    grid and the map at the estimate.  The truth draws nothing from the rng:
    the poses are computed up front, and the scans are cast one block of
    ``RAY_BLOCK`` poses at a time as the loop reaches it, so at most one
    block of scans is held.
    """
    if not duration > 0:
        raise ValueError("duration must be > 0")
    dt = scene.trajectory.step_interval
    n_steps = max(1, int(round(duration / dt)))
    every = 1
    if snapshot_cadence is not None:
        every = max(1, int(round(snapshot_cadence / dt)))
    grid = OccupancyGrid.for_scene(
        scene, resolution=cfg.resolution, l_occ=cfg.l_occ, l_free=cfg.l_free
    )
    # t += dt, step after step
    times = list(itertools.accumulate([dt] * n_steps))
    poses = [trajectory_pose(scene.trajectory, t) for t in [0.0] + times]
    scans = itertools.chain.from_iterable(
        ground_truth_scans(scene, poses[i:i + RAY_BLOCK], sensor.bearings)
        for i in range(1, n_steps + 1, RAY_BLOCK))
    truth = estimate = poses[0]
    map_points, map_times, snapshots = [], [], []
    for k, (t, new_truth, gt) in enumerate(zip(times, poses[1:], scans), start=1):
        # dead reckoning: relative motion in the previous truth frame,
        # replayed on the estimate
        delta_local = rotation(-truth.heading) @ (new_truth.position - truth.position)
        dheading = wrap_angle(new_truth.heading - truth.heading)
        noise_t = odometry.translation_noise_std * rng.standard_normal(2)
        noise_r = odometry.rotation_noise_std * float(rng.standard_normal())
        est_pos = estimate.position + rotation(estimate.heading) @ (delta_local + noise_t)
        estimate = Pose(float(est_pos[0]), float(est_pos[1]),
                        estimate.heading + dheading + noise_r)
        truth = new_truth

        scan = sensor(gt, rng)
        if cfg.matching_enabled:
            estimate = match_scan(scan, grid, estimate, cfg.window).pose
        pts = scan_to_points(scan, estimate)
        map_points.append(pts)
        map_times.extend([t] * len(pts))
        update_grid(grid, estimate, scan)
        if k % every == 0 or k == n_steps:
            snapshots.append(Snapshot(t, truth, estimate, len(map_times)))
    return SlamRun(snapshots, np.vstack(map_points), np.array(map_times))
