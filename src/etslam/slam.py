"""Occupancy-grid SLAM loop: dead reckoning, scan matching, map update.

Localization uses correlative scan matching over a discrete (dx, dy, dtheta)
window around the dead-reckoned prior; the map is a clamped log-odds grid
plus the accumulated world-frame point cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from etslam.scans import Scan
from etslam.scene import Pose, Scene, trajectory_pose, wrap_angle

LOG_ODDS_CLAMP = 10.0

SensorFn = Callable[[Scene, Pose, np.random.Generator], Scan]


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

    def in_bounds(self, cells: np.ndarray) -> np.ndarray:
        nx, ny = self.shape
        return (cells[:, 0] >= 0) & (cells[:, 0] < nx) & (cells[:, 1] >= 0) & (cells[:, 1] < ny)

    def occupied_count(self) -> int:
        return int(np.count_nonzero(self.log_odds > 0.0))


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def scan_to_points(scan: Scan, pose: Pose) -> np.ndarray:
    """Sensor-frame detection midpoints transformed to the world frame."""
    if len(scan) == 0:
        return np.zeros((0, 2))
    return scan.points @ rotation(pose.heading).T + pose.position


@dataclass(frozen=True)
class SearchWindow:
    dxy_max: float = 0.5
    dxy_step: float = 0.1
    dtheta_max: float = math.radians(2.0)
    dtheta_step: float = math.radians(0.5)

    def offsets(self):
        n_xy = int(round(self.dxy_max / self.dxy_step))
        n_th = int(round(self.dtheta_max / self.dtheta_step))
        dxy = np.arange(-n_xy, n_xy + 1) * self.dxy_step
        dth = np.arange(-n_th, n_th + 1) * self.dtheta_step
        return dxy, dth


@dataclass(frozen=True)
class MatchResult:
    pose: Pose
    score: float
    matched: bool


def match_scan(
    scan: Scan,
    grid: OccupancyGrid,
    prior: Pose,
    window: SearchWindow = SearchWindow(),
) -> MatchResult:
    """Correlative match: maximize summed log-odds at transformed scan points.

    Ties are broken by smallest correction magnitude, then lexicographically
    by (dx, dy, dtheta).  Empty scan or empty grid returns the prior flagged.
    """
    if len(scan) == 0 or grid.occupied_count() == 0:
        return MatchResult(prior, 0.0, False)
    dxy, dth = window.offsets()
    pts = scan.points
    nx, ny = grid.shape
    flat = grid.log_odds.ravel()
    n_xy = len(dxy)
    scores = np.empty((len(dth), n_xy, n_xy))
    shifts = np.stack(np.meshgrid(dxy, dxy, indexing="ij"), axis=-1).reshape(-1, 2)
    for a, dt in enumerate(dth):
        world = pts @ rotation(prior.heading + dt).T + prior.position  # (P, 2)
        cand = world[None, :, :] + shifts[:, None, :]                  # (K, P, 2)
        cells = np.floor((cand - grid.origin) / grid.resolution).astype(int)
        ok = (
            (cells[..., 0] >= 0) & (cells[..., 0] < nx)
            & (cells[..., 1] >= 0) & (cells[..., 1] < ny)
        )
        lin = np.where(ok, cells[..., 0] * ny + cells[..., 1], 0)
        vals = np.where(ok, flat[lin], 0.0)
        scores[a] = vals.sum(axis=1).reshape(n_xy, n_xy)
    # candidate preference order: magnitude, then (dx, dy, dtheta)
    th_g, dx_g, dy_g = np.meshgrid(dth, dxy, dxy, indexing="ij")
    mag = dx_g**2 + dy_g**2 + th_g**2
    flat_scores = scores.ravel()
    order = np.lexsort((th_g.ravel(), dy_g.ravel(), dx_g.ravel(), mag.ravel()))
    best = order[np.argmax(flat_scores[order])]
    a, i, j = np.unravel_index(best, scores.shape)
    corrected = Pose(
        prior.x + dxy[i], prior.y + dxy[j], prior.heading + dth[a]
    )
    return MatchResult(corrected, float(scores[a, i, j]), True)


def update_grid(grid: OccupancyGrid, pose: Pose, scan: Scan) -> OccupancyGrid:
    """Inverse sensor model: -l_free along each ray, +l_occ at the endpoint.

    Cells are deduplicated per ray so one observation contributes one
    increment; log-odds are clamped to +-LOG_ODDS_CLAMP.  Mutates and
    returns ``grid``.
    """
    if len(scan) == 0:
        return grid
    ends = scan_to_points(scan, pose)
    start = pose.position
    end_cells = grid.cell_of(ends)
    dists = np.linalg.norm(ends - start, axis=1)
    step = grid.resolution * 0.5
    counts = np.maximum(1, np.ceil(dists / step).astype(int))
    ray_idx = np.repeat(np.arange(len(scan)), counts)
    # sample j of a ray with k samples sits at fraction j / k along it
    first = np.repeat(np.cumsum(counts) - counts, counts)  # flat index of each ray's sample 0
    fracs = (np.arange(len(ray_idx)) - first) / counts[ray_idx]
    samples = start + fracs[:, None] * (ends[ray_idx] - start)
    cells = grid.cell_of(samples)
    # drop samples landing in any endpoint cell of this scan: grazing rays
    # must not erode cells another ray just observed as occupied
    _, ny_key = grid.shape
    end_key = end_cells[:, 0] * (ny_key + 1) + end_cells[:, 1]
    keep = ~np.isin(cells[:, 0] * (ny_key + 1) + cells[:, 1], end_key, kind="sort")
    cells, ray_idx = cells[keep], ray_idx[keep]
    # dedupe (ray, cell) so each ray decrements a crossed cell once; the
    # offset 1-D key sorts like the (ray, cx, cy) rows, out-of-grid cells too
    if len(cells):
        lo = cells.min(axis=0)
        span_x, span_y = cells.max(axis=0) - lo + 1
        key = np.sort((ray_idx * span_x + cells[:, 0] - lo[0]) * span_y + cells[:, 1] - lo[1])
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        free_cells = np.stack([key // span_y % span_x + lo[0], key % span_y + lo[1]], axis=1)
    else:
        free_cells = cells
    nx, ny = grid.shape
    for cell_arr, delta in ((free_cells, -grid.l_free), (end_cells, grid.l_occ)):
        ok = (
            (cell_arr[:, 0] >= 0) & (cell_arr[:, 0] < nx)
            & (cell_arr[:, 1] >= 0) & (cell_arr[:, 1] < ny)
        )
        lin = cell_arr[ok, 0] * ny + cell_arr[ok, 1]
        if delta < 0:
            # hit protection: grazing traversal samples quantize into wall
            # cells; never erode a cell already observed as occupied
            lin = lin[grid.log_odds.reshape(-1)[lin] <= 0.0]
        np.add.at(grid.log_odds.reshape(-1), lin, delta)
    np.clip(grid.log_odds, -LOG_ODDS_CLAMP, LOG_ODDS_CLAMP, out=grid.log_odds)
    return grid


@dataclass(frozen=True)
class OdometryModel:
    translation_noise_std: float = 0.0  # m per step
    rotation_noise_std: float = 0.0     # rad per step

    def __post_init__(self):
        if self.translation_noise_std < 0 or self.rotation_noise_std < 0:
            raise ValueError("odometry noise stds must be >= 0")


@dataclass(frozen=True)
class SlamConfig:
    resolution: float = 0.1
    window: SearchWindow = SearchWindow()
    l_occ: float = 0.85
    l_free: float = 0.4
    matching_enabled: bool = True


@dataclass
class SlamState:
    pose_truth: Pose
    pose_estimate: Pose
    grid: OccupancyGrid
    map_points: list[np.ndarray] = field(default_factory=list)
    map_times: list[float] = field(default_factory=list)
    time: float = 0.0

    @classmethod
    def initial(cls, scene: Scene, cfg: SlamConfig) -> "SlamState":
        start = trajectory_pose(scene.trajectory, 0.0)
        grid = OccupancyGrid.for_scene(
            scene, resolution=cfg.resolution, l_occ=cfg.l_occ, l_free=cfg.l_free
        )
        return cls(pose_truth=start, pose_estimate=start, grid=grid)

    def map_array(self) -> np.ndarray:
        if not self.map_points:
            return np.zeros((0, 2))
        return np.vstack(self.map_points)

    def map_size(self) -> int:
        return sum(len(p) for p in self.map_points)


def slam_step(
    state: SlamState,
    scene: Scene,
    sensor: SensorFn,
    odometry: OdometryModel,
    rng: np.random.Generator,
    cfg: SlamConfig = SlamConfig(),
) -> SlamState:
    """Advance one trajectory step: dead-reckon, sense, match, map. Mutates state."""
    dt = scene.trajectory.step_interval
    new_time = state.time + dt
    new_truth = trajectory_pose(scene.trajectory, new_time)

    # relative motion in the previous truth frame, replayed on the estimate
    delta_local = rotation(-state.pose_truth.heading) @ (
        new_truth.position - state.pose_truth.position
    )
    dheading = wrap_angle(new_truth.heading - state.pose_truth.heading)
    noise_t = odometry.translation_noise_std * rng.standard_normal(2)
    noise_r = odometry.rotation_noise_std * float(rng.standard_normal())
    est_pos = state.pose_estimate.position + rotation(state.pose_estimate.heading) @ (
        delta_local + noise_t
    )
    estimate = Pose(float(est_pos[0]), float(est_pos[1]),
                    state.pose_estimate.heading + dheading + noise_r)

    scan = sensor(scene, new_truth, rng)
    if cfg.matching_enabled:
        result = match_scan(scan, state.grid, estimate, cfg.window)
        estimate = result.pose

    pts = scan_to_points(scan, estimate)
    if len(pts):
        state.map_points.append(pts)
        state.map_times.extend([new_time] * len(pts))
    update_grid(state.grid, estimate, scan)

    state.pose_truth = new_truth
    state.pose_estimate = estimate
    state.time = new_time
    return state


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
    final_state: SlamState

    def map_at(self, snapshot: Snapshot) -> np.ndarray:
        return self.map_points[: snapshot.map_size]


def run_slam(
    scene: Scene,
    sensor: SensorFn,
    odometry: OdometryModel,
    rng: np.random.Generator,
    duration: float,
    cfg: SlamConfig = SlamConfig(),
    snapshot_cadence: Optional[float] = None,
) -> SlamRun:
    """Run the SLAM loop for ``duration`` seconds at the trajectory step interval."""
    if not duration > 0:
        raise ValueError("duration must be > 0")
    dt = scene.trajectory.step_interval
    n_steps = max(1, int(round(duration / dt)))
    every = 1
    if snapshot_cadence is not None:
        every = max(1, int(round(snapshot_cadence / dt)))
    state = SlamState.initial(scene, cfg)
    snapshots = []
    for k in range(1, n_steps + 1):
        slam_step(state, scene, sensor, odometry, rng, cfg)
        if k % every == 0 or k == n_steps:
            snapshots.append(
                Snapshot(state.time, state.pose_truth, state.pose_estimate, state.map_size())
            )
    return SlamRun(
        snapshots=snapshots,
        map_points=state.map_array(),
        map_times=np.array(state.map_times),
        final_state=state,
    )
