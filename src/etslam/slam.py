"""Occupancy-grid SLAM loop: dead reckoning, scan matching, map update.

Localization uses correlative scan matching over a discrete (dx, dy, dtheta)
window around the dead-reckoned prior; the map is a clamped log-odds grid
plus the accumulated world-frame point cloud.  ``OccupancyGrid.flat_index`` is
the one point-to-cell rule: the matcher gathers log-odds through it, and the
inverse sensor model scatters them through it for its ray samples and
endpoints.  A point off the grid gets index -1, which both ignore.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from etslam.scene import (GroundTruthScan, Pose, Scene, ground_truth_scans, require_positive,
                          rotation, trajectory_pose, wrap_angle)

LOG_ODDS_CLAMP = 10.0
# grid border beyond the scene bounds on every side [m]
GRID_MARGIN = 2.0
# a value counts as a whole number of steps when the quotient is this close to
# one, relative: 0.3 / 0.1 is 2.9999999999999996
WHOLE_TOL = 1e-9


def whole_steps(value: float, step: float, what: str, per: str) -> int:
    """``value / step`` as an int; ValueError naming ``what`` when the quotient is
    not a whole number to within ``WHOLE_TOL``, rather than rounding it."""
    q = value / step
    n = round(q) if math.isfinite(q) else None
    if n is None or not abs(q - n) <= WHOLE_TOL * abs(q):
        raise ValueError(f"{what} must be a whole number of {per} ({step:g}), got {value:g}")
    return n


def run_steps(duration: float, snapshot_cadence: float,
              step_interval: float) -> tuple[int, int]:
    """Trajectory steps in a run of ``duration`` s and between snapshots; each must be
    finite, > 0 and whole."""
    require_positive(duration=duration, snapshot_cadence=snapshot_cadence)
    return (whole_steps(duration, step_interval, "duration", "trajectory steps"),
            whole_steps(snapshot_cadence, step_interval, "snapshot_cadence", "trajectory steps"))


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
    l_occ: float
    l_free: float

    def __post_init__(self):
        require_positive("grid", resolution=self.resolution)
        self.origin = np.asarray(self.origin, dtype=float)

    @classmethod
    def for_scene(cls, scene: Scene, cfg: SlamConfig):
        """An empty grid over the scene bounds plus ``GRID_MARGIN``, set up by ``cfg``."""
        origin = scene.bounds_min - GRID_MARGIN
        shape = np.ceil((scene.bounds_max + GRID_MARGIN - origin) / cfg.resolution).astype(int)
        return cls(origin=origin, resolution=cfg.resolution, log_odds=np.zeros(tuple(shape)),
                   l_occ=cfg.l_occ, l_free=cfg.l_free)

    @property
    def shape(self) -> tuple[int, int]:
        return self.log_odds.shape

    def flat_index(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Row-major ``log_odds`` index of each point's cell, -1 off the grid; ``x`` and
        ``y`` broadcast together and are overwritten.  Each axis is shifted to the
        origin, divided by the resolution and floored, in that order."""
        cells = []
        for coords, origin in zip((x, y), self.origin):
            coords -= origin
            coords /= self.resolution
            cells.append(np.floor(coords, out=coords).astype(np.intp))
        cx, cy = cells
        nx, ny = self.shape
        # one unsigned compare per axis tests 0 <= cell < n
        ok = (cx.view(np.uintp) < nx) & (cy.view(np.uintp) < ny)
        cx *= ny
        return np.where(ok, cx + cy, -1)

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
        require_positive("search window", or_zero=True, dxy_max=self.dxy_max,
                         dtheta_max=self.dtheta_max)
        require_positive("search window", dxy_step=self.dxy_step, dtheta_step=self.dtheta_step)
        self.offsets()  # raises unless each half-width is a whole number of its step

    def offsets(self):
        """The dx/dy and dtheta offsets; each maximum must be a whole number of its step."""
        n_xy = whole_steps(self.dxy_max, self.dxy_step, "search window dxy_max", "dxy_step")
        n_th = whole_steps(self.dtheta_max, self.dtheta_step, "search window dtheta_max",
                           "dtheta_step")
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
    if len(scan) == 0:
        return MatchResult(prior, 0.0, False)
    dxy, dth, order = _candidates(window)
    world = np.stack([scan @ rotation(prior.heading + dt).T + prior.position
                      for dt in dth])  # (A, P, 2)
    # a shift (dx, dy) moves x by dx alone and y by dy alone, so the shifted x
    # (A, n, 1, P) and y (A, 1, n, P) give every candidate's cells: (A, n, n, P)
    lin = grid.flat_index(world[:, None, None, :, 0] + dxy[:, None, None],
                          world[:, None, None, :, 1] + dxy[:, None])
    looked = np.where(lin >= 0, grid.log_odds.ravel()[lin], 0.0)
    # a positive value is an occupied cell, so the whole grid is read only when
    # no candidate lands on one
    if not looked.max() > 0.0 and not grid.has_occupied():
        return MatchResult(prior, 0.0, False)
    scores = looked.sum(axis=-1)  # (A, n, n)
    best = order[np.argmax(scores.ravel()[order])]
    a, i, j = np.unravel_index(best, scores.shape)
    corrected = Pose(
        prior.x + dxy[i], prior.y + dxy[j], prior.heading + dth[a]
    )
    return MatchResult(corrected, float(scores[a, i, j]), True)


def update_grid(grid: OccupancyGrid, pose: Pose, ends: np.ndarray) -> OccupancyGrid:
    """Inverse sensor model: -l_free along each ray from ``pose`` to its endpoint
    in ``ends``, the scan's world-frame points (``scan_to_points``), and +l_occ
    at the endpoint.

    Cells are deduplicated per ray so one observation contributes one
    increment; decremented cells are clamped at -LOG_ODDS_CLAMP, endpoint
    cells at +LOG_ODDS_CLAMP.  Mutates and returns ``grid``.
    """
    start = pose.position
    delta = ends - start
    dists = np.sqrt(np.add.reduce(delta * delta, axis=1))
    counts = np.maximum(1, np.ceil(dists / (grid.resolution * 0.5)).astype(int))
    first = np.cumsum(counts) - counts
    n = counts.sum()
    # sample j of a ray with k samples sits at fraction j / k along it
    fracs = (np.arange(n) - np.repeat(first, counts)) / np.repeat(counts, counts)
    # each sample's cell, start + fracs * delta, then each endpoint's, on 1-D
    # arrays per axis; off-grid ones get index -1, which no in-grid cell shares
    coords = []
    for axis in (0, 1):
        c = np.empty(n + len(ends))
        np.multiply(np.repeat(delta[:, axis], counts), fracs, out=c[:n])
        c[:n] += start[axis]
        c[n:] = ends[:, axis]
        coords.append(c)
    idx = grid.flat_index(*coords)
    idx, end_idx = idx[:n], idx[n:]
    # each ray decrements a crossed cell once: a ray's samples are monotone in
    # x and in y, so its samples in one cell are consecutive, and a run starts
    # at a ray's first sample or where the index changes
    run_start = np.empty(n, dtype=bool)
    np.not_equal(idx[1:], idx[:-1], out=run_start[1:])
    run_start[first] = True
    # np.compress: numpy's boolean indexing is slower on a mask this irregular
    run_idx = np.compress(run_start, idx)
    flat = grid.log_odds.reshape(-1)
    # drop off-grid samples (index -1 reads the extra last flag) and samples
    # landing in any endpoint cell of this scan: grazing rays must not erode
    # cells another ray just observed as occupied
    dropped = np.zeros(flat.size + 1, dtype=bool)
    dropped[end_idx] = True
    dropped[-1] = True
    free_idx = np.compress(~dropped[run_idx], run_idx)
    end_idx = np.compress(end_idx >= 0, end_idx)
    # hit protection: grazing traversal samples quantize into wall cells;
    # never erode a cell already observed as occupied
    free_idx = free_idx[flat[free_idx] <= 0.0]
    np.add.at(flat, free_idx, -grid.l_free)
    np.add.at(flat, end_idx, grid.l_occ)
    # only a decremented cell can pass the lower clamp, only an endpoint cell
    # the upper one
    flat[free_idx] = np.maximum(flat[free_idx], -LOG_ODDS_CLAMP)
    flat[end_idx] = np.minimum(flat[end_idx], LOG_ODDS_CLAMP)
    return grid


@dataclass(frozen=True)
class OdometryModel:
    translation_noise_std: float = 0.0  # m per step
    rotation_noise_std: float = 0.0     # rad per step

    def __post_init__(self):
        require_positive("odometry", or_zero=True,
                         translation_noise_std=self.translation_noise_std,
                         rotation_noise_std=self.rotation_noise_std)


@dataclass(frozen=True)
class SlamConfig:
    resolution: float = 0.1
    window: SearchWindow = SearchWindow()
    l_occ: float = 0.85
    l_free: float = 0.4
    matching_enabled: bool = True

    def __post_init__(self):
        require_positive("slam", resolution=self.resolution, l_occ=self.l_occ, l_free=self.l_free)


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
    snapshot_cadence: float,
    cfg: SlamConfig = SlamConfig(),
) -> SlamRun:
    """Run the SLAM loop for ``duration`` seconds at the trajectory step interval.

    Each step dead-reckons the estimate from the true motion plus odometry
    noise, senses the ground-truth scan of the sensor's fan from the true
    pose, corrects the estimate by scan matching and adds the scan to the
    grid and the map at the estimate.  The truth draws nothing from the rng:
    the poses are computed up front, and ``ground_truth_scans`` casts their
    scans lazily, one block at a time as the loop reaches it.
    """
    dt = scene.trajectory.step_interval
    n_steps, every = run_steps(duration, snapshot_cadence, dt)
    grid = OccupancyGrid.for_scene(scene, cfg)
    # t += dt, step after step
    times = list(itertools.accumulate([dt] * n_steps))
    poses = [trajectory_pose(scene.trajectory, t) for t in [0.0] + times]
    scans = ground_truth_scans(scene, poses[1:], sensor.bearings)
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
        update_grid(grid, estimate, pts)
        if k % every == 0 or k == n_steps:
            snapshots.append(Snapshot(t, truth, estimate, len(map_times)))
    return SlamRun(snapshots, np.vstack(map_points), np.array(map_times))
