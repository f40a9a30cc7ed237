"""Occupancy-grid SLAM tests: grid model, scan matching, full loop behavior."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etslam.harness import load_experiment
from etslam.parametric import ErrorModel, ParametricSensor
from etslam.scene import (RAY_BLOCK, Pose, ground_truth_scan, load_scene, polar_points,
                          rotation, trajectory_pose, wrap_angle)
from etslam.slam import (
    LOG_ODDS_CLAMP,
    MatchResult,
    OccupancyGrid,
    OdometryModel,
    SearchWindow,
    SlamConfig,
    match_scan,
    run_slam,
    scan_to_points,
    update_grid,
)


# _scene's step_interval [s]: a snapshot every step
STEP = 0.5


def _scene():
    return load_scene({
        "bounds": {"min": [-20.0, -20.0], "max": [20.0, 20.0]},
        "targets": [
            {"id": 1, "kind": "rect", "center": [10.0, 0.0],
             "width": 2.0, "height": 2.0},
            {"id": 2, "kind": "circle", "center": [0.0, 10.0], "radius": 1.0},
            {"id": 3, "kind": "rect", "center": [-10.0, -8.0],
             "width": 3.0, "height": 1.0, "rotation": 0.4},
        ],
        "trajectory": {"waypoints": [[0.0, 0.0], [4.0, 0.0], [4.0, 4.0]],
                       "speed": 1.0, "step_interval": 0.5},
    })


def _grid(**kw):
    """An ``OccupancyGrid`` with ``SlamConfig``'s update weights."""
    cfg = SlamConfig()
    return OccupancyGrid(l_occ=cfg.l_occ, l_free=cfg.l_free, **kw)


def _cell(grid, points):
    """Each point's (cx, cy) cell of ``grid``, floored here rather than read from
    ``OccupancyGrid.flat_index``, which the tests check against it."""
    return np.floor((np.atleast_2d(points) - grid.origin) / grid.resolution).astype(int)


def _index_of(grid, points):
    """Row-major ``log_odds`` index of each point's cell (0 off the grid, which
    callers mask) and whether it is in the grid."""
    cells = _cell(grid, points)
    cx, cy = cells[..., 0], cells[..., 1]
    nx, ny = grid.shape
    ok = (cx >= 0) & (cx < nx) & (cy >= 0) & (cy < ny)
    return np.where(ok, cx * ny + cy, 0), ok


def _sensor(delta_r=0.0, delta_theta_deg=0.0):
    return ParametricSensor(
        model=ErrorModel(delta_r=delta_r, delta_theta=math.radians(delta_theta_deg)),
        bearings=np.radians(np.arange(0.0, 360.0, 5.0)),
    )


# ---------------------------------------------------------------------------
# geometry helpers


def test_scan_to_points_identity_pose():
    scan = polar_points(np.array([2.0]), np.array([0.0]))
    pts = scan_to_points(scan, Pose(0.0, 0.0, 0.0))
    assert np.allclose(pts, [[2.0, 0.0]])


def test_scan_to_points_translated_rotated():
    scan = polar_points(np.array([1.0]), np.array([math.pi / 2.0]))
    pts = scan_to_points(scan, Pose(3.0, 4.0, math.pi / 2.0))
    assert np.allclose(pts, [[2.0, 4.0]], atol=1e-12)


def test_scan_to_points_empty():
    assert scan_to_points(np.zeros((0, 2)), Pose(1.0, 2.0, 0.3)).shape == (0, 2)


# ---------------------------------------------------------------------------
# occupancy grid


def test_grid_for_scene_dimensions():
    cfg = SlamConfig(resolution=0.25, l_occ=0.7, l_free=0.3)
    grid = OccupancyGrid.for_scene(_scene(), cfg)
    assert grid.shape == (176, 176)  # (40 + 2*2) m at 0.25 m cells
    assert np.allclose(grid.origin, [-22.0, -22.0])
    assert (grid.resolution, grid.l_occ, grid.l_free) == (0.25, 0.7, 0.3)
    assert not grid.has_occupied()


def test_flat_index_hand_computed_cells():
    """On a 10 x 6 grid at 0.5 m from (-1, 2), row-major: (0.26, 2.74) is in cell
    (2, 1), index 13; the origin is index 0 and (3.9, 4.9), in cell (9, 5), is the
    last, 59.  A point at the origin plus 10 cells on x, or 1e-12 below the origin
    on y, is off the grid."""
    grid = _grid(origin=np.array([-1.0, 2.0]), resolution=0.5, log_odds=np.zeros((10, 6)))
    x = np.array([0.26, -1.0, 3.9, 4.0, 0.0])
    y = np.array([2.74, 2.0, 4.9, 3.0, 2.0 - 1e-12])
    assert grid.flat_index(x, y).tolist() == [13, 0, 59, -1, -1]


def test_flat_index_broadcasts_and_overwrites_its_inputs():
    """x of shape (A, n, 1, P) and y of shape (A, 1, n, P), as the matcher passes
    them, give (A, n, n, P) indices, and each input is left holding its floored
    cell coordinate."""
    grid = _grid(origin=np.array([-1.0, 2.0]), resolution=0.5, log_odds=np.zeros((10, 6)))
    rng = np.random.default_rng(3)
    a, n, p = 3, 4, 5
    # reaching past the grid on both sides of each axis
    x = rng.uniform(-2.0, 5.0, (a, n, 1, p))
    y = rng.uniform(1.0, 6.0, (a, 1, n, p))
    x0, y0 = x.copy(), y.copy()
    lin = grid.flat_index(x, y)
    assert lin.shape == (a, n, n, p)
    want, ok = _index_of(grid, np.stack(np.broadcast_arrays(x0, y0), axis=-1))
    assert np.any(ok) and not np.all(ok)
    assert lin.tolist() == np.where(ok, want, -1).tolist()
    assert x.tolist() == np.floor((x0 + 1.0) / 0.5).tolist()
    assert y.tolist() == np.floor((y0 - 2.0) / 0.5).tolist()


def test_grid_rejects_bad_resolution():
    with pytest.raises(ValueError):
        _grid(origin=np.zeros(2), resolution=0.0, log_odds=np.zeros((2, 2)))


@pytest.mark.parametrize("resolution", [math.inf, math.nan])
def test_grid_built_in_code_rejects_non_finite_resolution(resolution):
    with pytest.raises(ValueError, match=r"^grid resolution must be finite and > 0$"):
        _grid(origin=np.zeros(2), resolution=resolution, log_odds=np.zeros((2, 2)))


def test_update_single_detection():
    grid = _grid(origin=np.array([-5.0, -5.0]), resolution=0.1,
                 log_odds=np.zeros((100, 100)))
    pose = Pose(0.0, 0.0, 0.0)
    update_grid(grid, pose, scan_to_points(polar_points(np.array([2.0]), np.array([0.0])), pose))
    raised = np.argwhere(grid.log_odds > 0.0)
    assert len(raised) == 1
    assert list(raised[0]) == list(_cell(grid, [2.0, 0.0])[0])
    assert grid.log_odds[tuple(raised[0])] == pytest.approx(grid.l_occ)
    # cells along the ray were decremented
    mid = _cell(grid, [1.0, 0.0])[0]
    assert grid.log_odds[tuple(mid)] == pytest.approx(-grid.l_free)


def test_update_clamps_log_odds():
    grid = _grid(origin=np.array([-5.0, -5.0]), resolution=0.1,
                 log_odds=np.zeros((100, 100)))
    pose = Pose(0.0, 0.0, 0.0)
    world = scan_to_points(polar_points(np.array([2.0]), np.array([0.0])), pose)
    for _ in range(20):
        update_grid(grid, pose, world)
    end = tuple(_cell(grid, [2.0, 0.0])[0])
    mid = tuple(_cell(grid, [1.0, 0.0])[0])
    assert grid.log_odds[end] == LOG_ODDS_CLAMP
    for _ in range(30):
        update_grid(grid, pose, world)
    assert grid.log_odds[mid] == -LOG_ODDS_CLAMP


def test_update_does_not_erode_occupied_cells():
    """A ray grazing through a previously-hit cell must not decrement it."""
    grid = _grid(origin=np.array([-5.0, -5.0]), resolution=0.1,
                 log_odds=np.zeros((100, 100)))
    pose = Pose(0.0, 0.0, 0.0)
    update_grid(grid, pose, scan_to_points(polar_points(np.array([1.0]), np.array([0.0])), pose))
    hit = tuple(_cell(grid, [1.0, 0.0])[0])
    before = grid.log_odds[hit]
    assert before > 0
    update_grid(grid, pose, scan_to_points(polar_points(np.array([3.0]), np.array([0.0])), pose))
    assert grid.log_odds[hit] >= before


def test_update_empty_scan_noop():
    log_odds = np.random.default_rng(4).uniform(-LOG_ODDS_CLAMP, LOG_ODDS_CLAMP, (10, 10))
    grid = _grid(origin=np.zeros(2), resolution=0.1, log_odds=log_odds.copy())
    assert update_grid(grid, Pose(0.5, 0.5, 0.0), np.zeros((0, 2))) is grid
    assert grid.log_odds.tobytes() == log_odds.tobytes()


def _update_grid_reference(grid, pose, ends):
    """update_grid with the former 2-D ``np.unique(axis=0)`` (ray, cx, cy) dedupe.

    The endpoint filter compares exact (cx, cy) cells, out-of-grid ones too.
    """
    if len(ends) == 0:
        return grid
    start = pose.position
    end_cells = _cell(grid, ends)
    dists = np.linalg.norm(ends - start, axis=1)
    counts = np.maximum(1, np.ceil(dists / (grid.resolution * 0.5)).astype(int))
    ray_idx = np.repeat(np.arange(len(ends)), counts)
    fracs = np.concatenate([np.arange(k) / k for k in counts])
    cells = _cell(grid, start + fracs[:, None] * (ends[ray_idx] - start))
    end_set = set(map(tuple, end_cells.tolist()))
    keep = np.array([cell not in end_set for cell in map(tuple, cells.tolist())], dtype=bool)
    cells, ray_idx = cells[keep], ray_idx[keep]
    key = np.unique(np.stack([ray_idx, cells[:, 0], cells[:, 1]], axis=1), axis=0)
    free_cells = key[:, 1:]
    nx, ny = grid.shape
    for cell_arr, delta in ((free_cells, -grid.l_free), (end_cells, grid.l_occ)):
        ok = (
            (cell_arr[:, 0] >= 0) & (cell_arr[:, 0] < nx)
            & (cell_arr[:, 1] >= 0) & (cell_arr[:, 1] < ny)
        )
        lin = cell_arr[ok, 0] * ny + cell_arr[ok, 1]
        if delta < 0:
            lin = lin[grid.log_odds.reshape(-1)[lin] <= 0.0]
        np.add.at(grid.log_odds.reshape(-1), lin, delta)
    np.clip(grid.log_odds, -LOG_ODDS_CLAMP, LOG_ODDS_CLAMP, out=grid.log_odds)
    return grid


def _matches_reference(shape, scans, log_odds=None):
    """``update_grid`` and the reference, each on a (-5, -5) grid of ``shape`` at 0.1 m,
    fresh or a copy of ``log_odds``, give the same log-odds bytes after every (pose,
    sensor-frame scan) of ``scans``; returns the updated grid."""
    fast, ref = (_grid(origin=np.array([-5.0, -5.0]), resolution=0.1,
                       log_odds=np.zeros(shape) if log_odds is None else log_odds.copy())
                 for _ in range(2))
    for pose, scan in scans:
        world = scan_to_points(scan, pose)
        update_grid(fast, pose, world)
        _update_grid_reference(ref, pose, world)
        assert fast.log_odds.tobytes() == ref.log_odds.tobytes()
    return fast


def test_update_grid_matches_2d_unique_reference():
    """Vectorized ray sampling and the 1-D cell key keep log-odds bytes identical."""
    rng = np.random.default_rng(5)
    scans = [
        # ranges up to 9 m from poses near the edge: endpoints leave the grid
        (Pose(x, y, h), polar_points(rng.uniform(0.05, 9.0, 60),
                                     rng.uniform(-math.pi, math.pi, 60)))
        for x, y, h in rng.uniform([-4.5, -4.5, -math.pi], [4.5, 2.5, math.pi], (6, 3))
    ]
    # every sample of these short rays lies in its own endpoint cell
    scans.insert(3, (Pose(0.55, 0.55, 0.0),
                     polar_points(np.array([0.01, 0.02]), np.array([0.0, 1.0]))))
    sensor = _sensor(0.05, 1.0)
    gt = ground_truth_scan(_scene(), Pose(0.0, 0.0, 0.3), sensor.bearings)
    scans.append((Pose(0.0, 0.0, 0.3), sensor(gt, np.random.default_rng(1))))
    # zero-length rays end at the pose: one sample each, in the endpoint cell
    scans.append((Pose(1.23, -0.47, 0.7),
                  polar_points(np.array([0.0, 0.0, 0.35]), np.array([0.0, 2.0, -1.0]))))
    # one ray of 1200 samples, far past the grid, among 80 short ones
    ranges = np.concatenate([[60.0], rng.uniform(0.0, 0.4, 80)])
    scans.append((Pose(-2.0, 1.0, 0.2), polar_points(ranges, rng.uniform(-3.0, 3.0, 81))))
    # rays that start off the grid, some crossing it, some never entering it
    scans.append((Pose(-6.0, 1.0, 0.0), polar_points(rng.uniform(0.5, 12.0, 40),
                                                     rng.uniform(-math.pi, math.pi, 40))))
    # rays shorter than one step (0.05 m): one or two samples each
    scans.append((Pose(0.31, -1.72, 0.4), polar_points(rng.uniform(0.0, 0.06, 30),
                                                       rng.uniform(-math.pi, math.pi, 30))))
    # grazing rays: along the cell edges y = 0.1 and x = 0.0, and a few milliradians off them
    grazing = np.array([0.0, math.pi, 1e-3, -2e-3, math.pi - 3e-3, math.pi / 2, -math.pi / 2])
    scans.append((Pose(0.05, 0.1, 0.0), polar_points(np.full(7, 3.7), grazing)))
    scans.append((Pose(0.0, 0.05, 0.0), polar_points(np.full(3, 4.2),
                                                     np.array([math.pi / 2, -math.pi / 2, 1.5707]))))
    # a pose on a cell corner: samples start on a cell edge in x and in y
    scans.append((Pose(0.2, -0.3, 0.0), polar_points(rng.uniform(0.0, 4.0, 50),
                                                     rng.uniform(-math.pi, math.pi, 50))))
    # an empty scan
    scans.append((Pose(0.4, 0.4, 0.0), np.zeros((0, 2))))
    fast = _matches_reference((100, 80), scans)
    assert fast.has_occupied() and np.any(fast.log_odds < 0)


def test_update_grid_rays_sharing_a_cell_each_decrement_it():
    """On a 20 x 20 grid at 0.1 m from the origin, from (0.95, 0.95): the ray to
    (1.03, 0.95) samples x = 0.95 and 0.99, both in cell (9, 9), and ends in (10, 9);
    the ray to (0.95, 1.45) starts in (9, 9) too, crosses cells (9, 10) to (9, 13) and
    ends in (9, 14).  Each ray decrements (9, 9) once, so it reads -2 * l_free: the
    second ray's first sample starts a run although its cell is the first ray's last."""
    grid = _grid(origin=np.zeros(2), resolution=0.1, log_odds=np.zeros((20, 20)))
    update_grid(grid, Pose(0.95, 0.95, 0.0), np.array([[1.03, 0.95], [0.95, 1.45]]))
    want = np.zeros((20, 20))
    want[9, 9] = -0.8
    want[9, 10:14] = -0.4
    want[9, 14] = want[10, 9] = 0.85
    assert grid.log_odds.tolist() == want.tolist()


@pytest.mark.parametrize("shape", [(1, 40), (40, 1), (2, 40), (40, 2)])
def test_update_grid_matches_reference_on_thin_grid(shape):
    """On a grid one or two cells wide, rays from outside enter it, some through cell
    0, some ending in it.  An off-grid sample just before a ray enters must not share
    the index of the cell it enters (0, or cx * ny + cy aliasing an in-grid cell when
    ny is 1), or the run finder takes the entry for a continuing run and skips it."""
    rng = np.random.default_rng(shape)
    lo = np.array([-5.0, -5.0])
    hi = lo + 0.1 * np.array(shape)
    scans = []
    for _ in range(12):
        pose = Pose(*rng.uniform(lo - 1.0, hi + 1.0), rng.uniform(-math.pi, math.pi))
        aim = rng.uniform(lo - 0.2, hi + 0.2, (40, 2)) - pose.position
        ranges = np.hypot(aim[:, 0], aim[:, 1]) * rng.uniform(0.8, 2.0, 40)
        scans.append((pose, polar_points(ranges, np.arctan2(aim[:, 1], aim[:, 0]) - pose.heading)))
    scans.append((scans[0][0], np.zeros((0, 2))))
    fast = _matches_reference(shape, scans)
    assert fast.has_occupied() and np.any(fast.log_odds < 0)


@pytest.mark.parametrize("seed", [0, 1])
def test_update_grid_clamp_matches_reference_on_filled_grid(seed):
    """update_grid clamps only its decremented cells below and its endpoint cells
    above; on a grid filled inside the clamp, with cells at the clamp, within one
    update of it, at 0.0 and at -0.0, that is the reference's clip of the whole
    grid.  The scans, some from poses off the grid, revisit their cells until cells
    sit at both bounds."""
    rng = np.random.default_rng(seed)
    cfg = SlamConfig()
    edge = [LOG_ODDS_CLAMP, -LOG_ODDS_CLAMP, LOG_ODDS_CLAMP - cfg.l_occ / 2,
            LOG_ODDS_CLAMP - cfg.l_occ, -LOG_ODDS_CLAMP + cfg.l_free / 2,
            -LOG_ODDS_CLAMP + cfg.l_free, 0.0, -0.0]
    shape = (100, 80)
    log_odds = rng.uniform(-LOG_ODDS_CLAMP, LOG_ODDS_CLAMP, shape)
    mask = rng.random(shape) < 0.6
    log_odds[mask] = rng.choice(edge, np.count_nonzero(mask))
    poses = [Pose(*rng.uniform([-4.5, -4.5, -math.pi], [4.5, 2.5, math.pi])) for _ in range(3)]
    poses += [Pose(-6.0, 1.0, 0.0), Pose(0.3, 4.5, -1.0)]  # off the grid
    scans = [(pose, polar_points(rng.uniform(0.05, 9.0, 40), rng.uniform(-math.pi, math.pi, 40)))
             for pose in poses]
    # 25 visits: 25 decrements of 0.4 take a cell from 0 to the lower bound, and 24
    # increments of 0.85 one from the lower bound to the upper
    fast = _matches_reference(shape, scans * 25, log_odds)
    assert np.all(np.abs(fast.log_odds) <= LOG_ODDS_CLAMP)
    assert np.any(fast.log_odds == LOG_ODDS_CLAMP) and np.any(fast.log_odds == -LOG_ODDS_CLAMP)
    assert np.any(np.signbit(fast.log_odds) & (fast.log_odds == 0.0))


_FINITE = st.floats(-50.0, 50.0)


@settings(max_examples=200, deadline=None)
@given(start=st.tuples(_FINITE, _FINITE), end=st.tuples(_FINITE, _FINITE),
       k=st.integers(1, 2000), origin=st.tuples(_FINITE, _FINITE),
       resolution=st.floats(0.01, 2.0))
def test_ray_samples_in_one_cell_are_consecutive(start, end, k, origin, resolution):
    """Sample j / k of a ray is monotone in x and in y, so once it leaves a cell it
    never returns: update_grid's per-ray dedupe by run relies on this."""
    grid = _grid(origin=np.array(origin), resolution=resolution,
                 log_odds=np.zeros((1, 1)))
    start, end = np.array(start), np.array(end)
    cells = _cell(grid, start + (np.arange(k) / k)[:, None] * (end - start))
    runs = 1 + np.count_nonzero(np.any(np.diff(cells, axis=0) != 0, axis=1))
    assert runs == len(np.unique(cells, axis=0))


def test_out_of_grid_endpoint_does_not_shield_in_grid_cell():
    """An endpoint in cell (50, -2) must not stop a ray from clearing cell (49, 79).

    On this 100 x 80 grid the former ``cx * (ny + 1) + cy`` endpoint key gave
    both cells the key 4048.
    """
    grid = _grid(origin=np.array([-5.0, -5.0]), resolution=0.1,
                 log_odds=np.zeros((100, 80)))
    pose = Pose(-0.05, 0.0, 0.0)
    ends = np.array([[0.05, -5.15], [-0.05, 4.0]]) - pose.position
    scan = polar_points(np.hypot(ends[:, 0], ends[:, 1]), np.arctan2(ends[:, 1], ends[:, 0]))
    assert _cell(grid, scan_to_points(scan, pose)).tolist() == [[50, -2], [49, 90]]
    update_grid(grid, pose, scan_to_points(scan, pose))
    assert grid.log_odds[49, 79] == -grid.l_free


# ---------------------------------------------------------------------------
# scan matching


def _populated_grid(scene, sensor):
    grid = OccupancyGrid.for_scene(scene, SlamConfig())
    pose = Pose(0.0, 0.0, 0.0)
    scan = sensor(ground_truth_scan(scene, pose, sensor.bearings), np.random.default_rng(0))
    update_grid(grid, pose, scan_to_points(scan, pose))
    return grid, scan, pose


def test_match_empty_scan_returns_prior():
    grid = _grid(origin=np.zeros(2), resolution=0.1,
                 log_odds=np.ones((10, 10)))
    prior = Pose(0.4, 0.4, 0.1)
    result = match_scan(np.zeros((0, 2)), grid, prior)
    assert result == MatchResult(prior, 0.0, False)


def test_match_empty_grid_returns_prior():
    grid = _grid(origin=np.zeros(2), resolution=0.1,
                 log_odds=np.zeros((10, 10)))
    scan = polar_points(np.array([1.0]), np.array([0.0]))
    result = match_scan(scan, grid, Pose(0.5, 0.5, 0.0))
    assert not result.matched


def test_match_sees_cells_written_through_log_odds():
    """The empty-grid check reads the log-odds themselves, so a cell written
    directly, not by update_grid, makes the grid non-empty, and clearing it
    makes it empty again."""
    grid = _grid(origin=np.zeros(2), resolution=0.1, log_odds=np.full((10, 10), -0.4))
    scan = polar_points(np.array([0.3]), np.array([0.0]))
    prior = Pose(0.25, 0.25, 0.0)
    assert not grid.has_occupied()
    assert not match_scan(scan, grid, prior).matched
    grid.log_odds[5, 2] = 0.85
    assert grid.has_occupied()
    result = match_scan(scan, grid, prior)
    assert result.matched and result.score > 0.0
    grid.log_odds[5, 2] = 0.0
    assert not grid.has_occupied()
    assert not match_scan(scan, grid, prior).matched
    assert not _grid(origin=np.zeros(2), resolution=0.1,
                     log_odds=np.zeros((0, 0))).has_occupied()


def test_match_self_consistency():
    """Matching a scan against the map it just built keeps the true pose."""
    scene = _scene()
    sensor = _sensor()
    grid, scan, pose = _populated_grid(scene, sensor)
    result = match_scan(scan, grid, pose)
    assert result.matched
    assert result.pose == pose  # zero correction wins the magnitude tie-break


def test_match_recovers_translation_offset():
    scene = _scene()
    sensor = _sensor()
    grid, scan, pose = _populated_grid(scene, sensor)
    prior = Pose(pose.x + 0.2, pose.y - 0.2, pose.heading)
    result = match_scan(scan, grid, prior,
                        SearchWindow(dxy_max=0.5, dxy_step=0.1))
    assert abs(result.pose.x - pose.x) <= 0.05
    assert abs(result.pose.y - pose.y) <= 0.05


_WINDOW = SearchWindow()
_N_XY = len(_WINDOW.offsets()[0])
_N_TH = len(_WINDOW.offsets()[1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0),
       heading=st.floats(-math.pi, math.pi), i=st.integers(0, _N_XY - 1),
       j=st.integers(0, _N_XY - 1), a=st.integers(0, _N_TH - 1))
@example(seed=0, x=0.0, y=0.0, heading=math.pi, i=0, j=0, a=0)
def test_match_recovers_injected_lattice_offset(seed, x, y, heading, i, j, a):
    """A prior off the true pose by one in-window (dx, dy, dtheta) lattice
    offset is corrected back to the pose the grid was built at."""
    rng = np.random.default_rng(seed)
    scan = polar_points(rng.uniform(0.5, 6.0, 40), rng.uniform(-math.pi, math.pi, 40))
    truth = Pose(x, y, heading)
    grid = _grid(origin=np.array([-10.0, -10.0]), resolution=0.1,
                 log_odds=np.zeros((200, 200)))
    update_grid(grid, truth, scan_to_points(scan, truth))
    dxy, dth = _WINDOW.offsets()
    prior = Pose(x + dxy[i], y + dxy[j], heading + dth[a])
    result = match_scan(scan, grid, prior, _WINDOW)
    assert result.matched
    assert result.pose.x == pytest.approx(x, abs=1e-9)
    assert result.pose.y == pytest.approx(y, abs=1e-9)
    # Pose wraps heading pi to -pi
    assert wrap_angle(result.pose.heading - truth.heading) == pytest.approx(0.0, abs=1e-9)


def _match_scan_reference(scan, grid, prior, window):
    """match_scan with one _index_of per rotation over every (dx, dy) shift."""
    if len(scan) == 0 or np.count_nonzero(grid.log_odds > 0.0) == 0:
        return MatchResult(prior, 0.0, False)
    dxy, dth = window.offsets()
    flat = grid.log_odds.ravel()
    n_xy = len(dxy)
    scores = np.empty((len(dth), n_xy, n_xy))
    shifts = np.stack(np.meshgrid(dxy, dxy, indexing="ij"), axis=-1).reshape(-1, 2)
    for a, dt in enumerate(dth):
        world = scan @ rotation(prior.heading + dt).T + prior.position  # (P, 2)
        lin, ok = _index_of(grid, world[None, :, :] + shifts[:, None, :])  # (K, P)
        scores[a] = np.where(ok, flat[lin], 0.0).sum(axis=1).reshape(n_xy, n_xy)
    th_g, dx_g, dy_g = np.meshgrid(dth, dxy, dxy, indexing="ij")
    mag = dx_g**2 + dy_g**2 + th_g**2
    order = np.lexsort((th_g.ravel(), dy_g.ravel(), dx_g.ravel(), mag.ravel()))
    best = order[np.argmax(scores.ravel()[order])]
    a, i, j = np.unravel_index(best, scores.shape)
    corrected = Pose(prior.x + dxy[i], prior.y + dxy[j], prior.heading + dth[a])
    return MatchResult(corrected, float(scores[a, i, j]), True)


def _result_bytes(result):
    return np.array([result.pose.x, result.pose.y, result.pose.heading, result.score,
                     result.matched]).tobytes()


@pytest.mark.parametrize("window", [
    load_experiment("ci.yaml").slam.window,
    SearchWindow(),
    SearchWindow(dxy_max=0.49, dxy_step=0.07),
    SearchWindow(dxy_max=0.0),
    SearchWindow(dtheta_max=0.0),
], ids=["ci", "default", "dxy_step_0.07", "dxy_max_0", "dtheta_max_0"])
def test_match_scan_matches_per_rotation_reference(window):
    """One gather over every candidate gives the per-rotation loop's pose, score
    and flag, byte for byte."""
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(12):
        # a noisy random map; the 6 m scans from priors near the edge leave the grid
        log_odds = np.round(rng.normal(0.0, 2.0, (60, 50)), 1)
        grid = _grid(origin=np.array([-3.0, -2.0]), resolution=0.1, log_odds=log_odds)
        scan = polar_points(rng.uniform(0.1, 6.0, 70), rng.uniform(-math.pi, math.pi, 70))
        prior = Pose(*rng.uniform([-3.0, -2.0, -math.pi], [3.0, 3.0, math.pi]))
        cases.append((scan, grid, prior))
    # tied scores: a checkerboard of equal values, and a constant grid
    board = np.indices((60, 50)).sum(axis=0) % 2 * 1.5
    for log_odds in (board, np.full((60, 50), 0.5)):
        grid = _grid(origin=np.array([-3.0, -2.0]), resolution=0.1, log_odds=log_odds)
        cases.append((polar_points(rng.uniform(0.1, 2.0, 20), rng.uniform(-math.pi, math.pi, 20)),
                      grid, Pose(0.05, 0.05, 0.0)))
    # a scan wholly off the grid scores zero everywhere
    cases.append((polar_points(np.array([40.0, 45.0]), np.array([0.0, 0.5])),
                  cases[0][1], Pose(0.0, 0.0, 0.0)))
    for scan, grid, prior in cases:
        assert _result_bytes(match_scan(scan, grid, prior, window)) == \
            _result_bytes(_match_scan_reference(scan, grid, prior, window))


def _candidate_cells(scan, grid, prior, window):
    """Each in-grid cell that some candidate of ``window`` puts a scan point in,
    mapped to the set of those candidates' (dtheta, dx, dy) indices."""
    dxy, dth = window.offsets()
    reach = {}
    for a, i, j in itertools.product(range(len(dth)), range(len(dxy)), range(len(dxy))):
        world = scan @ rotation(prior.heading + dth[a]).T + prior.position
        lin, ok = _index_of(grid, world + np.array([dxy[i], dxy[j]]))
        for cell in lin[ok].tolist():
            reach.setdefault(cell, set()).add((a, i, j))
    return reach


@pytest.mark.parametrize("case", ["non_positive", "positive_out_of_reach",
                                  "positive_under_one_candidate"])
def test_match_reads_whole_grid_only_without_positive_candidate(case):
    """match_scan reads the whole grid only when no candidate lands on a positive
    cell.  With every cell <= 0 and negative ones under the scan, the prior comes
    back unmatched.  One positive cell out of every candidate's reach makes the
    grid occupied, so the match is the argmax over non-positive scores.  One
    positive cell under exactly one candidate is seen in the gather itself."""
    rng = np.random.default_rng(17)
    log_odds = -np.round(rng.uniform(0.0, 2.0, (300, 300)), 1)
    log_odds[rng.random((300, 300)) < 0.2] = 0.0
    grid = _grid(origin=np.array([-15.0, -15.0]), resolution=0.1, log_odds=log_odds)
    # at 12 m and more, one 0.5 degree step of the window moves a point a cell
    scan = polar_points(rng.uniform(0.3, 13.0, 12), rng.uniform(-math.pi, math.pi, 12))
    prior = Pose(0.3, 0.4, 0.2)
    reach = _candidate_cells(scan, grid, prior, _WINDOW)
    flat = grid.log_odds.reshape(-1)
    assert np.any(flat[list(reach)] < 0.0)
    if case == "positive_out_of_reach":
        assert 0 not in reach
        flat[0] = 0.85
    elif case == "positive_under_one_candidate":
        cell = min(c for c, cands in reach.items() if len(cands) == 1)
        flat[cell] = 0.85
    result = match_scan(scan, grid, prior, _WINDOW)
    assert _result_bytes(result) == _result_bytes(_match_scan_reference(scan, grid, prior,
                                                                        _WINDOW))
    if case == "non_positive":
        assert result == MatchResult(prior, 0.0, False)
    else:
        assert result.matched and result.pose != prior
    if case == "positive_out_of_reach":
        assert result.score < 0.0


@pytest.mark.parametrize("kw, field", [
    (dict(dxy_max=0.25), "dxy_max"),  # rounded, this searched +-0.2 m
    (dict(dxy_max=0.29), "dxy_max"),  # and this +-0.3 m
    (dict(dxy_max=0.5, dxy_step=0.07), "dxy_max"),
    (dict(dtheta_max=math.radians(1.2)), "dtheta_max"),
])
def test_search_window_rejects_maximum_off_its_step_grid(kw, field):
    with pytest.raises(ValueError, match=f"^search window {field} must be a whole number of "):
        SearchWindow(**kw)


def test_search_window_whole_quotients_survive_rounding():
    """0.3 / 0.1 is 2.9999999999999996: a whole number of steps, not a rejection."""
    assert 0.3 / 0.1 != 3.0
    dxy, dth = SearchWindow(dxy_max=0.3, dxy_step=0.1,
                            dtheta_max=math.radians(1.0), dtheta_step=math.radians(0.5)).offsets()
    assert (len(dxy), len(dth)) == (7, 5)
    assert len(SearchWindow(dxy_max=0.49, dxy_step=0.07).offsets()[0]) == 15


def test_match_scores_out_of_grid_points_zero():
    """Points off the grid add nothing, whatever cell (0, 0) holds."""
    log_odds = np.zeros((10, 10))
    log_odds[0, 0] = 5.0
    grid = _grid(origin=np.zeros(2), resolution=0.1, log_odds=log_odds)
    scan = polar_points(np.array([10.0]), np.array([0.0]))
    result = match_scan(scan, grid, Pose(0.5, 0.5, 0.0))
    assert result == MatchResult(Pose(0.5, 0.5, 0.0), 0.0, True)


def test_match_tie_break_prefers_zero_correction():
    grid = _grid(origin=np.array([-5.0, -5.0]), resolution=0.1,
                 log_odds=np.full((100, 100), 1.0))
    scan = polar_points(np.array([1.0]), np.array([0.0]))
    result = match_scan(scan, grid, Pose(0.0, 0.0, 0.0))
    assert result.pose == Pose(0.0, 0.0, 0.0)  # every offset scores the same


# ---------------------------------------------------------------------------
# full loop


def test_run_slam_single_step():
    scene = _scene()
    run = run_slam(scene, _sensor(), OdometryModel(), np.random.default_rng(0),
                   duration=scene.trajectory.step_interval, snapshot_cadence=STEP)
    assert len(run.snapshots) == 1
    assert run.snapshots[0].t == pytest.approx(scene.trajectory.step_interval)


def test_run_slam_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        run_slam(_scene(), _sensor(), OdometryModel(),
                 np.random.default_rng(0), duration=0.0, snapshot_cadence=STEP)


@pytest.mark.parametrize("kw, field", [
    # rounded, this ran one 0.5 s step
    (dict(duration=0.2, snapshot_cadence=STEP), "duration"),
    (dict(duration=3.2, snapshot_cadence=STEP), "duration"),
    (dict(duration=3.0, snapshot_cadence=0.7), "snapshot_cadence"),
])
def test_run_slam_rejects_times_off_the_step_grid(kw, field):
    with pytest.raises(ValueError, match=f"^{field} must be a whole number of trajectory steps"):
        run_slam(_scene(), _sensor(), OdometryModel(), np.random.default_rng(0), **kw)


def test_noiseless_chain_exact_without_matching():
    """Zero noise and matching off: estimate equals truth at every step."""
    scene = _scene()
    cfg = SlamConfig(matching_enabled=False)
    run = run_slam(scene, _sensor(), OdometryModel(), np.random.default_rng(0),
                   duration=6.0, cfg=cfg, snapshot_cadence=STEP)
    for snap in run.snapshots:
        assert snap.pose_estimate.position == pytest.approx(
            snap.pose_truth.position, abs=1e-9)
        assert snap.pose_estimate.heading == pytest.approx(
            snap.pose_truth.heading, abs=1e-9)


class _RecordedNormals:
    """A generator's ``standard_normal``, each draw kept in call order in ``draws``."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def standard_normal(self, size=None):
        out = self.rng.standard_normal(size)
        self.draws.append(out)
        return out


class _MarkingDraws:
    """Wraps a sensor: keeps the index in ``rng.draws`` of each call's first draw."""

    def __init__(self, sensor):
        self.sensor, self.bearings, self.starts = sensor, sensor.bearings, []

    def __call__(self, gt, rng):
        self.starts.append(len(rng.draws))
        return self.sensor(gt, rng)


def test_dead_reckoning_matches_hand_composed_chain():
    """With matching off, a ci.yaml trial's estimate track is its noisy odometry
    chained by a plain loop, byte for byte: each step's true motion in the previous
    true frame plus its translation draw, turned by the previous *estimate's*
    heading, and its heading change plus its rotation draw.  The two draws are the
    ones the run made just before each sensing call."""
    exp = load_experiment("ci.yaml")
    scene, odo = exp.scene, exp.odometry
    assert odo.translation_noise_std > 0.0 and odo.rotation_noise_std > 0.0
    normals = _RecordedNormals(np.random.default_rng(np.random.SeedSequence([exp.seed, 1])))
    sensor = _MarkingDraws(exp.make_sensor())
    run = run_slam(scene, sensor, odo, normals, duration=exp.duration,
                   snapshot_cadence=scene.trajectory.step_interval,
                   cfg=dataclasses.replace(exp.slam, matching_enabled=False))
    assert len(run.snapshots) == len(sensor.starts) == 120
    truth = [trajectory_pose(scene.trajectory, 0.0)] + [s.pose_truth for s in run.snapshots]
    estimate, want = truth[0], []
    for prev, new, start in zip(truth, truth[1:], sensor.starts):
        noise_t, noise_r = normals.draws[start - 2:start]
        assert noise_t.shape == (2,) and type(noise_r) is float
        step = rotation(-prev.heading) @ (new.position - prev.position)
        pos = estimate.position + rotation(estimate.heading) @ (
            step + odo.translation_noise_std * noise_t)
        heading = (estimate.heading + wrap_angle(new.heading - prev.heading)
                   + odo.rotation_noise_std * noise_r)
        estimate = Pose(float(pos[0]), float(pos[1]), heading)
        want.append((estimate.x, estimate.y, estimate.heading))
    got = [(s.pose_estimate.x, s.pose_estimate.y, s.pose_estimate.heading) for s in run.snapshots]
    assert np.array(got).tobytes() == np.array(want).tobytes()


class _EveryOtherStepEmpty:
    """Wraps a sensor: steps 1, 3, 5, ... return an empty scan; records scan sizes."""

    def __init__(self, sensor):
        self.sensor, self.bearings, self.sizes = sensor, sensor.bearings, []

    def __call__(self, gt, rng):
        scan = self.sensor(gt, rng) if len(self.sizes) % 2 else np.zeros((0, 2))
        self.sizes.append(len(scan))
        return scan


class _Blind:
    """A one-bearing sensor that never returns a point."""

    bearings = np.zeros(1)

    def __call__(self, gt, rng):
        return np.zeros((0, 2))


class _Recording:
    """Wraps a sensor and keeps the ground-truth scans it is handed."""

    def __init__(self, sensor):
        self.sensor, self.bearings, self.scans = sensor, sensor.bearings, []

    def __call__(self, gt, rng):
        self.scans.append(gt)
        return self.sensor(gt, rng)


def test_run_slam_senses_each_true_pose_own_cast():
    """Across cast blocks, each step's ground-truth scan has the bytes of its true pose's own cast."""
    scene = _scene()
    sensor = _Recording(_sensor(0.05, 1.0))
    n_steps = 2 * RAY_BLOCK + 3
    odo = OdometryModel(translation_noise_std=0.02, rotation_noise_std=math.radians(0.5))
    run = run_slam(scene, sensor, odo, np.random.default_rng(3),
                   duration=n_steps * scene.trajectory.step_interval, snapshot_cadence=STEP)
    assert len(sensor.scans) == len(run.snapshots) == n_steps
    for snap, gt in zip(run.snapshots, sensor.scans):
        want = ground_truth_scan(scene, snap.pose_truth, sensor.bearings)
        for name in ("bearings", "ranges", "points"):
            assert getattr(gt, name).tobytes() == getattr(want, name).tobytes()


def test_run_slam_all_scans_empty():
    scene = _scene()
    run = run_slam(scene, _Blind(), OdometryModel(), np.random.default_rng(0), duration=3.0,
                   snapshot_cadence=STEP)
    assert run.map_points.shape == (0, 2)
    assert run.map_times.shape == (0,)
    assert [s.map_size for s in run.snapshots] == [0] * 6


def test_run_slam_some_scans_empty():
    scene = _scene()
    sensor = _EveryOtherStepEmpty(_sensor())
    run = run_slam(scene, sensor, OdometryModel(), np.random.default_rng(0), duration=3.0,
                   snapshot_cadence=STEP)
    assert sensor.sizes[0] == 0 and min(sensor.sizes[1::2]) > 0
    assert [s.map_size for s in run.snapshots] == np.cumsum(sensor.sizes).tolist()
    assert run.map_points.shape == (sum(sensor.sizes), 2)
    steps = np.repeat([s.t for s in run.snapshots], sensor.sizes)
    assert np.array_equal(run.map_times, steps)


TIGHT = SearchWindow(dxy_max=0.3, dxy_step=0.1,
                     dtheta_max=math.radians(1.0), dtheta_step=math.radians(0.5))


def _dense_sensor():
    return ParametricSensor(model=ErrorModel(),
                            bearings=np.radians(np.arange(0.0, 360.0, 2.0)))


def test_noiseless_matching_wander_bounded():
    """Matching on a 0.1 m grid may wiggle, but stays near the truth."""
    scene = _scene()
    run = run_slam(scene, _dense_sensor(), OdometryModel(),
                   np.random.default_rng(0), duration=6.0,
                   cfg=SlamConfig(window=TIGHT), snapshot_cadence=STEP)
    for snap in run.snapshots:
        err = np.sum((np.asarray(snap.pose_estimate.position)
                      - np.asarray(snap.pose_truth.position)) ** 2)
        assert err <= 0.1


def test_matching_beats_dead_reckoning():
    """Averaged over seeds, scan matching reduces final pose error."""
    scene = _scene()
    odo = OdometryModel(translation_noise_std=0.05,
                        rotation_noise_std=math.radians(0.5))

    def final_err(cfg, seed):
        run = run_slam(scene, _dense_sensor(), odo, np.random.default_rng(seed),
                       duration=8.0, cfg=cfg, snapshot_cadence=STEP)
        snap = run.snapshots[-1]
        return float(np.sum((np.asarray(snap.pose_estimate.position)
                             - np.asarray(snap.pose_truth.position)) ** 2))

    on = np.mean([final_err(SlamConfig(window=TIGHT), s) for s in range(10)])
    off = np.mean([final_err(SlamConfig(matching_enabled=False), s)
                   for s in range(10)])
    assert on < off


def test_map_points_near_boundaries_in_clean_conditions():
    scene = _scene()
    run = run_slam(scene, _sensor(), OdometryModel(), np.random.default_rng(0),
                   duration=6.0, cfg=SlamConfig(matching_enabled=False), snapshot_cadence=STEP)
    assert len(run.map_points) > 0
    dists = np.array([
        min(abs(t.shape.signed_distance(p)) for t in scene.targets)
        for p in run.map_points
    ])
    assert dists.max() <= 1.0


def test_map_nondecreasing_and_prefix_slices():
    scene = _scene()
    run = run_slam(scene, _sensor(), OdometryModel(), np.random.default_rng(0),
                   duration=6.0, snapshot_cadence=1.0)
    sizes = [s.map_size for s in run.snapshots]
    assert sizes == sorted(sizes)
    assert sizes[-1] == len(run.map_points) == len(run.map_times)
    for snap in run.snapshots:
        sliced = run.map_at(snap)
        assert len(sliced) == snap.map_size
        assert np.all(run.map_times[: snap.map_size] <= snap.t + 1e-9)


def test_run_deterministic_under_seed():
    scene = _scene()
    odo = OdometryModel(translation_noise_std=0.02,
                        rotation_noise_std=math.radians(0.1))
    kw = dict(duration=6.0, snapshot_cadence=1.0)
    r1 = run_slam(scene, _sensor(0.1, 1.0), odo, np.random.default_rng(42), **kw)
    r2 = run_slam(scene, _sensor(0.1, 1.0), odo, np.random.default_rng(42), **kw)
    assert np.array_equal(r1.map_points, r2.map_points)
    assert r1.snapshots == r2.snapshots


def test_dead_reckoning_error_grows():
    """Without matching, odometry noise accumulates over the run."""
    scene = _scene()
    odo = OdometryModel(translation_noise_std=0.05)
    cfg = SlamConfig(matching_enabled=False)
    early, late = [], []
    for seed in range(12):
        run = run_slam(scene, _sensor(), odo, np.random.default_rng(seed),
                       duration=8.0, snapshot_cadence=0.5, cfg=cfg)
        errs = [
            np.sum((np.asarray(s.pose_estimate.position)
                    - np.asarray(s.pose_truth.position)) ** 2)
            for s in run.snapshots
        ]
        early.append(np.mean(errs[:4]))
        late.append(np.mean(errs[-4:]))
    assert np.mean(late) > np.mean(early)
