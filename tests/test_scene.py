"""World-model tests: geometry, scene loading, trajectory, ray casting."""

import math
from importlib import resources

import numpy as np
import pytest
import yaml

from etslam.scene import (
    Circle,
    GeometryError,
    Pose,
    Rectangle,
    Scene,
    SceneValidationError,
    RAY_BLOCK,
    Trajectory,
    _cast_rays,
    ground_truth_scan,
    ground_truth_scans,
    load_scene,
    reference_points,
    trajectory_pose,
)

DEFAULT_SCENE = str(resources.files("etslam") / "configs" / "default_scene.yaml")


def _simple_scene(targets=None, waypoints=None):
    doc = {
        "bounds": {"min": [-20.0, -20.0], "max": [40.0, 40.0]},
        "targets": targets if targets is not None else [
            {"id": 1, "kind": "rect", "center": [10.0, 0.0], "width": 2.0, "height": 2.0},
            {"id": 2, "kind": "circle", "center": [0.0, 10.0], "radius": 1.0},
        ],
        "trajectory": {
            "waypoints": waypoints if waypoints is not None else [[0.0, 0.0], [0.0, -5.0]],
            "speed": 1.0,
            "step_interval": 0.5,
        },
    }
    return load_scene(doc)


# ---------------------------------------------------------------------------
# loading and validation


def test_default_scene_composition():
    scene = load_scene(DEFAULT_SCENE)
    assert len(scene.targets) == 10
    kinds = [type(t.shape).__name__ for t in scene.targets]
    assert kinds.count("Rectangle") == 8
    assert kinds.count("Circle") == 2


def test_zero_width_rectangle_rejected():
    with pytest.raises(SceneValidationError):
        _simple_scene(targets=[
            {"id": 1, "kind": "rect", "center": [10.0, 0.0], "width": 0.0, "height": 2.0},
        ])


def test_waypoint_inside_target_rejected():
    with pytest.raises(SceneValidationError):
        _simple_scene(waypoints=[[10.0, 0.0], [0.0, -5.0]])


def test_trajectory_through_target_rejected():
    with pytest.raises(SceneValidationError):
        _simple_scene(waypoints=[[0.0, 0.0], [20.0, 0.0]])


def test_unknown_kind_rejected():
    with pytest.raises(SceneValidationError):
        _simple_scene(targets=[{"id": 1, "kind": "triangle", "center": [5.0, 5.0]}])


def test_duplicate_ids_rejected():
    with pytest.raises(SceneValidationError):
        _simple_scene(targets=[
            {"id": 1, "kind": "circle", "center": [0.0, 10.0], "radius": 1.0},
            {"id": 1, "kind": "circle", "center": [10.0, 10.0], "radius": 1.0},
        ])


def test_target_outside_bounds_rejected():
    with pytest.raises(SceneValidationError):
        _simple_scene(targets=[
            {"id": 1, "kind": "circle", "center": [39.5, 0.0], "radius": 1.0},
        ])


def test_explicit_ref_points_validated():
    with pytest.raises(SceneValidationError):
        _simple_scene(targets=[
            {"id": 1, "kind": "circle", "center": [0.0, 10.0], "radius": 1.0,
             "ref_points": [[0.0, 10.0]]},  # center, not boundary
        ])


# ---------------------------------------------------------------------------
# reference points


def test_circle_reference_points_k4():
    pts = reference_points(Circle(center=(0.0, 0.0), radius=1.0), 4)
    assert np.allclose(pts, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-12)


def test_rect_reference_points_k4():
    pts = reference_points(Rectangle(center=(0.0, 0.0), width=2.0, height=4.0), 4)
    assert np.allclose(pts, [[1, 0], [-1, 0], [0, 2], [0, -2]], atol=1e-12)


def test_circle_reference_point_k1():
    pts = reference_points(Circle(center=(3.0, 0.0), radius=2.0), 1)
    assert np.allclose(pts, [[5.0, 0.0]])


def test_reference_points_on_boundary():
    rng = np.random.default_rng(2)
    for _ in range(20):
        if rng.random() < 0.5:
            shape = Rectangle(center=tuple(rng.uniform(-5, 5, 2)),
                              width=float(rng.uniform(0.5, 4)),
                              height=float(rng.uniform(0.5, 4)),
                              rotation=float(rng.uniform(0, math.pi)))
        else:
            shape = Circle(center=tuple(rng.uniform(-5, 5, 2)),
                           radius=float(rng.uniform(0.5, 3)))
        k = int(rng.integers(1, 9))
        pts = reference_points(shape, k)
        assert len(pts) == k
        assert np.all(np.abs(shape.signed_distance(pts)) < 1e-6)


def test_reference_points_rejects_k0():
    with pytest.raises(ValueError):
        reference_points(Circle(center=(0.0, 0.0), radius=1.0), 0)


# ---------------------------------------------------------------------------
# ray casting


def _one_ray(scene, origin, bearing):
    """A one-bearing ground_truth_scan from ``origin`` facing along ``bearing``."""
    return ground_truth_scan(scene, Pose(float(origin[0]), float(origin[1]), bearing), [0.0])


def test_raycast_rectangle_face():
    scene = _simple_scene(targets=[
        {"id": 1, "kind": "rect", "center": [3.0, 0.0], "width": 2.0, "height": 2.0},
    ])
    hit = _one_ray(scene, np.array([0.0, 0.0]), 0.0)
    assert len(hit) == 1
    assert np.allclose(hit.points[0], [2.0, 0.0], atol=1e-9)
    assert hit.ranges[0] == pytest.approx(2.0, abs=1e-9)
    assert hit.target_ids[0] == 1


def test_raycast_miss():
    scene = _simple_scene()
    assert len(_one_ray(scene, np.array([0.0, 0.0]), math.pi)) == 0


def test_raycast_circle():
    scene = _simple_scene(targets=[
        {"id": 7, "kind": "circle", "center": [4.0, 0.0], "radius": 1.0},
    ])
    hit = _one_ray(scene, np.array([0.0, 0.0]), 0.0)
    assert np.allclose(hit.points[0], [3.0, 0.0], atol=1e-9)
    assert hit.ranges[0] == pytest.approx(3.0, abs=1e-9)
    assert hit.target_ids[0] == 7


def test_raycast_origin_inside_target_rejected():
    scene = _simple_scene()
    with pytest.raises(GeometryError):
        _one_ray(scene, np.array([10.0, 0.0]), 0.0)


def _contains_point_loop(scene, point):
    """Reference for Scene.contains_point_in_target: one signed distance per target."""
    return any(float(t.shape.signed_distance(point)[0]) < 0.0 for t in scene.targets)


def test_contains_point_matches_per_target_loop():
    rotated = _simple_scene(targets=[
        {"id": 1, "kind": "rect", "center": [10.0, 0.0], "width": 3.0, "height": 1.0,
         "rotation": 0.7},
        {"id": 2, "kind": "rect", "center": [-8.0, 6.0], "width": 2.0, "height": 4.0,
         "rotation": -1.1},
        {"id": 3, "kind": "rect", "center": [12.0, 12.0], "width": 5.0, "height": 2.0,
         "rotation": math.pi / 4},
        {"id": 4, "kind": "circle", "center": [0.0, 10.0], "radius": 1.5},
    ])
    scenes = [load_scene(DEFAULT_SCENE), rotated, _simple_scene(targets=[])]
    rng = np.random.default_rng(17)
    for scene in scenes:
        edges = [t.reference_points for t in scene.targets]
        edges += [t.shape.corners() for t in scene.targets if isinstance(t.shape, Rectangle)]
        edge = np.concatenate(edges) if edges else np.zeros((0, 2))
        points = np.concatenate([
            rng.uniform(scene.bounds_min, scene.bounds_max, (3000, 2)),
            edge, edge + rng.normal(0.0, 1e-9, edge.shape),
        ])
        got = [scene.contains_point_in_target(p) for p in points]
        assert got == [_contains_point_loop(scene, p) for p in points]
        assert any(got) == bool(scene.targets)


def test_contains_point_boundary_is_outside():
    """sd = 0 exactly, on an axis-aligned rectangle and a circle, is not inside."""
    scene = _simple_scene()  # rect centred (10, 0) of side 2; circle (0, 10) of radius 1
    for p in ([11.0, 0.0], [10.0, -1.0], [9.0, 1.0], [0.0, 11.0], [1.0, 10.0]):
        assert not scene.contains_point_in_target(np.array(p))
    for p in ([10.999, 0.0], [0.0, 10.999]):
        assert scene.contains_point_in_target(np.array(p))


def test_raycast_range_and_boundary_invariants():
    scene = load_scene(DEFAULT_SCENE)
    rng = np.random.default_rng(6)
    shapes = {t.id: t.shape for t in scene.targets}
    for _ in range(200):
        t = float(rng.uniform(0, 60))
        pose = trajectory_pose(scene.trajectory, t)
        bearing = float(rng.uniform(-math.pi, math.pi))
        hit = _one_ray(scene, pose.position, bearing)
        if len(hit) == 0:
            continue
        assert hit.ranges[0] == pytest.approx(
            float(np.linalg.norm(hit.points[0] - pose.position)), abs=1e-9)
        sd = float(shapes[hit.target_ids[0]].signed_distance(hit.points[:1])[0])
        assert abs(sd) < 1e-6


def test_raycast_nearest_hit_bruteforce():
    """The reported hit is the closest boundary intersection of the ray."""
    scene = load_scene(DEFAULT_SCENE)
    rng = np.random.default_rng(13)
    for _ in range(50):
        pose = trajectory_pose(scene.trajectory, float(rng.uniform(0, 60)))
        bearing = float(rng.uniform(-math.pi, math.pi))
        hit = _one_ray(scene, pose.position, bearing)
        if len(hit) == 0:
            continue
        # march along the ray: no sample strictly before the hit lies inside
        u = np.array([math.cos(bearing), math.sin(bearing)])
        ts = np.linspace(1e-3, hit.ranges[0] - 1e-3, 200)
        samples = pose.position + ts[:, None] * u
        for tgt in scene.targets:
            assert np.all(tgt.shape.signed_distance(samples) > -1e-9)


def _cast_rays_two_blocks(scene, origin, dirs, eps=1e-9):
    """Reference for ``_cast_rays``: nearest segment hit, then a strictly nearer circle hit."""
    nb = dirs.shape[0]
    best_t = np.full(nb, np.inf)
    best_tid = np.full(nb, -1, dtype=int)
    if len(scene._seg_a):
        a, b = scene._seg_a, scene._seg_b
        d = b - a
        ao = a - origin
        denom = dirs[:, 0:1] * d[None, :, 1] - dirs[:, 1:2] * d[None, :, 0]
        num_t = ao[:, 0] * d[:, 1] - ao[:, 1] * d[:, 0]
        num_s = ao[None, :, 0] * dirs[:, 1:2] - ao[None, :, 1] * dirs[:, 0:1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = num_t[None, :] / denom
            s = num_s / denom
        valid = (np.abs(denom) > 1e-15) & (t > eps) & (s >= 0.0) & (s <= 1.0)
        t = np.where(valid, t, np.inf)
        idx = np.argmin(t, axis=1)
        tmin = t[np.arange(nb), idx]
        upd = tmin < best_t
        best_t[upd] = tmin[upd]
        best_tid[upd] = scene._seg_tid[idx[upd]]
    if len(scene._circ_c):
        oc = scene._circ_c - origin
        proj = dirs @ oc.T
        d2 = np.sum(oc**2, axis=1)[None, :] - proj**2
        disc = scene._circ_r[None, :] ** 2 - d2
        sq = np.sqrt(np.maximum(disc, 0.0))
        t1 = proj - sq
        t2 = proj + sq
        t = np.where(t1 > eps, t1, np.where(t2 > eps, t2, np.inf))
        t = np.where(disc >= 0.0, t, np.inf)
        idx = np.argmin(t, axis=1)
        tmin = t[np.arange(nb), idx]
        upd = tmin < best_t
        best_t[upd] = tmin[upd]
        best_tid[upd] = scene._circ_tid[idx[upd]]
    return best_t, best_tid


def _default_scene_with(kinds):
    """The default scene keeping only the targets of the given kinds."""
    with open(DEFAULT_SCENE) as f:
        doc = yaml.safe_load(f)
    doc["targets"] = [t for t in doc["targets"] if t["kind"] in kinds]
    return load_scene(doc)


def test_cast_rays_matches_two_block_reference():
    """One argmin over [miss, segments, circles] gives the two-block reduction's bytes."""
    scenes = [_default_scene_with(kinds) for kinds in (("rect", "circle"), ("rect",),
                                                       ("circle",), ())]
    assert [len(s._seg_a) > 0 for s in scenes] == [True, True, False, False]
    assert [len(s._circ_c) > 0 for s in scenes] == [True, False, True, False]
    rng = np.random.default_rng(29)
    for scene in scenes:
        hits = 0
        poses = [trajectory_pose(scene.trajectory, t).position for t in (0.0, 11.0, 37.5)]
        origins = poses + list(rng.uniform(scene.bounds_min, scene.bounds_max, (40, 2)))
        for origin in origins:
            angles = np.concatenate([np.radians(np.arange(0.0, 360.0, 2.0)),
                                     rng.uniform(-math.pi, math.pi, 100)])
            dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
            t, tid = (a[0] for a in _cast_rays(scene, origin[None], dirs[None]))
            want_t, want_tid = _cast_rays_two_blocks(scene, origin, dirs)
            assert t.tobytes() == want_t.tobytes()
            assert tid.dtype == want_tid.dtype and tid.tobytes() == want_tid.tobytes()
            hits += int(np.isfinite(t).sum())
        assert (hits > 0) == bool(scene.targets)


def test_cast_rays_tie_goes_to_rectangle():
    """A ray meeting a rectangle edge and a circle at the same distance reports the rectangle."""
    scene = _simple_scene(targets=[
        {"id": 4, "kind": "circle", "center": [6.0, 0.0], "radius": 1.0},
        {"id": 9, "kind": "rect", "center": [6.0, 0.0], "width": 2.0, "height": 2.0},
    ], waypoints=[[0.0, -5.0], [0.0, 5.0]])
    t, tid = _cast_rays(scene, np.array([[0.0, 0.0]]), np.array([[[1.0, 0.0]]]))
    assert t[0, 0] == 5.0 and tid[0, 0] == 9
    hit = _one_ray(scene, np.array([0.0, 0.0]), 0.0)
    assert hit.ranges[0] == 5.0 and hit.target_ids[0] == 9


@pytest.mark.parametrize("kinds", [("rect", "circle"), ("rect",), ("circle",), ()],
                         ids=["default", "rects", "circles", "empty"])
@pytest.mark.parametrize("n_poses", [1, RAY_BLOCK - 1, RAY_BLOCK, RAY_BLOCK + 1,
                                     2 * RAY_BLOCK + 3])
def test_ground_truth_scans_match_two_block_reference(kinds, n_poses):
    """Each pose's scan in a blocked batch has the bytes of the two-block reference."""
    scene = _default_scene_with(kinds)
    traj = scene.trajectory
    poses = [trajectory_pose(traj, 1.9 * k) for k in range(n_poses)]
    bearings = np.radians(np.arange(0.0, 360.0, 2.0))
    scans = ground_truth_scans(scene, poses, bearings)
    assert len(scans) == n_poses
    for pose, scan in zip(poses, scans):
        dirs = np.stack([np.cos(pose.heading + bearings), np.sin(pose.heading + bearings)],
                        axis=-1)
        t, tid = _cast_rays_two_blocks(scene, pose.position, dirs)
        hit = np.isfinite(t)
        assert scan.ranges.tobytes() == t[hit].tobytes()
        assert scan.bearings.tobytes() == bearings[hit].tobytes()
        assert scan.points.tobytes() == (pose.position + t[hit, None] * dirs[hit]).tobytes()
        assert scan.target_ids.dtype == tid.dtype
        assert scan.target_ids.tobytes() == tid[hit].tobytes()
        assert ground_truth_scan(scene, pose, bearings).points.tobytes() == scan.points.tobytes()


def test_ground_truth_scans_reject_origin_inside_target_mid_block():
    scene = _simple_scene()  # rect centred (10, 0) of side 2
    poses = [Pose(0.0, float(-k), 0.0) for k in range(RAY_BLOCK + 3)]
    poses[RAY_BLOCK + 1] = Pose(10.0, 0.0, 0.0)
    with pytest.raises(GeometryError):
        ground_truth_scans(scene, poses, [0.0])


def test_ground_truth_scan_matches_single_raycast():
    """A fan of bearings equals one one-bearing scan per bearing, misses dropped."""
    scene = load_scene(DEFAULT_SCENE)
    pose = trajectory_pose(scene.trajectory, 7.0)
    bearings = np.radians(np.arange(0.0, 360.0, 7.5))
    scan = ground_truth_scan(scene, pose, bearings)
    singles = [ground_truth_scan(scene, pose, [b]) for b in bearings]
    hits = [s for s in singles if len(s)]
    assert 0 < len(scan) == len(hits) < len(bearings)
    assert np.allclose(scan.bearings, [s.bearings[0] for s in hits])
    assert np.allclose(scan.points, [s.points[0] for s in hits])
    assert np.allclose(scan.ranges, [s.ranges[0] for s in hits])
    assert list(scan.target_ids) == [s.target_ids[0] for s in hits]


def test_ground_truth_scan_default_scene_hits():
    scene = load_scene(DEFAULT_SCENE)
    pose = trajectory_pose(scene.trajectory, 0.0)
    scan = ground_truth_scan(scene, pose, np.radians(np.arange(0, 360, 1.0)))
    assert len(scan) > 0


def test_ground_truth_scan_frame_consistency():
    """Bearings are relative to the heading: heading + bearing is what counts."""
    scene = load_scene(DEFAULT_SCENE)
    origin = trajectory_pose(scene.trajectory, 3.0).position
    # three rays that hit a target, the last one a miss
    cases = ((3.0, -1.3), (0.5, 1.0), (-2.5, 3.0), (math.pi, 0.0))
    for k, (heading, bearing) in enumerate(cases):
        turned = ground_truth_scan(scene, Pose(*origin, heading), [bearing])
        straight = ground_truth_scan(scene, Pose(*origin, 0.0), [heading + bearing])
        assert len(turned) == len(straight) == (k < 3)
        assert np.allclose(turned.points, straight.points)
        assert np.array_equal(turned.target_ids, straight.target_ids)


def test_ground_truth_scan_rejects_empty_bearings():
    scene = _simple_scene()
    with pytest.raises(ValueError):
        ground_truth_scan(scene, Pose(0.0, 0.0, 0.0), [])


# ---------------------------------------------------------------------------
# trajectory


def _square_loop(side=10.0, speed=1.0):
    return Trajectory(
        waypoints=np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side], [0.0, 0.0]]),
        speed=speed,
        step_interval=0.5,
    )


def test_trajectory_t0():
    pose = trajectory_pose(_square_loop(), 0.0)
    assert (pose.x, pose.y) == (0.0, 0.0)
    assert pose.heading == pytest.approx(0.0)  # toward the second waypoint


def test_trajectory_midpoint():
    pose = trajectory_pose(_square_loop(), 5.0)
    assert np.allclose([pose.x, pose.y], [5.0, 0.0])


def test_trajectory_wraps_closed_loop():
    traj = _square_loop()
    pose = trajectory_pose(traj, traj.total_length / traj.speed)
    assert np.allclose([pose.x, pose.y], [0.0, 0.0], atol=1e-9)


def test_trajectory_clamps_open_path():
    traj = Trajectory(waypoints=np.array([[0.0, 0.0], [4.0, 0.0]]),
                      speed=1.0, step_interval=0.5)
    pose = trajectory_pose(traj, 100.0)
    assert np.allclose([pose.x, pose.y], [4.0, 0.0])


def test_trajectory_rejects_negative_time():
    with pytest.raises(ValueError):
        trajectory_pose(_square_loop(), -1.0)


def test_pose_heading_normalized():
    assert Pose(0.0, 0.0, 3.0 * math.pi).heading == pytest.approx(math.pi - 2 * math.pi)
