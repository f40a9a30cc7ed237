"""World-model tests: geometry, scene loading, trajectory, ray casting."""

import math
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etslam import scene as scene_module
from etslam.clustering import recovered_target_count
from etslam.scene import (
    Circle,
    Pose,
    Rectangle,
    Scene,
    ExtendedTarget,
    RAY_BLOCK,
    RAY_MIN_T,
    Trajectory,
    _cast_rays,
    _edge_candidates,
    ground_truth_scan,
    ground_truth_scans,
    load_scene,
    polar_points,
    ragged_ranges,
    reference_points,
    trajectory_pose,
)

DEFAULT_SCENE = str(resources.files("etslam") / "configs" / "default_scene.yaml")


def _simple_doc(targets=None, waypoints=None):
    return {
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


def _simple_scene(targets=None, waypoints=None):
    return load_scene(_simple_doc(targets, waypoints))


# ---------------------------------------------------------------------------
# loading and validation


def test_default_scene_composition():
    scene = load_scene(DEFAULT_SCENE)
    assert len(scene.targets) == 10
    kinds = [type(t.shape).__name__ for t in scene.targets]
    assert kinds.count("Rectangle") == 8
    assert kinds.count("Circle") == 2


def test_zero_width_rectangle_rejected():
    with pytest.raises(ValueError, match=r"^target 1: rectangle width must be finite and > 0$"):
        _simple_scene(targets=[
            {"id": 1, "kind": "rect", "center": [10.0, 0.0], "width": 0.0, "height": 2.0},
        ])


def test_waypoint_inside_target_rejected():
    with pytest.raises(ValueError, match=r"^trajectory waypoint inside target 1$"):
        _simple_scene(waypoints=[[10.0, 0.0], [0.0, -5.0]])


def test_trajectory_through_target_rejected():
    with pytest.raises(ValueError, match=r"^trajectory segment 0 intersects a target$"):
        _simple_scene(waypoints=[[0.0, 0.0], [20.0, 0.0]])


def test_trajectory_first_blocked_segment_named():
    """Segment 0 is clear, segments 1 and 2 both cross the rectangle: 1 is named."""
    waypoints = [[0.0, -5.0], [5.0, 0.0], [15.0, 0.0], [5.0, 0.5]]
    with pytest.raises(ValueError, match=r"^trajectory segment 1 intersects a target$"):
        _simple_scene(waypoints=waypoints)


def test_trajectory_blocked_past_segment_midpoint_rejected():
    """The target sits 14 m along the 20 m first leg of the packaged loop."""
    doc = yaml.safe_load(Path(DEFAULT_SCENE).read_text())
    doc["targets"].append({"id": 11, "kind": "rect", "center": [20.0, 5.0], "width": 2.0,
                           "height": 2.0})
    with pytest.raises(ValueError, match=r"^trajectory segment 0 intersects a target$"):
        load_scene(doc)


def test_waypoint_on_target_boundary_rejected():
    """Waypoint 1 lies on the left edge of the rectangle: on a boundary counts as inside."""
    with pytest.raises(ValueError, match=r"^trajectory waypoint inside target 1$"):
        _simple_scene(targets=[{"id": 1, "kind": "rect", "center": [15.0, 15.0], "width": 2.0,
                                "height": 2.0}],
                      waypoints=[[5.0, 5.0], [14.0, 15.0], [5.0, 25.0]])


@pytest.mark.parametrize("index, waypoint", [(1, [45.0, 5.0]), (3, [5.0, -0.5])])
def test_waypoint_outside_bounds_rejected(index, waypoint):
    """Both loaded: the packaged scene's bounds are [0, 30] on each axis."""
    doc = yaml.safe_load(Path(DEFAULT_SCENE).read_text())
    doc["trajectory"]["waypoints"][index] = waypoint
    with pytest.raises(ValueError,
                       match=f"^trajectory waypoint {index} lies outside scene bounds$"):
        load_scene(doc)


def test_waypoint_on_bounds_accepted():
    doc = yaml.safe_load(Path(DEFAULT_SCENE).read_text())
    doc["trajectory"]["waypoints"] = [[0.0, 5.0], [30.0, 5.0]]
    assert load_scene(doc).trajectory.total_length == 30.0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError,
                       match=r"^target 1: unknown kind 'triangle' \(expected rect\|circle\)$"):
        _simple_scene(targets=[{"id": 1, "kind": "triangle", "center": [5.0, 5.0]}])


@pytest.mark.parametrize("kind", [[], {}], ids=["list", "mapping"])
def test_unhashable_kind_rejected_with_location(kind):
    with pytest.raises(ValueError, match=r"^target 3: unknown kind"):
        _simple_scene(targets=[{"id": 3, "kind": kind, "center": [5.0, 5.0], "radius": 1.0}])


@pytest.mark.parametrize("path, value, message", [
    (("bounds", "min"), [True, 0], "bounds: key 'min': expected float, got True"),
    (("trajectory", "waypoints"), [[0.0, 0.0], [0.0, True]],
     "trajectory: key 'waypoints': expected float, got True"),
    (("targets", 0, "center"), [math.nan, 0.0],
     "target 1: rectangle center and rotation must be finite"),
    (("targets", 0, "rotation"), math.nan,
     "target 1: rectangle center and rotation must be finite"),
    (("bounds", "max"), [math.inf, 30.0], "bounds: min and max must be finite"),
    (("targets", 1, "center"), [0.0, -math.inf], "target 2: circle center must be finite"),
    (("targets", 1, "ref_points"), [[1.0, True]],
     "target 2: key 'ref_points': expected float, got True"),
    (("targets", 1, "ref_points"), [[math.nan, 10.0]], "target 2: reference point off boundary"),
    (("targets", 0, "width"), math.inf, "target 1: rectangle width must be finite and > 0"),
    (("targets", 0, "height"), math.inf, "target 1: rectangle height must be finite and > 0"),
    (("targets", 1, "radius"), math.inf, "target 2: circle radius must be finite and > 0"),
], ids=["bounds-min-bool", "waypoint-bool", "rect-center-nan", "rect-rotation-nan",
        "bounds-max-inf", "circle-center-inf", "ref-points-bool", "ref-points-nan",
        "rect-width-inf", "rect-height-inf", "circle-radius-inf"])
def test_coordinates_fail_loudly(path, value, message):
    """Each of these loaded: a bool coordinate as 1.0, a non-finite one as itself; an
    infinite size failed only as a RuntimeWarning, then "reference point off boundary"."""
    doc = _simple_doc()
    leaf = doc
    for key in path[:-1]:
        leaf = leaf[key]
    leaf[path[-1]] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        load_scene(doc)


@pytest.mark.parametrize("build", [
    lambda: Rectangle(center=(0.0, math.nan), width=1.0, height=1.0),
    lambda: Rectangle(center=(0.0, 0.0), width=1.0, height=1.0, rotation=math.inf),
    lambda: Circle(center=(math.nan, 0.0), radius=1.0),
    lambda: Scene(bounds_min=np.array([-20.0, -math.inf]), bounds_max=np.array([20.0, 20.0]),
                  targets=[], trajectory=Trajectory(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0, 0.5)),
    lambda: Rectangle(center=(0.0, 0.0), width=math.inf, height=1.0),
    lambda: Rectangle(center=(0.0, 0.0), width=1.0, height=math.inf),
    lambda: Circle(center=(0.0, 0.0), radius=math.inf),
], ids=["rect-center", "rect-rotation", "circle-center", "scene-bounds", "rect-width",
        "rect-height", "circle-radius"])
def test_shapes_and_scene_built_in_code_reject_non_finite(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


def test_huge_target_id_loads_and_counts():
    """Ids only label targets: the largest int64 loads and is counted (one beyond
    int64 is refused at load, like every int leaf)."""
    scene = _simple_scene(targets=[
        {"id": 2**63 - 1, "kind": "rect", "center": [10.0, 0.0], "width": 2.0, "height": 2.0},
        {"id": 2, "kind": "circle", "center": [0.0, 10.0], "radius": 1.0},
    ])
    assert scene.targets[0].id == 2**63 - 1
    centroids = np.concatenate([t.reference_points[:1] for t in scene.targets])
    assert recovered_target_count(centroids, scene.targets) == 2
    assert recovered_target_count(centroids[:1], scene.targets) == 1


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError, match=r"^duplicate target ids$"):
        _simple_scene(targets=[
            {"id": 1, "kind": "circle", "center": [0.0, 10.0], "radius": 1.0},
            {"id": 1, "kind": "circle", "center": [10.0, 10.0], "radius": 1.0},
        ])


def test_target_outside_bounds_rejected():
    with pytest.raises(ValueError, match=r"^target 1 extends outside scene bounds$"):
        _simple_scene(targets=[
            {"id": 1, "kind": "circle", "center": [39.5, 0.0], "radius": 1.0},
        ])


def test_explicit_ref_points_validated():
    with pytest.raises(ValueError,
                       match=r"^target 1: reference point off boundary \(\|sd\|=1\.00e\+00\)$"):
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


def test_raycast_origin_inside_target_rejected():
    scene = _simple_scene()
    with pytest.raises(ValueError, match=r"^scan origin lies inside a target$"):
        _one_ray(scene, np.array([10.0, 0.0]), 0.0)


def _stacked_contains(scene, points):
    """Reference for Scene.contains_point_in_target: every rectangle at once, from
    (R, 2) tables of centres and half sizes and (R,) tables of cos and sin, then
    every circle's norm, each (..., R) signed distance tested against 0."""
    points = np.asarray(points, dtype=float)[..., None, :]
    rects = [t.shape for t in scene.targets if isinstance(t.shape, Rectangle)]
    circles = [t.shape for t in scene.targets if isinstance(t.shape, Circle)]
    center = np.array([r.center for r in rects], dtype=float).reshape(-1, 2)
    cos = np.array([math.cos(r.rotation) for r in rects])
    sin = np.array([math.sin(r.rotation) for r in rects])
    half = np.array([[r.width / 2.0, r.height / 2.0] for r in rects]).reshape(-1, 2)
    d = points - center
    qx = np.abs(d[..., 0] * cos + d[..., 1] * sin) - half[..., 0]
    qy = np.abs(d[..., 1] * cos - d[..., 0] * sin) - half[..., 1]
    rect_sd = (np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
               + np.minimum(np.maximum(qx, qy), 0.0))
    circ_c = np.array([c.center for c in circles], dtype=float).reshape(-1, 2)
    circ_sd = np.linalg.norm(points - circ_c, axis=-1) - np.array([c.radius for c in circles])
    return np.any(rect_sd < 0.0, axis=-1) | np.any(circ_sd < 0.0, axis=-1)


def _bounding_circle_points(scene):
    """Points on each target's bounding circle, one ulp and 1e-9 of its radius inside and
    outside it, every 5 degrees and towards each rectangle corner."""
    out = [np.zeros((0, 2))]
    for tgt in scene.targets:
        shape, center = tgt.shape, np.asarray(tgt.shape.center, dtype=float)
        angles = np.radians(np.arange(0.0, 360.0, 5.0))
        if isinstance(shape, Rectangle):
            radius = math.hypot(shape.width / 2.0, shape.height / 2.0)
            d = shape.corners() - center
            angles = np.concatenate([angles, np.arctan2(d[:, 1], d[:, 0])])
        else:
            radius = shape.radius
        radii = [radius, np.nextafter(radius, 0.0), np.nextafter(radius, np.inf),
                 radius * (1.0 - 1e-9), radius * (1.0 + 1e-9)]
        out += [center + polar_points(r, angles) for r in radii]
    return np.concatenate(out)


def test_contains_point_matches_per_target_loop():
    """The bounding-circle pre-check and the targets' own signed distances against the
    stacked reference, on random points, on target boundaries and next to them, and on,
    just inside and just outside each bounding circle."""
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
            _bounding_circle_points(scene),
        ])
        got = scene.contains_point_in_target(points)
        assert got.shape == (len(points),)
        assert got.tobytes() == _stacked_contains(scene, points).tobytes()
        assert got.any() == bool(scene.targets)
        # (..., 2) points: the leading axes are kept
        grid = scene.contains_point_in_target(points[:3000].reshape(30, 100, 2))
        assert grid.shape == (30, 100) and grid.tobytes() == got[:3000].tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-2**40, 2**40), st.integers(0, 300)), max_size=20))
@example([])
@example([(0, 0), (5, 0), (9, 0)])
@example([(3, 0), (-7, 100_000), (2**40, 3)])
def test_ragged_ranges_match_double_loop(ranges):
    """(i, j) for every j in [lo[i], hi[i]), in (i, j) order: empty ranges, no ranges
    and a large one included."""
    lo = np.array([a for a, _ in ranges], dtype=np.int64)
    hi = lo + np.array([n for _, n in ranges], dtype=np.int64)
    i, j = ragged_ranges(lo, hi)
    want = [(k, v) for k, (a, n) in enumerate(ranges) for v in range(a, a + n)]
    assert list(zip(i.tolist(), j.tolist())) == want


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
    for _ in range(200):
        t = float(rng.uniform(0, 60))
        pose = trajectory_pose(scene.trajectory, t)
        bearing = float(rng.uniform(-math.pi, math.pi))
        hit = _one_ray(scene, pose.position, bearing)
        if len(hit) == 0:
            continue
        assert hit.ranges[0] == pytest.approx(
            float(np.linalg.norm(hit.points[0] - pose.position)), abs=1e-9)
        # the hit lies on some target's boundary
        sd = [float(tgt.shape.signed_distance(hit.points[:1])[0]) for tgt in scene.targets]
        assert min(map(abs, sd)) < 1e-6


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


def _edges(scene):
    """Each rectangle edge of ``scene.targets`` as an (a, b) pair, corner k to corner k + 1."""
    return [(c[k], c[(k + 1) % 4]) for tgt in scene.targets if isinstance(tgt.shape, Rectangle)
            for c in [tgt.shape.corners()] for k in range(4)]


def _cast_rays_two_blocks(scene, origin, dirs):
    """Reference for ``_cast_rays``: nearest segment hit, then a strictly nearer
    circle hit; the primitives come from ``scene.targets``, not the scene's cache."""
    nb = dirs.shape[0]
    best_t = np.full(nb, np.inf)
    edges = _edges(scene)
    circles = [tgt.shape for tgt in scene.targets if isinstance(tgt.shape, Circle)]
    if edges:
        a, b = (np.array(ends) for ends in zip(*edges))
        d = b - a
        ao = a - origin
        denom = dirs[:, 0:1] * d[None, :, 1] - dirs[:, 1:2] * d[None, :, 0]
        num_t = ao[:, 0] * d[:, 1] - ao[:, 1] * d[:, 0]
        num_s = ao[None, :, 0] * dirs[:, 1:2] - ao[None, :, 1] * dirs[:, 0:1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = num_t[None, :] / denom
            s = num_s / denom
        valid = (np.abs(denom) > 1e-15) & (t > RAY_MIN_T) & (s >= 0.0) & (s <= 1.0)
        t = np.where(valid, t, np.inf)
        idx = np.argmin(t, axis=1)
        tmin = t[np.arange(nb), idx]
        upd = tmin < best_t
        best_t[upd] = tmin[upd]
    if circles:
        oc = np.array([c.center for c in circles], dtype=float) - origin
        proj = dirs @ oc.T
        d2 = np.sum(oc**2, axis=1)[None, :] - proj**2
        disc = np.array([c.radius for c in circles])[None, :] ** 2 - d2
        sq = np.sqrt(np.maximum(disc, 0.0))
        t1 = proj - sq
        t2 = proj + sq
        t = np.where(t1 > RAY_MIN_T, t1, np.where(t2 > RAY_MIN_T, t2, np.inf))
        t = np.where(disc >= 0.0, t, np.inf)
        idx = np.argmin(t, axis=1)
        tmin = t[np.arange(nb), idx]
        upd = tmin < best_t
        best_t[upd] = tmin[upd]
    return best_t


def _default_scene_with(kinds):
    """The default scene keeping only the targets of the given kinds."""
    with open(DEFAULT_SCENE) as f:
        doc = yaml.safe_load(f)
    doc["targets"] = [t for t in doc["targets"] if t["kind"] in kinds]
    return load_scene(doc)


def test_cast_rays_matches_two_block_reference():
    """One minimum over segments and circles gives the two-block reduction's bytes."""
    scenes = [_default_scene_with(kinds) for kinds in (("rect", "circle"), ("rect",),
                                                       ("circle",), ())]
    assert [len(s._seg_d) > 0 for s in scenes] == [True, True, False, False]
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
            t = _cast_rays(scene, origin[None], dirs[None])[0]
            assert t.tobytes() == _cast_rays_two_blocks(scene, origin, dirs).tobytes()
            hits += int(np.isfinite(t).sum())
        assert (hits > 0) == bool(scene.targets)


def test_cast_rays_tie_goes_to_rectangle():
    """A ray meeting a rectangle edge and a circle at the same distance reports that distance."""
    scene = _simple_scene(targets=[
        {"id": 4, "kind": "circle", "center": [6.0, 0.0], "radius": 1.0},
        {"id": 9, "kind": "rect", "center": [6.0, 0.0], "width": 2.0, "height": 2.0},
    ], waypoints=[[0.0, -5.0], [0.0, 5.0]])
    t = _cast_rays(scene, np.array([[0.0, 0.0]]), np.array([[[1.0, 0.0]]]))
    assert t[0, 0] == 5.0
    hit = _one_ray(scene, np.array([0.0, 0.0]), 0.0)
    assert hit.ranges[0] == 5.0


def _assert_cast_matches_reference(scene, origins, dirs):
    """``_cast_rays`` on a block gives, row by row, the bytes of the dense
    two-block reference."""
    t = _cast_rays(scene, np.asarray(origins, dtype=float), dirs)
    for origin, fan, got in zip(origins, dirs, t):
        want = _cast_rays_two_blocks(scene, np.asarray(origin, dtype=float), fan)
        assert got.tobytes() == want.tobytes()
    return t


def _aimed_at(origin, points):
    """Unit directions from ``origin`` to each of ``points``, shape (n, 2)."""
    d = np.asarray(points, dtype=float) - origin
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _aim_points(scene):
    """Every rectangle corner (each edge's a end) and every circle centre."""
    corners = [a for a, _ in _edges(scene)]
    return np.concatenate([np.reshape(corners, (-1, 2)), scene._circ_c])


def test_broad_phase_rays_aimed_at_endpoints_and_corners():
    """Rays through each edge end, with and without a 1-ulp nudge either way."""
    scene = load_scene(DEFAULT_SCENE)
    rng = np.random.default_rng(41)
    poses = [trajectory_pose(scene.trajectory, t).position for t in np.arange(0.0, 60.0, 3.7)]
    origins = np.array(poses + list(rng.uniform(scene.bounds_min, scene.bounds_max, (30, 2))))
    origins = origins[~scene.contains_point_in_target(origins)]
    hits = 0
    for block in np.array_split(origins, 4):
        dirs = np.stack([_aimed_at(o, _aim_points(scene)) for o in block])
        angles = np.arctan2(dirs[..., 1], dirs[..., 0])
        nudged = np.concatenate([angles, np.nextafter(angles, np.inf),
                                 np.nextafter(angles, -np.inf)], axis=1)
        for fan in (dirs, polar_points(1.0, nudged)):
            hits += int(np.isfinite(_assert_cast_matches_reference(scene, block, fan)).sum())
    assert hits > 0


def test_broad_phase_fans_across_pi_and_unsorted():
    scene = load_scene(DEFAULT_SCENE)
    rng = np.random.default_rng(43)
    origins = np.array([trajectory_pose(scene.trajectory, t).position for t in (2.0, 17.0, 31.0)])
    across = np.concatenate([np.linspace(math.pi - 0.6, math.pi + 0.6, 97), [math.pi, -math.pi]])
    fans = [
        polar_points(1.0, np.broadcast_to(across, (3, across.size))),
        np.stack([np.full(across.size, -1.0), np.full(across.size, -0.0)], axis=-1)[None]
        .repeat(3, axis=0),  # theta is -pi exactly
        polar_points(1.0, rng.permutation(np.radians(np.arange(0.0, 360.0, 2.0)))[None]
                     .repeat(3, axis=0)),
        polar_points(1.0, rng.uniform(-4.0, 4.0, (3, 150))),
    ]
    for fan in fans:
        _assert_cast_matches_reference(scene, origins, fan)


def test_broad_phase_origin_collinear_with_edge():
    """Origins on an edge's line beyond either end, on the edge and at its ends,
    for an axis-aligned and a rotated rectangle.  On the edge, rays that graze
    it within 1e-6 rad meet it at a rounded t just over RAY_MIN_T: a pad of a
    fixed 1e-9 rad culls some of those hits."""
    scene = _simple_scene(targets=[
        {"id": 1, "kind": "rect", "center": [10.0, 0.0], "width": 2.0, "height": 2.0},
        {"id": 5, "kind": "rect", "center": [0.3, -12.1], "width": 3.0, "height": 1.5,
         "rotation": 0.3},
        {"id": 2, "kind": "circle", "center": [0.0, 10.0], "radius": 1.0},
    ])
    fan = np.radians(np.arange(0.0, 360.0, 0.5))
    graze = np.concatenate([np.logspace(-15, -4, 45), -np.logspace(-15, -4, 45)])
    grazing_hits = 0
    for a, b in _edges(scene):
        along = math.atan2(b[1] - a[1], b[0] - a[0])
        grazing = polar_points(1.0, np.concatenate([along + graze, along + math.pi + graze]))
        for lam in (-2.5, -1e-7, 0.0, 0.3, 0.5, 0.85, 1.0, 3.7):
            origin = a + lam * (b - a)
            ends = np.array([a, b])
            ends = ends[np.any(ends != origin, axis=1)]  # an origin at an end aims at the other
            dirs = np.concatenate([polar_points(1.0, fan), _aimed_at(origin, ends), grazing])
            t = _assert_cast_matches_reference(scene, origin[None], dirs[None])
            grazing_hits += int(np.sum(t[0, -len(grazing):] < 1e-6))
    assert grazing_hits > 0


def test_broad_phase_one_ray_validation_cast():
    """Scene validation casts one ray from each segment start, all in one block;
    each agrees with the reference, also on segments that end at or run through
    a corner."""
    scene = load_scene(DEFAULT_SCENE)
    rng = np.random.default_rng(47)
    starts = rng.uniform(scene.bounds_min, scene.bounds_max, (60, 2))
    starts = starts[~scene.contains_point_in_target(starts)]
    corners = [a for a, _ in _edges(scene)]
    origins, ends = [], []
    for k, p0 in enumerate(starts):
        corner = corners[k % len(corners)]
        for p1 in (corner, p0 + 1.5 * (corner - p0), rng.uniform(scene.bounds_min,
                                                                 scene.bounds_max)):
            origins.append(p0)
            ends.append(p1)
    origins, d = np.array(origins), np.array(ends) - origins
    lengths = np.linalg.norm(d, axis=1)
    t = _assert_cast_matches_reference(scene, origins, (d / lengths[:, None])[:, None])
    blocked = t[:, 0] < lengths
    assert blocked.any() and not blocked.all()


def _random_rect_scene(rng, n_side=7):
    """A rotated rectangle in each cell of an n_side x n_side lattice of 4 m
    cells, but for a clearing of 3 x 3 cells that a square loop runs through:
    40 rectangles at the default size."""
    targets = []
    for i in range(n_side):
        for j in range(n_side):
            if 2 <= i <= 4 and 2 <= j <= 4:
                continue
            centre = (4.0 * i + 2.0 + rng.uniform(-0.4, 0.4), 4.0 * j + 2.0 + rng.uniform(-0.4, 0.4))
            shape = Rectangle(centre, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)),
                              float(rng.uniform(-math.pi, math.pi)))
            targets.append(ExtendedTarget(id=len(targets) + 1, shape=shape,
                                          reference_points=reference_points(shape, 4)))
    loop = np.array([[10.5, 10.5], [17.5, 10.5], [17.5, 17.5], [10.5, 17.5], [10.5, 10.5]])
    return Scene(bounds_min=np.array([-2.0, -2.0]), bounds_max=np.array([30.0, 30.0]),
                 targets=targets, trajectory=Trajectory(loop, speed=1.0, step_interval=0.5))


def test_broad_phase_random_scene_culls_most_pairs():
    """Among 40 rectangles most (ray, edge) pairs are culled, and the cast keeps
    the reference's bytes."""
    rng = np.random.default_rng(53)
    scene = _random_rect_scene(rng)
    assert len(scene.targets) == 40
    poses = [trajectory_pose(scene.trajectory, t) for t in np.arange(0.0, 28.0, 1.3)]
    loose = rng.uniform(scene.bounds_min, scene.bounds_max, (40, 2))
    loose = loose[~scene.contains_point_in_target(loose)]
    origins = np.concatenate([[p.position for p in poses], loose])
    headings = np.concatenate([[p.heading for p in poses], rng.uniform(-math.pi, math.pi,
                                                                       len(loose))])
    fan = np.radians(np.arange(0.0, 360.0, 1.0))
    hits = 0
    for start in range(0, len(origins), RAY_BLOCK):
        block = slice(start, start + RAY_BLOCK)
        dirs = polar_points(1.0, headings[block, None] + fan)
        hits += int(np.isfinite(_assert_cast_matches_reference(scene, origins[block], dirs)).sum())
        ray, _ = _edge_candidates(scene, origins[block], dirs)
        assert len(ray) < 0.05 * dirs.shape[0] * dirs.shape[1] * len(_edges(scene))
    assert hits > 0


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
    scans = list(ground_truth_scans(scene, poses, bearings))
    assert len(scans) == n_poses
    for pose, scan in zip(poses, scans):
        dirs = np.stack([np.cos(pose.heading + bearings), np.sin(pose.heading + bearings)],
                        axis=-1)
        t = _cast_rays_two_blocks(scene, pose.position, dirs)
        hit = np.isfinite(t)
        assert scan.ranges.tobytes() == t[hit].tobytes()
        assert scan.bearings.tobytes() == bearings[hit].tobytes()
        assert scan.points.tobytes() == (pose.position + t[hit, None] * dirs[hit]).tobytes()
        assert ground_truth_scan(scene, pose, bearings).points.tobytes() == scan.points.tobytes()


def test_ground_truth_scans_reject_origin_inside_target_mid_block():
    scene = _simple_scene()  # rect centred (10, 0) of side 2
    poses = [Pose(0.0, float(-k), 0.0) for k in range(RAY_BLOCK + 3)]
    poses[RAY_BLOCK + 1] = Pose(10.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"^scan origin lies inside a target$"):
        list(ground_truth_scans(scene, poses, [0.0]))


def test_ground_truth_scans_cast_one_block_at_a_time(monkeypatch):
    """Iteration casts a block only when it reaches it: the first scan of three
    blocks casts one, and an origin inside a target in block 2 raises only there."""
    scene = _simple_scene()  # rect centred (10, 0) of side 2
    poses = [Pose(0.0, float(-k), 0.0) for k in range(2 * RAY_BLOCK + 3)]
    cast = []

    def counting(*args):
        cast.append(len(args[1]))
        return _cast_rays(*args)

    monkeypatch.setattr(scene_module, "_cast_rays", counting)
    scans = ground_truth_scans(scene, poses, [0.0, 1.0])
    assert cast == []
    next(scans)
    assert cast == [RAY_BLOCK]
    assert len(list(scans)) == 2 * RAY_BLOCK + 2
    assert cast == [RAY_BLOCK, RAY_BLOCK, 3]

    cast.clear()
    poses[RAY_BLOCK + 1] = Pose(10.0, 0.0, 0.0)
    scans = ground_truth_scans(scene, poses, [0.0])
    for _ in range(RAY_BLOCK):
        next(scans)
    assert cast == [RAY_BLOCK]
    with pytest.raises(ValueError, match=r"^scan origin lies inside a target$"):
        next(scans)
    assert cast == [RAY_BLOCK]


# the truth scans of 240 SLAM steps for the fan of every sweep condition of every
# packaged experiment; prints the hit count and the digest of every scan's arrays
_SWEEP_FAN_SCANS = """
import hashlib
from etslam.harness import apply_condition, load_experiment
from etslam.scene import ground_truth_scans, trajectory_pose
digest, hits = hashlib.sha256(), 0
for config in ("ci.yaml", "full_scale.yaml"):
    exp = load_experiment(config)
    traj = exp.scene.trajectory
    poses = [trajectory_pose(traj, k * traj.step_interval) for k in range(240)]
    for condition in exp.sweep_conditions:
        bearings = apply_condition(exp, condition).make_sensor().bearings
        for scan in ground_truth_scans(exp.scene, poses, bearings):
            hits += len(scan)
            for a in (scan.bearings, scan.ranges, scan.points):
                digest.update(a.tobytes())
print(hits, digest.hexdigest())
"""


def test_sweep_fan_scans_do_not_depend_on_blas_threads(stdout_under_blas_threads):
    """The truth scans of every packaged sweep condition's fan, circles' projections
    (a matmul) included, in processes whose OpenBLAS runs 1 and 2 threads."""
    out = stdout_under_blas_threads(_SWEEP_FAN_SCANS)
    hits, _ = out[1].split()
    assert int(hits) > 0
    assert out[1] == out[2]


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
        assert np.allclose(turned.ranges, straight.ranges)


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
