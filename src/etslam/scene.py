"""World model: extended-target geometry, AGV trajectory, ray casting.

Scenes are loaded from YAML documents (see ``configs/default_scene.yaml`` and
the schema notes in the README), validated once, and treated as immutable
afterwards.  All operations here are pure functions of their inputs, so a
single Scene can be shared across parallel Monte Carlo trials.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, Union

import numpy as np
import yaml

BOUNDARY_TOL = 1e-6


class SceneValidationError(ValueError):
    """A scene document violates the schema or a geometric invariant."""


class GeometryError(ValueError):
    """A geometric precondition was violated (e.g. ray origin inside a target)."""


def wrap_angle(a: float) -> float:
    """Normalize an angle to [-pi, pi)."""
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def rotation(theta: float) -> np.ndarray:
    """The 2x2 matrix that rotates a column vector counterclockwise by ``theta``."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def polar_points(ranges: np.ndarray, bearings: np.ndarray) -> np.ndarray:
    """Polar (range, bearing) pairs as Cartesian points, shape (n, 2)."""
    return np.stack([ranges * np.cos(bearings), ranges * np.sin(bearings)], axis=-1)


@dataclass(frozen=True)
class Pose:
    """2D pose; heading is normalized to [-pi, pi) on construction."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.heading)):
            raise SceneValidationError("pose components must be finite")
        object.__setattr__(self, "heading", wrap_angle(self.heading))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class Rectangle:
    center: tuple[float, float]
    width: float
    height: float
    rotation: float = 0.0

    def __post_init__(self):
        if not self.width > 0:
            raise SceneValidationError("rectangle width must be > 0")
        if not self.height > 0:
            raise SceneValidationError("rectangle height must be > 0")

    def corners(self) -> np.ndarray:
        hw, hh = self.width / 2.0, self.height / 2.0
        local = np.array([[hw, hh], [-hw, hh], [-hw, -hh], [hw, -hh]])
        return local @ rotation(self.rotation).T + np.asarray(self.center)

    def segments(self) -> np.ndarray:
        """Boundary as an array of shape (4, 2, 2): (segment, endpoint, xy)."""
        pts = self.corners()
        return np.stack([np.stack([pts[i], pts[(i + 1) % 4]]) for i in range(4)])

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distance to the boundary; negative inside."""
        return _rect_signed_distance(
            np.atleast_2d(points), np.asarray(self.center), math.cos(self.rotation),
            math.sin(self.rotation), np.array([self.width / 2.0, self.height / 2.0]))


def _rect_signed_distance(points, center, cos, sin, half) -> np.ndarray:
    """Rectangle signed distance, broadcast over points and rectangles alike.

    ``center`` and ``half`` (half width, half height) end in an xy axis; the
    points are rotated into the rectangle frame elementwise, so one rectangle
    gives the same bits alone as in a stack.
    """
    d = points - center
    qx = np.abs(d[..., 0] * cos + d[..., 1] * sin) - half[..., 0]
    qy = np.abs(d[..., 1] * cos - d[..., 0] * sin) - half[..., 1]
    outside = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
    inside = np.minimum(np.maximum(qx, qy), 0.0)
    return outside + inside


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise SceneValidationError("circle radius must be > 0")

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        d = np.linalg.norm(np.atleast_2d(points) - np.asarray(self.center), axis=-1)
        return d - self.radius


Shape = Union[Rectangle, Circle]


def reference_points(shape: Shape, k: int) -> np.ndarray:
    """Pick ``k`` representative boundary points of a shape.

    Rectangles use side midpoints in the order right, left, top, bottom
    (local frame, before rotation), cycling when k > 4.  Circles use k
    equally spaced boundary points starting at angle 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(shape, Circle):
        ang = 2.0 * math.pi * np.arange(k) / k
        return np.asarray(shape.center) + polar_points(shape.radius, ang)
    hw, hh = shape.width / 2.0, shape.height / 2.0
    mids = np.array([[hw, 0.0], [-hw, 0.0], [0.0, hh], [0.0, -hh]])
    local = mids[np.arange(k) % 4]
    return local @ rotation(shape.rotation).T + np.asarray(shape.center)


@dataclass(frozen=True)
class ExtendedTarget:
    id: int
    shape: Shape
    reference_points: np.ndarray  # (k, 2), all on the shape boundary

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.reference_points, dtype=float))
        if pts.size == 0:
            raise SceneValidationError(f"target {self.id}: reference_points empty")
        sd = self.shape.signed_distance(pts)
        if np.any(np.abs(sd) > BOUNDARY_TOL):
            raise SceneValidationError(
                f"target {self.id}: reference point off boundary (|sd|={np.abs(sd).max():.2e})"
            )
        object.__setattr__(self, "reference_points", pts)


@dataclass(frozen=True)
class Trajectory:
    waypoints: np.ndarray  # (n, 2)
    speed: float
    step_interval: float
    # derived from the waypoints once, for trajectory_pose
    segment_lengths: np.ndarray = field(init=False, repr=False, compare=False)
    cumulative_lengths: np.ndarray = field(init=False, repr=False, compare=False)  # (n,), from 0
    closed: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        wp = np.atleast_2d(np.asarray(self.waypoints, dtype=float))
        if wp.shape[0] < 2:
            raise SceneValidationError("trajectory needs >= 2 waypoints")
        for name in ("speed", "step_interval"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise SceneValidationError(f"trajectory {name} must be finite and > 0")
        if not np.all(np.isfinite(wp)):
            raise SceneValidationError("trajectory waypoints must be finite")
        lengths = np.linalg.norm(np.diff(wp, axis=0), axis=1)
        # a repeated waypoint gives a segment with no heading, and trajectory_pose
        # divides by the length of the segment it ends on
        zero = np.flatnonzero(lengths == 0.0)
        if zero.size:
            raise SceneValidationError(f"trajectory segment {zero[0]} has zero length")
        for name, value in (("waypoints", wp), ("segment_lengths", lengths),
                            ("cumulative_lengths", np.concatenate([[0.0], np.cumsum(lengths)])),
                            ("closed", bool(np.allclose(wp[0], wp[-1])))):
            object.__setattr__(self, name, value)

    @property
    def total_length(self) -> float:
        return float(self.segment_lengths.sum())


def trajectory_pose(trajectory: Trajectory, t: float) -> Pose:
    """Constant-speed pose along the waypoint chain at time ``t``.

    Closed loops wrap; open paths clamp to the final pose.  Heading is the
    direction of travel of the active segment.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    lengths, cum = trajectory.segment_lengths, trajectory.cumulative_lengths
    total = cum[-1]
    s = trajectory.speed * t
    if trajectory.closed:
        s = s % total
    else:
        s = min(s, total)
    # active segment: last i with cum[i] <= s (clamped to a real segment)
    i = int(np.searchsorted(cum, s, side="right") - 1)
    i = min(i, len(lengths) - 1)
    frac = (s - cum[i]) / lengths[i]
    p = trajectory.waypoints[i] + frac * (trajectory.waypoints[i + 1] - trajectory.waypoints[i])
    d = trajectory.waypoints[i + 1] - trajectory.waypoints[i]
    return Pose(float(p[0]), float(p[1]), math.atan2(d[1], d[0]))


@dataclass(frozen=True)
class GroundTruthScan:
    """Ray-cast hits of one fan of bearings; ``bearings`` are relative to the pose heading."""

    bearings: np.ndarray    # (n,)
    ranges: np.ndarray      # (n,)
    points: np.ndarray      # (n, 2) world frame
    target_ids: np.ndarray  # (n,)

    def __len__(self) -> int:
        return len(self.ranges)


@dataclass
class Scene:
    bounds_min: np.ndarray
    bounds_max: np.ndarray
    targets: list[ExtendedTarget]
    trajectory: Trajectory
    # flattened primitive caches for vectorized ray casting and containment
    _rect_c: np.ndarray = field(init=False, repr=False)
    _rect_cos: np.ndarray = field(init=False, repr=False)
    _rect_sin: np.ndarray = field(init=False, repr=False)
    _rect_half: np.ndarray = field(init=False, repr=False)
    _seg_a: np.ndarray = field(init=False, repr=False)
    _seg_b: np.ndarray = field(init=False, repr=False)
    _seg_tid: np.ndarray = field(init=False, repr=False)
    _circ_c: np.ndarray = field(init=False, repr=False)
    _circ_r: np.ndarray = field(init=False, repr=False)
    _circ_tid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.bounds_min = np.asarray(self.bounds_min, dtype=float)
        self.bounds_max = np.asarray(self.bounds_max, dtype=float)
        rects = [t.shape for t in self.targets if isinstance(t.shape, Rectangle)]
        self._rect_c = np.array([r.center for r in rects], dtype=float).reshape(-1, 2)
        self._rect_cos = np.array([math.cos(r.rotation) for r in rects])
        self._rect_sin = np.array([math.sin(r.rotation) for r in rects])
        self._rect_half = np.array([[r.width / 2.0, r.height / 2.0] for r in rects]).reshape(-1, 2)
        seg_a, seg_b, seg_tid = [], [], []
        circ_c, circ_r, circ_tid = [], [], []
        for tgt in self.targets:
            if isinstance(tgt.shape, Rectangle):
                for seg in tgt.shape.segments():
                    seg_a.append(seg[0])
                    seg_b.append(seg[1])
                    seg_tid.append(tgt.id)
            else:
                circ_c.append(np.asarray(tgt.shape.center, dtype=float))
                circ_r.append(tgt.shape.radius)
                circ_tid.append(tgt.id)
        self._seg_a = np.array(seg_a).reshape(-1, 2)
        self._seg_b = np.array(seg_b).reshape(-1, 2)
        self._seg_tid = np.array(seg_tid, dtype=int)
        self._circ_c = np.array(circ_c).reshape(-1, 2)
        self._circ_r = np.array(circ_r, dtype=float)
        self._circ_tid = np.array(circ_tid, dtype=int)
        self._validate()

    def _validate(self):
        if not np.all(self.bounds_max > self.bounds_min):
            raise SceneValidationError("bounds: max must exceed min componentwise")
        for tgt in self.targets:
            if isinstance(tgt.shape, Rectangle):
                extreme = tgt.shape.corners()
            else:
                c = np.asarray(tgt.shape.center)
                r = tgt.shape.radius
                extreme = np.array([c - r, c + r])
            if np.any(extreme < self.bounds_min) or np.any(extreme > self.bounds_max):
                raise SceneValidationError(f"target {tgt.id} extends outside scene bounds")
        wp = self.trajectory.waypoints
        for tgt in self.targets:
            if np.any(tgt.shape.signed_distance(wp) <= 0.0):
                raise SceneValidationError(
                    f"trajectory waypoint inside target {tgt.id}"
                )
        for i in range(len(wp) - 1):
            if self._segment_blocked(wp[i], wp[i + 1]):
                raise SceneValidationError(
                    f"trajectory segment {i} intersects a target"
                )

    def _segment_blocked(self, p0: np.ndarray, p1: np.ndarray) -> bool:
        d = p1 - p0
        length = float(np.linalg.norm(d))
        u = d / length
        t, _ = _cast_rays(self, p0[None], u[None, None])
        return bool(t[0, 0] < length)

    def contains_point_in_target(self, point: np.ndarray) -> bool:
        """Whether ``point`` lies strictly inside a target (on a boundary is outside)."""
        return bool(self._inside_target(point))

    def _inside_target(self, points: np.ndarray) -> np.ndarray:
        """``contains_point_in_target`` of each point of ``points``, shape (..., 2)."""
        points = np.asarray(points, dtype=float)[..., None, :]
        rect_sd = _rect_signed_distance(points, self._rect_c, self._rect_cos, self._rect_sin,
                                        self._rect_half)
        circ_sd = np.linalg.norm(points - self._circ_c, axis=-1) - self._circ_r
        return np.any(rect_sd < 0.0, axis=-1) | np.any(circ_sd < 0.0, axis=-1)


def _cast_rays(scene: Scene, origins: np.ndarray, dirs: np.ndarray, eps: float = 1e-9):
    """Distance to the nearest boundary per unit direction, inf when no hit.

    ``origins`` has shape (P, 2) and ``dirs`` (P, B, 2), a fan of B directions
    per origin.  Returns (ranges, target_ids), each (P, B), target id -1 for a
    miss; used by ``ground_truth_scans`` and by the trajectory check in scene
    validation.  One argmin over [miss, segments, circles] picks the hit, so
    on a tie the first column wins: a segment over a circle.  Every ray gets
    the bits it gets in a block of one origin.
    """
    a, b = scene._seg_a, scene._seg_b
    d = b - a
    ao = a - origins[:, None]  # (P, S, 2)
    dx, dy = dirs[..., 0:1], dirs[..., 1:2]  # (P, B, 1)
    denom = dx * d[:, 1] - dy * d[:, 0]  # (P, B, S)
    num_t = ao[..., 0] * d[:, 1] - ao[..., 1] * d[:, 0]  # (P, S)
    num_s = ao[:, None, :, 0] * dy - ao[:, None, :, 1] * dx  # (P, B, S)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num_t[:, None] / denom
        s = num_s / denom
    valid = (np.abs(denom) > 1e-15) & (t > eps) & (s >= 0.0) & (s <= 1.0)
    seg_t = np.where(valid, t, np.inf)
    oc = scene._circ_c - origins[:, None]  # (P, C, 2)
    # one matmul per origin, as in a block of one: BLAS may fuse the products
    proj = dirs @ oc.swapaxes(1, 2)  # (P, B, C)
    d2 = np.sum(oc**2, axis=-1)[:, None] - proj**2
    disc = scene._circ_r ** 2 - d2
    sq = np.sqrt(np.maximum(disc, 0.0))
    t1 = proj - sq
    t2 = proj + sq
    circ_t = np.where(t1 > eps, t1, np.where(t2 > eps, t2, np.inf))
    circ_t = np.where(disc >= 0.0, circ_t, np.inf)
    t = np.concatenate([np.full(dirs.shape[:2] + (1,), np.inf), seg_t, circ_t], axis=-1)
    tid = np.concatenate([[-1], scene._seg_tid, scene._circ_tid])
    idx = np.argmin(t, axis=-1)
    return np.take_along_axis(t, idx[..., None], axis=-1)[..., 0], tid[idx]


# poses per ray-cast block: bounds the (poses, bearings, primitives) temporaries
RAY_BLOCK = 16


def ground_truth_scans(
    scene: Scene, poses: Sequence[Pose], bearings: Sequence[float]
) -> list[GroundTruthScan]:
    """``ground_truth_scan`` of each pose, cast ``RAY_BLOCK`` poses at a time.

    Each scan has the bytes that the pose's own ``ground_truth_scan`` gives.
    """
    bearings = np.asarray(bearings, dtype=float)
    if bearings.size == 0:
        raise ValueError("bearings must be non-empty")
    scans = []
    for start in range(0, len(poses), RAY_BLOCK):
        block = poses[start:start + RAY_BLOCK]
        origins = np.array([[p.x, p.y] for p in block])
        if scene._inside_target(origins).any():
            raise GeometryError("scan origin lies inside a target")
        world = np.array([p.heading for p in block])[:, None] + bearings
        dirs = polar_points(1.0, world)  # (P, B, 2)
        t, tid = _cast_rays(scene, origins, dirs)
        scans += [GroundTruthScan(bearings=bearings[h], ranges=tp[h],
                                  points=o + tp[h, None] * dp[h], target_ids=ip[h])
                  for o, dp, tp, ip, h in zip(origins, dirs, t, tid, np.isfinite(t))]
    return scans


def ground_truth_scan(
    scene: Scene, pose: Pose, bearings: Sequence[float]
) -> GroundTruthScan:
    """Raycast a fan of bearings (relative to the pose heading); misses dropped."""
    return ground_truth_scans(scene, [pose], bearings)[0]


# ---------------------------------------------------------------------------
# config document parsing: scene, experiment and waveform documents alike


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SceneValidationError(f"{where}: missing field '{key}'")
    return mapping[key]


_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def convert(value, kind):
    """``value`` as ``kind``, a type or a conversion function.

    Types match exactly, except that a float takes any number (PyYAML reads
    exponent literals such as ``28.0e9`` as strings) and an int an integral
    float; a bool field takes only true or false.
    """
    if not isinstance(kind, type):
        return kind(value)
    if kind is float and (type(value) is int or type(value) is str and _NUMBER.fullmatch(value)):
        return float(value)
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def as_radians(value) -> float:
    """An angle given in degrees, stored in radians."""
    return math.radians(convert(value, float))


def as_points(value, what: str = "points") -> np.ndarray:
    """``value`` as a float array of shape (n, 2); any other shape raises, naming it."""
    pts = np.asarray(value, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"{what} must have shape (n, 2), got {pts.shape}")
    return pts


def as_pair(value) -> tuple:
    return tuple(as_points([value])[0].tolist())


def parse_section(doc, section: str, *tables: dict, required=()) -> list[dict]:
    """Keyword arguments for one dataclass per table, from the keys present in ``doc``.

    Each table maps a document key to ``(field, kind)`` for ``convert``.
    Only present keys are passed on, so defaults live on the dataclasses
    alone.  An unknown key, a value that does not convert and a missing
    ``required`` key raise ValueError naming ``section`` and the key.
    """
    if type(doc) is not dict:
        raise ValueError(f"{section}: expected a mapping, got {doc!r}")
    for key in required:
        _require(doc, key, section)
    out: list[dict] = [{} for _ in tables]
    for key, value in doc.items():
        i = next((i for i, table in enumerate(tables) if key in table), None)
        if i is None:
            raise ValueError(f"{section}: unknown key '{key}'")
        name, kind = tables[i][key]
        try:
            out[i][name] = convert(value, kind)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{section}: key '{key}': {exc}") from None
    return out


_SCENE_KEYS = {"bounds": ("bounds", dict), "targets": ("targets", list),
               "trajectory": ("trajectory", dict)}
_BOUNDS_KEYS = {"min": ("bounds_min", as_pair), "max": ("bounds_max", as_pair)}
_TRAJECTORY_KEYS = {"waypoints": ("waypoints", as_points), "speed": ("speed", float),
                    "step_interval": ("step_interval", float)}
_TARGET_KEYS = {"id": ("id", int), "kind": ("kind", str),
                "ref_points": ("reference_points", as_points), "ref_count": ("ref_count", int)}
# kind -> (shape class, its keys, the keys it requires)
_SHAPES = {
    "rect": (Rectangle, {"center": ("center", as_pair), "width": ("width", float),
                         "height": ("height", float), "rotation": ("rotation", float)},
             ("center", "width", "height")),
    "circle": (Circle, {"center": ("center", as_pair), "radius": ("radius", float)},
               ("center", "radius")),
}


def _parse_target(doc: dict, default_ref_count: int) -> ExtendedTarget:
    if type(doc) is not dict:
        raise SceneValidationError(f"scene: key 'targets': expected a mapping, got {doc!r}")
    where = f"target {_require(doc, 'id', 'target')}"
    kind = _require(doc, "kind", where)
    if kind not in _SHAPES:
        raise SceneValidationError(f"{where}: unknown kind '{kind}' (expected rect|circle)")
    shape_cls, shape_keys, required = _SHAPES[kind]
    target, shape_kw = parse_section(doc, where, _TARGET_KEYS, shape_keys, required=required)
    shape = shape_cls(**shape_kw)
    refs = target.get("reference_points")
    if refs is None:
        refs = reference_points(shape, target.get("ref_count", default_ref_count))
    return ExtendedTarget(id=target["id"], shape=shape, reference_points=refs)


def load_scene(source: Union[str, Path, dict], default_ref_count: int = 4) -> Scene:
    """Parse and validate a scene document: a mapping, or the path of a YAML file.

    A path that names no file raises ``FileNotFoundError``.
    """
    doc = source if isinstance(source, dict) else yaml.safe_load(Path(source).read_text())
    if not isinstance(doc, dict):
        raise SceneValidationError("scene document must be a mapping")
    [sections] = parse_section(doc, "scene", _SCENE_KEYS, required=_SCENE_KEYS)
    targets = [_parse_target(t, default_ref_count) for t in sections["targets"]]
    ids = [t.id for t in targets]
    if len(set(ids)) != len(ids):
        raise SceneValidationError("duplicate target ids")
    [trajectory] = parse_section(sections["trajectory"], "trajectory", _TRAJECTORY_KEYS,
                                 required=_TRAJECTORY_KEYS)
    [bounds] = parse_section(sections["bounds"], "bounds", _BOUNDS_KEYS, required=_BOUNDS_KEYS)
    return Scene(targets=targets, trajectory=Trajectory(**trajectory), **bounds)
