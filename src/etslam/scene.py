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
from typing import Iterator, Sequence, Union

import numpy as np
import yaml

BOUNDARY_TOL = 1e-6


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
            raise ValueError("pose components must be finite")
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
        require_positive("rectangle", width=self.width, height=self.height)
        if not np.all(np.isfinite([*self.center, self.rotation])):
            raise ValueError("rectangle center and rotation must be finite")

    def corners(self) -> np.ndarray:
        hw, hh = self.width / 2.0, self.height / 2.0
        local = np.array([[hw, hh], [-hw, hh], [-hw, -hh], [hw, -hh]])
        return local @ rotation(self.rotation).T + np.asarray(self.center)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distance to the boundary; negative inside."""
        d = np.atleast_2d(points) - np.asarray(self.center)
        cos, sin = math.cos(self.rotation), math.sin(self.rotation)
        half = np.array([self.width / 2.0, self.height / 2.0])
        qx = np.abs(d[..., 0] * cos + d[..., 1] * sin) - half[0]
        qy = np.abs(d[..., 1] * cos - d[..., 0] * sin) - half[1]
        outside = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
        inside = np.minimum(np.maximum(qx, qy), 0.0)
        return outside + inside


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        require_positive("circle", radius=self.radius)
        if not np.all(np.isfinite(self.center)):
            raise ValueError("circle center must be finite")

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
            raise ValueError(f"target {self.id}: reference_points empty")
        sd = self.shape.signed_distance(pts)
        if not np.all(np.abs(sd) <= BOUNDARY_TOL):  # a NaN point is off the boundary too
            raise ValueError(
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
            raise ValueError("trajectory needs >= 2 waypoints")
        require_positive("trajectory", speed=self.speed, step_interval=self.step_interval)
        if not np.all(np.isfinite(wp)):
            raise ValueError("trajectory waypoints must be finite")
        lengths = np.linalg.norm(np.diff(wp, axis=0), axis=1)
        # a repeated waypoint gives a segment with no heading, and trajectory_pose
        # divides by the length of the segment it ends on
        zero = np.flatnonzero(lengths == 0.0)
        if zero.size:
            raise ValueError(f"trajectory segment {zero[0]} has zero length")
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

    bearings: np.ndarray  # (n,)
    ranges: np.ndarray    # (n,)
    points: np.ndarray    # (n, 2) world frame

    def __len__(self) -> int:
        return len(self.ranges)


# a target's bounding circle is padded by BOUND_PAD * (r + |centre|_inf), far beyond
# what rounding moves a point's distance or its signed distance by
BOUND_PAD = 1e-9


@dataclass
class Scene:
    bounds_min: np.ndarray
    bounds_max: np.ndarray
    targets: list[ExtendedTarget]
    trajectory: Trajectory
    # flattened primitive caches for vectorized ray casting
    _seg_ends: np.ndarray = field(init=False, repr=False)  # (2S, 2): every a, then every b
    _seg_d: np.ndarray = field(init=False, repr=False)     # b - a
    _seg_d2: np.ndarray = field(init=False, repr=False)    # |b - a|^2
    _circ_c: np.ndarray = field(init=False, repr=False)
    _circ_r: np.ndarray = field(init=False, repr=False)
    # each target's centre and padded bounding radius, squared, in target order
    _bound_c: np.ndarray = field(init=False, repr=False)   # (T, 2)
    _bound_r2: np.ndarray = field(init=False, repr=False)  # (T,)

    def __post_init__(self):
        self.bounds_min = np.asarray(self.bounds_min, dtype=float)
        self.bounds_max = np.asarray(self.bounds_max, dtype=float)
        rects = [t.shape for t in self.targets if isinstance(t.shape, Rectangle)]
        # each rectangle's four edges, corner k to corner k + 1
        corners = np.array([r.corners() for r in rects]).reshape(-1, 4, 2)
        seg_a, seg_b = np.stack([corners, np.roll(corners, -1, axis=1)]).reshape(2, -1, 2)
        self._seg_ends = np.concatenate([seg_a, seg_b])
        self._seg_d = seg_b - seg_a
        self._seg_d2 = np.sum(self._seg_d**2, axis=1)
        circles = [t.shape for t in self.targets if isinstance(t.shape, Circle)]
        self._circ_c = np.array([c.center for c in circles], dtype=float).reshape(-1, 2)
        self._circ_r = np.array([c.radius for c in circles], dtype=float)
        shapes = [t.shape for t in self.targets]
        self._bound_c = np.array([sh.center for sh in shapes], dtype=float).reshape(-1, 2)
        radius = np.array([sh.radius if isinstance(sh, Circle)
                           else math.hypot(sh.width / 2.0, sh.height / 2.0) for sh in shapes])
        pad = BOUND_PAD * (radius + np.abs(self._bound_c).max(axis=1, initial=0.0))
        self._bound_r2 = (radius + pad) ** 2
        self._validate()

    def _validate(self):
        if not np.all(np.isfinite([self.bounds_min, self.bounds_max])):
            raise ValueError("bounds: min and max must be finite")
        if not np.all(self.bounds_max > self.bounds_min):
            raise ValueError("bounds: max must exceed min componentwise")
        for tgt in self.targets:
            if isinstance(tgt.shape, Rectangle):
                extreme = tgt.shape.corners()
            else:
                c = np.asarray(tgt.shape.center)
                r = tgt.shape.radius
                extreme = np.array([c - r, c + r])
            if np.any(extreme < self.bounds_min) or np.any(extreme > self.bounds_max):
                raise ValueError(f"target {tgt.id} extends outside scene bounds")
        wp = self.trajectory.waypoints
        # the bounds are a box, so a segment between two waypoints inside it stays inside
        outside = np.flatnonzero(np.any((wp < self.bounds_min) | (wp > self.bounds_max), axis=1))
        if outside.size:
            raise ValueError(f"trajectory waypoint {outside[0]} lies outside scene bounds")
        for tgt in self.targets:
            if np.any(tgt.shape.signed_distance(wp) <= 0.0):
                raise ValueError(f"trajectory waypoint inside target {tgt.id}")
        # one ray per segment, from its start along it
        lengths = self.trajectory.segment_lengths
        t = _cast_rays(self, wp[:-1], (np.diff(wp, axis=0) / lengths[:, None])[:, None])
        blocked = np.flatnonzero(t[:, 0] < lengths)
        if blocked.size:
            raise ValueError(f"trajectory segment {blocked[0]} intersects a target")

    def contains_point_in_target(self, points: np.ndarray) -> np.ndarray:
        """Whether each point of ``points``, shape (..., 2), lies strictly inside a
        target (on a boundary is outside); shape (...)."""
        points = np.asarray(points, dtype=float)
        flat = points.reshape(-1, 2)
        inside = np.zeros(len(flat), dtype=bool)
        # a point at or past a target's padded bounding circle is outside it, so
        # each target's own test runs only on the points inside that circle
        near = np.sum((flat[:, None, :] - self._bound_c) ** 2, axis=-1) < self._bound_r2
        for k in np.flatnonzero(near.any(axis=0)):
            rows = np.flatnonzero(near[:, k])
            inside[rows] |= self.targets[k].shape.signed_distance(flat[rows]) < 0.0
        return inside.reshape(points.shape[:-1])


def ragged_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) for every i and every j in [lo[i], hi[i]), grouped by i, j ascending."""
    size = hi - lo
    i = np.repeat(np.arange(len(lo)), size)
    j = np.arange(len(i)) + np.repeat(lo - (np.cumsum(size) - size), size)
    return i, j


# a hit nearer than this to the origin is the origin's own boundary, not a hit
RAY_MIN_T = 1e-9
# the broad phase pads an edge's arc by ARC_PAD * |d| / h rad, h the origin's
# distance from the edge's line: of order 1e-9 rad unless the origin is near
# that line, every ray when it is on it, and always well beyond what rounding
# moves t and s by
ARC_PAD = 1e-9
# the half-width of an arc that takes every ray: past pi, so a ray may come
# twice (a harmless duplicate) but never slips between the arc's ends
_HALF_ALL = math.pi + 1e-6
# each origin's sorted ray angles, shifted by -2pi, 0 and +2pi: an arc of
# half-width up to _HALF_ALL about a centre in [-1.5pi, 1.5pi] is one run of them
_COPIES = 2.0 * math.pi * np.array([[-1.0], [0.0], [1.0]])
# origin p's copies sit at p * _ROW_SPAN, so one sorted search serves a block;
# the shift rounds by ulp(6pi P) for P origins: ~6e-14 rad in a block of
# RAY_BLOCK origins, ~4e-12 rad for a trajectory check of a thousand segments,
# far inside ARC_PAD
_ROW_SPAN = 6.0 * math.pi


def _edge_candidates(scene: Scene, origins: np.ndarray, dirs: np.ndarray):
    """The (ray, t) pairs of the rays inside each edge's arc, flat.

    For each (origin, edge), the rays whose angle lies in the padded arc the
    edge subtends are found by one sorted search over the rays' angles; the
    ray-edge test runs on those pairs alone, by the expressions of the dense
    cast, so each t has its bits.  A pair that fails the test gets t = inf.
    Rays are numbered ``origin * B + ray``.
    """
    n_origins, n_rays = dirs.shape[:2]
    d = scene._seg_d
    n_seg = len(d)
    rows = np.arange(n_origins)[:, None]
    rel = scene._seg_ends - origins[:, None]  # (P, 2S, 2): every a, then every b
    ang = np.arctan2(rel[..., 1], rel[..., 0])
    ao = rel[:, :n_seg]
    num_t = (ao[..., 0] * d[:, 1] - ao[..., 1] * d[:, 0]).ravel()  # (P S,)
    # half of the short signed arc from a to b, and its centre
    hw = 0.5 * ((ang[:, n_seg:] - ang[:, :n_seg] + math.pi) % (2.0 * math.pi) - math.pi)
    base = _ROW_SPAN * rows
    mid = ang[:, :n_seg] + hw + base
    theta = np.arctan2(dirs[..., 1], dirs[..., 0])
    ray_of = theta.argsort(axis=1, kind="stable") + n_rays * rows  # (P, B), by angle
    table = ((theta.ravel()[ray_of] + base)[:, None] + _COPIES).ravel()  # (P * 3 * B,)
    # a division by zero gives inf: the pad of an origin on the edge's line, or
    # the t and s of a ray parallel to its edge, which the test drops
    with np.errstate(divide="ignore", invalid="ignore"):
        # |num_t| = |d| h, so the pad is ARC_PAD |d|^2 / |num_t|
        half = np.minimum(np.abs(hw) + ARC_PAD * scene._seg_d2 / np.abs(num_t).reshape(hw.shape),
                          _HALF_ALL)
        start, stop = table.searchsorted(mid[..., None] + half[..., None] * [-1.0, 1.0]
                                         ).reshape(-1, 2).T
        # one candidate per ((origin, edge) pair, table slot in the pair's run)
        pair, slot = ragged_ranges(start, stop)
        ray = ray_of.repeat(3, axis=0).ravel()[slot]
        seg = pair % n_seg
        dk = dirs.reshape(-1, 2).take(ray, axis=0)
        dx, dy = dk[:, 0], dk[:, 1]
        dd = d.take(seg, axis=0)
        aok = ao.reshape(-1, 2).take(pair, axis=0)
        denom = dx * dd[:, 1] - dy * dd[:, 0]
        num_s = aok[:, 0] * dy - aok[:, 1] * dx
        t = num_t[pair] / denom
        s = num_s / denom
    valid = (np.abs(denom) > 1e-15) & (t > RAY_MIN_T) & (s >= 0.0) & (s <= 1.0)
    return ray, np.where(valid, t, np.inf)


def _circle_candidates(scene: Scene, origins: np.ndarray, dirs: np.ndarray):
    """``_edge_candidates`` for the circles, tested densely: a (ray, t) pair per
    (ray, circle) pair whose line meets the circle."""
    oc = scene._circ_c - origins[:, None]  # (P, C, 2)
    # one matmul per origin, as in a block of one: BLAS may fuse the products
    proj = dirs @ oc.swapaxes(1, 2)  # (P, B, C)
    disc = scene._circ_r ** 2 - ((oc**2).sum(axis=-1)[:, None] - proj**2)
    near = np.flatnonzero(disc >= 0.0)
    proj = proj.ravel()[near]
    sq = np.sqrt(np.maximum(disc.ravel()[near], 0.0))
    t1 = proj - sq
    t2 = proj + sq
    t = np.where(t1 > RAY_MIN_T, t1, np.where(t2 > RAY_MIN_T, t2, np.inf))
    return near // len(scene._circ_c), t


def _cast_rays(scene: Scene, origins: np.ndarray, dirs: np.ndarray):
    """Distance to the nearest boundary per unit direction, inf when no hit.

    ``origins`` has shape (P, 2) and ``dirs`` (P, B, 2), a fan of B directions
    per origin.  Returns the (P, B) ranges; used by ``ground_truth_scans`` and
    by the trajectory check in scene validation.  Edges go through the angular
    broad phase (``_edge_candidates``), circles are tested densely; every ray
    gets the bits it gets in a block of one origin, and those of a dense test
    of every (ray, primitive) pair.
    """
    n_origins, n_rays = dirs.shape[:2]
    ray, t = (np.concatenate(parts) for parts in zip(
        _edge_candidates(scene, origins, dirs), _circle_candidates(scene, origins, dirs)))
    best = np.full(n_origins * n_rays, np.inf)
    np.minimum.at(best, ray, t)
    return best.reshape(n_origins, n_rays)


# poses per ray-cast block: bounds the (poses, bearings, primitives) temporaries
RAY_BLOCK = 16


def ground_truth_scans(
    scene: Scene, poses: Sequence[Pose], bearings: Sequence[float]
) -> Iterator[GroundTruthScan]:
    """``ground_truth_scan`` of each pose, in order, cast ``RAY_BLOCK`` poses at a time.

    Lazy: a block is cast, and its origins checked, when iteration reaches
    it, so at most one block of scans is held.  Each scan has the bytes that
    the pose's own ``ground_truth_scan`` gives.
    """
    bearings = np.asarray(bearings, dtype=float)
    if bearings.size == 0:
        raise ValueError("bearings must be non-empty")
    for start in range(0, len(poses), RAY_BLOCK):
        block = poses[start:start + RAY_BLOCK]
        origins = np.array([[p.x, p.y] for p in block])
        if scene.contains_point_in_target(origins).any():
            raise ValueError("scan origin lies inside a target")
        world = np.array([p.heading for p in block])[:, None] + bearings
        dirs = polar_points(1.0, world)  # (P, B, 2)
        t = _cast_rays(scene, origins, dirs)
        # the block's hits, gathered once in (pose, bearing) order; each scan is a slice
        hit = np.isfinite(t)
        pose_of, ray = np.nonzero(hit)
        ranges = t[hit]
        points = origins[pose_of] + ranges[:, None] * dirs[hit]
        hit_bearings = bearings[ray]
        counts = np.count_nonzero(hit, axis=1)
        ends = np.cumsum(counts)
        for s, e in zip(ends - counts, ends):
            yield GroundTruthScan(bearings=hit_bearings[s:e], ranges=ranges[s:e],
                                  points=points[s:e])


def ground_truth_scan(
    scene: Scene, pose: Pose, bearings: Sequence[float]
) -> GroundTruthScan:
    """Raycast a fan of bearings (relative to the pose heading); misses dropped."""
    return next(ground_truth_scans(scene, [pose], bearings))


# ---------------------------------------------------------------------------
# config document parsing: scene, experiment and waveform documents alike


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ValueError(f"{where}: missing field '{key}'")
    return mapping[key]


_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def convert(value, kind):
    """``value`` as ``kind``, a type or a conversion function.

    Types match exactly, except that a float takes any number (PyYAML reads
    exponent literals such as ``28.0e9`` as strings) and an int an integral
    float; an int must lie in int64's range, the widest numpy takes; a
    bool field takes only true or false.
    """
    if not isinstance(kind, type):
        return kind(value)
    if kind is float and (type(value) is int or type(value) is str and _NUMBER.fullmatch(value)):
        return float(value)
    if type(value) is not kind and not (kind is int and type(value) is float
                                        and value.is_integer()):
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    if kind is int:
        if not -2**63 <= value < 2**63:
            raise ValueError(f"{value!r} is outside int64 [-2**63, 2**63)")
        return int(value)
    return value


def require_positive(what: str = "", *, or_zero: bool = False, **values) -> None:
    """Raise ``ValueError("<what> <name> must be finite and > 0")`` for the first of ``values``
    outside that range (``>= 0`` with ``or_zero``); NaN and inf are outside both.  With
    no ``what``, the name alone."""
    for name, value in values.items():
        if not ((0.0 <= value if or_zero else 0.0 < value) and value < math.inf):
            bound = ">= 0" if or_zero else "> 0"
            raise ValueError(f"{what} {name} must be finite and {bound}".lstrip())


def as_radians(value) -> float:
    """An angle given in degrees, stored in radians."""
    return math.radians(convert(value, float))


def _shaped(value, what: str) -> np.ndarray:
    pts = np.asarray(value, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"{what} must have shape (n, 2), got {pts.shape}")
    return pts


def as_points(value, what: str = "points") -> np.ndarray:
    """``value`` as a finite float array of shape (n, 2); any other shape, or a NaN or
    inf entry, raises, naming it."""
    pts = _shaped(value, what)
    if not np.isfinite(pts).all():
        raise ValueError(f"{what} must be finite")
    return pts


def as_coords(value) -> np.ndarray:
    """Config coordinates as an (n, 2) array, each through ``convert(x, float)``; the
    dataclass that takes them checks that they are finite, naming its field."""
    _shaped(value, "points")
    return np.array([[convert(x, float) for x in row] for row in value]).reshape(-1, 2)


def as_pair(value) -> tuple:
    return tuple(as_coords([value])[0].tolist())


def parse_section(doc, section: str, *tables: dict, required=()) -> list[dict]:
    """Keyword arguments for one dataclass per table, from the keys present in ``doc``.

    Each table maps a document key to ``(field, kind)`` for ``convert``.
    Only present keys are passed on, so defaults live on the dataclasses
    alone.  An unknown key, a value that does not convert and a missing
    ``required`` key raise ValueError naming ``section`` and the key; with an
    empty ``section``, the key alone, for the caller to locate.
    """
    where = f"{section}: " if section else ""
    if type(doc) is not dict:
        raise ValueError(f"{where}expected a mapping, got {doc!r}")
    for key in required:
        _require(doc, key, section)
    out: list[dict] = [{} for _ in tables]
    for key, value in doc.items():
        i = next((i for i, table in enumerate(tables) if key in table), None)
        if i is None:
            raise ValueError(f"{where}unknown key '{key}'")
        name, kind = tables[i][key]
        try:
            out[i][name] = convert(value, kind)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}key '{key}': {exc}") from None
    return out


_SCENE_KEYS = {"bounds": ("bounds", dict), "targets": ("targets", list),
               "trajectory": ("trajectory", dict)}
_BOUNDS_KEYS = {"min": ("bounds_min", as_pair), "max": ("bounds_max", as_pair)}
_TRAJECTORY_KEYS = {"waypoints": ("waypoints", as_coords), "speed": ("speed", float),
                    "step_interval": ("step_interval", float)}
# reference points of a target that gives neither ref_points nor ref_count
DEFAULT_REF_COUNT = 4
_TARGET_KEYS = {"id": ("id", int), "kind": ("kind", str),
                "ref_points": ("reference_points", as_coords), "ref_count": ("ref_count", int)}
# kind -> (shape class, its keys, the keys it requires)
_SHAPES = {
    "rect": (Rectangle, {"center": ("center", as_pair), "width": ("width", float),
                         "height": ("height", float), "rotation": ("rotation", float)},
             ("center", "width", "height")),
    "circle": (Circle, {"center": ("center", as_pair), "radius": ("radius", float)},
               ("center", "radius")),
}


def _parse_target(doc: dict) -> ExtendedTarget:
    if type(doc) is not dict:
        raise ValueError(f"scene: key 'targets': expected a mapping, got {doc!r}")
    where = f"target {_require(doc, 'id', 'target')}"
    kind = _require(doc, "kind", where)
    if type(kind) is not str or kind not in _SHAPES:
        raise ValueError(f"{where}: unknown kind '{kind}' (expected rect|circle)")
    shape_cls, shape_keys, required = _SHAPES[kind]
    target, shape_kw = parse_section(doc, where, _TARGET_KEYS, shape_keys, required=required)
    try:
        shape = shape_cls(**shape_kw)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    refs = target.get("reference_points")
    if refs is None:
        refs = reference_points(shape, target.get("ref_count", DEFAULT_REF_COUNT))
    return ExtendedTarget(id=target["id"], shape=shape, reference_points=refs)


def load_scene(source: Union[str, Path, dict]) -> Scene:
    """Parse and validate a scene document: a mapping, or the path of a YAML file.

    A path that names no file raises ``FileNotFoundError``.
    """
    doc = source if isinstance(source, dict) else yaml.safe_load(Path(source).read_text())
    if not isinstance(doc, dict):
        raise ValueError("scene document must be a mapping")
    [sections] = parse_section(doc, "scene", _SCENE_KEYS, required=_SCENE_KEYS)
    targets = [_parse_target(t) for t in sections["targets"]]
    ids = [t.id for t in targets]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate target ids")
    [trajectory] = parse_section(sections["trajectory"], "trajectory", _TRAJECTORY_KEYS,
                                 required=_TRAJECTORY_KEYS)
    [bounds] = parse_section(sections["bounds"], "bounds", _BOUNDS_KEYS, required=_BOUNDS_KEYS)
    return Scene(targets=targets, trajectory=Trajectory(**trajectory), **bounds)
