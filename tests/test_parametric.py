"""Error-injection sensing backend tests."""

import math

import numpy as np
import pytest

from etslam.harness import load_experiment
from etslam.parametric import ErrorModel, ParametricSensor, sense_parametric
from etslam.scene import Pose, ground_truth_scan, load_scene, polar_points, wrap_angle


SCENE_DOC = {
    "bounds": {"min": [-20.0, -20.0], "max": [20.0, 20.0]},
    "targets": [
        {"id": 1, "kind": "rect", "center": [10.0, 0.0],
         "width": 2.0, "height": 2.0},
        {"id": 2, "kind": "circle", "center": [0.0, 10.0], "radius": 1.0},
    ],
    "trajectory": {"waypoints": [[0.0, 0.0], [1.0, 0.0]],
                   "speed": 1.0, "step_interval": 0.5},
}


def _scene():
    return load_scene(SCENE_DOC)


BEARINGS = np.radians(np.arange(0.0, 360.0, 2.0))
POSE = Pose(0.0, 0.0, 0.0)


def _sense(scene, pose, model, rng):
    """``sense_parametric`` on the ground-truth scan of ``BEARINGS`` from ``pose``."""
    return sense_parametric(ground_truth_scan(scene, pose, BEARINGS), model, rng)


def test_error_model_from_mapping():
    """The sensor section's noise keys build the ErrorModel; absent keys keep its defaults."""
    sensor = {"delta_r_m": 0.1, "delta_theta_deg": 5.0}
    model = load_experiment({"scene": SCENE_DOC, "sensor": sensor}).error_model
    assert model.delta_r == 0.1
    assert model.delta_theta == pytest.approx(math.radians(5.0))
    assert load_experiment({"scene": SCENE_DOC}).error_model == ErrorModel()


def test_negative_magnitudes_rejected():
    with pytest.raises(ValueError):
        ErrorModel(delta_r=-0.1)
    with pytest.raises(ValueError):
        ErrorModel(delta_theta=-0.01)


def test_zero_noise_equals_ground_truth():
    scene = _scene()
    gt = ground_truth_scan(scene, POSE, BEARINGS)
    scan = _sense(scene, POSE, ErrorModel(), np.random.default_rng(0))
    assert len(scan) == len(gt) > 0
    assert scan.tobytes() == polar_points(gt.ranges, gt.bearings).tobytes()
    assert np.allclose(scan, gt.points)


def test_cardinality_matches_hit_count():
    scene = _scene()
    gt = ground_truth_scan(scene, POSE, BEARINGS)
    model = ErrorModel(delta_r=0.1, delta_theta=math.radians(5.0))
    scan = _sense(scene, POSE, model, np.random.default_rng(1))
    assert len(scan) == len(gt)


def test_noise_statistics():
    """Sampled range/bearing errors reproduce the configured std within 5%."""
    scene = _scene()
    gt = ground_truth_scan(scene, POSE, BEARINGS)
    model = ErrorModel(delta_r=0.1, delta_theta=math.radians(1.0))
    rng = np.random.default_rng(2)
    dr, db = [], []
    while len(dr) < 10_000:
        scan = _sense(scene, POSE, model, rng)
        dr.extend(np.hypot(scan[:, 0], scan[:, 1]) - gt.ranges)
        db.extend(wrap_angle(np.arctan2(scan[:, 1], scan[:, 0]) - gt.bearings))
    assert np.std(dr) == pytest.approx(model.delta_r, rel=0.05)
    assert np.std(db) == pytest.approx(model.delta_theta, rel=0.05)
    assert np.mean(dr) == pytest.approx(0.0, abs=3 * model.delta_r / math.sqrt(len(dr)) + 1e-4)


def test_ranges_clamped_nonnegative():
    """With no bearing noise, a clamped range leaves each point on its ray's forward side."""
    scene = _scene()
    gt = ground_truth_scan(scene, POSE, BEARINGS)
    model = ErrorModel(delta_r=50.0)  # absurd noise to force negative draws
    scan = _sense(scene, POSE, model, np.random.default_rng(3))
    along = np.sum(scan * polar_points(1.0, gt.bearings), axis=1)
    assert len(scan) == len(gt) and np.all(along >= 0.0)
    assert np.any(np.all(scan == 0.0, axis=1))  # a negative draw clamped to range 0


def test_deterministic_under_seed():
    scene = _scene()
    model = ErrorModel(delta_r=0.1, delta_theta=math.radians(5.0))
    s1 = _sense(scene, POSE, model, np.random.default_rng(7))
    s2 = _sense(scene, POSE, model, np.random.default_rng(7))
    assert np.array_equal(s1, s2)


def test_empty_scene_empty_scan():
    scene = load_scene({
        "bounds": {"min": [0.0, 0.0], "max": [10.0, 10.0]},
        "targets": [],
        "trajectory": {"waypoints": [[1.0, 1.0], [2.0, 1.0]],
                       "speed": 1.0, "step_interval": 0.5},
    })
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    scan = _sense(scene, Pose(1.0, 1.0, 0.0), ErrorModel(), rng)
    assert scan.shape == (0, 2)
    # no hits, no draws: the next scan's noise does not depend on this one
    assert rng.bit_generator.state == before


def test_sensor_callable_default_fan():
    sensor = ParametricSensor(model=ErrorModel(), bearings=BEARINGS)
    # the default experiment's parametric fan: 180 bearings, 2 deg apart
    fan = load_experiment({"scene": SCENE_DOC}).make_sensor()
    assert isinstance(fan, ParametricSensor)
    assert len(fan.bearings) == 180
    assert fan.bearings.tobytes() == BEARINGS.tobytes()
    gt = ground_truth_scan(_scene(), POSE, BEARINGS)
    scan = sensor(gt, np.random.default_rng(0))
    assert len(scan) == len(gt)
