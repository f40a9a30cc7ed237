"""Error-injection sensing backend tests."""

import math

import numpy as np
import pytest

from etslam.harness import load_experiment
from etslam.parametric import ErrorModel, ParametricSensor, sense_parametric
from etslam.scene import Pose, ground_truth_scan, load_scene


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
    scan = sense_parametric(scene, POSE, BEARINGS, ErrorModel(),
                            np.random.default_rng(0))
    assert len(scan) == len(gt) > 0
    assert np.array_equal(scan.ranges, gt.ranges)
    assert np.array_equal(scan.bearings, gt.bearings)
    assert np.allclose(scan.points, gt.points)


def test_cardinality_matches_hit_count():
    scene = _scene()
    gt = ground_truth_scan(scene, POSE, BEARINGS)
    model = ErrorModel(delta_r=0.1, delta_theta=math.radians(5.0))
    scan = sense_parametric(scene, POSE, BEARINGS, model,
                            np.random.default_rng(1))
    assert len(scan) == len(gt)


def test_noise_statistics():
    """Sampled range/bearing errors reproduce the configured std within 5%."""
    scene = _scene()
    gt = ground_truth_scan(scene, POSE, BEARINGS)
    model = ErrorModel(delta_r=0.1, delta_theta=math.radians(1.0))
    rng = np.random.default_rng(2)
    dr, db = [], []
    while len(dr) < 10_000:
        scan = sense_parametric(scene, POSE, BEARINGS, model, rng)
        dr.extend(scan.ranges - gt.ranges)
        db.extend(scan.bearings - gt.bearings)
    assert np.std(dr) == pytest.approx(model.delta_r, rel=0.05)
    assert np.std(db) == pytest.approx(model.delta_theta, rel=0.05)
    assert np.mean(dr) == pytest.approx(0.0, abs=3 * model.delta_r / math.sqrt(len(dr)) + 1e-4)


def test_ranges_clamped_nonnegative():
    scene = _scene()
    model = ErrorModel(delta_r=50.0)  # absurd noise to force negative draws
    scan = sense_parametric(scene, POSE, BEARINGS, model,
                            np.random.default_rng(3))
    assert np.all(scan.ranges >= 0.0)


def test_deterministic_under_seed():
    scene = _scene()
    model = ErrorModel(delta_r=0.1, delta_theta=math.radians(5.0))
    s1 = sense_parametric(scene, POSE, BEARINGS, model, np.random.default_rng(7))
    s2 = sense_parametric(scene, POSE, BEARINGS, model, np.random.default_rng(7))
    assert np.array_equal(s1.points, s2.points)


def test_empty_scene_empty_scan():
    scene = load_scene({
        "bounds": {"min": [0.0, 0.0], "max": [10.0, 10.0]},
        "targets": [],
        "trajectory": {"waypoints": [[1.0, 1.0], [2.0, 1.0]],
                       "speed": 1.0, "step_interval": 0.5},
    })
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    scan = sense_parametric(scene, Pose(1.0, 1.0, 0.0), BEARINGS, ErrorModel(), rng)
    assert len(scan) == 0 and scan.points.shape == (0, 2)
    # no hits, no draws: the next scan's noise does not depend on this one
    assert rng.bit_generator.state == before


def test_sensor_callable_default_fan():
    sensor = ParametricSensor(model=ErrorModel(), bearings=BEARINGS)
    # the default experiment's parametric fan: 180 bearings, 2 deg apart
    fan = load_experiment({"scene": SCENE_DOC}).make_sensor()
    assert isinstance(fan, ParametricSensor)
    assert len(fan.bearings) == 180
    assert fan.bearings.tobytes() == BEARINGS.tobytes()
    scan = sensor(_scene(), POSE, np.random.default_rng(0))
    gt = ground_truth_scan(_scene(), POSE, BEARINGS)
    assert len(scan) == len(gt)
