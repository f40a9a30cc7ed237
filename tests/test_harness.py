"""Monte Carlo harness tests: config loading, trials, sweeps, CSV output."""

import copy
import dataclasses
import math
import re

import numpy as np
import pytest
import yaml

from etslam import harness
from etslam.clustering import NOISE, ClusterParams
from etslam.harness import (
    CSV_HEADER_COMMENT,
    ExperimentConfig,
    Report,
    TrialRecord,
    _openblas,
    _trial_pool,
    apply_condition,
    downsample,
    emit_csv,
    load_experiment,
    run_monte_carlo,
    run_trial,
    sweep_conditions,
    write_csv,
)
from etslam.metrics import MetricParams, et_gospa
from etslam.ofdm import PeakPolicy, WaveformConfig
from etslam.parametric import ErrorModel
from etslam.scene import Circle, Rectangle, ground_truth_scan, load_scene, trajectory_pose
from etslam.slam import OdometryModel, SearchWindow, SlamConfig

SCENE_DOC = {
    "bounds": {"min": [-20.0, -20.0], "max": [20.0, 20.0]},
    "targets": [
        {"id": 1, "kind": "rect", "center": [10.0, 0.0],
         "width": 2.0, "height": 2.0},
        {"id": 2, "kind": "circle", "center": [0.0, 10.0], "radius": 1.0},
    ],
    "trajectory": {"waypoints": [[0.0, 0.0], [4.0, 0.0], [4.0, 4.0]],
                   "speed": 1.0, "step_interval": 0.5},
}


def tiny_doc(**run_overrides):
    run = {"trials": 2, "duration": 3.0, "seed": 11,
           "snapshot_cadence": 1.0, "estimate_cap": 50}
    run.update(run_overrides)
    return {
        "scene": dict(SCENE_DOC),
        "sensor": {"backend": "parametric", "delta_r_m": 0.05,
                   "delta_theta_deg": 1.0, "bearing_step_deg": 5.0},
        "odometry": {"translation_noise_std": 0.01,
                     "rotation_noise_std_deg": 0.05},
        "run": run,
        "sweep": {"conditions": [
            {"name": "clean", "delta_r_m": 0.0, "delta_theta_deg": 0.0},
            {"name": "noisy", "delta_r_m": 0.1, "delta_theta_deg": 5.0},
        ]},
    }


# ---------------------------------------------------------------------------
# config loading


def test_load_experiment_from_dict():
    cfg = load_experiment(tiny_doc())
    assert cfg.backend == "parametric"
    assert cfg.trials == 2
    assert cfg.seed == 11
    assert cfg.error_model.delta_r == 0.05
    assert cfg.error_model.delta_theta == pytest.approx(math.radians(1.0))
    assert len(cfg.sweep_conditions) == 2


def test_load_packaged_config():
    cfg = load_experiment("ci.yaml")
    assert cfg.trials == 20
    assert cfg.duration == 60.0
    assert cfg.estimate_cap == 100
    assert len(cfg.scene.targets) == 10
    assert {c["name"] for c in cfg.sweep_conditions} >= {
        "dr0.0_dth1", "dr0.1_dth1", "dr0.1_dth5", "ofdm_snr10"}


def test_missing_config_raises():
    with pytest.raises(FileNotFoundError, match="^config 'no_such_config.yaml' not found$"):
        load_experiment("no_such_config.yaml")
    with pytest.raises(FileNotFoundError, match="^scene document 'no_such_scene.yaml' not found$"):
        load_experiment({"scene": "no_such_scene.yaml"})


def test_scene_file_resolves_next_to_experiment_first(tmp_path):
    """A scene filename is looked up beside the experiment file before the packaged one."""
    (tmp_path / "default_scene.yaml").write_text(yaml.safe_dump(SCENE_DOC))
    (tmp_path / "exp.yaml").write_text(yaml.safe_dump({"scene": "default_scene.yaml"}))
    assert len(load_experiment(tmp_path / "exp.yaml").scene.targets) == 2
    assert len(load_experiment({"scene": "default_scene.yaml"}).scene.targets) == 10


def test_config_validation():
    with pytest.raises(ValueError):
        load_experiment(tiny_doc(trials=0))
    with pytest.raises(ValueError):
        load_experiment(tiny_doc(duration=0.0))
    doc = tiny_doc()
    doc["sensor"]["backend"] = "ofdm"  # no waveform section
    with pytest.raises(ValueError):
        load_experiment(doc)


WAVEFORM_DOC = {"fc": 28.0e9, "delta_f": 1.2e6, "N": 64}


def full_doc():
    """tiny_doc with every section present, so each one can take a bad key."""
    doc = copy.deepcopy(tiny_doc())
    doc.update(waveform=dict(WAVEFORM_DOC), slam={}, cluster={}, metric={})
    return doc


def _slotted_parametrize(argnames, cases):
    """``parametrize`` over ``(slot, *values)`` cases, each with the id pytest gave it
    when it sat at list position ``slot``: its values joined by ``-``, a non-scalar
    one shown as its argument name and slot (``path12``).  An id no longer follows
    the position, so removing a case renames no other test; a new case takes an
    unused slot."""
    names = [name.strip() for name in argnames.split(",")]

    def shown(name, value, slot):
        scalar = value is None or isinstance(value, (str, int, float))
        return str(value) if scalar else f"{name}{slot}"

    return pytest.mark.parametrize(argnames, [
        pytest.param(*values, id="-".join(shown(n, v, slot) for n, v in zip(names, values)))
        for slot, *values in cases
    ])


def _section(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@_slotted_parametrize("path, section", [
    (0, (), "experiment"),
    (1, ("sensor",), "sensor"),
    (2, ("waveform",), "waveform"),
    (3, ("slam",), "slam"),
    (4, ("odometry",), "odometry"),
    (5, ("cluster",), "cluster"),
    (6, ("metric",), "metric"),
    (7, ("run",), "run"),
    (8, ("sweep",), "sweep"),
    (9, ("sweep", "conditions", 1), "sweep condition 'noisy'"),
    (10, ("scene",), "scene"),
    (11, ("scene", "bounds"), "bounds"),
    (12, ("scene", "targets", 0), "target 1"),
    (13, ("scene", "trajectory"), "trajectory"),
])
def test_unknown_key_names_section_and_key(path, section):
    doc = full_doc()
    _section(doc, path)["delta_thetaa"] = 1.0
    with pytest.raises(ValueError, match=f"^{re.escape(section)}: unknown key 'delta_thetaa'$"):
        load_experiment(doc)


@_slotted_parametrize("path, key, value, section", [
    (0, ("run",), "trials", 2.5, "run"),
    (1, ("run",), "trials", True, "run"),
    (2, ("run",), "seed", "7", "run"),
    (3, ("slam",), "matching_enabled", "no", "slam"),
    (4, ("slam",), "matching_enabled", 1, "slam"),
    (5, ("sensor",), "backend", 3, "sensor"),
    (6, ("sensor",), "delta_r_m", "abc", "sensor"),
    (7, ("cluster",), "eps", [0.5], "cluster"),
    (8, ("metric",), "c", None, "metric"),
    (9, ("waveform",), "N", 4.5, "waveform"),
    (10, ("sweep", "conditions", 0), "snr_db", "high", "sweep condition 'clean'"),
    (11, ("scene", "targets", 0), "width", True, "target 1"),
    (12, ("scene", "trajectory"), "waypoints", [0.0, 1.0], "trajectory"),
    (13, ("scene", "bounds"), "min", [0.0, 0.0, 0.0], "bounds"),
    (14, (), "scene", 5, "experiment"),
    (15, (), "scene", None, "experiment"),
    (16, ("scene",), "targets", [None], "scene"),
    (17, ("scene",), "targets", [3], "scene"),
])
def test_mistyped_value_names_section_and_key(path, key, value, section):
    doc = full_doc()
    _section(doc, path)[key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(section)}: key '{key}': "):
        load_experiment(doc)


@pytest.mark.parametrize("key, value", [
    ("bearing_step_deg", 1.0), ("angle_peak_threshold_db", 3.0), ("angle_max_peaks", 2),
])
def test_condition_rejects_other_sensor_keys(key, value):
    """A condition sets only the backend, the noise magnitudes and the SNR."""
    doc = full_doc()
    doc["sweep"]["conditions"][0][key] = value
    with pytest.raises(ValueError, match=f"^sweep condition 'clean': unknown key '{key}'$"):
        load_experiment(doc)


@pytest.mark.parametrize("backend, step, span", [("ofdm", 3.0, 140), ("parametric", 7.0, 360)])
def test_fan_step_that_does_not_divide_the_fan_rejected(backend, step, span):
    """These used to load and be rounded: 3.0 gave the OFDM fan 48 bearings 2.979 deg
    apart over its 140 deg, and 7.0 the parametric fan 52 bearings with a 3 deg gap
    at the wrap."""
    doc = full_doc()
    doc["sensor"].update(backend=backend, bearing_step_deg=step)
    message = (f"the {backend} fan (deg) must be a whole number of bearing_step_deg "
               f"({step:g}), got {span}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_experiment(doc)


def test_fan_step_checked_against_a_condition_backend():
    """3.0 divides the parametric fan's 360 deg but not the OFDM fan's 140 deg, so a
    condition that switches to the OFDM backend is refused at load, naming it."""
    doc = full_doc()
    doc["sensor"]["bearing_step_deg"] = 3.0
    assert len(load_experiment(doc).make_sensor().bearings) == 120
    doc["sweep"]["conditions"].append({"name": "ofdm", "backend": "ofdm"})
    with pytest.raises(ValueError, match="^sweep condition 'ofdm': the ofdm fan [(]deg[)] must "
                                         "be a whole number"):
        load_experiment(doc)


def test_parametric_fan_repeats_no_bearing():
    """360/161 deg divides the circle to within the whole-step tolerance, and
    ``np.arange(0, 360, step)`` gave 162 bearings, the last at 359.99999999999994
    deg: a second ray along bearing 0."""
    doc = full_doc()
    step = 360.0 / 161
    doc["sensor"]["bearing_step_deg"] = step
    degrees = np.degrees(load_experiment(doc).make_sensor().bearings)
    assert len(degrees) == 161
    assert np.allclose(np.diff(np.append(degrees, degrees[0] + 360.0)), step)


@pytest.mark.parametrize("backend, step, count", [
    ("ofdm", 1.0, 141), ("ofdm", 2.0, 71), ("ofdm", 5.0, 29),
    ("parametric", 1.0, 360), ("parametric", 2.0, 180), ("parametric", 5.0, 72),
    ("parametric", 30.0, 12),
])
def test_fan_steps_in_use_load(backend, step, count):
    doc = full_doc()
    doc["sensor"].update(backend=backend, bearing_step_deg=step)
    bearings = load_experiment(doc).make_sensor().bearings
    assert len(bearings) == count
    assert np.allclose(np.diff(np.degrees(bearings)), step)


@_slotted_parametrize("path, key, value, message", [
    (0, ("slam",), "search_dxy_step", 0.0, "search window dxy_step must be finite and > 0"),
    (1, ("slam",), "search_dtheta_step_deg", 0.0,
     "search window dtheta_step must be finite and > 0"),
    (2, ("slam",), "search_dxy_step", -0.1, "search window dxy_step must be finite and > 0"),
    (3, ("slam",), "search_dtheta_step_deg", -0.5,
     "search window dtheta_step must be finite and > 0"),
    (4, ("slam",), "search_dxy_max", -0.3, "search window dxy_max must be finite and >= 0"),
    (5, ("slam",), "search_dtheta_max_deg", -1.0,
     "search window dtheta_max must be finite and >= 0"),
    (6, ("slam",), "resolution", 0.0, "slam resolution must be finite and > 0"),
    (7, ("run",), "snapshot_cadence", -5.0, "snapshot_cadence must be finite and > 0"),
    (8, ("run",), "duration", float("inf"), "duration must be finite and > 0"),
    (9, ("sensor",), "bearing_step_deg", 0.0, "bearing_step_deg must be finite and > 0"),
    (10, ("run",), "estimate_cap", -3, "estimate_cap must be >= 0"),
    (11, ("run",), "seed", -1, "seed must be >= 0"),
    (12, ("scene", "trajectory"), "waypoints", [[0.0, 0.0], [4.0, 0.0], [4.0, 0.0]],
     "trajectory segment 1 has zero length"),
    (13, ("slam",), "l_free", -1.0, "slam l_free must be finite and > 0"),
    (14, ("slam",), "l_free", float("inf"), "slam l_free must be finite and > 0"),
    (15, ("slam",), "l_occ", 0.0, "slam l_occ must be finite and > 0"),
    (16, ("slam",), "l_occ", float("nan"), "slam l_occ must be finite and > 0"),
    (17, ("scene", "trajectory"), "speed", float("inf"),
     "trajectory speed must be finite and > 0"),
    (18, ("scene", "trajectory"), "step_interval", float("nan"),
     "trajectory step_interval must be finite and > 0"),
    (19, ("scene", "trajectory"), "waypoints", [[0.0, 0.0], [float("nan"), 0.0]],
     "trajectory waypoints must be finite"),
    (20, ("waveform",), "fc", 0.0, "waveform fc must be finite and > 0"),
    (21, ("waveform",), "fc", -28.0e9, "waveform fc must be finite and > 0"),
    (22, ("waveform",), "delta_f", float("nan"), "waveform delta_f must be finite and > 0"),
    (23, ("waveform",), "snr_db", float("nan"), "waveform snr_db must be finite"),
    (24, ("waveform",), "d_over_lambda", float("inf"), "waveform d must be finite and > 0"),
    # retired keys: Nt is the one element count, and the frame timing and the
    # bandwidth follow from delta_f and N, so each is refused, naming it
    (25, ("waveform",), "Tc", -2.08e-7, "waveform: unknown key 'Tc'"),
    (26, ("waveform",), "Nr", 16, "waveform: unknown key 'Nr'"),
    (27, ("waveform",), "T", float("nan"), "waveform: unknown key 'T'"),
    (28, ("waveform",), "B", float("nan"), "waveform: unknown key 'B'"),
    (29, ("sweep", "conditions", 0), "snr_db", float("nan"),
     "sweep condition 'clean': waveform snr_db must be finite"),
    (30, ("sensor",), "angle_peak_threshold_db", float("nan"),
     "peak policy threshold_db must be finite"),
    (31, ("sensor",), "angle_max_peaks", 0, "peak policy max_peaks must be >= 1"),
    (32, ("sensor",), "angle_max_peaks", -3, "peak policy max_peaks must be >= 1"),
    (33, ("sensor",), "delta_r_m", float("nan"), "error model delta_r must be finite and >= 0"),
    (34, ("sensor",), "delta_theta_deg", float("inf"),
     "error model delta_theta must be finite and >= 0"),
    (35, ("odometry",), "translation_noise_std", float("nan"),
     "odometry translation_noise_std must be finite and >= 0"),
    (36, ("odometry",), "rotation_noise_std_deg", float("inf"),
     "odometry rotation_noise_std must be finite and >= 0"),
    (37, ("metric",), "c", float("inf"), "metric c must be finite and > 0"),
    (38, ("cluster",), "eps", float("inf"), "cluster eps must be finite and > 0"),
    (39, ("sweep", "conditions", 0), "delta_r_m", float("nan"),
     "sweep condition 'clean': error model delta_r must be finite and >= 0"),
    (40, ("run",), "duration", 3.2,
     "duration must be a whole number of trajectory steps (0.5), got 3.2"),
    (41, ("run",), "snapshot_cadence", 0.7,
     "snapshot_cadence must be a whole number of trajectory steps (0.5), got 0.7"),
    (42, ("slam",), "search_dxy_max", 0.25,
     "search window dxy_max must be a whole number of dxy_step (0.1), got 0.25"),
    (43, ("slam",), "search_dtheta_max_deg", 1.2,
     "search window dtheta_max must be a whole number of dtheta_step"),
    # an int leaf lies in int64: each of these loaded, then failed late or ran
    (44, ("run",), "trials", 1e300, "run: key 'trials': 1e+300 is outside int64"),
    (45, ("waveform",), "N", 1e20, "waveform: key 'N': 1e+20 is outside int64"),
    (46, ("scene", "targets", 0), "id", 1e300,
     "target 1e+300: key 'id': 1e+300 is outside int64"),
    (47, ("run",), "seed", 1e300, "run: key 'seed': 1e+300 is outside int64"),
    (48, ("run",), "estimate_cap", 2**63, "run: key 'estimate_cap': 9223372036854775808 is "
                                          "outside int64"),
])
def test_out_of_range_value_rejected_at_load(path, key, value, message):
    """Each of these used to load, then crash mid-run or be read as another value."""
    doc = full_doc()
    _section(doc, path)[key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        load_experiment(doc)


def test_metric_pair_cost_bound_refused_at_load():
    """This loaded, and the first snapshot's ``et_gospa`` raised a bare OverflowError."""
    doc = tiny_doc()
    doc["metric"] = yaml.safe_load("{c: 1.0e10, p: 40}")
    with pytest.raises(ValueError,
                       match=r"^metric 2\*c\*\*p must be a finite float, got c=1e\+10, p=40$"):
        load_experiment(doc)


def test_int_leaf_at_int64_bounds_loads():
    assert load_experiment(tiny_doc(seed=2**63 - 1)).seed == 2**63 - 1
    assert load_experiment(tiny_doc(estimate_cap=float(2**62))).estimate_cap == 2**62


def test_experiment_without_targets_rejected_at_load():
    """A scene with no target loaded, ran the whole trial, then failed at the first
    snapshot with the metric's unlocated 'at least one target required'."""
    doc = tiny_doc()
    doc["scene"]["targets"] = []
    with pytest.raises(ValueError, match="^scene: key 'targets': at least one target required$"):
        load_experiment(doc)


def test_estimate_cap_zero_still_means_no_cap():
    cfg = load_experiment(tiny_doc(estimate_cap=0))
    rec = run_trial(cfg, 0)
    assert rec.et_gospa[-1] == et_gospa(cfg.truth_sets(), rec.map_points, cfg.metric).value
    assert run_trial(dataclasses.replace(cfg, estimate_cap=10), 0).et_gospa[-1] != rec.et_gospa[-1]


def test_integral_float_accepted_for_int_field():
    assert load_experiment(tiny_doc(trials=3.0)).trials == 3


def test_condition_snr_without_waveform_rejected():
    doc = tiny_doc()
    doc["sweep"]["conditions"].append({"name": "ofdm", "snr_db": 10.0})
    with pytest.raises(ValueError,
                       match="^sweep condition 'ofdm': key 'snr_db' needs a waveform section$"):
        load_experiment(doc)
    cfg = load_experiment(full_doc())
    assert apply_condition(cfg, {"snr_db": 3.0}).waveform.snr_db == 3.0
    assert apply_condition(cfg, {"snr_db": None}).waveform.snr_db is None


@pytest.mark.parametrize("conditions, name", [
    ([{"name": "a"}, {"name": "b"}, {"name": "a", "delta_r_m": 0.1}], "a"),
    ([{"name": "condition_2"}, {"name": "b"}, {"delta_r_m": 0.1}], "condition_2"),
])
def test_duplicate_condition_name_rejected(conditions, name):
    """Two conditions with one name would write the same output directory."""
    doc = tiny_doc()
    doc["sweep"]["conditions"] = conditions
    with pytest.raises(ValueError, match=f"^sweep condition: duplicate name '{name}'$"):
        load_experiment(doc)


@pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "/tmp/x", "a/b", "a\0b"])
def test_condition_name_must_be_one_path_component(name):
    """A sweep writes each condition to ``out / name``: these wrote beside or above
    ``out``, or into ``out`` itself, where two such conditions overwrite each other;
    a NUL ran the whole sweep, then failed unlocated at the first write."""
    doc = tiny_doc()
    doc["sweep"]["conditions"][1]["name"] = name
    message = f"sweep condition '{name}': the name must be one path component"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_experiment(doc)


@pytest.mark.parametrize("sensor, condition, name, message", [
    ({}, {"name": "b", "backend": "ofdm"}, "b", "ofdm backend requires a waveform section"),
    ({}, {"name": "b", "delta_r_m": -1.0}, "b", "error model delta_r must be finite and >= 0"),
    ({}, {"backend": "radar"}, "condition_2", "unknown sensor backend 'radar'"),
    ({}, {"name": "b", "bogus": 1}, "b", "unknown key 'bogus'"),
    ({}, {"bogus": 1}, "condition_2", "unknown key 'bogus'"),
    ({}, {"name": "b", "snr_db": "x"}, "b", "key 'snr_db': expected float, got 'x'"),
    ({}, 3, "condition_2", "expected a mapping, got 3"),
    ({"backend": "ofdm", "bearing_step_deg": 7.0}, {"name": "b", "backend": "parametric"}, "b",
     "the parametric fan (deg) must be a whole number of bearing_step_deg (7), got 360"),
], ids=["no-waveform", "negative-delta-r", "unknown-backend", "unknown-key", "unnamed-unknown-key",
        "mistyped-snr", "not-a-mapping", "fan-step"])
def test_condition_error_names_the_condition(sensor, condition, name, message):
    """Every refusal of a condition at load, of a key or of a value, names the condition
    once, an unnamed one as ``condition_<k>``."""
    doc = tiny_doc()
    doc["sensor"].update(sensor)
    if sensor:
        doc["waveform"] = dict(WAVEFORM_DOC)
    doc["sweep"]["conditions"].append(condition)
    with pytest.raises(ValueError, match=f"^{re.escape(f'sweep condition {name!r}: {message}')}$"):
        load_experiment(doc)


def test_config_defaults_come_from_dataclasses():
    """A document with only a scene resolves to the dataclass defaults."""
    cfg = load_experiment({"scene": "default_scene.yaml"})
    assert cfg == ExperimentConfig(scene=cfg.scene)


@pytest.mark.parametrize("backend", ["parametric", "ofdm"])
def test_sensor_returns_sensor_frame_points(backend):
    """Either backend's scan is a float64 (n, 2) array, (0, 2) on an empty scene."""
    cfg = dataclasses.replace(load_experiment("ci.yaml"), backend=backend)
    empty = load_scene({**SCENE_DOC, "targets": []})
    for scene, nonempty in ((cfg.scene, True), (empty, False)):
        sensor = cfg.make_sensor()
        gt = ground_truth_scan(scene, trajectory_pose(scene.trajectory, 0.0), sensor.bearings)
        scan = sensor(gt, np.random.default_rng(0))
        assert type(scan) is np.ndarray and scan.dtype == np.float64
        assert scan.ndim == 2 and scan.shape[1] == 2
        assert (len(scan) > 0) == nonempty


_CI_WAVEFORM = WaveformConfig(fc=28.0e9, delta_f=1.2e6, n_subcarriers=1024, n_tx=32,
                              d_over_lambda=0.5, snr_db=10.0)
_FULL_WAVEFORM = WaveformConfig(fc=28.0e9, delta_f=1.2e5, n_subcarriers=10240, n_tx=32,
                                d_over_lambda=0.5, snr_db=10.0)
_SLAM = SlamConfig(resolution=0.1, window=SearchWindow(
    dxy_max=0.3, dxy_step=0.1, dtheta_max=0.017453292519943295,
    dtheta_step=0.008726646259971648), l_occ=0.85, l_free=0.4, matching_enabled=True)
_ODOMETRY = OdometryModel(translation_noise_std=0.02, rotation_noise_std=0.0017453292519943296)
_DTH1, _DTH5 = 0.017453292519943295, 0.08726646259971647
# every resolved field of the packaged experiments, and each sweep condition's
# (backend, error model, waveform) after apply_condition
PINNED = {
    "ci.yaml": (
        dict(backend="parametric", error_model=ErrorModel(0.0, _DTH1), bearing_step_deg=2.0,
             angle_policy=PeakPolicy(threshold_db=5.9, max_peaks=4), waveform=_CI_WAVEFORM,
             slam=_SLAM, odometry=_ODOMETRY, cluster=ClusterParams(eps=0.5, min_pts=3),
             metric=MetricParams(c=5.0, p=1.0, alpha=2.0), trials=20, duration=60.0,
             seed=20260826, snapshot_cadence=5.0, estimate_cap=100),
        {"dr0.0_dth1": ("parametric", ErrorModel(0.0, _DTH1), _CI_WAVEFORM),
         "dr0.1_dth1": ("parametric", ErrorModel(0.1, _DTH1), _CI_WAVEFORM),
         "dr0.1_dth5": ("parametric", ErrorModel(0.1, _DTH5), _CI_WAVEFORM),
         "ofdm_snr10": ("ofdm", ErrorModel(0.0, _DTH1), _CI_WAVEFORM)},
    ),
    "full_scale.yaml": (
        dict(backend="ofdm", error_model=ErrorModel(), bearing_step_deg=2.0,
             angle_policy=PeakPolicy(threshold_db=6.0, max_peaks=4), waveform=_FULL_WAVEFORM,
             slam=_SLAM, odometry=_ODOMETRY, cluster=ClusterParams(eps=0.5, min_pts=3),
             metric=MetricParams(c=10.0, p=1.0, alpha=2.0), trials=500, duration=80.0,
             seed=20260826, snapshot_cadence=5.0, estimate_cap=100),
        {"dr0.1_dth1": ("parametric", ErrorModel(0.1, _DTH1), _FULL_WAVEFORM),
         "dr0.1_dth5": ("parametric", ErrorModel(0.1, _DTH5), _FULL_WAVEFORM),
         "ofdm_snr10": ("ofdm", ErrorModel(), _FULL_WAVEFORM)},
    ),
}
DEFAULT_SCENE_SHAPES = [
    Rectangle((9.0, 8.0), 3.0, 2.0, 0.0), Rectangle((21.0, 8.0), 2.0, 3.0, 0.0),
    Rectangle((15.0, 15.0), 4.0, 2.0, 0.3), Rectangle((11.0, 22.0), 2.0, 2.0, 0.0),
    Rectangle((17.0, 22.0), 3.0, 2.0, 0.785398), Rectangle((8.0, 12.0), 2.0, 3.0, 0.0),
    Rectangle((22.0, 18.0), 2.0, 3.0, 0.0), Rectangle((15.0, 8.0), 3.0, 2.0, 0.0),
    Circle((8.0, 17.0), 1.2), Circle((22.0, 13.0), 1.5),
]


@pytest.mark.parametrize("name", PINNED)
def test_packaged_config_values_pinned(name):
    fields, conditions = PINNED[name]
    cfg = load_experiment(name)
    for field_name, want in fields.items():
        assert getattr(cfg, field_name) == want, field_name
    assert cfg.waveform.d == 0.005357142857142857  # the element spacing in meters
    assert [c["name"] for c in cfg.sweep_conditions] == list(conditions)
    for cond in cfg.sweep_conditions:
        resolved = apply_condition(cfg, cond)
        assert (resolved.backend, resolved.error_model, resolved.waveform) == conditions[cond["name"]]
    scene = cfg.scene
    assert scene.bounds_min.tolist() == [0.0, 0.0] and scene.bounds_max.tolist() == [30.0, 30.0]
    assert [t.id for t in scene.targets] == list(range(1, 11))
    assert [t.shape for t in scene.targets] == DEFAULT_SCENE_SHAPES
    assert all(len(t.reference_points) == 4 for t in scene.targets)
    assert scene.trajectory.waypoints.tolist() == [
        [5.0, 5.0], [25.0, 5.0], [25.0, 25.0], [5.0, 25.0], [5.0, 5.0]]
    assert (scene.trajectory.speed, scene.trajectory.step_interval) == (1.3333333333333333, 0.5)


def test_apply_condition():
    cfg = load_experiment(tiny_doc())
    noisy = apply_condition(cfg, {"delta_r_m": 0.3})
    assert noisy.error_model.delta_r == 0.3
    assert noisy.error_model.delta_theta == cfg.error_model.delta_theta
    assert noisy.seed == cfg.seed
    assert apply_condition(cfg, {}).error_model == cfg.error_model


# ---------------------------------------------------------------------------
# downsampling


def test_downsample_exact_cap():
    rng = np.random.default_rng(0)
    for n, cap in [(101, 100), (1000, 100), (137, 64), (64, 64)]:
        pts = rng.normal(size=(n, 2))
        out = downsample(pts, cap)
        assert len(out) == min(n, cap)


def test_downsample_noop_below_cap():
    pts = np.arange(10.0).reshape(5, 2)
    assert downsample(pts, 10) is pts
    assert downsample(pts, 0) is pts  # cap <= 0 disables capping


def test_downsample_deterministic_subset():
    pts = np.arange(40.0).reshape(20, 2)
    out = downsample(pts, 7)
    assert np.array_equal(out, pts[::2][:7])  # stride = 20 // 7 = 2
    assert np.array_equal(out, downsample(pts, 7))


# ---------------------------------------------------------------------------
# trials and aggregation


def test_run_trial_deterministic():
    cfg = load_experiment(tiny_doc())
    r1 = run_trial(cfg, 0)
    r2 = run_trial(cfg, 0)
    assert np.array_equal(r1.et_gospa, r2.et_gospa)
    assert np.array_equal(r1.map_points, r2.map_points)
    assert np.array_equal(r1.cluster_labels, r2.cluster_labels)


def test_distinct_trials_differ():
    cfg = load_experiment(tiny_doc())
    r0, r1 = run_trial(cfg, 0), run_trial(cfg, 1)
    assert not np.array_equal(r0.map_points, r1.map_points)


def test_run_trial_snapshots_the_final_step_off_the_cadence():
    """A run that does not end on the snapshot cadence still reports its last step."""
    cfg = dataclasses.replace(load_experiment("ci.yaml"), duration=3.5, snapshot_cadence=1.0,
                              trials=1)
    assert run_trial(cfg, 0).times.tolist() == [1.0, 2.0, 3.0, 3.5]


class _FirstDraws(Exception):
    """Raised in place of the SLAM run with the first normals its rng gives."""


def _trial_first_draws(monkeypatch, cfg, seed, trial_index, n=8):
    """The first ``n`` standard normals trial ``trial_index`` of ``seed`` hands its run."""
    def first_draws(scene, sensor, odometry, rng, **kw):
        raise _FirstDraws(rng.standard_normal(n))

    monkeypatch.setattr(harness, "run_slam", first_draws)
    with pytest.raises(_FirstDraws) as drawn:
        run_trial(dataclasses.replace(cfg, seed=seed), trial_index)
    return drawn.value.args[0]


@pytest.mark.parametrize("trial_index", [1, 2, 7])
def test_trial_seeded_from_seed_and_index(monkeypatch, trial_index):
    """Trial k of seed s draws ``default_rng(SeedSequence([s, k]))``'s stream, which
    trial k - 1 of seed s + 1 does not share.  k >= 1: ``SeedSequence(s)`` and
    ``SeedSequence([s, 0])`` give one stream, so trial 0 cannot tell the two apart."""
    cfg = load_experiment(tiny_doc())
    got = _trial_first_draws(monkeypatch, cfg, cfg.seed, trial_index)
    want = np.random.default_rng(np.random.SeedSequence([cfg.seed, trial_index]))
    assert got.tobytes() == want.standard_normal(len(got)).tobytes()
    neighbour = _trial_first_draws(monkeypatch, cfg, cfg.seed + 1, trial_index - 1)
    assert not np.isin(got, neighbour).any()


def test_trial_record_shapes():
    cfg = load_experiment(tiny_doc())
    rec = run_trial(cfg, 0)
    n_snap = len(rec.times)
    assert n_snap == 3  # duration 3 s at 1 s cadence
    assert rec.et_gospa.shape == rec.sq_error.shape == (n_snap,)
    assert len(rec.map_points) == len(rec.map_times) == len(rec.cluster_labels)
    assert np.all(rec.et_gospa >= 0.0)


def test_report_aggregates_per_trial():
    cfg = load_experiment(tiny_doc())
    report = run_monte_carlo(cfg)
    assert report.per_trial_et.shape == (cfg.trials, len(report.times))
    assert np.allclose(report.et_gospa_mean, report.per_trial_et.mean(axis=0))
    assert np.allclose(report.mse_mean, np.mean([r.sq_error for r in report.trials], axis=0))
    for i, rec in enumerate(report.trials):
        assert rec.trial_index == i
        assert np.array_equal(report.per_trial_et[i], rec.et_gospa)


def test_single_trial_report_equals_record():
    cfg = load_experiment(tiny_doc(trials=1))
    report = run_monte_carlo(cfg)
    rec = run_trial(cfg, 0)
    assert np.array_equal(report.et_gospa_mean, rec.et_gospa)
    assert np.array_equal(report.mse_mean, rec.sq_error)


_RECORD_ARRAYS = ("times", "et_gospa", "sq_error", "map_points", "map_times", "cluster_labels")


def test_parallel_equals_serial():
    """Trials run in worker processes give the serial bytes."""
    cfg = load_experiment(tiny_doc(trials=3))
    serial = run_monte_carlo(cfg, parallel=1)
    para = run_monte_carlo(cfg, parallel=2)
    assert serial.per_trial_et.tobytes() == para.per_trial_et.tobytes()
    assert serial.mse_mean.tobytes() == para.mse_mean.tobytes()
    assert len(serial.trials) == len(para.trials) == 3
    for a, b in zip(serial.trials, para.trials):
        for name in _RECORD_ARRAYS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("trials, parallel, workers", [
    (3, 5000, [3]), (3, 2, [2]), (1, 8, []), (3, 1, []),
])
def test_pool_capped_at_trial_count(monkeypatch, trials, parallel, workers):
    """``run_monte_carlo`` starts at most one worker per trial, and no pool when that is
    one; the report keeps the serial bytes.  The pool is a stand-in that records its
    worker count and maps in this process, so no process starts."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers, initializer=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    cfg = load_experiment(tiny_doc(trials=trials, duration=1.0, snapshot_cadence=0.5))
    report = run_monte_carlo(cfg, parallel=parallel)
    assert started == workers
    assert [r.trial_index for r in report.trials] == list(range(trials))
    for a, b in zip(report.trials, [run_trial(cfg, i) for i in range(trials)]):
        for name in _RECORD_ARRAYS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def _blas_threads() -> int:
    """This process's thread count, from numpy's bundled OpenBLAS."""
    return _openblas("get")()


def test_pool_workers_run_one_blas_thread():
    """``run_monte_carlo``'s workers run BLAS on one thread, also when the process
    that starts them runs two."""
    setter = _openblas("set")
    if setter is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    before = _blas_threads()
    setter(2)
    try:
        with _trial_pool(2) as pool:
            counts = [pool.submit(_blas_threads).result(timeout=60) for _ in range(4)]
    finally:
        setter(before)
    assert counts == [1] * 4


def test_sweep_named_reports():
    cfg = load_experiment(tiny_doc())
    results = sweep_conditions(cfg)
    assert [name for name, _ in results] == ["clean", "noisy"]
    for _, rep in results:
        assert isinstance(rep, Report)


def test_sweep_requires_conditions():
    doc = tiny_doc()
    del doc["sweep"]
    with pytest.raises(ValueError):
        sweep_conditions(load_experiment(doc))


# ---------------------------------------------------------------------------
# CSV output


def test_emit_csv_contents(tmp_path):
    report = Report(
        times=np.array([1.0, 2.0]),
        et_gospa_mean=np.array([5.5, 4.25]),
        mse_mean=np.array([0.0, 0.125]),
        per_trial_et=np.array([[5.5, 4.25]]),
        trials=[TrialRecord(
            trial_index=0,
            times=np.array([1.0, 2.0]),
            et_gospa=np.array([5.5, 4.25]),
            sq_error=np.array([0.0, 0.125]),
            map_points=np.array([[1.5, -2.0]]),
            map_times=np.array([1.0]),
            cluster_labels=np.array([0]),
        )],
    )
    written = emit_csv(report, tmp_path)
    names = {p.name for p in written}
    assert names == {"metric_curve.csv", "agv_mse.csv",
                     "map_points_0.csv", "clusters_0.csv"}
    curve = (tmp_path / "metric_curve.csv").read_text().splitlines()
    assert curve == [CSV_HEADER_COMMENT, "t,et_gospa_mean", "1,5.5", "2,4.25"]
    pts = (tmp_path / "map_points_0.csv").read_text().splitlines()
    assert pts == [CSV_HEADER_COMMENT, "t,x,y", "1,1.5,-2"]
    clusters = (tmp_path / "clusters_0.csv").read_text().splitlines()
    assert clusters == [CSV_HEADER_COMMENT, "x,y,label", "1.5,-2,0"]


def test_emit_csv_empty_map(tmp_path):
    """A trial with no map points writes header-only map and cluster files."""
    report = Report(times=np.array([1.0]), et_gospa_mean=np.array([2.5]),
                    mse_mean=np.array([0.0]), per_trial_et=np.array([[2.5]]),
                    trials=[TrialRecord(trial_index=0, times=np.array([1.0]),
                                        et_gospa=np.array([2.5]), sq_error=np.array([0.0]),
                                        map_points=np.zeros((0, 2)), map_times=np.zeros(0),
                                        cluster_labels=np.zeros(0, dtype=int))])
    emit_csv(report, tmp_path)
    assert (tmp_path / "map_points_0.csv").read_text() == f"{CSV_HEADER_COMMENT}\nt,x,y\n"
    assert (tmp_path / "clusters_0.csv").read_text() == f"{CSV_HEADER_COMMENT}\nx,y,label\n"
    assert (tmp_path / "metric_curve.csv").read_text() == (
        f"{CSV_HEADER_COMMENT}\nt,et_gospa_mean\n1,2.5\n")


def _savetxt_csv(path, header, columns, fmt="%.9g"):
    """Reference for ``write_csv``: ``np.savetxt`` under the v1 header."""
    np.savetxt(path, np.column_stack(columns), fmt=fmt, delimiter=",",
               header=f"{CSV_HEADER_COMMENT}\n{header}", comments="")


@pytest.mark.parametrize("n_rows", [0, 1, 2, 9, 500])
def test_write_csv_matches_savetxt(tmp_path, n_rows):
    """``write_csv`` writes ``np.savetxt``'s bytes: %.9g columns and a %d label column."""
    rng = np.random.default_rng(n_rows)
    special = [-0.0, 1e-300, 1e300, -1e300, 0.1, 1.0 / 3.0, 123456789.5, -2.5e-7, 7.0]
    t = np.sort(rng.uniform(0.0, 60.0, n_rows))
    xy = rng.standard_normal((n_rows, 2)) * 10.0 ** rng.integers(-12, 12, (n_rows, 2))
    xy[:, 0][:len(special)] = special[:n_rows]
    xy[:, 1][:len(special)] = special[::-1][:n_rows]
    labels = rng.integers(-1, 40, n_rows)
    labels[:1] = -1
    cases = [("t,x,y", (t, xy), "%.9g"),
             ("x,y,label", (xy, labels), ["%.9g", "%.9g", "%d"])]
    for header, columns, fmt in cases:
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        assert write_csv(got, header, columns, fmt) == got
        _savetxt_csv(want, header, columns, fmt)
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_text().splitlines()) == n_rows + 2


@pytest.mark.parametrize("n_rows", [0, 1, 7, 500])
def test_emit_csv_matches_savetxt(tmp_path, n_rows):
    """``emit_csv`` formats each map point and each distinct t once and writes
    ``np.savetxt``'s bytes: t values repeated in runs, out of order, 0.0 beside -0.0,
    and NOISE labels."""
    rng = np.random.default_rng(n_rows)
    runs = np.array([0.5, -0.0, 0.0, 0.5, 1.0 / 3.0, -0.0, 1e300, 2.5e-7, 60.0])
    # the runs, then again from the start until n_rows
    t = np.resize(np.repeat(runs, rng.integers(1, 40, len(runs))), n_rows)
    xy = rng.standard_normal((n_rows, 2)) * 10.0 ** rng.integers(-12, 12, (n_rows, 2))
    labels = rng.integers(NOISE, 40, n_rows)
    labels[:2] = NOISE
    report = Report(times=np.array([1.0]), et_gospa_mean=np.array([2.5]),
                    mse_mean=np.array([0.0]), per_trial_et=np.array([[2.5]]),
                    trials=[TrialRecord(trial_index=3, times=np.array([1.0]),
                                        et_gospa=np.array([2.5]), sq_error=np.array([0.0]),
                                        map_points=xy, map_times=t, cluster_labels=labels)])
    emit_csv(report, tmp_path / "got")
    cases = [("map_points_3.csv", "t,x,y", (t, xy), "%.9g"),
             ("clusters_3.csv", "x,y,label", (xy, labels), ["%.9g", "%.9g", "%d"])]
    for name, header, columns, fmt in cases:
        _savetxt_csv(tmp_path / name, header, columns, fmt)
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_emit_csv_reemission_identical(tmp_path):
    cfg = load_experiment(tiny_doc(trials=1))
    report = run_monte_carlo(cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    emit_csv(report, d1)
    emit_csv(report, d2)
    for p in sorted(d1.iterdir()):
        assert p.read_bytes() == (d2 / p.name).read_bytes()


# ---------------------------------------------------------------------------
# noiseless reference behavior


def test_noiseless_run_metric_nonincreasing_and_exact_localization():
    """With no noise, matching off, and an under-cap map, the mapping error
    never increases as coverage accumulates and localization is exact."""
    doc = {
        "scene": "default_scene.yaml",
        "sensor": {"backend": "parametric", "delta_r_m": 0.0,
                   "delta_theta_deg": 0.0, "bearing_step_deg": 30.0},
        "slam": {"matching_enabled": False},
        "run": {"trials": 1, "duration": 5.0, "seed": 0,
                "snapshot_cadence": 0.5, "estimate_cap": 40},
    }
    report = run_monte_carlo(load_experiment(doc))
    et = report.et_gospa_mean
    assert np.all(np.diff(et) <= 1e-9)
    assert float(np.max(report.mse_mean)) == 0.0
