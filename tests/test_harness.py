"""Monte Carlo harness tests: config loading, trials, sweeps, CSV output."""

import copy
import dataclasses
import math
import re

import numpy as np
import pytest
import yaml

from etslam.clustering import ClusterParams
from etslam.harness import (
    CSV_HEADER_COMMENT,
    ExperimentConfig,
    Report,
    TrialRecord,
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
from etslam.ofdm import WaveformConfig
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


WAVEFORM_DOC = {"fc": 28.0e9, "delta_f": 1.2e6, "M": 4, "N": 64, "Tp": 1.0 / 1.2e6,
                "Tc": 2.08e-7, "T": 1.0 / 1.2e6 + 2.08e-7}


def full_doc():
    """tiny_doc with every section present, so each one can take a bad key."""
    doc = copy.deepcopy(tiny_doc())
    doc.update(waveform=dict(WAVEFORM_DOC), slam={}, cluster={}, metric={})
    return doc


def _section(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@pytest.mark.parametrize("path, section", [
    ((), "experiment"),
    (("sensor",), "sensor"),
    (("waveform",), "waveform"),
    (("slam",), "slam"),
    (("odometry",), "odometry"),
    (("cluster",), "cluster"),
    (("metric",), "metric"),
    (("run",), "run"),
    (("sweep",), "sweep"),
    (("sweep", "conditions", 1), "sweep condition"),
    (("scene",), "scene"),
    (("scene", "bounds"), "bounds"),
    (("scene", "targets", 0), "target 1"),
    (("scene", "trajectory"), "trajectory"),
])
def test_unknown_key_names_section_and_key(path, section):
    doc = full_doc()
    _section(doc, path)["delta_thetaa"] = 1.0
    with pytest.raises(ValueError, match=f"^{re.escape(section)}: unknown key 'delta_thetaa'$"):
        load_experiment(doc)


@pytest.mark.parametrize("path, key, value, section", [
    (("run",), "trials", 2.5, "run"),
    (("run",), "trials", True, "run"),
    (("run",), "seed", "7", "run"),
    (("slam",), "matching_enabled", "no", "slam"),
    (("slam",), "matching_enabled", 1, "slam"),
    (("sensor",), "backend", 3, "sensor"),
    (("sensor",), "delta_r_m", "abc", "sensor"),
    (("cluster",), "eps", [0.5], "cluster"),
    (("metric",), "c", None, "metric"),
    (("waveform",), "M", 4.5, "waveform"),
    (("sweep", "conditions", 0), "snr_db", "high", "sweep condition"),
    (("scene", "targets", 0), "width", True, "target 1"),
    (("scene", "trajectory"), "waypoints", [0.0, 1.0], "trajectory"),
    (("scene", "bounds"), "min", [0.0, 0.0, 0.0], "bounds"),
    ((), "scene", 5, "experiment"),
    ((), "scene", None, "experiment"),
    (("scene",), "targets", [None], "scene"),
    (("scene",), "targets", [3], "scene"),
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
    with pytest.raises(ValueError, match=f"^sweep condition: unknown key '{key}'$"):
        load_experiment(doc)


@pytest.mark.parametrize("path, key, value, message", [
    (("slam",), "search_dxy_step", 0.0, "search window dxy_step must be finite and > 0"),
    (("slam",), "search_dtheta_step_deg", 0.0, "search window dtheta_step must be finite and > 0"),
    (("slam",), "search_dxy_step", -0.1, "search window dxy_step must be finite and > 0"),
    (("slam",), "search_dtheta_step_deg", -0.5, "search window dtheta_step must be finite and > 0"),
    (("slam",), "search_dxy_max", -0.3, "search window dxy_max must be finite and >= 0"),
    (("slam",), "search_dtheta_max_deg", -1.0, "search window dtheta_max must be finite and >= 0"),
    (("slam",), "resolution", 0.0, "slam resolution must be finite and > 0"),
    (("run",), "snapshot_cadence", -5.0, "snapshot_cadence must be finite and > 0"),
    (("run",), "duration", float("inf"), "duration must be finite and > 0"),
    (("sensor",), "bearing_step_deg", 0.0, "bearing_step_deg must be finite and > 0"),
    (("run",), "estimate_cap", -3, "estimate_cap must be >= 0"),
    (("run",), "seed", -1, "seed must be >= 0"),
    (("scene", "trajectory"), "waypoints", [[0.0, 0.0], [4.0, 0.0], [4.0, 0.0]],
     "trajectory segment 1 has zero length"),
    (("slam",), "l_free", -1.0, "slam l_free must be finite and > 0"),
    (("slam",), "l_free", float("inf"), "slam l_free must be finite and > 0"),
    (("slam",), "l_occ", 0.0, "slam l_occ must be finite and > 0"),
    (("slam",), "l_occ", float("nan"), "slam l_occ must be finite and > 0"),
    (("scene", "trajectory"), "speed", float("inf"), "trajectory speed must be finite and > 0"),
    (("scene", "trajectory"), "step_interval", float("nan"),
     "trajectory step_interval must be finite and > 0"),
    (("scene", "trajectory"), "waypoints", [[0.0, 0.0], [float("nan"), 0.0]],
     "trajectory waypoints must be finite"),
    (("waveform",), "fc", 0.0, "waveform fc must be finite and > 0"),
    (("waveform",), "fc", -28.0e9, "waveform fc must be finite and > 0"),
    (("waveform",), "delta_f", float("nan"), "waveform delta_f must be finite and > 0"),
    (("waveform",), "snr_db", float("nan"), "waveform snr_db must be finite"),
    (("waveform",), "d_over_lambda", float("inf"), "waveform d must be finite and > 0"),
    (("waveform",), "Tc", -2.08e-7, "waveform tc must be finite and >= 0"),
    (("waveform",), "Nr", 16, "waveform n_tx must equal n_rx"),
    (("waveform",), "T", float("nan"), "t_sym must equal tp + tc"),
    (("waveform",), "B", float("nan"), "configured bandwidth B=nan inconsistent"),
    (("sweep", "conditions", 0), "snr_db", float("nan"), "waveform snr_db must be finite"),
    (("sensor",), "angle_peak_threshold_db", float("nan"), "angle_peak_threshold_db must be finite"),
    (("sensor",), "angle_max_peaks", 0, "angle_max_peaks must be >= 1"),
    (("sensor",), "angle_max_peaks", -3, "angle_max_peaks must be >= 1"),
    (("sensor",), "delta_r_m", float("nan"), "error model delta_r must be finite and >= 0"),
    (("sensor",), "delta_theta_deg", float("inf"),
     "error model delta_theta must be finite and >= 0"),
    (("odometry",), "translation_noise_std", float("nan"),
     "odometry translation_noise_std must be finite and >= 0"),
    (("odometry",), "rotation_noise_std_deg", float("inf"),
     "odometry rotation_noise_std must be finite and >= 0"),
    (("metric",), "c", float("inf"), "metric c must be finite and > 0"),
    (("cluster",), "eps", float("inf"), "cluster eps must be finite and > 0"),
    (("sweep", "conditions", 0), "delta_r_m", float("nan"),
     "error model delta_r must be finite and >= 0"),
])
def test_out_of_range_value_rejected_at_load(path, key, value, message):
    """Each of these used to load, then crash mid-run or be read as another value."""
    doc = full_doc()
    _section(doc, path)[key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
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
    with pytest.raises(ValueError, match="sweep condition: key 'snr_db' needs a waveform"):
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


_CI_WAVEFORM = WaveformConfig(
    fc=28.0e9, delta_f=1.2e6, n_symbols=64, n_subcarriers=1024,
    tp=8.333333333333333e-07, tc=2.08e-07, t_sym=1.0413333333333333e-06,
    n_tx=32, n_rx=32, d=0.005357142857142857, snr_db=10.0)
_FULL_WAVEFORM = WaveformConfig(
    fc=28.0e9, delta_f=1.2e5, n_symbols=256, n_subcarriers=10240,
    tp=8.333333333333334e-06, tc=2.08e-06, t_sym=1.0413333333333334e-05,
    n_tx=32, n_rx=32, d=0.005357142857142857, snr_db=10.0)
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
             angle_peak_threshold_db=5.9, angle_max_peaks=4, waveform=_CI_WAVEFORM,
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
             angle_peak_threshold_db=6.0, angle_max_peaks=4, waveform=_FULL_WAVEFORM,
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
    assert np.allclose(report.mse_mean, report.per_trial_sq_error.mean(axis=0))
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
    assert serial.per_trial_sq_error.tobytes() == para.per_trial_sq_error.tobytes()
    assert len(serial.trials) == len(para.trials) == 3
    for a, b in zip(serial.trials, para.trials):
        for name in _RECORD_ARRAYS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


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
        per_trial_sq_error=np.array([[0.0, 0.125]]),
        cluster_counts=np.array([1]),
        recovered_targets=np.array([1]),
        trials=[TrialRecord(
            trial_index=0,
            times=np.array([1.0, 2.0]),
            et_gospa=np.array([5.5, 4.25]),
            sq_error=np.array([0.0, 0.125]),
            cluster_count=1,
            recovered_targets=1,
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
                    per_trial_sq_error=np.array([[0.0]]), cluster_counts=np.array([0]),
                    recovered_targets=np.array([0]),
                    trials=[TrialRecord(trial_index=0, times=np.array([1.0]),
                                        et_gospa=np.array([2.5]), sq_error=np.array([0.0]),
                                        cluster_count=0, recovered_targets=0,
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
