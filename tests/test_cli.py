"""CLI tests driven through cli.main(argv)."""

import re
from importlib import resources

import pytest
import yaml

from etslam import harness
from etslam.cli import _read_csv, build_parser, main
from etslam.clustering import ClusterParams
from etslam.metrics import MetricParams

DEFAULT_SCENE = str(resources.files("etslam") / "configs" / "default_scene.yaml")


def _write_tiny_config(tmp_path, seed=3):
    doc = {
        "scene": {
            "bounds": {"min": [-20.0, -20.0], "max": [20.0, 20.0]},
            "targets": [
                {"id": 1, "kind": "rect", "center": [10.0, 0.0],
                 "width": 2.0, "height": 2.0},
            ],
            "trajectory": {"waypoints": [[0.0, 0.0], [4.0, 0.0]],
                           "speed": 1.0, "step_interval": 0.5},
        },
        "sensor": {"backend": "parametric", "delta_r_m": 0.05,
                   "delta_theta_deg": 1.0, "bearing_step_deg": 5.0},
        "run": {"trials": 2, "duration": 2.0, "seed": seed,
                "snapshot_cadence": 1.0, "estimate_cap": 50},
        "sweep": {"conditions": [{"name": "clean", "delta_r_m": 0.0}]},
    }
    path = tmp_path / f"tiny_{seed}.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_scene_validate(capsys):
    assert main(["scene", "validate", "--config", DEFAULT_SCENE]) == 0
    out = capsys.readouterr().out
    assert "scene ok: 10 targets" in out


def test_scene_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("bounds: {min: [0, 0], max: [1, 1]}\n")
    assert main(["scene", "validate", "--config", str(bad)]) == 2
    assert "etslam: error:" in capsys.readouterr().err


def test_scene_validate_missing_path_named(tmp_path, capsys):
    missing = tmp_path / "typo.yaml"
    assert main(["scene", "validate", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert f"scene document '{missing}' not found" in err and str(missing) in err


def test_scene_validate_packaged_name_from_any_directory(tmp_path, monkeypatch, capsys):
    """A bare packaged filename resolves from a directory that lacks the file."""
    monkeypatch.chdir(tmp_path)
    assert main(["scene", "validate", "--config", "default_scene.yaml"]) == 0
    assert "scene ok: 10 targets" in capsys.readouterr().out


def test_metric_et_gospa_worked_example(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("target_id,x,y\n1,0,0\n2,10,0\n")
    est = tmp_path / "est.csv"
    est.write_text("x,y\n0,0\n10,0\n5,5\n")
    out_csv = tmp_path / "result.csv"
    rc = main(["metric", "et-gospa", "--truth", str(truth), "--est", str(est),
               "--c", "5", "--p", "1", "--alpha", "2", "--csv", str(out_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "value 2.5" in out
    assert "extra_count 1" in out
    lines = out_csv.read_text().splitlines()
    assert lines[1].startswith("value,")
    assert lines[2].split(",")[0] == "2.5"
    assert out_csv.read_bytes() == (
        b"# etslam csv v1\n"
        b"value,sum_pair_costs,cardinality_term,missed_count,extra_count\n"
        b"2.5,0,2.5,0,1\n")


def test_metric_et_gospa_p2(tmp_path, capsys):
    """c = 5, p = 2, each estimate 0.5 m off its target: the pair costs are d^p,
    not c + d^p - c^p summed to -39.875 and read as 0."""
    truth = tmp_path / "truth.csv"
    truth.write_text("target_id,x,y\n1,0,0\n2,20,0\n")
    est = tmp_path / "est.csv"
    est.write_text("x,y\n0.5,0\n20.5,0\n")
    out_csv = tmp_path / "result.csv"
    assert main(["metric", "et-gospa", "--truth", str(truth), "--est", str(est),
                 "--p", "2", "--csv", str(out_csv)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "value 0.353553391", "sum_pair_costs 0.125", "cardinality_term 0",
        "missed_count 0", "extra_count 0"]
    assert out_csv.read_text().splitlines()[1:] == [
        "value,sum_pair_costs,cardinality_term,missed_count,extra_count",
        "0.353553391,0.125,0,0,0"]


@pytest.mark.parametrize("truth_rows, est_rows, value", [
    # one target at the origin, one estimate 0.5 m off
    ("1,0,0\n", "0.5,0\n", "0.25"),
    # ragged truth, two points then one: each estimate is 0.5 m from its own target's
    # nearest point, so the value is 2 * 0.25; rows reduced into the wrong target differ
    ("1,0,0\n1,0,1\n2,20,0\n", "0.5,1\n20,0.5\n", "0.5"),
], ids=["one_target", "ragged_truth"])
def test_metric_et_gospa_default_params(tmp_path, capsys, truth_rows, est_rows, value):
    truth, est = tmp_path / "truth.csv", tmp_path / "est.csv"
    truth.write_text("target_id,x,y\n" + truth_rows)
    est.write_text("x,y\n" + est_rows)
    assert main(["metric", "et-gospa", "--truth", str(truth), "--est", str(est)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"value {value}"


def test_cluster_command(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    src.write_text("x,y\n0,0\n0,0.1\n5,5\n5,5.1\n9,9\n")
    dst = tmp_path / "labels.csv"
    rc = main(["cluster", "--input", str(src), "--output", str(dst),
               "--eps", "0.5", "--min-pts", "2"])
    assert rc == 0
    assert "2 clusters, 1 noise points" in capsys.readouterr().out
    rows = dst.read_text().splitlines()
    assert rows[1] == "x,y,label"
    assert [r.split(",")[2] for r in rows[2:]] == ["0", "0", "1", "1", "-1"]
    assert dst.read_bytes() == (
        b"# etslam csv v1\nx,y,label\n0,0,0\n0,0.1,0\n5,5,1\n5,5.1,1\n9,9,-1\n")


def test_cluster_border_point_at_default_params(tmp_path, capsys):
    """At the ``ClusterParams`` defaults, eps 0.5 and min_pts 3, (0, 0.65) is a border
    point, reached only over its one mixed edge to the core point (0, 0.2); (5, 5) is
    noise."""
    src, dst = tmp_path / "pts.csv", tmp_path / "labels.csv"
    src.write_text("x,y\n0,0\n0,0.1\n0,0.2\n0,0.65\n5,5\n")
    assert main(["cluster", "--input", str(src), "--output", str(dst)]) == 0
    assert capsys.readouterr().out == "1 clusters, 1 noise points\n"
    assert dst.read_text().splitlines()[2:] == ["0,0,0", "0,0.1,0", "0,0.2,0", "0,0.65,0", "5,5,-1"]


def test_read_csv_rejects_later_non_numeric_row(tmp_path):
    src = tmp_path / "pts.csv"
    src.write_text("# comment\nx,y\n0,0\n\nx,y\n1,1\n")
    with pytest.raises(ValueError, match=r"pts\.csv:5: non-numeric row"):
        _read_csv(str(src), 2)


@pytest.mark.parametrize("truth_rows, est_rows, message", [
    ("1,0,0x\n2,5,5\n", "5,5\n", r"truth\.csv:1: non-numeric row '1,0,0x'"),
    ("target_id,x,y\n1,0,0\n", "0.5,O\n0,0\n", r"est\.csv:1: non-numeric row '0.5,O'"),
], ids=["truth", "est"])
def test_read_csv_rejects_first_row_holding_a_number(tmp_path, capsys, truth_rows, est_rows,
                                                     message):
    """A first row with a number among its fields is data, not a header: ``1,0,0x`` was
    skipped as one, losing target 1, and scored ``value 0`` against ``5,5``."""
    truth, est = tmp_path / "truth.csv", tmp_path / "est.csv"
    truth.write_text(truth_rows)
    est.write_text(est_rows)
    assert main(["metric", "et-gospa", "--truth", str(truth), "--est", str(est)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"etslam: error: .*{message}\n", captured.err)


def test_read_csv_rejects_short_row(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("target_id,x,y\n1,0,0\n2,10\n")
    est = tmp_path / "est.csv"
    est.write_text("0,0\n")
    with pytest.raises(ValueError, match=r"truth\.csv:3: expected 3 fields, got 2"):
        _read_csv(str(truth), 3)
    assert main(["metric", "et-gospa", "--truth", str(truth), "--est", str(est)]) == 2
    assert "truth.csv:3:" in capsys.readouterr().err


def test_read_csv_rejects_long_row(tmp_path, capsys):
    """A row with a field past the file's columns was cut to them and scored
    (``value 0.25`` for both files below); now each file is refused at its row."""
    truth, est = tmp_path / "truth.csv", tmp_path / "est.csv"
    cases = [
        ("target_id,x,y\n1,0,0\n", "x,y,z\n0.5,0,99\n", r"est\.csv:2: expected 2 fields, got 3"),
        ("target_id,x,y\n1,0,0,7\n", "x,y\n0.5,0\n", r"truth\.csv:2: expected 3 fields, got 4"),
    ]
    for truth_text, est_text, message in cases:
        truth.write_text(truth_text)
        est.write_text(est_text)
        assert main(["metric", "et-gospa", "--truth", str(truth), "--est", str(est)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"etslam: error: .*{message}\n", captured.err)


@pytest.mark.parametrize("row", ["2,nan,0", "2,inf,0", "2,10,-inf", "nan,10,0"])
def test_read_csv_rejects_non_finite_field(tmp_path, capsys, row):
    """A non-finite coordinate failed later, unlocated, in the cost matrix; a NaN id
    was cast to an int and ran to exit 0 with a RuntimeWarning."""
    truth = tmp_path / "truth.csv"
    truth.write_text(f"target_id,x,y\n1,0,0\n{row}\n")
    est = tmp_path / "est.csv"
    est.write_text("0,0\n")
    with pytest.raises(ValueError, match=r"truth\.csv:3: non-finite value"):
        _read_csv(str(truth), 3)
    assert main(["metric", "et-gospa", "--truth", str(truth), "--est", str(est)]) == 2
    assert "truth.csv:3: non-finite value" in capsys.readouterr().err


def test_metric_refuses_pair_cost_bound_past_float_range(tmp_path, capsys):
    """This printed a bare ``(34, 'Numerical result out of range')``."""
    truth = tmp_path / "truth.csv"
    truth.write_text("target_id,x,y\n1,0,0\n")
    est = tmp_path / "est.csv"
    est.write_text("0,0\n")
    assert main(["metric", "et-gospa", "--truth", str(truth), "--est", str(est),
                 "--c", "1e10", "--p", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "etslam: error: metric 2*c**p must be a finite float, got c=1e+10, p=40\n")


def test_metric_refuses_a_value_past_float_range(tmp_path, capsys):
    """Three extra estimates at c^p/alpha = 1e310 each printed ``value inf`` and exited 0."""
    truth = tmp_path / "truth.csv"
    truth.write_text("target_id,x,y\n1,0,0\n")
    est = tmp_path / "est.csv"
    est.write_text("0,0\n1,0\n2,0\n3,0\n")
    assert main(["metric", "et-gospa", "--truth", str(truth), "--est", str(est),
                 "--c", "1e10", "--alpha", "1e-300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "etslam: error: metric value is not a finite float at c=1e+10, p=1, alpha=1e-300\n")


def test_metric_rejects_fractional_target_id(tmp_path, capsys):
    """Ids 1.2 and 1.7 were truncated into one target 1."""
    truth = tmp_path / "truth.csv"
    truth.write_text("target_id,x,y\n1.2,0,0\n1.7,10,0\n")
    est = tmp_path / "est.csv"
    est.write_text("0,0\n")
    assert main(["metric", "et-gospa", "--truth", str(truth), "--est", str(est)]) == 2
    err = capsys.readouterr().err
    assert f"{truth}: target id 1.2 is not an integer" in err


def test_metric_integral_float_ids_group_as_integers(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("target_id,x,y\n2.0,10,0\n1,0,0\n")
    est = tmp_path / "est.csv"
    est.write_text("x,y\n0,0\n10,0\n5,5\n")
    assert main(["metric", "et-gospa", "--truth", str(truth), "--est", str(est)]) == 0
    assert "value 2.5\n" in capsys.readouterr().out


def test_parser_defaults_are_the_dataclass_defaults():
    args = build_parser().parse_args(["metric", "et-gospa", "--truth", "t", "--est", "e"])
    assert MetricParams(c=args.c, p=args.p, alpha=args.alpha) == MetricParams()
    args = build_parser().parse_args(["cluster", "--input", "i", "--output", "o"])
    assert ClusterParams(eps=args.eps, min_pts=args.min_pts) == ClusterParams()


def test_simulate_writes_outputs(tmp_path, capsys):
    cfg = _write_tiny_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    got = capsys.readouterr().out
    assert "final mean et-gospa:" in got
    assert (out / "metric_curve.csv").exists()
    assert (out / "agv_mse.csv").exists()
    assert (out / "map_points_1.csv").exists()


def test_simulate_ofdm_writes_versioned_metric_curve(tmp_path):
    """A tiny OFDM run (N = 1024) through ``main``, which sets BLAS to one thread."""
    cfg = _write_tiny_config(tmp_path)
    doc = yaml.safe_load(cfg.read_text())
    doc["sensor"] = {"backend": "ofdm"}
    doc["waveform"] = {"fc": 28.0e9, "delta_f": 1.2e6, "N": 1024, "snr_db": 10.0}
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "metric_curve.csv").read_text().startswith(f"{harness.CSV_HEADER_COMMENT}\n")


def test_simulate_trial_override(tmp_path):
    cfg = _write_tiny_config(tmp_path)
    out = tmp_path / "out1"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--trials", "1"]) == 0
    assert not (out / "map_points_1.csv").exists()
    assert (out / "map_points_0.csv").exists()


def test_simulate_seed_override(tmp_path):
    """--seed replaces the configured seed: seed 3 overridden to 5 runs like a seed-5 config."""
    runs = {
        "configured": (_write_tiny_config(tmp_path, seed=5), []),
        "overridden": (_write_tiny_config(tmp_path, seed=3), ["--seed", "5"]),
        "base": (_write_tiny_config(tmp_path, seed=3), []),
    }
    for name, (cfg, flags) in runs.items():
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)] + flags) == 0
    files = sorted(p.name for p in (tmp_path / "base").iterdir())

    def read(name):
        return [(tmp_path / name / f).read_bytes() for f in files]

    assert read("overridden") == read("configured")
    assert read("overridden") != read("base")


def test_simulate_refuses_an_experiment_without_targets(tmp_path, capsys):
    """Refused at load, naming the scene, before any trial runs or any CSV is written."""
    cfg = _write_tiny_config(tmp_path)
    doc = yaml.safe_load(cfg.read_text())
    doc["scene"]["targets"] = []
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "etslam: error: scene: key 'targets': at least one target required\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["trials", "seed"])
def test_run_flag_outside_int64_refused_as_its_key(tmp_path, capsys, key):
    """``--trials`` or ``--seed`` past int64 is refused at load with the message that the
    same value under the file's ``run`` key gets, and no output directory is made."""
    huge = 10**20
    want = f"etslam: error: run: key '{key}': {huge} is outside int64 [-2**63, 2**63)\n"
    cfg = _write_tiny_config(tmp_path)
    for command in ("simulate", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out), f"--{key}", str(huge)]) == 2
        assert capsys.readouterr().err == want
        assert not out.exists()
    doc = yaml.safe_load(cfg.read_text())
    doc["run"][key] = huge
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 2
    assert capsys.readouterr().err == want


def test_sweep_writes_condition_dirs(tmp_path, capsys):
    cfg = _write_tiny_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert "clean: final mean et-gospa" in capsys.readouterr().out
    assert (out / "clean" / "metric_curve.csv").exists()


def test_sweep_refuses_a_condition_name_outside_out(tmp_path, capsys):
    """``../escaped`` wrote its CSVs beside ``--out``; now nothing is written."""
    cfg = tmp_path / "cfg" / "tiny.yaml"
    cfg.parent.mkdir()
    doc = yaml.safe_load(_write_tiny_config(tmp_path).read_text())
    doc["sweep"]["conditions"][0]["name"] = "../escaped"
    cfg.write_text(yaml.safe_dump(doc))
    before = sorted(tmp_path.iterdir())
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 2
    assert "sweep condition '../escaped'" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_missing_config_is_error(capsys):
    assert main(["simulate", "--config", "nope.yaml"]) == 2
    assert "etslam: error:" in capsys.readouterr().err


@pytest.mark.parametrize("parallel", [0, -4])
def test_parallel_below_one_is_error(tmp_path, capsys, parallel):
    """``--parallel 0`` or below ran serially and exited 0; the library refuses it too."""
    cfg_path = _write_tiny_config(tmp_path)
    for command in ("simulate", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--out", str(out), "--trials", "1",
                     "--parallel", str(parallel)]) == 2
        assert capsys.readouterr().err == "etslam: error: parallel must be >= 1\n"
        assert not out.exists()
    cfg = harness.load_experiment(str(cfg_path))
    for run in (harness.run_monte_carlo, harness.sweep_conditions):
        with pytest.raises(ValueError, match="^parallel must be >= 1$"):
            run(cfg, parallel=parallel)
