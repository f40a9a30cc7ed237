"""Experiment driver: config loading, Monte Carlo replication, sweeps, CSV output.

Trials are independent units of work seeded from (seed, trial_index), so a
run is bit-reproducible at any parallelism degree; aggregation is a
sequential fold in trial-index order.  Within a trial a one-thread executor
draws the trial's standard normals ahead of the SLAM loop, in stream order
(``ReadAheadNormals``).
"""

from __future__ import annotations

import ctypes
import dataclasses
import itertools
import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional, Union

import numpy as np
import numpy.linalg._umath_linalg
import yaml

from etslam.clustering import ClusterParams, dbscan
from etslam.metrics import MetricParams, et_gospa, location_mse
from etslam.ofdm import FOV, OfdmSensor, PeakPolicy, WaveformConfig
from etslam.parametric import ErrorModel, ParametricSensor
from etslam.scene import (Scene, as_radians, convert, load_scene, parse_section,
                          require_positive)
from etslam.slam import (OdometryModel, SearchWindow, SlamConfig, run_slam, run_steps,
                         whole_steps)

CSV_HEADER_COMMENT = "# etslam csv v1"


@dataclass(frozen=True)
class ExperimentConfig:
    scene: Scene
    backend: str = "parametric"           # "parametric" | "ofdm"
    error_model: ErrorModel = ErrorModel()
    bearing_step_deg: float = 2.0
    angle_policy: PeakPolicy = PeakPolicy()
    waveform: Optional[WaveformConfig] = None
    slam: SlamConfig = SlamConfig()
    odometry: OdometryModel = OdometryModel()
    cluster: ClusterParams = ClusterParams()
    metric: MetricParams = MetricParams()
    trials: int = 20
    duration: float = 60.0
    seed: int = 0
    snapshot_cadence: float = 5.0
    estimate_cap: int = 2000
    sweep_conditions: tuple[dict, ...] = ()

    def __post_init__(self):
        if not self.scene.targets:
            raise ValueError("scene: key 'targets': at least one target required")
        # the run section's int keys as the loader converts them, so a value set past
        # it (the CLI's --trials and --seed) meets the same int64 bound and message
        parse_section({key: getattr(self, key) for key in ("trials", "seed", "estimate_cap")},
                      "run", _RUN_KEYS)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        run_steps(self.duration, self.snapshot_cadence, self.scene.trajectory.step_interval)
        require_positive(bearing_step_deg=self.bearing_step_deg)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.estimate_cap < 0:
            raise ValueError("estimate_cap must be >= 0 (0 means no cap)")
        if self.backend not in ("parametric", "ofdm"):
            raise ValueError(f"unknown sensor backend '{self.backend}'")
        self._fan()  # raises unless the step divides the backend's fan
        if self.backend == "ofdm" and self.waveform is None:
            raise ValueError("ofdm backend requires a waveform section")

    def _fan(self) -> np.ndarray:
        """The backend's ray bearings, every ``bearing_step_deg``: FOV with both ends, or
        the full circle from 0; ValueError when the step does not divide that span."""
        ofdm = self.backend == "ofdm"
        n = whole_steps(math.degrees(FOV[1] - FOV[0]) if ofdm else 360.0, self.bearing_step_deg,
                        f"the {self.backend} fan (deg)", "bearing_step_deg")
        if ofdm:
            return np.linspace(FOV[0], FOV[1], n + 1)
        return np.radians(np.arange(n) * self.bearing_step_deg)

    def make_sensor(self):
        """The backend's sensor, with its fan of ray bearings every ``bearing_step_deg``."""
        if self.backend == "ofdm":
            return OfdmSensor(self.waveform, self._fan(), self.angle_policy)
        return ParametricSensor(model=self.error_model, bearings=self._fan())

    def truth_sets(self) -> list[np.ndarray]:
        return [t.reference_points for t in self.scene.targets]


def _find_config(ref, what: str, base_dir: Optional[Path] = None) -> Path:
    """The file ``ref`` names: beside ``base_dir``, then as given, then packaged."""
    packaged = Path(resources.files("etslam") / "configs" / str(ref))
    for candidate in ([base_dir / ref] if base_dir else []) + [Path(ref), packaged]:
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"{what} '{ref}' not found")


# config key -> (dataclass field, kind), one table per dataclass
# the waveform's keys are the paper's symbols
_WAVEFORM_KEYS = {
    "fc": ("fc", float), "delta_f": ("delta_f", float), "N": ("n_subcarriers", int),
    "Nt": ("n_tx", int), "d_over_lambda": ("d_over_lambda", float),
    "snr_db": ("snr_db", lambda v: None if v is None else convert(v, float)),
}
_SENSOR_KEYS = {"backend": ("backend", str), "bearing_step_deg": ("bearing_step_deg", float)}
_ERROR_MODEL_KEYS = {"delta_r_m": ("delta_r", float), "delta_theta_deg": ("delta_theta", as_radians)}
_ANGLE_POLICY_KEYS = {"angle_peak_threshold_db": ("threshold_db", float),
                      "angle_max_peaks": ("max_peaks", int)}
_SLAM_KEYS = {"resolution": ("resolution", float), "l_occ": ("l_occ", float),
              "l_free": ("l_free", float), "matching_enabled": ("matching_enabled", bool)}
_WINDOW_KEYS = {"search_dxy_max": ("dxy_max", float), "search_dxy_step": ("dxy_step", float),
                "search_dtheta_max_deg": ("dtheta_max", as_radians),
                "search_dtheta_step_deg": ("dtheta_step", as_radians)}
_ODOMETRY_KEYS = {"translation_noise_std": ("translation_noise_std", float),
                  "rotation_noise_std_deg": ("rotation_noise_std", as_radians)}
_CLUSTER_KEYS = {"eps": ("eps", float), "min_pts": ("min_pts", int)}
_METRIC_KEYS = {key: (key, float) for key in ("c", "p", "alpha")}
_RUN_KEYS = {"trials": ("trials", int), "duration": ("duration", float), "seed": ("seed", int),
             "snapshot_cadence": ("snapshot_cadence", float), "estimate_cap": ("estimate_cap", int)}
_SWEEP_KEYS = {"conditions": ("sweep_conditions", lambda v: tuple(convert(v, list)))}
# a sweep condition takes these, the backend and the error-model keys
_CONDITION_KEYS = {"name": ("name", str), "snr_db": _WAVEFORM_KEYS["snr_db"]}
_EXPERIMENT_KEYS = {
    key: (key, dict)
    for key in ("sensor", "waveform", "slam", "odometry", "cluster", "metric", "run", "sweep")
}
# a filename, a path or a mapping
_EXPERIMENT_KEYS["scene"] = ("scene", lambda ref: ref if isinstance(ref, (dict, Path))
                             else convert(ref, str))


def load_experiment(source: Union[str, Path, dict]) -> ExperimentConfig:
    """Parse and validate an experiment YAML, its sweep conditions included."""
    if isinstance(source, dict):
        doc, base_dir = source, None
    else:
        path = _find_config(source, "config")
        doc = yaml.safe_load(path.read_text())
        base_dir = path.parent
    [top] = parse_section(doc, "experiment", _EXPERIMENT_KEYS, required=("scene",))

    def section(name, *tables):
        return parse_section(top.get(name, {}), name, *tables)

    fields, error_model, angle_policy = section("sensor", _SENSOR_KEYS, _ERROR_MODEL_KEYS,
                                                _ANGLE_POLICY_KEYS)
    slam, window = section("slam", _SLAM_KEYS, _WINDOW_KEYS)
    [odometry] = section("odometry", _ODOMETRY_KEYS)
    [cluster] = section("cluster", _CLUSTER_KEYS)
    [metric] = section("metric", _METRIC_KEYS)
    [run] = section("run", _RUN_KEYS)
    [sweep] = section("sweep", _SWEEP_KEYS)
    if "waveform" in top:
        [waveform] = parse_section(top["waveform"], "waveform", _WAVEFORM_KEYS,
                                   required=("fc", "delta_f", "N"))
        fields["waveform"] = WaveformConfig(**waveform)
    scene = top["scene"]
    cfg = ExperimentConfig(
        scene=load_scene(scene if isinstance(scene, dict)
                         else _find_config(scene, "scene document", base_dir)),
        error_model=ErrorModel(**error_model),
        angle_policy=PeakPolicy(**angle_policy),
        slam=SlamConfig(window=SearchWindow(**window), **slam),
        odometry=OdometryModel(**odometry),
        cluster=ClusterParams(**cluster),
        metric=MetricParams(**metric),
        **fields, **run, **sweep,
    )
    for k, condition in enumerate(cfg.sweep_conditions):
        try:
            apply_condition(cfg, condition)
        except ValueError as exc:
            if str(exc).startswith("sweep condition"):  # a parse error, which says so already
                raise
            name = condition.get("name", f"condition_{k}")
            raise ValueError(f"sweep condition '{name}': {exc}") from None
    _condition_names(cfg.sweep_conditions)
    return cfg


def apply_condition(cfg: ExperimentConfig, condition: dict) -> ExperimentConfig:
    """Override the backend, the noise magnitudes and the waveform SNR for one sweep condition."""
    updates, error_model, extra = parse_section(condition, "sweep condition", {
        "backend": _SENSOR_KEYS["backend"]}, _ERROR_MODEL_KEYS, _CONDITION_KEYS)
    if error_model:
        updates["error_model"] = dataclasses.replace(cfg.error_model, **error_model)
    if "snr_db" in extra:
        if cfg.waveform is None:
            raise ValueError("key 'snr_db' needs a waveform section")
        updates["waveform"] = dataclasses.replace(cfg.waveform, snr_db=extra["snr_db"])
    return dataclasses.replace(cfg, **updates)


def downsample(points: np.ndarray, cap: int) -> np.ndarray:
    """Deterministic stride downsampling to exactly ``cap`` points.

    Lists longer than the cap are strided then truncated so the estimate
    set has exactly ``cap`` members; a fixed cardinality keeps the metric's
    extra-estimate penalty constant across snapshots and conditions, so
    comparisons reflect point quality rather than sample-count jitter.
    """
    n = len(points)
    if cap <= 0 or n <= cap:
        return points
    stride = n // cap
    return points[::stride][:cap]


# values per draw of the read-ahead worker: 512 KB, about a millisecond of drawing
READ_AHEAD_PIECE = 1 << 16


class ReadAheadNormals:
    """``rng.standard_normal`` for one consumer thread, drawn ahead on a worker thread.

    A one-thread executor draws ``rng``'s stream in order, ``READ_AHEAD_PIECE``
    values per future, and the source keeps futures for at least as many values
    as the largest request so far.  numpy's normal stream does not depend on
    how it is split into requests, so each request returns the values, shape
    and type that ``rng.standard_normal(size)`` would return at the same point;
    nothing else may draw from ``rng`` meanwhile.  An exception in the worker is
    raised by the first request that needs the piece it failed to draw.
    ``close``, or leaving the ``with`` block, cancels the pending draws and
    joins the worker.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng, self._piece = rng, READ_AHEAD_PIECE
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="etslam-normals")
        self._queue: deque = deque()  # futures of the pieces after the current one
        self._want = 1                # the largest request so far
        # the consumer's piece and its next value
        self._head, self._pos = np.empty(0), 0
        self._top_up()

    def __enter__(self) -> "ReadAheadNormals":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._pool.shutdown(cancel_futures=True)

    def _top_up(self) -> None:
        while len(self._queue) * self._piece < self._want:
            self._queue.append(self._pool.submit(self._rng.standard_normal, self._piece))

    def standard_normal(self, size=None):
        out = np.empty(() if size is None else size)
        flat = out.ravel()  # a view of the fresh C-order array
        n, pos = len(flat), self._pos
        if pos + n <= len(self._head):
            flat[...] = self._head[pos:pos + n]
            self._pos = pos + n
        else:
            done = len(self._head) - pos
            flat[:done] = self._head[pos:]
            self._want = max(self._want, n)
            while done < n:
                future = self._queue.popleft()
                self._top_up()
                piece = future.result()
                take = min(len(piece), n - done)
                flat[done:done + take] = piece[:take]
                done += take
                self._head, self._pos = piece, take
        return float(out) if size is None else out


# (argtypes, restype) of OpenBLAS's thread-count functions
_OPENBLAS_SIGNATURES = {"set": ([ctypes.c_int], None), "get": ([], ctypes.c_int)}


def _openblas(action: str):
    """numpy's bundled OpenBLAS ``<action>_num_threads`` function ("set" or "get"),
    or None where numpy links another BLAS.  The symbol names differ by wheel:
    scipy-openblas (numpy >= 2), then the older ``openblas64_``."""
    # an extension module that links the library: dlsym searches its dependencies
    lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        fn = getattr(lib, f"{prefix}_{action}_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = _OPENBLAS_SIGNATURES[action]
            return fn
    return None


def one_blas_thread() -> None:
    """Run this process's BLAS on one thread, as the bench does: etslam's matmuls
    are small, and with a thread per core the pool's processes contend for the
    cores.  Environment variables act only before numpy loads; this acts after.
    A no-op without numpy's bundled OpenBLAS."""
    setter = _openblas("set")
    if setter is not None:
        setter(1)


def _trial_pool(parallel: int) -> ProcessPoolExecutor:
    """``run_monte_carlo``'s worker processes, each on one BLAS thread."""
    return ProcessPoolExecutor(max_workers=parallel, initializer=one_blas_thread)


@dataclass
class TrialRecord:
    trial_index: int
    times: np.ndarray
    et_gospa: np.ndarray
    sq_error: np.ndarray
    map_points: np.ndarray
    map_times: np.ndarray
    cluster_labels: np.ndarray


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialRecord:
    """One seeded SLAM run with per-snapshot metric evaluation."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, trial_index]))
    sensor = cfg.make_sensor()
    # the trial reads its rng only here, and only standard normals
    with ReadAheadNormals(rng) as normals:
        run = run_slam(
            cfg.scene,
            sensor,
            cfg.odometry,
            normals,
            duration=cfg.duration,
            cfg=cfg.slam,
            snapshot_cadence=cfg.snapshot_cadence,
        )
    truth = cfg.truth_sets()
    snaps = run.snapshots
    values = [et_gospa(truth, downsample(run.map_at(s), cfg.estimate_cap), cfg.metric).value
              for s in snaps]
    return TrialRecord(
        trial_index=trial_index,
        times=np.array([s.t for s in snaps]),
        et_gospa=np.array(values),
        sq_error=location_mse([s.pose_truth for s in snaps], [s.pose_estimate for s in snaps]),
        map_points=run.map_points,
        map_times=run.map_times,
        cluster_labels=dbscan(run.map_points, cfg.cluster),
    )


@dataclass
class Report:
    times: np.ndarray
    et_gospa_mean: np.ndarray
    mse_mean: np.ndarray
    per_trial_et: np.ndarray  # (trials, snapshots)
    trials: list[TrialRecord] = field(repr=False, default_factory=list)


def run_monte_carlo(cfg: ExperimentConfig, parallel: int = 1) -> Report:
    """Independent trials aggregated by arithmetic mean per snapshot, on at most
    ``parallel`` worker processes and never more than there are trials; serially
    when that is one."""
    if parallel < 1:
        raise ValueError("parallel must be >= 1")
    indices = list(range(cfg.trials))
    workers = min(parallel, cfg.trials)
    if workers > 1:
        with _trial_pool(workers) as pool:
            records = list(pool.map(run_trial, itertools.repeat(cfg), indices))
    else:
        records = [run_trial(cfg, i) for i in indices]
    per_et = np.stack([r.et_gospa for r in records])
    return Report(
        times=records[0].times,
        et_gospa_mean=per_et.mean(axis=0),
        mse_mean=np.stack([r.sq_error for r in records]).mean(axis=0),
        per_trial_et=per_et,
        trials=records,
    )


def _condition_names(conditions) -> list[str]:
    """Each sweep condition's output name, its ``name`` or ``condition_<k>``.  A repeat
    raises, and so does a name that is not one path component below the output
    directory: ``""``, ``"."``, ``".."`` or one with a ``/`` or a NUL."""
    names = [str(cond.get("name", f"condition_{k}")) for k, cond in enumerate(conditions)]
    for k, name in enumerate(names):
        if name in ("", ".", "..") or "/" in name or "\0" in name:
            raise ValueError(f"sweep condition '{name}': the name must be one path component")
        if name in names[:k]:
            raise ValueError(f"sweep condition: duplicate name '{name}'")
    return names


def sweep_conditions(cfg: ExperimentConfig, parallel: int = 1) -> list[tuple[str, Report]]:
    """One Report per condition under a shared seed for paired comparison."""
    conditions = cfg.sweep_conditions
    if not conditions:
        raise ValueError("at least one sweep condition required")
    return [(name, run_monte_carlo(apply_condition(cfg, cond), parallel=parallel))
            for name, cond in zip(_condition_names(conditions), conditions)]


def write_csv(path: Union[str, Path], header: str, columns, fmt="%.9g") -> Path:
    """One v1 CSV file: the version comment, ``header``, then a row per entry of ``columns``.

    A column is a 1-D array, a 2-D array (a column per array column) or a list,
    whose values are formatted as they are: a list of str, text formatted
    already, takes the format ``"%s"``.  ``fmt`` is one %-format for every
    column, or a list of one per column.  All rows are formatted by one ``%`` on
    the row template repeated, which gives ``np.savetxt``'s bytes for the same
    formats.
    """
    fields = []  # the file's columns, each a list of its values
    for col in columns:
        if isinstance(col, list):
            fields.append(col)
        else:
            col = np.asarray(col)
            fields += col.T.tolist() if col.ndim == 2 else [col.tolist()]
    n, k = len(fields[0]), len(fields)
    values = [None] * (n * k)
    for j, field in enumerate(fields):
        values[j::k] = field  # row-major: row i's values are values[i * k:(i + 1) * k]
    row = ",".join([fmt] * k if isinstance(fmt, str) else fmt) + "\n"
    path = Path(path)
    path.write_text(f"{CSV_HEADER_COMMENT}\n{header}\n{(row * n) % tuple(values)}")
    return path


def format_rows(fmt: str, rows: np.ndarray) -> list[str]:
    """Each row of ``rows``, shape (n,) or (n, k), as text under the row %-format
    ``fmt``, all by one ``%`` as ``write_csv`` formats them."""
    n = len(rows)
    return ((fmt + "\n") * n % tuple(rows.ravel().tolist())).split("\n")[:n]


def emit_csv(report: Report, destination: Union[str, Path]) -> list[Path]:
    """Write metric_curve.csv, agv_mse.csv, and per-trial map/cluster CSVs.

    Each map point's x, y is formatted once for both of its trial's files, and
    each distinct t (by its bits, so -0.0 keeps its sign) once.
    """
    dest = Path(destination)
    dest.mkdir(parents=True, exist_ok=True)
    written = [
        write_csv(dest / "metric_curve.csv", "t,et_gospa_mean", (report.times, report.et_gospa_mean)),
        write_csv(dest / "agv_mse.csv", "t,mse_mean", (report.times, report.mse_mean)),
    ]
    for rec in report.trials:
        xy = format_rows("%.9g,%.9g", rec.map_points)
        bits, which = np.unique(np.ascontiguousarray(rec.map_times, dtype=float).view(np.int64),
                                return_inverse=True)
        t = np.array(format_rows("%.9g", bits.view(float)), dtype=object)[which].tolist()
        written += [
            write_csv(dest / f"map_points_{rec.trial_index}.csv", "t,x,y", (t, xy), "%s"),
            write_csv(dest / f"clusters_{rec.trial_index}.csv", "x,y,label",
                      (xy, rec.cluster_labels), ["%s", "%d"]),
        ]
    return written
