"""OFDM sensing chain tests: numerology, the full-frame echo reference, DFT estimators."""

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from etslam import ofdm
from etslam.harness import ReadAheadNormals, load_experiment
from etslam.ofdm import (
    C0,
    FOV,
    OfdmSensor,
    PeakPolicy,
    WaveformConfig,
    _add_noise,
    _column_buffer,
    _echo_power,
    _kronecker_column,
    _path_phases,
    bin_to_cos,
    bin_to_range,
    detect_peaks,
    sense,
)
from etslam.scene import (GroundTruthScan, Pose, ground_truth_scan, load_scene, polar_points,
                          trajectory_pose)

TABLE = dict(fc=28.0e9, delta_f=1.2e5, n_subcarriers=10240, n_tx=32, d_over_lambda=0.5)
# the frame model's symbol duration T = Tp + Tc under the table numerology: the
# elementary symbol Tp = 1/delta_f and a 2.08 us guard interval Tc
T_SYM = 1.0 / 1.2e5 + 2.08e-6
# symbols per frame of ``small_cfg``'s frames
SMALL_M = 16


def table_cfg(**overrides):
    return WaveformConfig(**dict(TABLE, **overrides))


def one_row_cfg(**overrides):
    """Full-scale numerology with one antenna: row 0 of its one-symbol frame and its
    range profile are those of ``table_cfg()``, at 1/8192 of the full cube's size."""
    return table_cfg(n_tx=1, **overrides)


def small_cfg(**overrides):
    return table_cfg(**{"n_subcarriers": 1024, "n_tx": 8, **overrides})


def load_waveform(**keys):
    """The waveform an experiment file loads from the table's keys plus ``keys``."""
    doc = dict(fc=28.0e9, delta_f=1.2e5, N=10240, Nt=32, d_over_lambda=0.5, **keys)
    return load_experiment({"scene": "default_scene.yaml", "waveform": doc}).waveform


# ---------------------------------------------------------------------------
# the references for sense's column: the delay-matrix column and the full-frame model


def delay_matrix(hi, lo, n):
    """The (L, N) delay phase from ``_path_phases``' factors: entry (l, B q + r) is
    hi[q, l] * lo[l, r]."""
    return (hi.T[:, :, None] * lo[:, None, :]).reshape(len(lo), hi.shape[0] * lo.shape[1])[:, :n]


def delay_matrix_column(cfg, ranges, bearings, rng):
    """Oracle for ``fresh_column``: one (n_tx, L) @ (L, N) matmul over the full
    delay matrix, and noise scaled from the echo power as mean(|y|**2), from the same
    (2, n_tx, N) unit draw as the column's.  The column forms each term as
    (steer * hi) * lo, not steer * (hi * lo), and sums |y|^2 in another order, so
    the two agree to a few ulp of the column's scale (``assert_within_ulps``)."""
    steer, hi, lo = _path_phases(cfg, ranges, bearings)
    y = steer @ delay_matrix(hi, lo, cfg.n_subcarriers)
    if cfg.snr_db is None:
        return y
    ref = float(np.mean(np.abs(y) ** 2)) if len(ranges) else 1.0
    z = rng.standard_normal((2,) + y.shape) * math.sqrt(ref / cfg.snr_linear / 2.0)
    y.real += z[0]
    y.imag += z[1]
    return y


def fresh_column(cfg, ranges, bearings, rng, out=None):
    """The column ``sense`` forms, written into ``out`` or an array of its own:
    ``_kronecker_column``, then with noise enabled ``_add_noise`` of one unit draw
    of ``rng``, shape (2, n_tx, N)."""
    col = _kronecker_column(cfg, ranges, bearings, _column_buffer(cfg) if out is None else out)
    if cfg.snr_db is not None:
        _add_noise(cfg, col, len(ranges) > 0, rng.standard_normal((2,) + col.shape))
    return col


# the column against the delay-matrix column: each entry sums L unit-modulus terms
# whose factors each carry a rounding error of about an ulp, and the scale is at
# least L (element 0, subcarrier 0 is the sum of L ones), so a bound of a few ulp
# of the scale holds at any L
ULPS = 8


def assert_within_ulps(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= ULPS * np.finfo(float).eps * scale


def qpsk_frame(cfg, n_symbols, rng):
    """Uniform random QPSK payload, shape (n_symbols, N); all entries unit magnitude."""
    sym = rng.integers(0, 4, size=(n_symbols, cfg.n_subcarriers))
    return np.exp(1j * (np.pi / 4.0 + sym * np.pi / 2.0))


def reference_echo(cfg, frame, ranges, bearings, amps, velocities, rng=None):
    """Received frame Y, shape (n_tx, M, N), from path arrays, with M the frame's
    symbol count; no input checks.

    Each path multiplies the frame by its delay phase across subcarriers, its
    Doppler phase across symbols, T_SYM apart, and its steering phase, times
    its amplitude, across the array's elements.  With noise enabled,
    ``_add_noise`` adds one unit draw of ``rng``.  At M = 1 on a unit frame with
    unit amplitudes, the amplitude and the Doppler phase are exactly 1, so the
    matmul is ``delay_matrix_column``'s.
    """
    m = frame.shape[0]
    steer, hi, lo = _path_phases(cfg, ranges, bearings)
    delay = delay_matrix(hi, lo, cfg.n_subcarriers)
    steer = steer.T * amps[:, None]
    doppler = np.exp(2j * np.pi * np.outer(2.0 * velocities * cfg.fc / C0 * T_SYM,
                                           np.arange(m)))
    # one (n_tx * M, L) @ (L, N) matmul; explicit sizes, so no paths reshape too
    steer_doppler = steer[:, :, None] * doppler[:, None, :]
    y = steer_doppler.reshape(len(ranges), cfg.n_tx * m).T @ delay
    y = y.reshape(cfg.n_tx, m, cfg.n_subcarriers) * frame
    if cfg.snr_db is None:
        return y
    return _add_noise(cfg, y, len(ranges) > 0, rng.standard_normal((2,) + y.shape))


def one_path_echo(cfg, frame, r, velocity=0.0, amp=1.0, bearing=math.pi / 2, rng=None):
    """``reference_echo`` of one path, broadside and static by default."""
    return reference_echo(cfg, frame, np.array([r]), np.array([bearing]),
                          np.array([amp], dtype=complex), np.array([velocity]), rng)


def reference_column(cfg, ranges, bearings, rng):
    """``sense``'s column from the full-frame model: symbol 0 of a one-symbol unit
    frame with unit amplitudes, whose (2, n_tx, 1, N) noise draw is the column's
    (2, n_tx, N) stream."""
    return reference_echo(cfg, np.ones((1, cfg.n_subcarriers)), ranges, bearings,
                          np.ones(len(ranges), dtype=complex), np.zeros(len(ranges)),
                          rng)[:, 0, :]


# ---------------------------------------------------------------------------
# numerology


def test_table_derived_quantities():
    cfg = table_cfg()
    assert cfg.range_bin_width == pytest.approx(0.1220703125, abs=1e-10)
    assert cfg.unambiguous_range == pytest.approx(1250.0)
    assert cfg.range_bin_width * cfg.n_subcarriers == pytest.approx(cfg.unambiguous_range)
    assert cfg.n_subcarriers * cfg.delta_f == pytest.approx(1.2288e9)
    assert cfg.wavelength == pytest.approx(C0 / 28.0e9)
    assert cfg.d == pytest.approx(cfg.wavelength / 2.0)


def test_invalid_symbol_durations_rejected():
    """The symbol durations are not keys: Tp is 1/delta_f, and the sensing chain
    reads neither the guard interval Tc nor T = Tp + Tc, so each is refused,
    even at its consistent value."""
    for key, value in (("Tp", 1e-5), ("Tp", 1.0 / 1.2e5), ("Tc", 2.08e-6),
                       ("T", 1.9e-5), ("T", T_SYM)):
        with pytest.raises(ValueError, match=f"^waveform: unknown key '{key}'$"):
            load_waveform(**{key: value})


def test_inconsistent_bandwidth_rejected():
    """The bandwidth is N * delta_f, not a key: B is refused, whatever its value."""
    for value in (2.0e9, 1.2288e9):
        with pytest.raises(ValueError, match="^waveform: unknown key 'B'$"):
            load_waveform(B=value)


def test_bandwidth_within_tolerance_accepted():
    """Both packaged waveforms keep the paper's 1.23 GHz as N * delta_f, within the
    1% that the retired B key was held to."""
    for config in ("ci.yaml", "full_scale.yaml"):
        cfg = load_experiment(config).waveform
        assert cfg.n_subcarriers * cfg.delta_f == 1.2288e9 == pytest.approx(1.23e9, rel=0.01)


def test_symbol_count_is_the_frames():
    """The symbol count M belongs to the frame model, not to the config."""
    with pytest.raises(ValueError, match="^waveform: unknown key 'M'$"):
        load_waveform(M=256)
    assert qpsk_frame(small_cfg(), 3, np.random.default_rng(0)).shape == (3, 1024)


def test_d_over_lambda_kept_as_written():
    """``d_over_lambda`` is stored as written, and ``d`` is the spacing in meters that
    the config used to store: ``d_over_lambda * wavelength``, or half a wavelength
    when the key is omitted, bit for bit."""
    for value in (0.5, 0.3, 0.25, 1.0 / 3.0):
        cfg = table_cfg(d_over_lambda=value)
        assert cfg.d_over_lambda == value
        assert cfg.d == value * (C0 / 28.0e9)
    cfg = WaveformConfig(fc=28.0e9, delta_f=1.2e5, n_subcarriers=10240)
    assert cfg.d_over_lambda == 0.5 and cfg.d == (C0 / 28.0e9) / 2.0


# ---------------------------------------------------------------------------
# frame generation


def test_frame_deterministic():
    cfg = small_cfg()
    f1 = qpsk_frame(cfg, SMALL_M, np.random.default_rng(5))
    f2 = qpsk_frame(cfg, SMALL_M, np.random.default_rng(5))
    assert np.array_equal(f1, f2)


def test_frame_unit_magnitude():
    frame = qpsk_frame(small_cfg(), SMALL_M, np.random.default_rng(1))
    assert np.allclose(np.abs(frame), 1.0, atol=1e-12)


def test_frame_shape():
    frame = qpsk_frame(small_cfg(n_subcarriers=4), 1, np.random.default_rng(1))
    assert frame.shape == (1, 4)


# ---------------------------------------------------------------------------
# echo synthesis and equalization


def test_zero_paths_noiseless():
    cfg = small_cfg()
    frame = qpsk_frame(cfg, SMALL_M, np.random.default_rng(2))
    none = np.zeros(0)
    y = reference_echo(cfg, frame, none, none, none.astype(complex), none)
    assert y.shape == (cfg.n_tx, SMALL_M, cfg.n_subcarriers)
    assert np.all(y == 0)


def test_identity_channel():
    cfg = small_cfg()
    frame = qpsk_frame(cfg, SMALL_M, np.random.default_rng(2))
    y = one_path_echo(cfg, frame, 0.0)
    assert np.allclose(y[0], frame, atol=1e-12)
    assert np.allclose(y[0] / frame, 1.0, atol=1e-12)


def test_delay_phase_progression():
    cfg = one_row_cfg()
    frame = qpsk_frame(cfg, 1, np.random.default_rng(3))
    y = one_path_echo(cfg, frame, 10.0)
    ratio = y[0, 0, :] / frame[0, :]
    inc = np.angle(ratio[1:] / ratio[:-1])
    want = -2.0 * math.pi * cfg.delta_f * 2.0 * 10.0 / C0
    assert np.allclose(inc, want, atol=1e-9)


def test_single_path_constant_modulus():
    cfg = small_cfg()
    frame = qpsk_frame(cfg, SMALL_M, np.random.default_rng(4))
    s_g = one_path_echo(cfg, frame, 7.0, amp=0.5j) / frame
    assert np.allclose(np.abs(s_g), 0.5, atol=1e-12)


def test_equalized_column_matches_synthesis_noiseless():
    """sense's analytic symbol-0 column equals the equalized full frame without noise."""
    cfg = small_cfg()
    assert cfg.snr_db is None
    frame = qpsk_frame(cfg, SMALL_M, np.random.default_rng(6))
    ranges = np.array([3.1, 17.45, 42.0])
    bearings = np.array([0.6, math.pi / 2, 2.3])
    col = fresh_column(cfg, ranges, bearings, None)
    want = (reference_echo(cfg, frame, ranges, bearings, np.ones(3, dtype=complex),
                           np.zeros(3)) / frame)[:, 0, :]
    assert col.shape == want.shape == (cfg.n_tx, cfg.n_subcarriers)
    np.testing.assert_allclose(col, want, rtol=1e-9, atol=0.0)


def test_full_scale_cube_every_antenna_and_symbol():
    """At full N and 32 rx (M = 4 keeps the cube at 21 MB), every antenna's and
    symbol's range profile peaks at the path's nearest bin, the DFT across the
    antennas at its bearing's bin, and symbol 0 is ``sense``'s analytic column."""
    cfg = table_cfg()
    frame = qpsk_frame(cfg, 4, np.random.default_rng(3))
    bearing = math.radians(60.0)
    s_g = one_path_echo(cfg, frame, 10.0, bearing=bearing) / frame
    assert s_g.shape == (32, 4, 10240)
    profiles = np.fft.ifft(s_g, axis=-1)
    assert (np.argmax(np.abs(profiles), axis=-1) == 82).all()
    assert (np.argmax(np.abs(np.fft.fft(profiles[..., 82], axis=0)), axis=0) == 8).all()
    col = fresh_column(cfg, np.array([10.0]), np.array([bearing]), None)
    np.testing.assert_allclose(col, s_g[:, 0, :], rtol=1e-9, atol=0.0)


def test_out_of_window_paths_rejected():
    """``sense`` refuses a ray whose range wraps past the unambiguous window."""
    cfg = small_cfg()
    scene = _one_circle_scene(cfg.unambiguous_range + 10.0)
    with pytest.raises(ValueError, match="^path range outside unambiguous window c0/"):
        _sense_at(scene, Pose(3.0, 3.0, 0.0), _sensor(cfg), np.random.default_rng(0))


def test_unambiguous_window_closed_at_its_bound():
    """A path at exactly c0/(2*delta_f), about 125 m at ``ci.yaml``'s spacing, wraps to 0
    and is refused; the float just below it is sensed."""
    exp = load_experiment("ci.yaml")
    cfg = dataclasses.replace(exp.waveform, snr_db=None)
    sensor = dataclasses.replace(exp, backend="ofdm", waveform=cfg).make_sensor()
    rng = np.random.default_rng(0)

    def one_path(r):
        return GroundTruthScan(bearings=sensor.bearings[:1], ranges=np.array([r]),
                               points=np.zeros((1, 2)))

    with pytest.raises(ValueError, match="^path range outside unambiguous window c0/"):
        sense(one_path(cfg.unambiguous_range), sensor, rng)
    assert len(sense(one_path(np.nextafter(cfg.unambiguous_range, 0.0)), sensor, rng)) > 0


def test_snr_calibration():
    """Equalized pure noise has power equal to the configured noise power."""
    cfg = small_cfg(snr_db=10.0)
    rng = np.random.default_rng(8)
    frame = qpsk_frame(cfg, SMALL_M, rng)
    none = np.zeros(0)
    powers = []
    for _ in range(20):
        y = reference_echo(cfg, frame, none, none, none.astype(complex), none, rng)
        powers.append(np.mean(np.abs(y / frame) ** 2))
    want = 1.0 / cfg.snr_linear  # reference power 1 when there are no paths
    assert np.mean(powers) == pytest.approx(want, rel=0.05)


@pytest.mark.parametrize("n_paths", [0, 1, 71])
@pytest.mark.parametrize("n", [1, 127, 128, 129, 1000, 1024, 4096, 10240])
def test_path_phases_delay_matches_direct_exp(n, n_paths):
    """The blockwise-factored delay phase against one exponential per entry: the
    block (the smallest power of two >= sqrt(N)) is 32 at N = 1000, which truncates
    the last block, and 64 at N = 4096, an exact fit."""
    cfg = table_cfg(n_subcarriers=n)
    rng = np.random.default_rng(n + n_paths)
    ranges = rng.uniform(0.0, cfg.unambiguous_range, n_paths)
    bearings = rng.uniform(0.0, math.pi, n_paths)
    _, hi, lo = _path_phases(cfg, ranges, bearings)
    delay = delay_matrix(hi, lo, n)
    direct = np.exp(-2j * np.pi * np.outer(2.0 * ranges / C0 * cfg.delta_f, np.arange(n)))
    assert delay.shape == (n_paths, n)
    assert np.max(np.abs(delay - direct), initial=0.0) <= 1e-10


@pytest.mark.parametrize("snr_db", [None, 10.0])
@pytest.mark.parametrize("n_paths", [0, 1, 71])
@pytest.mark.parametrize("n", [1, 127, 128, 129, 1000, 1024, 4096, 10240])
def test_column_within_ulps_of_delay_matrix_column(n, n_paths, snr_db):
    """The Kronecker gemm's column against the delay-matrix oracle, noisy and not:
    within a few ulp of the column's scale, from the same draw.  It is the first N
    columns of the array it was written into, a view when the last block is cut
    (N = 127, 129, 1000); no paths give the zero column, or pure noise at
    reference power 1."""
    cfg = table_cfg(n_subcarriers=n, snr_db=snr_db)
    rng = np.random.default_rng(n + n_paths)
    ranges = rng.uniform(0.0, cfg.unambiguous_range, n_paths)
    bearings = rng.uniform(0.0, math.pi, n_paths)
    out = _column_buffer(cfg)
    got_rng, want_rng = np.random.default_rng(1), np.random.default_rng(1)
    got = fresh_column(cfg, ranges, bearings, got_rng, out)
    want = delay_matrix_column(cfg, ranges, bearings, want_rng)
    assert got.base is out and got.shape == (cfg.n_tx, n)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    if n_paths == 0:
        assert got.tobytes() == want.tobytes()
    else:
        assert_within_ulps(got, want)


def test_echo_power_is_mean_squared_magnitude():
    """The one-dot echo power of a strided view (the column of a cut last block) and
    of a 3-D array, against mean(|y|**2)."""
    rng = np.random.default_rng(2)
    full = rng.standard_normal((32, 1024)) + 1j * rng.standard_normal((32, 1024))
    for y in (full[:, :1000], full.reshape(4, 8, 1024)):
        assert _echo_power(y) == pytest.approx(float(np.mean(np.abs(y) ** 2)), rel=1e-13)


def _add_noise_two_draws(cfg, y, has_paths, rng):
    """Reference: real parts then imaginary parts in two draws, added out of place."""
    ref = _echo_power(y) if has_paths else 1.0
    sigma2 = ref / cfg.snr_linear
    return y + math.sqrt(sigma2 / 2.0) * (
        rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    )


@pytest.mark.parametrize("shape", [(8, 1024), (3, 4, 5)])
@pytest.mark.parametrize("has_paths", [True, False])
def test_add_noise_matches_two_draw_formula(shape, has_paths):
    cfg = small_cfg(snr_db=7.0)
    gen = np.random.default_rng(21)
    y = gen.standard_normal(shape) + 1j * gen.standard_normal(shape) if has_paths \
        else np.zeros(shape, dtype=complex)
    want_rng, got_rng = np.random.default_rng(5), np.random.default_rng(5)
    want = _add_noise_two_draws(cfg, y.copy(), has_paths, want_rng)
    y_in = y.copy()
    got = _add_noise(cfg, y_in, has_paths, got_rng.standard_normal((2,) + shape))
    assert got is y_in  # noise is added in place
    assert np.array_equal(got, want)
    assert got_rng.random() == want_rng.random()  # same number of draws


# ---------------------------------------------------------------------------
# profiles


def test_range_profile_zero_delay():
    cfg = small_cfg()
    frame = qpsk_frame(cfg, SMALL_M, np.random.default_rng(2))
    s_g = one_path_echo(cfg, frame, 0.0) / frame
    assert int(np.argmax(np.abs(np.fft.ifft(s_g[0, 0])))) == 0


def test_range_profile_nearest_bin():
    """The IDFT peak lands on the bin nearest 2rN*delta_f/c0.

    At r = 10 m under the full-scale numerology the fractional bin is 81.92,
    so the peak is bin 82, whose centre is the placed range (see README).
    """
    cfg = one_row_cfg()
    frame = qpsk_frame(cfg, 1, np.random.default_rng(3))
    s_g = one_path_echo(cfg, frame, 10.0) / frame
    assert int(np.argmax(np.abs(np.fft.ifft(s_g[0, 0])))) == 82


def test_range_profile_whole_bin_is_nearest_bin():
    """A range anywhere in bin i's centred interval peaks at bin i, within w/2 of its centre."""
    cfg = one_row_cfg()
    rng = np.random.default_rng(17)
    frame = qpsk_frame(cfg, 1, rng)
    w = cfg.range_bin_width
    for _ in range(10):
        i = int(rng.integers(8, 800))
        r = (i + float(rng.uniform(-0.49, 0.49))) * w
        s_g = one_path_echo(cfg, frame, r) / frame
        peak = int(np.argmax(np.abs(np.fft.ifft(s_g[0, 0]))))
        assert peak == i == round(2.0 * r * cfg.n_subcarriers * cfg.delta_f / C0)
        assert abs(bin_to_range(peak, cfg) - r) < w / 2


def test_range_profile_two_paths_resolved():
    cfg = one_row_cfg()
    frame = qpsk_frame(cfg, 1, np.random.default_rng(3))
    y = reference_echo(cfg, frame, np.array([20.0, 25.0]), np.full(2, math.pi / 2),
                       np.ones(2, dtype=complex), np.zeros(2))
    prof = np.abs(np.fft.ifft(y[0, 0] / frame[0]))
    peaks = np.flatnonzero(detect_peaks(prof, PeakPolicy(threshold_db=12.0, max_peaks=2)))
    assert len(peaks) == 2
    assert abs((peaks[1] - peaks[0]) - 5.0 / cfg.range_bin_width) <= 1.0


def test_idft_dft_roundtrip():
    rng = np.random.default_rng(10)
    col = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    back = np.fft.fft(np.fft.ifft(col))
    assert np.max(np.abs(back - col)) / np.max(np.abs(col)) < 1e-9


def test_velocity_profile_zero_doppler():
    cfg = small_cfg()
    frame = qpsk_frame(cfg, SMALL_M, np.random.default_rng(2))
    s_g = one_path_echo(cfg, frame, 5.0) / frame
    assert int(np.argmax(np.abs(np.fft.fft(s_g[0, :, 0])))) == 0


def test_velocity_profile_one_bin():
    cfg = small_cfg()
    frame = qpsk_frame(cfg, SMALL_M, np.random.default_rng(2))
    v = C0 / (2.0 * cfg.fc * SMALL_M * T_SYM)  # one Doppler bin
    s_g = one_path_echo(cfg, frame, 5.0, velocity=v) / frame
    assert int(np.argmax(np.abs(np.fft.fft(s_g[0, :, 0])))) == 1


def test_velocity_profile_negative_wraps():
    cfg = small_cfg()
    frame = qpsk_frame(cfg, SMALL_M, np.random.default_rng(2))
    v = C0 / (2.0 * cfg.fc * SMALL_M * T_SYM)
    s_g = one_path_echo(cfg, frame, 5.0, velocity=-v) / frame
    assert int(np.argmax(np.abs(np.fft.fft(s_g[0, :, 0])))) == SMALL_M - 1


def test_angle_spectrum_broadside():
    cfg = table_cfg()
    omega = (2.0 * math.pi * cfg.d / cfg.wavelength) * math.cos(math.pi / 2.0)
    snap = np.exp(1j * omega * np.arange(cfg.n_tx))
    assert int(np.argmax(np.abs(np.fft.fft(snap)))) == 0


def test_angle_spectrum_single_bin():
    nt = 32
    snap = np.exp(1j * (2.0 * math.pi / nt) * np.arange(nt))
    assert int(np.argmax(np.abs(np.fft.fft(snap)))) == 1


def test_angle_spectrum_60_degrees():
    cfg = table_cfg()
    omega = (2.0 * math.pi * cfg.d / cfg.wavelength) * math.cos(math.radians(60.0))
    snap = np.exp(1j * omega * np.arange(cfg.n_tx))
    assert int(np.argmax(np.abs(np.fft.fft(snap)))) == 8


# ---------------------------------------------------------------------------
# bin conversions


def test_bin_to_range_examples():
    cfg = table_cfg()
    assert bin_to_range(0, cfg) == 0.0
    assert bin_to_range(81, cfg) == pytest.approx(9.8877, abs=5e-4)
    np.testing.assert_array_equal(bin_to_range(np.array([0, 81]), cfg),
                                  [0.0, 81 * cfg.range_bin_width])
    with pytest.raises(IndexError):
        bin_to_range(cfg.n_subcarriers, cfg)


def test_bin_to_angle_examples():
    cfg = table_cfg()
    theta = np.degrees(np.arccos(bin_to_cos(np.array([0, 8]), cfg)))
    assert theta[0] == pytest.approx(90.0, abs=1e-9)
    assert theta[1] == pytest.approx(60.0, abs=1e-6)
    with pytest.raises(IndexError):
        bin_to_cos(cfg.n_tx, cfg)


def test_bin_to_angle_invisible_region():
    cfg = table_cfg(d_over_lambda=0.25)  # only |cos| <= 1 bins are visible
    cos = bin_to_cos(np.arange(cfg.n_tx), cfg)
    assert cos[8] == pytest.approx(1.0) and cos[24] == pytest.approx(-1.0)
    assert np.flatnonzero(np.abs(cos) <= 1.0).tolist() == [*range(9), *range(24, 32)]


def test_bin_to_angle_roundtrip():
    """A bearing anywhere in angle bin i's centred cos interval peaks at bin i,
    within half a bin of its centre (see README)."""
    cfg = table_cfg()
    nt = cfg.n_tx
    scale = cfg.wavelength / (cfg.d * nt)
    rng = np.random.default_rng(23)
    checked = 0
    for i in range(nt):
        ip = i if i < nt / 2 else i - nt
        for frac in rng.uniform(-0.49, 0.49, size=8):
            a = (ip + frac) * scale
            if not -1.0 <= a <= 1.0:
                continue
            omega = (2.0 * math.pi * cfg.d / cfg.wavelength) * a
            snap = np.exp(1j * omega * np.arange(nt))
            peak = int(np.argmax(np.abs(np.fft.fft(snap))))
            assert peak == i
            assert abs(bin_to_cos(peak, cfg) - a) < scale / 2
            checked += 1
    assert checked >= 8 * (nt - 1)


# ---------------------------------------------------------------------------
# peak detection


def _reference_detect_peaks(magnitudes: np.ndarray, policy: PeakPolicy) -> np.ndarray:
    """Greedy reference for one spectrum: candidates strongest first (stable), each
    kept unless within one bin of a kept peak, until ``max_peaks`` are kept."""
    mag = np.asarray(magnitudes, dtype=float)
    thr = float(np.median(mag)) * 10.0 ** (policy.threshold_db / 20.0)
    left = np.concatenate([[-np.inf], mag[:-1]])
    right = np.concatenate([mag[1:], [-np.inf]])
    idx = np.flatnonzero((mag >= left) & (mag >= right) & (mag > thr) & (mag > 0.0))
    kept: list[int] = []
    for i in idx[np.argsort(-mag[idx], kind="stable")]:
        if all(abs(i - j) > 1 for j in kept):
            kept.append(int(i))
        if len(kept) >= policy.max_peaks:
            break
    return np.array(kept, dtype=int)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 5), n=st.integers(1, 40),
       threshold_db=st.sampled_from([0.0, 3.0, 6.0, 12.0]),
       values=st.sampled_from([st.floats(0.0, 100.0),
                               st.integers(0, 3).map(float)]))  # ties and plateaus
def test_detect_peaks_mask_matches_greedy_reference(data, n_rows, n, threshold_db, values):
    """The batched peak mask keeps, in every row, exactly the greedy reference's peaks."""
    spectra = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                          min_size=n_rows, max_size=n_rows)))
    policy = PeakPolicy(threshold_db=threshold_db, max_peaks=data.draw(st.integers(1, n)))
    mask = detect_peaks(spectra, policy)
    assert mask.shape == spectra.shape and mask.dtype == bool
    for row, got in zip(spectra, mask):
        want = np.sort(_reference_detect_peaks(row, policy))
        assert np.flatnonzero(got).tolist() == want.tolist()
        assert np.array_equal(detect_peaks(row, policy), got)  # 1-D call, same row


def test_detect_peaks_empty_spectrum():
    mask = detect_peaks(np.zeros(64), PeakPolicy(threshold_db=12.0, max_peaks=64))
    assert mask.shape == (64,) and not mask.any()


def test_peak_policy_defaults():
    assert PeakPolicy() == PeakPolicy(threshold_db=6.0, max_peaks=4)


@pytest.mark.parametrize("threshold_db, max_peaks, message", [
    (math.nan, 1, "peak policy threshold_db must be finite"),
    (math.inf, 1, "peak policy threshold_db must be finite"),
    (6.0, 0, "peak policy max_peaks must be >= 1"),
    (6.0, -3, "peak policy max_peaks must be >= 1"),
])
def test_peak_policy_built_in_code_checks_its_fields(threshold_db, max_peaks, message):
    """Each of these was taken, and detect_peaks then returned no peaks without an error."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        PeakPolicy(threshold_db=threshold_db, max_peaks=max_peaks)


def test_detect_peaks_rejects_empty_input():
    with pytest.raises(ValueError):
        detect_peaks(np.zeros(0), PeakPolicy(threshold_db=12.0, max_peaks=1))


def test_detect_peaks_single_tone():
    cfg = one_row_cfg()
    frame = qpsk_frame(cfg, 1, np.random.default_rng(3))
    r = 40.0 * cfg.range_bin_width  # on-bin tone: the profile is a clean spike
    prof = np.abs(np.fft.ifft(one_path_echo(cfg, frame, r)[0, 0] / frame[0]))
    peaks = detect_peaks(prof, PeakPolicy(threshold_db=12.0, max_peaks=1))
    assert np.flatnonzero(peaks).tolist() == [40]  # strongest peak; noiseless floor is numerical
    noisy = one_row_cfg(snr_db=20.0)
    s_g = one_path_echo(noisy, frame, r, rng=np.random.default_rng(9)) / frame
    peaks = detect_peaks(np.abs(np.fft.ifft(s_g[0, 0])), PeakPolicy(threshold_db=12.0, max_peaks=1))
    assert np.flatnonzero(peaks).tolist() == [40]


def test_detect_peaks_max_count_and_order():
    spec = np.zeros(64)
    spec[[10, 20, 30]] = [3.0, 5.0, 4.0]
    spec += 0.01
    peaks = detect_peaks(spec, PeakPolicy(threshold_db=6.0, max_peaks=2))
    assert np.flatnonzero(peaks).tolist() == [20, 30]  # the two strongest, capped
    strongest = detect_peaks(spec, PeakPolicy(threshold_db=6.0, max_peaks=1))
    assert np.flatnonzero(strongest).tolist() == [20]


def test_detect_peaks_adjacent_suppressed():
    spec = np.full(64, 0.01)
    spec[10], spec[11] = 5.0, 5.0  # equal plateau: both local maxima
    peaks = detect_peaks(spec, PeakPolicy(threshold_db=6.0, max_peaks=len(spec)))
    assert np.flatnonzero(peaks).tolist() == [10]  # second one is within one bin of the first


@pytest.mark.parametrize("run", [3, 4, 5])
def test_detect_peaks_run_keeps_every_other_bin_from_low_end(run):
    spec = np.full(64, 0.01)
    spec[20:20 + run] = 5.0  # a plateau: every bin of it is a local maximum
    peaks = detect_peaks(spec, PeakPolicy(threshold_db=6.0, max_peaks=len(spec)))
    assert np.flatnonzero(peaks).tolist() == list(range(20, 20 + run, 2))


def test_detect_peaks_stacked_runs_and_equal_value_cut():
    """Rows of a stack pick like 1-D calls: plateaus of 3-5 bins keep every other
    bin from the low end, and a max_peaks cut among equal values keeps the
    lower bins, after any stronger peak."""
    rows = np.full((5, 48), 0.01)
    rows[0, 3:6] = 2.0
    rows[1, 10:14] = 2.0
    rows[1, 30] = 2.0
    rows[2, 40:45] = 2.0
    rows[3, [5, 15, 25, 35]] = 2.0
    rows[4, [5, 15, 25]] = 2.0
    rows[4, 35] = 3.0
    policy = PeakPolicy(threshold_db=6.0, max_peaks=2)
    mask = detect_peaks(rows, policy)
    assert [np.flatnonzero(r).tolist() for r in mask] == [[3, 5], [10, 12], [40, 42], [5, 15],
                                                          [5, 35]]
    for row, got in zip(rows, mask):
        assert np.array_equal(detect_peaks(row, policy), got)
        assert np.flatnonzero(got).tolist() == sorted(_reference_detect_peaks(row, policy))


# ---------------------------------------------------------------------------
# end-to-end sensing


def _one_circle_scene(range_to_face: float):
    """Circle broadside (bearing 90 deg) of a pose at (3, 3) heading 0."""
    radius = 1.0
    top = max(30.0, 3.0 + range_to_face + 3.0 * radius)
    return load_scene({
        "bounds": {"min": [0.0, 0.0], "max": [30.0, top]},
        "targets": [{"id": 1, "kind": "circle",
                     "center": [3.0, 3.0 + range_to_face + radius],
                     "radius": radius}],
        "trajectory": {"waypoints": [[3.0, 3.0], [4.0, 3.0]],
                       "speed": 1.0, "step_interval": 0.5},
    })


def _sensor(cfg):
    """The default experiment's OFDM sensor on waveform ``cfg``: its fan does not
    depend on the scene, and an experiment's scene has a target."""
    exp = load_experiment({"scene": "default_scene.yaml"})
    return dataclasses.replace(exp, backend="ofdm", waveform=cfg).make_sensor()


def _sense_at(scene, pose, sensor, rng):
    """``sense`` on the ground-truth scan of the sensor's fan from ``pose``."""
    return sense(ground_truth_scan(scene, pose, sensor.bearings), sensor, rng)


def _empty_scene():
    return load_scene({
        "bounds": {"min": [0.0, 0.0], "max": [10.0, 10.0]},
        "targets": [],
        "trajectory": {"waypoints": [[1.0, 1.0], [2.0, 1.0]],
                       "speed": 1.0, "step_interval": 0.5},
    })


def test_sense_empty_scene():
    cfg = small_cfg()
    scene = _empty_scene()
    scan = _sense_at(scene, Pose(1.0, 1.0, 0.0), _sensor(cfg), np.random.default_rng(0))
    assert len(scan) == 0
    # noise alone gives no range peak, so the angle stage runs on none
    noisy = _sense_at(scene, Pose(1.0, 1.0, 0.0), _sensor(small_cfg(snr_db=10.0)),
                  np.random.default_rng(0))
    assert len(noisy) == 0


def _bins_containing(cfg, r, b):
    """Each (range bin, angle bin) pair whose centred intervals contain (r, cos b)."""
    scale = cfg.wavelength / (cfg.d * cfg.n_tx)
    cos = bin_to_cos(np.arange(cfg.n_tx), cfg)
    return [(i, a) for i in range(cfg.n_subcarriers)
            if abs(bin_to_range(i, cfg) - r) <= cfg.range_bin_width / 2
            for a in range(cfg.n_tx) if abs(cos[a] - math.cos(b)) <= scale / 2]


def test_sense_single_target_interval_contains_truth():
    cfg = small_cfg(snr_db=30.0)
    r_true = 8.25 * cfg.range_bin_width  # bin 8's centred interval, ~10.07 m
    scene = _one_circle_scene(r_true)
    scan = _sense_at(scene, Pose(3.0, 3.0, 0.0), _sensor(cfg), np.random.default_rng(12))
    assert len(scan) >= 1
    rows = {row.tobytes() for row in scan}
    pairs = _bins_containing(cfg, r_true, math.pi / 2)
    centres = polar_points(bin_to_range(np.array([i for i, _ in pairs]), cfg),
                           np.arccos(bin_to_cos(np.array([a for _, a in pairs]), cfg)))
    assert len(centres)
    assert any(c.tobytes() in rows for c in centres), \
        "no detection sits at the centres of the bins holding the true range and bearing"


@pytest.mark.parametrize("theta_deg", [25.0, 61.0, 90.0, 117.5, 155.0])
def test_sense_places_detection_at_bin_centre(theta_deg):
    """A noiseless one-ray sensor at a circle at range r and bearing theta has a
    detection within w/2 of r and within half an angle bin of cos(theta)."""
    exp = load_experiment("ci.yaml")
    cfg = dataclasses.replace(exp.waveform, snr_db=None)
    theta = math.radians(theta_deg)
    fan = dataclasses.replace(exp, backend="ofdm", waveform=cfg).make_sensor()
    sensor = dataclasses.replace(fan, bearings=np.array([theta]))
    w = cfg.range_bin_width
    scale = cfg.wavelength / (cfg.d * cfg.n_tx)
    rng = np.random.default_rng(int(theta_deg * 10))
    for _ in range(8):
        r = (int(rng.integers(10, 200)) + float(rng.uniform(-0.49, 0.49))) * w
        radius = 0.5
        centre = (r + radius) * np.array([math.cos(theta), math.sin(theta)])
        scene = load_scene({
            "bounds": {"min": [-40.0, -40.0], "max": [40.0, 40.0]},
            "targets": [{"id": 1, "kind": "circle", "center": centre.tolist(),
                         "radius": radius}],
            "trajectory": {"waypoints": [[0.0, 0.0], [1.0, 0.0]],
                           "speed": 1.0, "step_interval": 0.5},
        })
        scan = _sense_at(scene, Pose(0.0, 0.0, 0.0), sensor, rng)
        ranges = np.hypot(scan[:, 0], scan[:, 1])
        cosines = np.cos(np.arctan2(scan[:, 1], scan[:, 0]))
        near = (np.abs(ranges - r) <= w / 2) & (np.abs(cosines - math.cos(theta)) <= scale / 2)
        assert near.any(), f"no detection within half a bin of r={r:.4f} m, {theta_deg} deg"


def test_sense_deterministic():
    cfg = small_cfg(snr_db=10.0)
    scene = _one_circle_scene(9.5)
    s1 = _sense_at(scene, Pose(3.0, 3.0, 0.0), _sensor(cfg), np.random.default_rng(7))
    s2 = _sense_at(scene, Pose(3.0, 3.0, 0.0), _sensor(cfg), np.random.default_rng(7))
    assert np.array_equal(s1, s2)


def test_sensor_fov_excludes_endfire():
    sensor = _sensor(small_cfg())
    assert isinstance(sensor, OfdmSensor)
    b = sensor.bearings
    assert FOV == (math.radians(20.0), math.radians(160.0))
    assert b.min() >= math.radians(20.0) - 1e-9
    assert b.max() <= math.radians(160.0) + 1e-9
    assert len(b) == 71
    assert np.allclose(np.diff(b), math.radians(2.0))
    assert b.tobytes() == np.linspace(math.radians(20.0), math.radians(160.0), 71).tobytes()


def test_sense_requires_monostatic():
    """A bistatic array is rejected when the waveform loads, before any sensing: the
    array's one element count is Nt, so a receive count Nr is refused, even one
    equal to Nt."""
    for nr in (4, 8):
        with pytest.raises(ValueError, match="^waveform: unknown key 'Nr'$"):
            load_waveform(Nr=nr)


def _sense_per_peak(scene, pose, cfg, rng, sensor):
    """Reference for ``sense``: the delay-matrix column, greedy peak picking and one
    angle DFT per range peak, each visible detection placed at its bin centres."""
    gt = ground_truth_scan(scene, pose, sensor.bearings)
    col = delay_matrix_column(cfg, gt.ranges, gt.bearings, rng)
    profiles = np.fft.ifft(col, axis=1)
    range_peaks = _reference_detect_peaks(np.mean(np.abs(profiles), axis=0), ofdm.RANGE_POLICY)
    r_bins, cosines = [], []
    for ri in sorted(range_peaks):
        spec = np.abs(np.fft.fft(profiles[:, ri]))
        for ai in sorted(_reference_detect_peaks(spec, sensor.angle_policy)):
            c = cfg.wavelength / (cfg.d * cfg.n_tx) * (ai if ai < cfg.n_tx / 2 else ai - cfg.n_tx)
            if abs(c) <= 1.0:
                r_bins.append(ri)
                cosines.append(c)
    return polar_points(np.array(r_bins, dtype=int) * cfg.range_bin_width,
                        np.arccos(np.array(cosines, dtype=float)))


@pytest.mark.parametrize("config", ["ci.yaml", "full_scale.yaml"])
def test_sense_matches_per_peak_reference(config):
    """The Kronecker column and the batched angle stage emit the detections of the
    delay-matrix column and per-peak picking, byte for byte."""
    exp = load_experiment(config)
    traj = exp.scene.trajectory
    poses = [trajectory_pose(traj, t) for t in (0.0, 7.5, 19.0, 33.0, 52.5)]
    detections = 0
    w = exp.waveform
    # at d = 0.3 lambda the outer angle bins fall in the invisible region
    for snr_db, d_over_lambda in ((w.snr_db, w.d_over_lambda), (None, w.d_over_lambda),
                                  (w.snr_db, 0.3)):
        waveform = dataclasses.replace(w, snr_db=snr_db, d_over_lambda=d_over_lambda)
        sensor = dataclasses.replace(exp, backend="ofdm", waveform=waveform).make_sensor()
        for k, pose in enumerate(poses):
            got = _sense_at(exp.scene, pose, sensor, np.random.default_rng(k))
            want = _sense_per_peak(exp.scene, pose, waveform, np.random.default_rng(k), sensor)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            detections += len(got)
    assert detections > 0


def test_sensor_writes_every_column_into_the_array_it_keeps():
    """Repeated calls on one sensor reuse its one array, and each ends with the range
    profiles of the column it wrote there: the IFFT runs in place, also over the
    strided view of an N that is not a multiple of the block (N = 1000, B = 32).
    Another sensor and a ``dataclasses.replace`` copy each get an array of their own."""
    base = load_experiment("ci.yaml")
    for n in (1024, 1000):
        exp = dataclasses.replace(base, backend="ofdm",
                                  waveform=dataclasses.replace(base.waveform, n_subcarriers=n))
        sensor = exp.make_sensor()
        kept = sensor._column
        assert (kept.shape[1] == n) == (n == 1024)
        for seed, t in enumerate((7.5, 8.0, 19.0)):
            gt = ground_truth_scan(exp.scene, trajectory_pose(exp.scene.trajectory, t),
                                   sensor.bearings)
            kept[...] = np.nan
            sense(gt, sensor, np.random.default_rng(seed))
            assert sensor._column is kept
            col = fresh_column(sensor.cfg, gt.ranges, gt.bearings, np.random.default_rng(seed))
            want = scipy.fft.ifft(col, axis=1)
            assert kept[:, :n].tobytes() == want.tobytes(), n
        for other in (exp.make_sensor(), dataclasses.replace(sensor)):
            assert other._column.shape == kept.shape
            assert not np.shares_memory(other._column, kept)


def test_full_scale_sense_peaks_at_its_noise_draw():
    """One full-scale call with a plain generator holds one (n_tx, N)-sized array of
    its own at a time: its traced peak is within 10% of the bytes of its
    (2, n_tx, N) noise draw.  Out-of-place profiles, or the Kronecker rows kept
    alive through the draw, put it above."""
    exp = load_experiment("full_scale.yaml")
    sensor = exp.make_sensor()
    gt = ground_truth_scan(exp.scene, trajectory_pose(exp.scene.trajectory, 7.5),
                           sensor.bearings)
    noise_bytes = 2 * sensor.cfg.n_tx * sensor.cfg.n_subcarriers * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        scan = sensor(gt, np.random.default_rng(13))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scan) > 0
    assert peak <= 1.1 * noise_bytes


# one full-scale sense call; prints the detection count and the digest of the
# sensor's array (the profiles) and the scan
_FULL_SCALE_SENSE = """
import hashlib
import numpy as np
from etslam.harness import load_experiment
from etslam.scene import ground_truth_scan, trajectory_pose
exp = load_experiment("full_scale.yaml")
sensor = exp.make_sensor()
gt = ground_truth_scan(exp.scene, trajectory_pose(exp.scene.trajectory, 7.5), sensor.bearings)
scan = sensor(gt, np.random.default_rng(13))
print(len(scan), hashlib.sha256(sensor._column.tobytes() + scan.tobytes()).hexdigest())
"""


def test_full_scale_sense_bytes_do_not_depend_on_blas_threads(stdout_under_blas_threads):
    """The profiles and the detections of a full-scale call, in processes whose
    OpenBLAS runs 1 and 2 threads."""
    out = stdout_under_blas_threads(_FULL_SCALE_SENSE)
    detections, _ = out[1].split()
    assert int(detections) > 0
    assert out[1] == out[2]


# ---------------------------------------------------------------------------
# the noise drawn ahead on a worker thread (harness.ReadAheadNormals)


def _assert_column_matches_reference(sensor, scene, pose, source, want_rng):
    """``fresh_column`` at one pose, its noise read from the read-ahead ``source``,
    equals the column drawn serially from the bare generator byte for byte, and the
    source's stream goes on where that draw leaves ``want_rng``; returns the column."""
    gt = ground_truth_scan(scene, pose, sensor.bearings)
    args = (sensor.cfg, gt.ranges, gt.bearings)
    got = fresh_column(*args, source)
    want = fresh_column(*args, want_rng)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert source.standard_normal() == want_rng.standard_normal()
    return got


def _noise_workers():
    return [t for t in threading.enumerate() if t.name.startswith("etslam-normals")]


@pytest.mark.parametrize("config", ["ci.yaml", "full_scale.yaml"])
def test_threaded_noise_column_matches_serial_draw(config):
    """Two columns whose noise the worker drew ahead are the columns drawn serially
    from the bare generator."""
    exp = load_experiment(config)
    assert exp.waveform.snr_db is not None
    sensor = dataclasses.replace(exp, backend="ofdm").make_sensor()
    want_rng = np.random.default_rng(3)
    with ReadAheadNormals(np.random.default_rng(3)) as source:
        for t in (7.5, 8.0):
            pose = trajectory_pose(exp.scene.trajectory, t)
            _assert_column_matches_reference(sensor, exp.scene, pose, source, want_rng)
    assert not _noise_workers()


@pytest.mark.parametrize("config", ["ci.yaml", "full_scale.yaml"])
def test_noisy_column_matches_one_symbol_synthesis(config):
    """The column, noisy and noiseless, against the full-frame model: at M = 1 on a
    unit frame (``reference_column``), ``reference_echo`` draws (2, n_tx, 1, N)
    normals, the same stream as the column's (2, n_tx, N), so its one symbol row is
    the column to a few ulp of its scale, and both leave the generator in the same
    state."""
    exp = load_experiment(config)
    assert exp.waveform.snr_db is not None
    sensor = dataclasses.replace(exp, backend="ofdm").make_sensor()
    for snr_db in (exp.waveform.snr_db, None):
        cfg = dataclasses.replace(exp.waveform, snr_db=snr_db)
        for seed, t in enumerate((0.0, 7.5, 19.0, 33.0, 52.5)):
            pose = trajectory_pose(exp.scene.trajectory, t)
            gt = ground_truth_scan(exp.scene, pose, sensor.bearings)
            assert len(gt) > 0
            args = (cfg, gt.ranges, gt.bearings)
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = fresh_column(*args, got_rng)
            want = reference_column(*args, want_rng)
            assert_within_ulps(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_threaded_noise_column_empty_scene():
    """No paths: pure noise at reference power 1, as the serial draw makes it."""
    scene = _empty_scene()
    sensor = _sensor(small_cfg(snr_db=10.0))
    with ReadAheadNormals(np.random.default_rng(4)) as source:
        got = _assert_column_matches_reference(sensor, scene, Pose(1.0, 1.0, 0.0), source,
                                            np.random.default_rng(4))
    assert np.count_nonzero(got) == got.size
    z = np.random.default_rng(4).standard_normal((2,) + got.shape)
    scale = math.sqrt(1.0 / sensor.cfg.snr_linear / 2.0)
    assert got.real.tobytes() == (scale * z[0]).tobytes()
    assert got.imag.tobytes() == (scale * z[1]).tobytes()


def test_noiseless_sense_starts_no_thread_and_leaves_rng(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a noiseless call started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    scene = _one_circle_scene(9.5)
    sensor = _sensor(small_cfg())
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    scan = _sense_at(scene, Pose(3.0, 3.0, 0.0), sensor, rng)
    assert len(scan) >= 1
    assert rng.bit_generator.state == before


def test_threaded_noise_under_fast_thread_switching():
    """With the interpreter switching threads every microsecond, every column of a
    20-pose run, its noise drawn ahead from one rng, still equals the serial draw's."""
    exp = load_experiment("ci.yaml")
    sensor = dataclasses.replace(exp, backend="ofdm").make_sensor()
    traj = exp.scene.trajectory
    want_rng = np.random.default_rng(9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ReadAheadNormals(np.random.default_rng(9)) as source:
            for k in range(20):
                # the odometry draws of a SLAM step come between two columns
                assert source.standard_normal(2).tobytes() == want_rng.standard_normal(2).tobytes()
                _assert_column_matches_reference(sensor, exp.scene, trajectory_pose(traj, 2.5 * k),
                                              source, want_rng)
    finally:
        sys.setswitchinterval(interval)
    assert not _noise_workers()


class _FailingDraw:
    def standard_normal(self, *args, **kwargs):
        raise RuntimeError("draw failed")


def test_noise_draw_failure_raises_from_sense():
    """An exception in the read-ahead worker's draw is raised by ``sense``, not lost
    with the thread, and so is one in a plain generator's draw."""
    scene = _one_circle_scene(9.5)
    sensor = _sensor(small_cfg(snr_db=10.0))
    with ReadAheadNormals(_FailingDraw()) as source:
        with pytest.raises(RuntimeError, match="^draw failed$"):
            _sense_at(scene, Pose(3.0, 3.0, 0.0), sensor, source)
    with pytest.raises(RuntimeError, match="^draw failed$"):
        _sense_at(scene, Pose(3.0, 3.0, 0.0), sensor, _FailingDraw())
    assert not _noise_workers()
