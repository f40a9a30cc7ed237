"""OFDM sensing chain: the equalized echo column and its DFT estimation.

The processing path is: ground-truth rays (cast by the caller) -> per-path
delay and steering phases -> equalized symbol-0 column per receive antenna
(static paths, so the QPSK frame divides out and one symbol suffices) ->
IDFT range profile per antenna -> peaks of the rx-averaged profile -> DFT
angle spectrum per range peak -> bin-centre placement.  The full (n_rx, M, N) frame model is
the tests' reference (``tests/test_ofdm.py``).

Conventions
-----------
* ``C0 = 3e8`` m/s so that derived bin widths match the documented values
  (e.g. 0.12207 m range bins at N=10240, delta_f=120 kHz).
* The uniform linear array lies along the sensor x-axis; a target at
  relative bearing theta produces the per-element phase progression
  exp(j*k*Omega) with Omega = (2*pi*d/lambda)*cos(theta).  Because cos is
  even, only bearings in (0, pi) are observable without ambiguity; the
  pipeline restricts its field of view accordingly.
* A single complex exponential peaks at the DFT bin nearest its fractional
  frequency, so each detection is placed at its bin centres: range bin I at
  I*w, and angle bin I, unwrapped to a signed I', at cos(theta) =
  I'*lambda/(d*N_t).  Angle bins with |cos| > 1 lie in the invisible region
  and are dropped; see the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# ground_truth_scan stays importable here: bench/spans.py wraps the ray-casting
# layer at this name
from etslam.scene import (GroundTruthScan, convert, ground_truth_scan,
                          parse_section, polar_points)

C0 = 3.0e8
# subcarriers per block of the factored delay phase in _path_phases
DELAY_BLOCK = 128
# sensor-frame bearings (rad) the array resolves unambiguously, away from endfire
FOV = (math.radians(20.0), math.radians(160.0))


@dataclass(frozen=True)
class WaveformConfig:
    """OFDM numerology plus the sensing-array geometry.

    ``d`` is the element spacing in meters; None selects half-wavelength.
    ``snr_db`` is received-echo power over noise power; None disables noise.
    """

    fc: float            # carrier frequency [Hz]
    delta_f: float       # subcarrier spacing [Hz]
    n_symbols: int       # M
    n_subcarriers: int   # N
    tp: float            # elementary symbol duration [s]
    tc: float            # guard interval [s]
    t_sym: float         # total symbol duration [s]
    n_tx: int = 32
    n_rx: int = 32
    d: Optional[float] = None
    snr_db: Optional[float] = None

    def __post_init__(self):
        if min(self.n_symbols, self.n_subcarriers, self.n_tx, self.n_rx) < 1:
            raise ValueError("N, M, N_t, N_r must all be >= 1")
        if self.n_tx != self.n_rx:
            raise ValueError("waveform n_tx must equal n_rx (monostatic array)")
        for name in ("fc", "delta_f"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"waveform {name} must be finite and > 0")
        if not 0.0 <= self.tc < math.inf:
            raise ValueError("waveform tc must be finite and >= 0")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ValueError("waveform snr_db must be finite (or null for no noise)")
        if not abs(self.t_sym - (self.tp + self.tc)) <= 1e-9:
            raise ValueError("t_sym must equal tp + tc (within 1e-9 s)")
        if not abs(self.tp * self.delta_f - 1.0) <= 1e-6:
            raise ValueError("tp * delta_f must equal 1 (within 1e-6)")
        if self.d is None:
            object.__setattr__(self, "d", self.wavelength / 2.0)
        if not 0.0 < self.d < math.inf:
            raise ValueError("waveform d must be finite and > 0")

    @property
    def wavelength(self) -> float:
        return C0 / self.fc

    @property
    def bandwidth(self) -> float:
        return self.n_subcarriers * self.delta_f

    @property
    def range_bin_width(self) -> float:
        return C0 / (2.0 * self.n_subcarriers * self.delta_f)

    @property
    def unambiguous_range(self) -> float:
        return C0 / (2.0 * self.delta_f)

    @property
    def snr_linear(self) -> Optional[float]:
        return None if self.snr_db is None else 10.0 ** (self.snr_db / 10.0)

    @classmethod
    def from_mapping(cls, doc: dict) -> "WaveformConfig":
        """Build from config-file keys (fc, delta_f, M, N, Tp, Tc, T, B, Nt, Nr, ...)."""
        kw, derived = parse_section(doc, "waveform", WAVEFORM_KEYS, _DERIVED_KEYS,
                                    required=("fc", "delta_f", "M", "N", "Tp", "Tc", "T"))
        cfg = cls(**kw)
        if "d_over_lambda" in derived:
            cfg = replace(cfg, d=derived["d_over_lambda"] * cfg.wavelength)
        b = derived.get("bandwidth")
        if b is not None and not abs(b - cfg.bandwidth) <= 0.01 * cfg.bandwidth:
            raise ValueError(
                f"configured bandwidth B={b:g} inconsistent with N*delta_f={cfg.bandwidth:g}"
            )
        return cfg


# config key -> (WaveformConfig field, kind); the paper's symbols as keys
WAVEFORM_KEYS = {
    "fc": ("fc", float), "delta_f": ("delta_f", float),
    "M": ("n_symbols", int), "N": ("n_subcarriers", int),
    "Tp": ("tp", float), "Tc": ("tc", float), "T": ("t_sym", float),
    "Nt": ("n_tx", int), "Nr": ("n_rx", int),
    "snr_db": ("snr_db", lambda v: None if v is None else convert(v, float)),
}
# keys that are checked against or converted with the other fields
_DERIVED_KEYS = {"d_over_lambda": ("d_over_lambda", float), "B": ("bandwidth", float)}


def _path_phases(cfg: WaveformConfig, ranges: np.ndarray, bearings: np.ndarray,
                 amps: np.ndarray):
    """Per-path steering across rx elements, scaled by the amplitude, shape (L, n_rx),
    and delay phase across subcarriers, shape (L, N)."""
    omega = (2.0 * np.pi * cfg.d / cfg.wavelength) * np.cos(bearings)
    steer = np.exp(1j * np.outer(omega, np.arange(cfg.n_rx))) * amps[:, None]
    # exp(-2 pi i f (B q + r)) = hi[q] * lo[r]: L*(N/B + B) exponentials, not L*N
    f = 2.0 * ranges / C0 * cfg.delta_f
    n_blocks = -(-cfg.n_subcarriers // DELAY_BLOCK)
    hi = np.exp(-2j * np.pi * np.outer(f, DELAY_BLOCK * np.arange(n_blocks)))
    lo = np.exp(-2j * np.pi * np.outer(f, np.arange(DELAY_BLOCK)))
    delay = (hi[:, :, None] * lo[:, None, :]).reshape(len(f), n_blocks * DELAY_BLOCK)
    return steer, delay[:, :cfg.n_subcarriers]


def _add_noise(cfg: WaveformConfig, y: np.ndarray, has_paths: bool,
               z: np.ndarray) -> np.ndarray:
    """``y`` plus complex Gaussian noise, added to ``y`` in place and returned:
    mean echo power / noise power equals the configured linear SNR (reference
    power 1 when there are no paths).  ``z`` is a unit normal draw of shape
    ``(2,) + y.shape``, the real parts then the imaginary parts; it is scaled
    in place."""
    ref = float(np.mean(np.abs(y) ** 2)) if has_paths else 1.0
    sigma2 = ref / cfg.snr_linear
    z *= math.sqrt(sigma2 / 2.0)
    y.real += z[0]
    y.imag += z[1]
    return y


def _check_bins(bins: np.ndarray, n: int, kind: str) -> np.ndarray:
    bins = np.asarray(bins)
    if np.any((bins < 0) | (bins >= n)):
        raise IndexError(f"{kind} bin out of range")
    return bins


def bin_to_range(bins: np.ndarray, cfg: WaveformConfig) -> np.ndarray:
    """Range [m] at the centre of each range bin: bin i is i*w."""
    return _check_bins(bins, cfg.n_subcarriers, "range") * cfg.range_bin_width


def bin_to_cos(bins: np.ndarray, cfg: WaveformConfig) -> np.ndarray:
    """Signed cosine of the bearing at the centre of each angle bin.

    Bin i is unwrapped to a signed index i' in [-N_t/2, N_t/2), which maps
    to cos(theta) = lambda*i'/(d*N_t); a value with |cos| > 1 lies in the
    invisible region and has no bearing.
    """
    nt = cfg.n_tx
    bins = _check_bins(bins, nt, "angle")
    return np.where(bins < nt / 2, bins, bins - nt) * (cfg.wavelength / (cfg.d * nt))


@dataclass(frozen=True)
class PeakPolicy:
    threshold_db: float   # relative to the spectrum median
    max_peaks: int


# a kept peak and the two bins it suppresses
_NEIGHBOURS = np.array([-1, 0, 1])
# range-peak picking on the rx-averaged range profile
RANGE_POLICY = PeakPolicy(threshold_db=12.0, max_peaks=64)


def detect_peaks(magnitudes: np.ndarray, policy: PeakPolicy) -> np.ndarray:
    """Boolean peak mask over the last axis of ``magnitudes``.

    In each row, the local maxima above the row's median * 10^(threshold_db/20)
    are candidates.  Each round keeps every row's strongest remaining
    candidate (the lower bin on ties) and removes it and its two neighbours,
    for at most ``max_peaks`` rounds.
    """
    mag = np.asarray(magnitudes, dtype=float)
    if mag.ndim == 0 or mag.shape[-1] == 0:
        raise ValueError("empty spectrum")
    rows = mag.reshape(-1, mag.shape[-1])
    thr = np.median(rows, axis=1, keepdims=True) * 10.0 ** (policy.threshold_db / 20.0)
    # candidates padded with a -inf column on each side, so bin +-1 is always in bounds
    cand = np.full((len(rows), rows.shape[1] + 2), -np.inf)
    cand[:, 1:-1] = rows
    is_peak = (rows >= cand[:, :-2]) & (rows >= cand[:, 2:]) & (rows > thr) & (rows > 0.0)
    cand[:, 1:-1][~is_peak] = -np.inf
    keep = np.zeros(cand.shape, dtype=bool)
    r = np.arange(len(rows))
    for _ in range(policy.max_peaks):
        best = np.argmax(cand, axis=1)
        live = cand[r, best] > -np.inf
        if not live.any():
            break
        keep[r, best] |= live
        cand[r[:, None], best[:, None] + _NEIGHBOURS] = -np.inf
    return keep[:, 1:-1].reshape(mag.shape)


@dataclass(frozen=True)
class OfdmSensor:
    """5G-signal sensing backend: a waveform, a fan of ray bearings, an angle-peak policy.

    The uniform linear array lies along the direction of travel, so the
    cone angle measured from the array axis coincides with the sensor-frame
    bearing; the unambiguous band away from endfire restricts the fan to
    ``FOV``.  ``ExperimentConfig.make_sensor`` builds the fan.  Calling the
    sensor with the ground-truth scan of the fan runs ``sense``: the equalized
    response synthesized analytically (one symbol column suffices for static
    paths), and one sensor-frame point per (range peak, angle peak) pair.
    """

    cfg: WaveformConfig
    bearings: np.ndarray
    angle_policy: PeakPolicy

    def __call__(self, gt: GroundTruthScan, rng: np.random.Generator) -> np.ndarray:
        return sense(gt, self, rng)


def _equalized_column(
    cfg: WaveformConfig,
    ranges: np.ndarray,
    bearings: np.ndarray,
    amps: np.ndarray,
    rng: Optional[np.random.Generator],
) -> np.ndarray:
    """Equalized symbol-0 response per rx element, shape (n_rx, N).

    For zero-Doppler paths this is symbol 0 of the full-frame echo divided
    by the frame: equalization of unit-modulus QPSK leaves the noise
    statistics unchanged.  One matmul, then, with noise enabled, one unit
    draw of shape (2, n_rx, N).
    """
    steer, delay = _path_phases(cfg, ranges, bearings, amps)
    y = steer.T @ delay
    del delay  # (L, N), freed before the draw below
    if cfg.snr_db is None:
        return y
    return _add_noise(cfg, y, len(ranges) > 0, rng.standard_normal((2,) + y.shape))


def sense(gt: GroundTruthScan, sensor: OfdmSensor, rng: np.random.Generator) -> np.ndarray:
    """Full OFDM sensing pipeline on the ground-truth scan of ``sensor.bearings``: one
    sensor-frame point per detection, shape (n, 2), at the centres of its range bin and
    angle bin, ordered by range bin, then angle bin."""
    cfg = sensor.cfg
    if np.any(gt.ranges >= cfg.unambiguous_range):
        raise ValueError("path range outside unambiguous window c0/(2*delta_f)")
    col = _equalized_column(cfg, gt.ranges, gt.bearings, np.ones(len(gt), dtype=complex), rng)
    profiles = np.fft.ifft(col, axis=1)  # (n_rx, N)
    range_peaks = np.flatnonzero(detect_peaks(np.mean(np.abs(profiles), axis=0), RANGE_POLICY))
    # angle spectrum of every range peak at once: DFT over the rx axis, one row per peak
    specs = np.abs(np.fft.fft(profiles[:, range_peaks], axis=0)).T
    cos = bin_to_cos(np.arange(cfg.n_tx), cfg)
    ri, ai = np.nonzero(detect_peaks(specs, sensor.angle_policy) & (np.abs(cos) <= 1.0))
    return polar_points(bin_to_range(range_peaks[ri], cfg), np.arccos(cos[ai]))
