"""OFDM sensing chain: the equalized echo column and its DFT estimation.

The processing path is: ground-truth rays (cast by the caller) -> per-path
steering phases and delay phases, the latter in two factors, per block and
within a block -> equalized symbol-0 column per receive antenna (static paths,
so the unit-modulus QPSK frame divides out, leaving the noise statistics
unchanged, and one symbol suffices), one gemm of the
steering-by-block Kronecker rows with the in-block phases, written into the
array the sensor keeps -> noise scaled from the echo power, one dot product
-> IDFT range profile per antenna, in place, so the kept array ends a call
holding the profiles -> peaks of the rx-averaged profile -> DFT angle
spectrum per range peak -> bin-centre placement.  The full (n_tx, M, N)
frame model of Sturm & Wiesbeck 2011 is the tests' reference (``tests/test_ofdm.py``),
and so is its timing, which the column does not read: M symbols of T = 1/delta_f + Tc.

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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.fft

# ground_truth_scan stays importable here: bench/spans.py wraps the ray-casting
# layer at this name
from etslam.scene import GroundTruthScan, ground_truth_scan, polar_points, require_positive

C0 = 3.0e8
# sensor-frame bearings (rad) the array resolves unambiguously, away from endfire
FOV = (math.radians(20.0), math.radians(160.0))


@dataclass(frozen=True)
class WaveformConfig:
    """The OFDM numerology and array geometry that ``sense`` reads.

    ``n_tx`` counts the elements of the monostatic array, each of which transmits
    and receives: the steering rows, the column and the angle DFT all have
    ``n_tx``.  ``snr_db`` is received-echo power over noise power; None disables noise.
    """

    fc: float            # carrier frequency [Hz]
    delta_f: float       # subcarrier spacing [Hz]
    n_subcarriers: int   # N
    n_tx: int = 32
    d_over_lambda: float = 0.5
    snr_db: Optional[float] = None

    def __post_init__(self):
        if min(self.n_subcarriers, self.n_tx) < 1:
            raise ValueError("waveform N and Nt must be >= 1")
        require_positive("waveform", fc=self.fc, delta_f=self.delta_f)
        require_positive("waveform", d=self.d)
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ValueError("waveform snr_db must be finite (or null for no noise)")

    @property
    def wavelength(self) -> float:
        return C0 / self.fc

    @property
    def d(self) -> float:  # element spacing [m]
        return self.d_over_lambda * self.wavelength

    @property
    def range_bin_width(self) -> float:
        return C0 / (2.0 * self.n_subcarriers * self.delta_f)

    @property
    def unambiguous_range(self) -> float:
        return C0 / (2.0 * self.delta_f)

    @property
    def snr_linear(self) -> Optional[float]:
        return None if self.snr_db is None else 10.0 ** (self.snr_db / 10.0)


def _blocks(n: int) -> tuple[int, int]:
    """The delay phase's block B, the smallest power of two >= sqrt(N), and the
    number of blocks, ceil(N / B): 128 and 80 at N = 10240."""
    block = 1 << math.isqrt(n - 1).bit_length()
    return block, -(-n // block)


def _path_phases(cfg: WaveformConfig, ranges: np.ndarray, bearings: np.ndarray):
    """Per-path steering across the array's elements, shape (n_tx, L), and the delay
    phase across subcarriers in two factors: exp(-2 pi i f (B q + r)) = hi[q] * lo[r],
    ``hi`` of shape (n_blocks, L) and ``lo`` of shape (L, B) (``_blocks``), so
    L*(N/B + B) exponentials, not L*N."""
    omega = (2.0 * np.pi * cfg.d / cfg.wavelength) * np.cos(bearings)
    steer = np.exp(1j * np.outer(np.arange(cfg.n_tx), omega))
    block, n_blocks = _blocks(cfg.n_subcarriers)
    f = 2.0 * ranges / C0 * cfg.delta_f
    hi = np.exp(-2j * np.pi * np.outer(block * np.arange(n_blocks), f))
    lo = np.exp(-2j * np.pi * np.outer(f, np.arange(block)))
    return steer, hi, lo


def _column_buffer(cfg: WaveformConfig) -> np.ndarray:
    """An uninitialized (n_tx, n_blocks * B) complex array for ``_kronecker_column``
    to write into; the column is its first N columns."""
    block, n_blocks = _blocks(cfg.n_subcarriers)
    return np.empty((cfg.n_tx, n_blocks * block), dtype=complex)


def _echo_power(y: np.ndarray) -> float:
    """Mean |y|^2: one dot product of ``y``'s float64 view with itself.  numpy's own
    einsum loop, not BLAS, so its bits do not depend on BLAS's thread count."""
    v = y.view(np.float64)
    axes = list(range(v.ndim))
    return float(np.einsum(v, axes, v, axes, [])) / y.size


def _add_noise(cfg: WaveformConfig, y: np.ndarray, has_paths: bool,
               z: np.ndarray) -> np.ndarray:
    """``y`` plus complex Gaussian noise, added to ``y`` in place and returned:
    mean echo power / noise power equals the configured linear SNR (reference
    power 1 when there are no paths).  ``z`` is a unit normal draw of shape
    ``(2,) + y.shape``, the real parts then the imaginary parts; it is scaled
    in place."""
    ref = _echo_power(y) if has_paths else 1.0
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
    threshold_db: float = 6.0   # relative to the spectrum median
    max_peaks: int = 4

    def __post_init__(self):
        if not math.isfinite(self.threshold_db):
            raise ValueError("peak policy threshold_db must be finite")
        if self.max_peaks < 1:
            raise ValueError("peak policy max_peaks must be >= 1")


# range-peak picking on the rx-averaged range profile
RANGE_POLICY = PeakPolicy(threshold_db=12.0, max_peaks=64)


def detect_peaks(magnitudes: np.ndarray, policy: PeakPolicy) -> np.ndarray:
    """Boolean peak mask over the last axis of ``magnitudes``.

    In each row, the local maxima above the row's median * 10^(threshold_db/20)
    are candidates.  The mask is that of greedy picking: keep the strongest
    remaining candidate (the lower bin on ties), drop its two neighbours, and
    stop after ``max_peaks``.  Two adjacent candidates are both local maxima,
    so they are equal: greedy keeps every other bin of each run of adjacent
    candidates from the run's low end, and then the first ``max_peaks`` of a
    row by value descending, bin ascending.  One pass finds both.
    """
    mag = np.asarray(magnitudes, dtype=float)
    if mag.ndim == 0 or mag.shape[-1] == 0:
        raise ValueError("empty spectrum")
    n = mag.shape[-1]
    rows = mag.reshape(-1, n)
    thr = np.median(rows, axis=1, keepdims=True) * 10.0 ** (policy.threshold_db / 20.0)
    # padded with a -inf column on each side, so bin +-1 is always in bounds
    padded = np.full((len(rows), n + 2), -np.inf)
    padded[:, 1:-1] = rows
    cand = np.flatnonzero((rows >= padded[:, :-2]) & (rows >= padded[:, 2:]) & (rows > thr)
                          & (rows > 0.0))  # row-major flat bins
    # a candidate's offset in its run of adjacent candidates; odd offsets fall
    joined = np.zeros(cand.size, dtype=bool)
    joined[1:] = (np.diff(cand) == 1) & (cand[1:] % n != 0)
    pos = np.arange(cand.size)
    kept = cand[(pos - np.maximum.accumulate(np.where(joined, 0, pos))) % 2 == 0]
    # rank in its row by value descending; the stable sort keeps bins ascending on ties
    row = kept // n
    order = np.lexsort((-rows.ravel()[kept], row))
    ranked = row[order]
    rank = np.arange(kept.size) - ranked.searchsorted(ranked)
    mask = np.zeros(rows.size, dtype=bool)
    mask[kept[order[rank < policy.max_peaks]]] = True
    return mask.reshape(mag.shape)


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
    # every call's column is written here, then its range profiles over it, so one
    # sensor serves one thread: one trial
    _column: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_column", _column_buffer(self.cfg))

    def __call__(self, gt: GroundTruthScan, rng: np.random.Generator) -> np.ndarray:
        return sense(gt, self, rng)


def _kronecker_column(cfg: WaveformConfig, ranges: np.ndarray, bearings: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    """The noiseless column, shape (n_tx, N), written into ``out`` (a
    ``_column_buffer(cfg)``) and returned as a view of its first N columns.

    One gemm, (n_tx * n_blocks, L) @ (L, B): the Kronecker rows steer[t] * hi[q]
    times ``lo`` fill row t's block q, so no (L, N) delay matrix is formed.  The
    rows (2.9 MB at full scale and L = 71) are freed on return, before any noise
    is drawn.
    """
    steer, hi, lo = _path_phases(cfg, ranges, bearings)
    n_paths, block = lo.shape
    rows = cfg.n_tx * len(hi)  # row t * n_blocks + q
    # (n_tx, n_blocks, L) in C order, so that the reshape is a view
    kron = steer[:, None, :] * hi[None, :, :]
    np.matmul(kron.reshape(rows, n_paths), lo, out=out.reshape(rows, block))
    return out[:, :cfg.n_subcarriers]


def sense(gt: GroundTruthScan, sensor: OfdmSensor, rng: np.random.Generator) -> np.ndarray:
    """Full OFDM sensing pipeline on the ground-truth scan of ``sensor.bearings``: one
    sensor-frame point per detection, shape (n, 2), at the centres of its range bin and
    angle bin, ordered by range bin, then angle bin."""
    cfg = sensor.cfg
    if np.any(gt.ranges >= cfg.unambiguous_range):
        raise ValueError("path range outside unambiguous window c0/(2*delta_f)")
    col = _kronecker_column(cfg, gt.ranges, gt.bearings, sensor._column)
    if cfg.snr_db is not None:
        _add_noise(cfg, col, len(gt.ranges) > 0, rng.standard_normal((2,) + col.shape))
    # (n_tx, N), transformed in place: the sensor's array now holds the profiles
    profiles = scipy.fft.ifft(col, axis=1, overwrite_x=True)
    range_peaks = np.flatnonzero(detect_peaks(np.mean(np.abs(profiles), axis=0), RANGE_POLICY))
    # angle spectrum of every range peak at once: DFT over the rx axis, one row per peak
    specs = np.abs(np.fft.fft(profiles[:, range_peaks], axis=0)).T
    cos = bin_to_cos(np.arange(cfg.n_tx), cfg)
    ri, ai = np.nonzero(detect_peaks(specs, sensor.angle_policy) & (np.abs(cos) <= 1.0))
    return polar_points(bin_to_range(range_peaks[ri], cfg), np.arccos(cos[ai]))
