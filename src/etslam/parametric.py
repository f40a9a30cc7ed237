"""Error-injection sensing backend: ground truth plus Gaussian range/bearing noise.

Realizes the sweep conditions (delta_R, delta_theta) without running the
OFDM chain.  Both magnitudes are standard deviations; delta_theta is given
in degrees in config files and stored in radians here.  The sensor starts
from a ground-truth scan of its fan and casts no rays itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ground_truth_scan stays importable here: bench/spans.py wraps the ray-casting
# layer at this name
from etslam.scene import GroundTruthScan, ground_truth_scan, polar_points, require_positive


@dataclass(frozen=True)
class ErrorModel:
    delta_r: float = 0.0       # range error std [m]
    delta_theta: float = 0.0   # bearing error std [rad]

    def __post_init__(self):
        require_positive("error model", or_zero=True, delta_r=self.delta_r,
                         delta_theta=self.delta_theta)


def sense_parametric(
    gt: GroundTruthScan, model: ErrorModel, rng: np.random.Generator
) -> np.ndarray:
    """Sensor-frame points, one noisy point per ground-truth hit; no misses, no clutter."""
    r = gt.ranges + model.delta_r * rng.standard_normal(len(gt))
    b = gt.bearings + model.delta_theta * rng.standard_normal(len(gt))
    return polar_points(np.maximum(r, 0.0), b)


@dataclass(frozen=True)
class ParametricSensor:
    """Callable backend with a fixed bearing fan, matching the OFDM interface.

    Call it with the ground-truth scan of ``bearings`` from the sensing pose.
    """

    model: ErrorModel
    bearings: np.ndarray

    def __call__(self, gt: GroundTruthScan, rng: np.random.Generator) -> np.ndarray:
        return sense_parametric(gt, self.model, rng)
