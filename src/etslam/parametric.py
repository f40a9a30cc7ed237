"""Error-injection sensing backend: ground truth plus Gaussian range/bearing noise.

Realizes the sweep conditions (delta_R, delta_theta) without running the
OFDM chain.  Both magnitudes are standard deviations; delta_theta is given
in degrees in config files and stored in radians here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from etslam.scans import Scan
from etslam.scene import Pose, Scene, ground_truth_scan


@dataclass(frozen=True)
class ErrorModel:
    delta_r: float = 0.0       # range error std [m]
    delta_theta: float = 0.0   # bearing error std [rad]

    def __post_init__(self):
        if self.delta_r < 0 or self.delta_theta < 0:
            raise ValueError("error magnitudes must be >= 0")


def sense_parametric(
    scene: Scene,
    pose: Pose,
    bearings: np.ndarray,
    model: ErrorModel,
    rng: np.random.Generator,
) -> Scan:
    """One noisy Detection per ground-truth hit; no misses, no clutter."""
    gt = ground_truth_scan(scene, pose, bearings)
    r = gt.ranges + model.delta_r * rng.standard_normal(len(gt))
    b = gt.bearings + model.delta_theta * rng.standard_normal(len(gt))
    return Scan.from_polar(np.maximum(r, 0.0), b)


@dataclass(frozen=True)
class ParametricSensor:
    """Callable backend with a fixed bearing fan, matching the OFDM interface."""

    model: ErrorModel
    bearings: np.ndarray

    def __call__(self, scene: Scene, pose: Pose, rng: np.random.Generator) -> Scan:
        return sense_parametric(scene, pose, self.bearings, self.model, rng)
