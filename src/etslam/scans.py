"""Sensor-frame measurement container shared by both sensing backends."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Scan:
    """A set of polar detections in the sensor frame.

    ``ranges`` and ``bearings`` are interval midpoints; the interval arrays
    have shape (n, 2) and are degenerate (lo == hi) for backends that report
    point estimates.  ``points`` are the midpoints mapped to Cartesian
    sensor-frame coordinates.
    """

    ranges: np.ndarray
    bearings: np.ndarray
    range_intervals: np.ndarray
    bearing_intervals: np.ndarray
    points: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "points", np.stack(
            [self.ranges * np.cos(self.bearings), self.ranges * np.sin(self.bearings)], axis=-1))

    def __len__(self) -> int:
        return len(self.ranges)

    @staticmethod
    def empty() -> "Scan":
        z = np.zeros(0)
        return Scan(z, z, np.zeros((0, 2)), np.zeros((0, 2)))

    @staticmethod
    def from_polar(ranges: np.ndarray, bearings: np.ndarray) -> "Scan":
        """Degenerate-interval scan from point-estimate polar measurements."""
        ranges = np.asarray(ranges, dtype=float)
        bearings = np.asarray(bearings, dtype=float)
        return Scan(
            ranges=ranges,
            bearings=bearings,
            range_intervals=np.stack([ranges, ranges], axis=-1),
            bearing_intervals=np.stack([bearings, bearings], axis=-1),
        )

    @staticmethod
    def from_intervals(range_intervals: np.ndarray, bearing_intervals: np.ndarray) -> "Scan":
        range_intervals = np.asarray(range_intervals, dtype=float).reshape(-1, 2)
        bearing_intervals = np.asarray(bearing_intervals, dtype=float).reshape(-1, 2)
        return Scan(
            ranges=range_intervals.mean(axis=1),
            bearings=bearing_intervals.mean(axis=1),
            range_intervals=range_intervals,
            bearing_intervals=bearing_intervals,
        )
