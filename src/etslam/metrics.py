"""Set-to-set mapping-error metrics for extended targets.

``et_gospa`` scores an estimated point set Y against a ground truth X given
as one point set per extended target.  Each matched estimate pays

    E = c + min_k d_c(x_{i,k}, y)^p - min_k d_c(x_{-i,k}, y)^p

where d_c is the squared Euclidean distance clamped at c and x_{-i} are the
points of all other targets; matching is the optimal injection.  Extra
estimates pay (c^p / alpha) each; when there are fewer estimates than
targets each unmatched target pays the supremum of E, c + c^p.

``gospa_baseline`` is the point-target baseline using the same clamped
squared ground cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from etslam.assignment import solve_assignment


@dataclass(frozen=True)
class MetricParams:
    c: float = 5.0
    p: float = 1.0
    alpha: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.c < np.inf:
            raise ValueError("metric c must be finite and > 0")
        if not (1.0 <= self.p < np.inf):
            raise ValueError("p must satisfy 1 <= p < inf")
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError("alpha must satisfy 0 < alpha <= 2")


@dataclass(frozen=True)
class EtGospaResult:
    value: float
    # per target: estimate index or None; one optimal assignment, ties broken by the solver
    assignment: tuple[Optional[int], ...]
    sum_pair_costs: float
    cardinality_term: float
    missed_count: int
    extra_count: int
    clamped: bool


def _as_target_sets(targets: Sequence[np.ndarray]) -> list[np.ndarray]:
    out = []
    for i, pts in enumerate(targets):
        arr = np.atleast_2d(np.asarray(pts, dtype=float))
        if arr.size == 0:
            raise ValueError(f"target {i} has no points")
        out.append(arr)
    return out


def _min_costs(targets: list[np.ndarray], estimates: np.ndarray, params: MetricParams):
    """D[i, j] = min_k d_c(x_{i,k}, y_j)^p, shape (|X|, |Y|)."""
    rows = []
    for pts in targets:
        d2 = np.sum((pts[:, None, :] - estimates[None, :, :]) ** 2, axis=-1)
        rows.append(np.min(np.minimum(d2, params.c) ** params.p, axis=0))
    return np.stack(rows)


def cost_matrix(
    targets: Sequence[np.ndarray], estimates: np.ndarray, params: MetricParams
) -> np.ndarray:
    """Pair cost E of every target against every estimate, shape (|X|, |Y|)."""
    targets = _as_target_sets(targets)
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    if len(targets) == 0 or len(estimates) == 0:
        raise ValueError("targets and estimates must be non-empty")
    d = _min_costs(targets, estimates, params)
    n = len(targets)
    if n == 1:
        others_min = np.full((1, len(estimates)), params.c ** params.p)
    else:
        # min over the other targets via the two smallest values per column
        part = np.partition(d, 1, axis=0)
        m1, m2 = part[0], part[1]
        # rows achieving the column minimum take the second-smallest instead
        first_min_row = np.argmin(d, axis=0)
        others_min = np.where(
            np.arange(n)[:, None] == first_min_row[None, :], m2[None, :], m1[None, :]
        )
    return params.c + d - others_min


def et_gospa(
    targets: Sequence[np.ndarray],
    estimates: np.ndarray,
    params: MetricParams = MetricParams(),
) -> EtGospaResult:
    """Extended-target mapping error between truth sets X and estimates Y."""
    targets = _as_target_sets(targets)
    if len(targets) == 0:
        raise ValueError("at least one target required")
    estimates = np.asarray(estimates, dtype=float).reshape(-1, 2)
    n_x, n_y = len(targets), len(estimates)
    n_truth_points = sum(len(t) for t in targets)

    assignment: list[Optional[int]] = [None] * n_x
    sum_pairs = 0.0
    if n_y:
        rows, cols, sum_pairs = solve_assignment(cost_matrix(targets, estimates, params))
        for i, j in zip(rows.tolist(), cols.tolist()):
            assignment[i] = j
    missed = max(0, n_x - n_y)
    # each missed target pays the supremum of E: own term c^p, subtrahend 0
    surcharge = missed * (params.c + params.c ** params.p)
    extra = max(0, n_y - n_truth_points)
    cardinality = (params.c ** params.p / params.alpha) * extra
    bracket = sum_pairs + surcharge + cardinality
    clamped = bracket < 0.0
    if clamped:
        bracket = 0.0
    return EtGospaResult(
        value=float(bracket ** (1.0 / params.p)),
        assignment=tuple(assignment),
        sum_pair_costs=float(sum_pairs),
        cardinality_term=float(cardinality),
        missed_count=missed,
        extra_count=extra,
        clamped=clamped,
    )


def gospa_baseline(
    truth_points: np.ndarray,
    estimates: np.ndarray,
    params: MetricParams = MetricParams(),
) -> float:
    """Point-target GOSPA with the clamped squared ground cost."""
    x = np.asarray(truth_points, dtype=float).reshape(-1, 2)
    y = np.asarray(estimates, dtype=float).reshape(-1, 2)
    cp = params.c ** params.p
    if len(x) == 0 and len(y) == 0:
        return 0.0
    if len(x) == 0 or len(y) == 0:
        return float(((cp / params.alpha) * (len(x) + len(y))) ** (1.0 / params.p))
    d2 = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=-1)
    ground = np.minimum(d2, params.c) ** params.p
    *_, matched = solve_assignment(ground)
    unmatched = abs(len(x) - len(y))
    return float((matched + (cp / params.alpha) * unmatched) ** (1.0 / params.p))


def location_mse(truth: Sequence, estimate: Sequence) -> np.ndarray:
    """Per-step squared position error between two pose series."""
    if len(truth) != len(estimate):
        raise ValueError("pose series lengths differ")
    t = np.array([[p.x, p.y] for p in truth], dtype=float).reshape(-1, 2)
    e = np.array([[p.x, p.y] for p in estimate], dtype=float).reshape(-1, 2)
    return np.sum((t - e) ** 2, axis=1)
