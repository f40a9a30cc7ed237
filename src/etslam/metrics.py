"""Set-to-set mapping-error metrics for extended targets.

``et_gospa`` scores an estimated point set Y against a ground truth X given
as one point set per extended target.  Each matched estimate pays

    E = c^p + min_k d_c(x_{i,k}, y)^p - min_k d_c(x_{-i,k}, y)^p

where d_c is the squared Euclidean distance clamped at c, x_{-i} are the
points of all other targets (with none, the subtrahend is c^p), and matching
is the optimal injection.  Every term is in d^p units, as in GOSPA
(Rahmathullah et al. 2017), so E lies in [0, 2c^p] and the sum needs no
clamp.  A constant c in place of c^p mixed units and, for p > 1 and c > 1,
sent E negative (c = 5, p = 2: -20 per exact estimate, so a 1 m error read
as none); at p = 1 the two agree.  A target left unmatched pays the supremum
of E, 2c^p.  Extras are counted against the truth *points*:
max(0, |Y| - sum_i |x_i|) estimates pay c^p / alpha each.

``gospa_baseline`` is the point-target baseline on the same pair costs,
``_min_costs`` with each truth point a target of its own.

Both solve their matching with scipy's rectangular LAP solver,
``linear_sum_assignment`` (Crouse 2016), in either orientation.  The optimal
total is unique; when several argmins exist the solver breaks the tie and no
canonical choice is made.  The exhaustive oracle that gates it lives in the
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment as solve_assignment

from etslam.scene import as_points, require_positive


@dataclass(frozen=True)
class MetricParams:
    c: float = 5.0
    p: float = 1.0
    alpha: float = 2.0

    def __post_init__(self):
        require_positive("metric", c=self.c)
        if not (1.0 <= self.p < np.inf):
            raise ValueError("p must satisfy 1 <= p < inf")
        # every pair cost lies in [0, 2c^p]; Python's float power raises past the range
        try:
            bounded = math.isfinite(2.0 * float(self.c) ** self.p)
        except OverflowError:
            bounded = False
        if not bounded:
            raise ValueError(f"metric 2*c**p must be a finite float, got c={self.c:g}, p={self.p:g}")
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


class _TargetSets(list):
    """Target sets checked by ``_as_target_sets``.  ``et_gospa`` checks its estimates
    beside them, so ``cost_matrix`` takes both from it as they are."""


def _as_target_sets(targets: Sequence[np.ndarray]) -> _TargetSets:
    out = _TargetSets()
    for i, pts in enumerate(targets):
        arr = as_points(pts, f"target {i}")
        if len(arr) == 0:
            raise ValueError(f"target {i} has no points")
        out.append(arr)
    return out


# Cells of the (truth points, |Y|) distance array built at once: 2 MB per float64
# temporary.  A larger truth set goes in groups of whole consecutive targets.
_CELL_BUDGET = 2**18


def _min_costs(targets: list[np.ndarray], estimates: np.ndarray, params: MetricParams):
    """D[i, j] = min_k d_c(x_{i,k}, y_j)^p, shape (|X|, |Y|), clamped after the power to
    the scalar c**p, so D <= c^p bit for bit (numpy's power of c can differ from it).

    The squared distances are ``dx*dx + dy*dy``, x term first, the sum that
    ``np.sum(diff**2, axis=-1)`` over a (K, |Y|, 2) array gives, so D is the same
    bit for bit as a loop over the targets.  The targets' points are stacked
    and each target's rows reduced with ``np.minimum.reduceat``, in groups of
    consecutive targets of at most ``_CELL_BUDGET`` cells; a target larger than
    that is a group on its own.  Every config fits in one group, and a large
    truth CSV needs no more memory than the budget or its largest target.
    """
    ex, ey = estimates.T
    ends = np.cumsum([len(pts) for pts in targets])
    rows_budget = _CELL_BUDGET // len(estimates)
    d = np.empty((len(targets), len(estimates)))
    lo = 0
    while lo < len(targets):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + rows_budget, side="right")))
        x, y = np.concatenate(targets[lo:hi]).T
        d2 = x[:, None] - ex
        dy = y[:, None] - ey
        d2 *= d2
        dy *= dy
        d2 += dy  # dx*dx + dy*dy, in place
        np.minimum.reduceat(d2, np.append(0, ends[lo:hi - 1] - base), axis=0, out=d[lo:hi])
        lo = hi
    return np.minimum(d ** params.p, params.c ** params.p)


def cost_matrix(
    targets: Sequence[np.ndarray], estimates: np.ndarray, params: MetricParams
) -> np.ndarray:
    """Pair cost E of every target against every estimate, shape (|X|, |Y|)."""
    if not isinstance(targets, _TargetSets):
        targets = _as_target_sets(targets)
        estimates = as_points(estimates, "estimates")
    if len(targets) == 0 or len(estimates) == 0:
        raise ValueError("targets and estimates must be non-empty")
    d = _min_costs(targets, estimates, params)
    cp = params.c ** params.p
    # min over the other targets via the two smallest values per column; a row at
    # c^p, the largest value d takes, stands for "no other target" when n = 1
    part = np.partition(np.vstack([d, np.full(len(estimates), cp)]), 1, axis=0)
    # rows achieving the column minimum take the second-smallest instead
    first_min_row = np.argmin(d, axis=0)
    others_min = np.where(np.arange(len(d))[:, None] == first_min_row, part[1], part[0])
    # fl(c^p + d) >= c^p >= others_min, so every entry is >= 0 after rounding too
    return cp + d - others_min


def et_gospa(
    targets: Sequence[np.ndarray],
    estimates: np.ndarray,
    params: MetricParams = MetricParams(),
) -> EtGospaResult:
    """Extended-target mapping error between truth sets X and estimates Y."""
    targets = _as_target_sets(targets)
    if len(targets) == 0:
        raise ValueError("at least one target required")
    estimates = as_points(estimates, "estimates")
    n_x, n_y = len(targets), len(estimates)
    n_truth_points = sum(len(t) for t in targets)

    assignment: list[Optional[int]] = [None] * n_x
    sum_pairs = 0.0
    if n_y:
        costs = cost_matrix(targets, estimates, params)
        rows, cols = solve_assignment(costs)
        sum_pairs = float(costs[rows, cols].sum())
        for i, j in zip(rows.tolist(), cols.tolist()):
            assignment[i] = j
    cp = params.c ** params.p
    missed = max(0, n_x - n_y)
    extra = max(0, n_y - n_truth_points)
    cardinality = (cp / params.alpha) * extra
    # each missed target pays the supremum of E: own term c^p, subtrahend 0
    bracket = sum_pairs + missed * 2.0 * cp + cardinality
    return EtGospaResult(
        value=float(bracket ** (1.0 / params.p)),
        assignment=tuple(assignment),
        sum_pair_costs=float(sum_pairs),
        cardinality_term=float(cardinality),
        missed_count=missed,
        extra_count=extra,
    )


def gospa_baseline(
    truth_points: np.ndarray,
    estimates: np.ndarray,
    params: MetricParams = MetricParams(),
) -> float:
    """Point-target GOSPA with the clamped squared ground cost."""
    x = as_points(truth_points, "truth points")
    y = as_points(estimates, "estimates")
    cp = params.c ** params.p
    if len(x) == 0 and len(y) == 0:
        return 0.0
    if len(x) == 0 or len(y) == 0:
        return float(((cp / params.alpha) * (len(x) + len(y))) ** (1.0 / params.p))
    # each truth point a one-point target, so a pair costs min(d^p, c^p)
    costs = _min_costs(list(x[:, None]), y, params)
    rows, cols = solve_assignment(costs)
    matched = float(costs[rows, cols].sum())
    unmatched = abs(len(x) - len(y))
    return float((matched + (cp / params.alpha) * unmatched) ** (1.0 / params.p))


def location_mse(truth: Sequence, estimate: Sequence) -> np.ndarray:
    """Per-step squared position error between two pose series."""
    if len(truth) != len(estimate):
        raise ValueError("pose series lengths differ")
    t = np.array([[p.x, p.y] for p in truth], dtype=float).reshape(-1, 2)
    e = np.array([[p.x, p.y] for p in estimate], dtype=float).reshape(-1, 2)
    return np.sum((t - e) ** 2, axis=1)
