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
from typing import Iterable, Optional, Sequence

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


# Cells of the (truth points, |Y|) distance array built at once: 2 MB per float64
# temporary.  A larger truth set goes in groups of whole targets.
_CELL_BUDGET = 2**18


def _min_costs(targets: list[np.ndarray], estimates: np.ndarray, params: MetricParams):
    """D[i, j] = min_k d_c(x_{i,k}, y_j)^p, shape (|X|, |Y|), clamped after the power to
    the scalar c**p, so D <= c^p bit for bit (numpy's power of c can differ from it).
    Either set may be empty.  Overflow is silenced: the clamp maps its inf to c^p.

    The squared distances are ``dx*dx + dy*dy``, x term first, the sum that
    ``np.sum(diff**2, axis=-1)`` over a (K, |Y|, 2) array gives, so D is the same
    bit for bit as a loop over the targets.  Targets of equal point count k form
    a group: their points, stacked as a (targets, k, |Y|) array of squared
    distances, give each target's minimum in one ``min`` over the middle axis,
    scattered to the targets' rows.  A group holds at most ``_CELL_BUDGET`` cells,
    so a size class larger than that is split in target order, and a target
    larger than that is a group on its own.  Every config fits in one group, and
    a large truth CSV needs no more memory than the budget or its largest target.
    """
    ex, ey = estimates.T
    sizes = [len(pts) for pts in targets]
    rows_budget = _CELL_BUDGET // max(len(estimates), 1)
    d = np.empty((len(targets), len(estimates)))
    with np.errstate(over="ignore"):
        for k in sorted(set(sizes)):
            rows = [i for i, n in enumerate(sizes) if n == k]
            step = max(1, rows_budget // k)
            for lo in range(0, len(rows), step):
                group = rows[lo:lo + step]
                pts = np.concatenate([targets[i] for i in group]).reshape(len(group), k, 2)
                x, y = pts.transpose(2, 0, 1)
                d2 = x[..., None] - ex
                dy = y[..., None] - ey
                d2 *= d2
                dy *= dy
                d2 += dy  # dx*dx + dy*dy, in place
                d[group] = d2.min(axis=1)
        return np.minimum(d ** params.p, params.c ** params.p)


def cost_matrix(
    targets: Sequence[np.ndarray], estimates: np.ndarray, params: MetricParams
) -> np.ndarray:
    """Pair cost E of every target against every estimate, shape (|X|, |Y|), and the one
    check of ``et_gospa``'s point sets: one target or more, none empty; |Y| may be 0.

    The other targets' minimum is, in each column of D, the column's minimum for
    every row but its argmin; the argmin row takes the column's second minimum,
    read with the argmin entry set to c^p.  c^p is the largest value D takes, so
    it also stands for "no other target" when |X| = 1.  E is ``(c^p + D) - that
    minimum``, in that order.
    """
    targets = [as_points(pts, f"target {i}") for i, pts in enumerate(targets)]
    if not targets:
        raise ValueError("at least one target required")
    for i, pts in enumerate(targets):
        if len(pts) == 0:
            raise ValueError(f"target {i} has no points")
    estimates = as_points(estimates, "estimates")
    d = _min_costs(targets, estimates, params)
    cp = params.c ** params.p
    first = np.argmin(d, axis=0)
    cols = np.arange(d.shape[1])
    lowest = d[first, cols]
    costs = cp + d
    d[first, cols] = cp
    at_first = costs[first, cols] - np.min(d, axis=0)
    # fl(c^p + d) >= c^p >= either minimum, so every entry is >= 0 after rounding too
    costs -= lowest
    costs[first, cols] = at_first
    return costs


def _value(bracket: float, params: MetricParams) -> float:
    """The metric's value bracket^(1/p); a bracket past the float range is refused."""
    if not math.isfinite(bracket):
        raise ValueError(f"metric value is not a finite float at c={params.c:g}, "
                         f"p={params.p:g}, alpha={params.alpha:g}")
    return float(bracket ** (1.0 / params.p))


def et_gospa(
    targets: Iterable[np.ndarray],
    estimates: np.ndarray,
    params: MetricParams = MetricParams(),
) -> EtGospaResult:
    """Extended-target mapping error between truth sets X and estimates Y.

    ``targets`` may be any iterable of point sets; it is read once.  The matched
    pair costs are summed by numpy in target order.
    """
    targets = list(targets)
    costs = cost_matrix(targets, estimates, params)
    n_x, n_y = costs.shape
    rows, cols = solve_assignment(costs)
    # a sum past the float range reads inf, which _value refuses
    with np.errstate(over="ignore"):
        sum_pairs = float(costs[rows, cols].sum())
    assignment: list[Optional[int]] = [None] * n_x
    for i, j in zip(rows.tolist(), cols.tolist()):
        assignment[i] = j
    cp = params.c ** params.p
    missed = max(0, n_x - n_y)
    extra = max(0, n_y - sum(len(t) for t in targets))
    cardinality = (cp / params.alpha) * extra
    return EtGospaResult(
        # each missed target pays the supremum of E: own term c^p, subtrahend 0
        value=_value(sum_pairs + missed * 2.0 * cp + cardinality, params),
        assignment=tuple(assignment),
        sum_pair_costs=sum_pairs,
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
    # each truth point a one-point target, so a pair costs min(d^p, c^p)
    costs = _min_costs(list(x[:, None]), y, params)
    rows, cols = solve_assignment(costs)
    with np.errstate(over="ignore"):
        matched = float(costs[rows, cols].sum())
    unmatched = abs(len(x) - len(y))
    return _value(matched + (params.c ** params.p / params.alpha) * unmatched, params)


def location_mse(truth: Sequence, estimate: Sequence) -> np.ndarray:
    """Per-step squared position error between two pose series."""
    if len(truth) != len(estimate):
        raise ValueError("pose series lengths differ")
    t = np.array([[p.x, p.y] for p in truth], dtype=float).reshape(-1, 2)
    e = np.array([[p.x, p.y] for p in estimate], dtype=float).reshape(-1, 2)
    return np.sum((t - e) ** 2, axis=1)
