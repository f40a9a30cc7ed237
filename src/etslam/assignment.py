"""Rectangular linear assignment: scipy LAP solver plus exhaustive oracle.

``solve_assignment`` finds a minimum-cost injection of rows into columns
(rows <= columns) with ``scipy.optimize.linear_sum_assignment`` (Crouse
2016, shortest augmenting path).  The optimal total is unique; when several
argmins exist the solver breaks the tie and no canonical choice is made.
``solve_assignment_bruteforce`` enumerates every injection and is kept
in-tree as the oracle that gates the fast solver in tests.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment


def solve_assignment_bruteforce(costs: np.ndarray) -> tuple[np.ndarray, float]:
    """Exhaustive enumeration over all injections; lexicographically-first argmin."""
    costs = np.asarray(costs, dtype=float)
    n_rows, n_cols = costs.shape
    if n_rows > n_cols:
        raise ValueError("rows must not exceed columns")
    rows = np.arange(n_rows)
    best_perm, best_total = None, np.inf
    for perm in itertools.permutations(range(n_cols), n_rows):
        total = float(costs[rows, list(perm)].sum())
        if total < best_total:
            best_total = total
            best_perm = perm
    return np.array(best_perm, dtype=int), best_total


def solve_assignment(costs: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-cost injection of rows into columns.

    Returns (col4row, total).  Among tied optima the solver's choice is
    returned; the total is the same for every optimal assignment.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2:
        raise ValueError("cost matrix must be 2D")
    if not np.all(np.isfinite(costs)):
        raise ValueError("cost matrix entries must be finite")
    n_rows, n_cols = costs.shape
    if n_rows == 0:
        return np.zeros(0, dtype=int), 0.0
    if n_rows > n_cols:
        raise ValueError("rows must not exceed columns (transpose or pad first)")
    # rows <= columns, so every row is assigned and row_ind is arange(n_rows)
    _, col4row = linear_sum_assignment(costs)
    total = float(costs[np.arange(n_rows), col4row].sum())
    return col4row, total
