"""Rectangular linear assignment with scipy's LAP solver.

``solve_assignment`` finds a minimum-cost matching of min(rows, columns)
pairs in a matrix of either orientation with
``scipy.optimize.linear_sum_assignment`` (Crouse 2016, shortest augmenting
path).  The optimal total is unique; when several argmins exist the solver
breaks the tie and no canonical choice is made.  The exhaustive oracle that
gates it lives in the tests.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


def solve_assignment(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimum-cost matching of every row (or, for a tall matrix, every column).

    Returns (rows, cols, total) with ``rows`` ascending: pair k matches row
    ``rows[k]`` to column ``cols[k]``.  Among tied optima the solver's choice
    is returned; the total is the same for every optimal assignment.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2:
        raise ValueError("cost matrix must be 2D")
    if not np.all(np.isfinite(costs)):
        raise ValueError("cost matrix entries must be finite")
    rows, cols = linear_sum_assignment(costs)
    return rows, cols, float(costs[rows, cols].sum())
