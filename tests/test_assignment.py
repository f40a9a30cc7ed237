"""The metric's assignment solver, ``metrics.solve_assignment``: brute-force oracle gating.

``et_gospa`` and ``gospa_baseline`` call it on wide and tall matrices and read
pair k as row ``rows[k]`` to column ``cols[k]``.  The optimal total is unique
but the argmin is not: among tied optima the solver's choice is accepted as
long as it is a matching realizing the exhaustive-enumeration optimum.  The
oracle takes rows <= columns, so a tall matrix is checked through its
transpose.
"""

import itertools

import numpy as np
import pytest

from etslam.metrics import solve_assignment


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


def _oracle_total(costs):
    return solve_assignment_bruteforce(costs if costs.shape[0] <= costs.shape[1] else costs.T)[1]


def _assert_optimal_matching(costs, rows, cols, want_total):
    n = min(costs.shape)
    assert len(rows) == len(cols) == n
    assert list(rows) == sorted(set(rows.tolist()))  # ascending, each row once
    assert len(set(cols.tolist())) == n  # each column once
    assert all(0 <= j < costs.shape[1] for j in cols)
    assert costs[rows, cols].sum() == pytest.approx(want_total, abs=1e-9)


def test_diagonal_dominant_2x2():
    rows, cols = solve_assignment(np.array([[0.0, 10.0], [10.0, 0.0]]))
    assert list(rows) == [0, 1]
    assert list(cols) == [0, 1]


def test_rectangular_2x3():
    costs = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]])
    rows, cols = solve_assignment(costs)
    assert costs[rows, cols].sum() == pytest.approx(2.0)
    assert list(rows) == [0, 1]
    assert list(cols) == [0, 1]


def test_rectangular_3x2():
    # the transpose of test_rectangular_2x3: every column is matched
    costs = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
    rows, cols = solve_assignment(costs)
    assert costs[rows, cols].sum() == pytest.approx(2.0)
    assert list(rows) == [0, 1]
    assert list(cols) == [0, 1]


def test_empty_matrix():
    for shape in ((0, 3), (3, 0), (0, 0)):
        rows, cols = solve_assignment(np.zeros(shape))
        assert len(rows) == len(cols) == 0


def test_oracle_equivalence_random():
    rng = np.random.default_rng(42)
    for k in range(400):
        n = rng.integers(1, 5)
        m = rng.integers(n, 7)
        # wide and tall alternately
        costs = rng.uniform(-5, 5, size=(n, m) if k % 2 else (m, n))
        rows, cols = solve_assignment(costs)
        _assert_optimal_matching(costs, rows, cols, _oracle_total(costs))


def test_lexicographic_tie_break():
    # every assignment costs 2: any injection is optimal, none is canonical
    costs = np.ones((2, 2))
    rows, cols = solve_assignment(costs)
    _assert_optimal_matching(costs, rows, cols, 2.0)


def test_lexicographic_tie_break_matches_bruteforce():
    # quantized costs create many ties; whichever argmin the solver picks
    # must realize the exhaustive-enumeration optimum, in either orientation
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = rng.integers(1, 4)
        m = rng.integers(n, 6)
        costs = rng.integers(0, 3, size=(n, m)).astype(float)
        for oriented in (costs, costs.T):
            rows, cols = solve_assignment(oriented)
            _assert_optimal_matching(oriented, rows, cols, _oracle_total(oriented))


def test_bruteforce_rejects_rows_exceeding_columns():
    with pytest.raises(ValueError):
        solve_assignment_bruteforce(np.zeros((3, 2)))
