"""Assignment solver tests: brute-force oracle gating.

The optimal total is unique but the argmin is not: among tied optima the
solver's choice is accepted as long as it is an injection realizing the
exhaustive-enumeration optimum.
"""

import numpy as np
import pytest

from etslam.assignment import solve_assignment, solve_assignment_bruteforce


def test_diagonal_dominant_2x2():
    col4row, total = solve_assignment(np.array([[0.0, 10.0], [10.0, 0.0]]))
    assert list(col4row) == [0, 1]
    assert total == 0.0


def test_rectangular_2x3():
    col4row, total = solve_assignment(np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]]))
    assert total == pytest.approx(2.0)
    assert list(col4row) == [0, 1]


def test_empty_matrix():
    col4row, total = solve_assignment(np.zeros((0, 3)))
    assert len(col4row) == 0
    assert total == 0.0


def test_rows_exceed_columns_rejected():
    with pytest.raises(ValueError):
        solve_assignment(np.zeros((3, 2)))


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        solve_assignment(np.array([[1.0, np.inf]]))


def test_oracle_equivalence_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = rng.integers(1, 5)
        m = rng.integers(n, 7)
        costs = rng.uniform(-5, 5, size=(n, m))
        col4row, total = solve_assignment(costs)
        _, want = solve_assignment_bruteforce(costs)
        assert total == pytest.approx(want, abs=1e-9)
        # the returned assignment must realize the optimal total
        assert costs[np.arange(n), col4row].sum() == pytest.approx(want, abs=1e-9)
        assert len(set(col4row.tolist())) == n  # injection


def _assert_optimal_injection(costs, col4row, total, want_total):
    n = costs.shape[0]
    assert total == pytest.approx(want_total, abs=1e-9)
    assert len(set(col4row.tolist())) == n  # injection
    assert all(0 <= j < costs.shape[1] for j in col4row)
    assert costs[np.arange(n), col4row].sum() == pytest.approx(want_total, abs=1e-9)


def test_lexicographic_tie_break():
    # every assignment costs 2: any injection is optimal, none is canonical
    costs = np.ones((2, 2))
    col4row, total = solve_assignment(costs)
    _assert_optimal_injection(costs, col4row, total, 2.0)


def test_lexicographic_tie_break_matches_bruteforce():
    # quantized costs create many ties; whichever argmin the solver picks
    # must realize the exhaustive-enumeration optimum
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = rng.integers(1, 4)
        m = rng.integers(n, 6)
        costs = rng.integers(0, 3, size=(n, m)).astype(float)
        col4row, total = solve_assignment(costs)
        _, want_total = solve_assignment_bruteforce(costs)
        _assert_optimal_injection(costs, col4row, total, want_total)


def test_bruteforce_rejects_rows_exceeding_columns():
    with pytest.raises(ValueError):
        solve_assignment_bruteforce(np.zeros((3, 2)))
