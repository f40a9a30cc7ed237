"""Metric-library tests: worked values, properties, and an independent oracle.

``reference_et_gospa`` below re-derives the metric from its definition with
plain loops and exhaustive enumeration over injections; it shares no code
with the package implementation and gates it on random instances.
"""

import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from etslam import harness, metrics
from etslam.metrics import (
    EtGospaResult,
    MetricParams,
    cost_matrix,
    et_gospa,
    gospa_baseline,
    location_mse,
)
from etslam.scene import Pose


# ---------------------------------------------------------------------------
# independent reference implementation (exhaustive, loop-based)


def _ref_ground(x, y, c, p):
    d2 = (x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2
    return min(c, d2) ** p


def _ref_pair_cost(i, targets, y, params):
    c, p = params.c, params.p
    own = min(_ref_ground(x, y, c, p) for x in targets[i])
    others = [x for k in range(len(targets)) if k != i for x in targets[k]]
    sub = min((_ref_ground(x, y, c, p) for x in others), default=c**p)
    return c**p + own - sub


def reference_et_gospa(targets, estimates, params):
    """Exhaustive enumeration over all injections; value only."""
    n_x, n_y = len(targets), len(estimates)
    c, p, alpha = params.c, params.p, params.alpha
    if n_y == 0:
        pairs = 0.0
    elif n_y >= n_x:
        pairs = min(
            sum(_ref_pair_cost(i, targets, estimates[j], params)
                for i, j in enumerate(perm))
            for perm in itertools.permutations(range(n_y), n_x)
        )
    else:
        pairs = min(
            sum(_ref_pair_cost(i, targets, estimates[j], params)
                for j, i in enumerate(perm))
            for perm in itertools.permutations(range(n_x), n_y)
        )
    missed = max(0, n_x - n_y)
    extra = max(0, n_y - sum(len(t) for t in targets))
    bracket = pairs + missed * 2 * c**p + (c**p / alpha) * extra
    assert bracket >= 0.0  # every term is in d^p units, so nothing can go negative
    return bracket ** (1.0 / p)


def _random_instance(rng):
    n_x = rng.integers(1, 5)
    targets = [rng.uniform(-10, 10, size=(rng.integers(1, 4), 2)) for _ in range(n_x)]
    estimates = rng.uniform(-10, 10, size=(rng.integers(0, 7), 2))
    params = MetricParams(
        c=float(rng.uniform(0.5, 20.0)),
        p=float(rng.uniform(1.0, 3.0)),
        alpha=float(rng.uniform(0.1, 2.0)),
    )
    return targets, estimates, params


P514 = MetricParams(c=5.0, p=1.0, alpha=2.0)


def _pair_cost(i, targets, y, params):
    """Entry (i, y) of cost_matrix, checked against the loop-based oracle."""
    got = float(cost_matrix(targets, np.atleast_2d(y), params)[i, 0])
    want = _ref_pair_cost(i, [list(map(tuple, t)) for t in targets], tuple(y), params)
    assert got == pytest.approx(want, abs=1e-12)
    return got


# ---------------------------------------------------------------------------
# clamped ground distance: with one target and p = 1, E = min(c, |x - y|^2)


def test_clamped_sqdist_identity():
    assert _pair_cost(0, [np.array([[1.0, 2.0]])], np.array([1.0, 2.0]), P514) == 0.0


def test_clamped_sqdist_boundary():
    # squared distance exactly c
    assert _pair_cost(0, [np.array([[0.0, 0.0]])], np.array([1.0, 2.0]), P514) == 5.0


def test_clamped_sqdist_clamp():
    assert _pair_cost(0, [np.array([[0.0, 0.0]])], np.array([3.0, 4.0]), P514) == 5.0


def test_clamped_sqdist_requires_positive_c():
    for c in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            MetricParams(c=c)


# ---------------------------------------------------------------------------
# pair cost and cost matrix


def test_pair_cost_two_target_example():
    targets = [np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[10.0, 0.0]])]
    assert _pair_cost(0, targets, np.array([0.5, 0.0]), P514) == pytest.approx(0.25)


def test_pair_cost_worst_case():
    targets = [np.array([[0.0, 0.0]]), np.array([[3.0, 0.0]])]
    assert _pair_cost(0, targets, np.array([3.0, 0.0]), P514) == pytest.approx(10.0)


def test_pair_cost_single_target_convention():
    # with no other targets the subtrahend is c^p, so truth scores zero
    targets = [np.array([[0.0, 0.0]])]
    assert _pair_cost(0, targets, np.array([0.0, 0.0]), P514) == pytest.approx(0.0)


def test_cost_matrix_single_perfect():
    m = cost_matrix([np.array([[0.0, 0.0]])], np.array([[0.0, 0.0]]), P514)
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(0.0)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_cost_matrix_one_target_subtracts_c_to_the_p(p):
    """With one target the subtrahend is c^p: the matrix is c^p + d - c^p, bit for bit,
    also for estimates beyond c, where d is c^p itself."""
    params = MetricParams(c=2.0, p=p, alpha=2.0)
    cp = params.c ** p
    rng = np.random.default_rng(31)
    target = rng.uniform(-1.0, 1.0, (5, 2))
    est = np.concatenate([rng.uniform(-2.0, 2.0, (40, 2)), [[9.0, 9.0], target[2]]])
    d2 = np.sum((target[:, None, :] - est[None, :, :]) ** 2, axis=-1)
    d = np.minimum(np.min(d2, axis=0) ** p, cp)
    want = cp + d - cp
    m = cost_matrix([target], est, params)
    assert m.shape == (1, len(est))
    assert m[0].tobytes() == want.tobytes()
    assert m[0, -2] == cp and m[0, -1] == 0.0  # the far estimate, the on-target one


def test_cost_matrix_two_by_two():
    targets = [np.array([[0.0, 0.0]]), np.array([[10.0, 0.0]])]
    est = np.array([[0.0, 0.0], [10.0, 0.0]])
    m = cost_matrix(targets, est, P514)
    assert np.allclose(m, [[0.0, 10.0], [10.0, 0.0]])


def test_cost_matrix_entries_bounded():
    rng = np.random.default_rng(7)
    for _ in range(50):
        targets, est, params = _random_instance(rng)
        if len(est) == 0:
            continue
        m = cost_matrix(targets, est, params)
        assert np.all(m >= 0.0)
        assert np.all(m <= 2 * params.c**params.p)


_coord = st.floats(-20.0, 20.0)
_float_point = st.tuples(_coord, _coord)


@settings(max_examples=200, deadline=None)
@given(
    targets=st.lists(st.lists(_float_point, min_size=1, max_size=4), min_size=1, max_size=4),
    est=st.lists(_float_point, max_size=6),
    c=st.floats(0.1, 50.0),
    p=st.floats(1.0, 3.0),
    alpha=st.floats(0.1, 2.0),
)
def test_pair_costs_in_zero_to_two_c_to_the_p(targets, est, c, p, alpha):
    """Every term is in d^p units, so E lies in [0, 2 c^p] with no tolerance and the
    value is >= 0 with no clamp, at every p in range."""
    params = MetricParams(c=c, p=p, alpha=alpha)
    targets = [np.array(t) for t in targets]
    est = np.array(est, dtype=float).reshape(-1, 2)
    if len(est):
        m = cost_matrix(targets, est, params)
        assert np.all((m >= 0.0) & (m <= 2 * c**p))
    result = et_gospa(targets, est, params)
    assert result.sum_pair_costs >= 0.0 and result.value >= 0.0


@pytest.mark.parametrize("offset, value, sum_pairs", [
    (0.0, "0", 0.0), (0.5, "0.353553391", 0.125), (1.0, "1.41421356", 2.0),
])
def test_p2_value_grows_with_the_error(offset, value, sum_pairs):
    """c = 5, p = 2, one estimate per target ``offset`` m off.  A pair cost of
    c + D - c^p summed to -40 / -39.875 / -38 here, so all three values read 0."""
    targets = [np.array([[0.0, 0.0]]), np.array([[20.0, 0.0]])]
    est = np.array([[offset, 0.0], [20.0 + offset, 0.0]])
    result = et_gospa(targets, est, MetricParams(c=5.0, p=2.0, alpha=2.0))
    assert result.sum_pair_costs == sum_pairs
    assert f"{result.value:.9g}" == value


def loop_min_costs(targets, estimates, params):
    """D one target at a time, from a (K, |Y|, 2) difference array each: the bit-level
    oracle for ``metrics._min_costs``."""
    rows = []
    for pts in targets:
        d2 = np.sum((pts[:, None, :] - estimates[None, :, :]) ** 2, axis=-1)
        rows.append(np.minimum(np.min(d2, axis=0) ** params.p, params.c ** params.p))
    return np.stack(rows)


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 7), min_size=1, max_size=6),
    n_y=st.sampled_from([1, 2, 9, 40]),
    p=st.sampled_from([1.0, 2.0, 3.5]),
    c=st.floats(0.5, 20.0),
    budget=st.sampled_from([1, 8, 30, metrics._CELL_BUDGET]),
    seed=st.integers(0, 2**32 - 1),
)
def test_min_costs_equal_the_per_target_loop(sizes, n_y, p, c, budget, seed):
    """Ragged targets of 1 to 7 points: D and the cost matrix equal the per-target loop's
    bit for bit, with every target in one group and, with the budget cut down, with the
    targets split over groups and targets larger than a group on their own."""
    rng = np.random.default_rng(seed)
    targets = [rng.normal(0.0, 4.0, (k, 2)) for k in sizes]
    est = rng.normal(0.0, 4.0, (n_y, 2))
    params = MetricParams(c=c, p=p)
    want_d = loop_min_costs(targets, est, params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_CELL_BUDGET", budget)
        got_d = metrics._min_costs(targets, est, params)
        got = cost_matrix(targets, est, params)
        mp.setattr(metrics, "_min_costs", loop_min_costs)
        want = cost_matrix(targets, est, params)
    assert got_d.shape == want_d.shape and got_d.tobytes() == want_d.tobytes()
    assert got.tobytes() == want.tobytes()


def test_min_costs_group_boundary():
    """A budget of 3 rows of |Y| = 4 groups targets of 2, 1, 3, 5 and 1 points as
    [2, 1], [3], [5], [1]; D equals the loop's and the one-group result."""
    rng = np.random.default_rng(3)
    targets = [rng.normal(0.0, 3.0, (k, 2)) for k in (2, 1, 3, 5, 1)]
    est = rng.normal(0.0, 3.0, (4, 2))
    params = MetricParams(c=4.0, p=2.0)
    whole = metrics._min_costs(targets, est, params)
    groups = []
    concatenate = np.concatenate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_CELL_BUDGET", 3 * len(est))
        mp.setattr(metrics.np, "concatenate", lambda a: groups.append(len(a)) or concatenate(a))
        split = metrics._min_costs(targets, est, params)
    assert groups == [2, 1, 1, 1]
    want = loop_min_costs(targets, est, params)
    assert split.tobytes() == whole.tobytes() == want.tobytes()


def test_cost_matrix_agrees_with_pair_cost():
    """Every entry equals the loop-based oracle's pair cost, on 50 random instances."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        targets, est, params = _random_instance(rng)
        if len(est) == 0:
            continue
        m = cost_matrix(targets, est, params)
        ref_targets = [list(map(tuple, t)) for t in targets]
        for i in range(len(targets)):
            for j in range(len(est)):
                want = _ref_pair_cost(i, ref_targets, tuple(est[j]), params)
                assert m[i, j] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# et_gospa


def test_worked_value_2_5():
    targets = [np.array([[0.0, 0.0]]), np.array([[10.0, 0.0]])]
    est = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 5.0]])
    result = et_gospa(targets, est, P514)
    assert result.value == pytest.approx(2.5, abs=1e-12)
    assert result.sum_pair_costs == pytest.approx(0.0, abs=1e-12)
    assert result.cardinality_term == pytest.approx(2.5, abs=1e-12)
    assert result.extra_count == 1
    assert result.missed_count == 0


def test_perfect_singletons_zero():
    targets = [np.array([[1.0, 2.0]]), np.array([[-3.0, 4.0]])]
    est = np.array([[1.0, 2.0], [-3.0, 4.0]])
    assert et_gospa(targets, est, P514).value == pytest.approx(0.0, abs=1e-12)


def test_perfect_estimation_zero_multipoint():
    # Y equals the union of all reference points and |Y| = sum |x_i|
    rng = np.random.default_rng(3)
    targets = [rng.uniform(-5, 5, size=(k, 2)) + off
               for k, off in ((2, 0.0), (3, 40.0), (1, -40.0))]
    est = np.vstack(targets)
    assert et_gospa(targets, est, P514).value == pytest.approx(0.0, abs=1e-12)


def test_empty_targets_rejected():
    with pytest.raises(ValueError):
        et_gospa([], np.zeros((1, 2)), P514)


_POINT = np.array([[0.0, 0.0]])


@pytest.mark.parametrize("call, what, shape", [
    (lambda bad: et_gospa([_POINT], bad, P514), "estimates", (2, 3)),
    (lambda bad: et_gospa([_POINT, bad], _POINT, P514), "target 1", (2, 3)),
    (lambda bad: cost_matrix([_POINT], bad, P514), "estimates", (2, 3)),
    (lambda bad: gospa_baseline(bad, _POINT, P514), "truth points", (2, 3)),
    (lambda bad: gospa_baseline(_POINT, bad, P514), "estimates", (2, 3)),
    (lambda bad: et_gospa([_POINT], bad, P514), "estimates", (4,)),
], ids=["et_gospa-estimates", "et_gospa-target", "cost_matrix-estimates",
        "gospa_baseline-truth", "gospa_baseline-estimates", "et_gospa-flat-estimates"])
def test_point_sets_must_be_n_by_2(call, what, shape):
    """A (2, 3) estimate array was scored as three points, and a flat one as pairs."""
    bad = np.arange(float(np.prod(shape))).reshape(shape)
    with pytest.raises(ValueError, match=re.escape(f"{what} must have shape (n, 2), got {shape}")):
        call(bad)


@pytest.mark.parametrize("call, what", [
    (lambda bad: et_gospa([_POINT], bad, P514), "estimates"),
    (lambda bad: et_gospa([_POINT, bad], _POINT, P514), "target 1"),
    (lambda bad: cost_matrix([_POINT], bad, P514), "estimates"),
    (lambda bad: cost_matrix([bad], _POINT, P514), "target 0"),
    (lambda bad: gospa_baseline(bad, _POINT, P514), "truth points"),
    (lambda bad: gospa_baseline(_POINT, bad, P514), "estimates"),
], ids=["et_gospa-estimates", "et_gospa-target", "cost_matrix-estimates",
        "cost_matrix-target", "gospa_baseline-truth", "gospa_baseline-estimates"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_point_sets_must_be_finite(call, what, value):
    """An inf estimate was scored as one far away, and a NaN failed later, naming no set."""
    with pytest.raises(ValueError, match=f"^{what} must be finite$"):
        call(np.array([[0.0, 1.0], [value, 0.0]]))


def test_et_gospa_checks_each_point_set_once(monkeypatch):
    """The ci.yaml truth with 20 estimates: one ``as_points`` per target set and one for
    the estimates, and one call to the module-level ``cost_matrix``, which checks none
    of them again; called directly, ``cost_matrix`` still checks them all."""
    truth = harness.load_experiment("ci.yaml").truth_sets()
    est = np.vstack(truth)[::7][:20]
    checked, costed = [], []
    as_points, cost = metrics.as_points, metrics.cost_matrix
    monkeypatch.setattr(metrics, "as_points", lambda *a: checked.append(a[1:]) or as_points(*a))
    monkeypatch.setattr(metrics, "cost_matrix", lambda *a: costed.append(1) or cost(*a))
    want = [(f"target {i}",) for i in range(len(truth))] + [("estimates",)]
    result = metrics.et_gospa(truth, est, P514)
    assert checked == want and len(costed) == 1
    checked.clear()
    assert metrics.cost_matrix(truth, est, P514).shape == (len(truth), len(est))
    assert checked == want
    assert result == et_gospa(truth, est, P514)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        MetricParams(c=-1.0)
    with pytest.raises(ValueError):
        MetricParams(p=0.5)
    with pytest.raises(ValueError):
        MetricParams(alpha=3.0)


@pytest.mark.parametrize("c, p, shown", [
    (1e10, 40.0, "c=1e+10, p=40"), (5.0, 1e300, "c=5, p=1e+300"),
    (1e200, 2.0, "c=1e+200, p=2"),
    # c^p is finite here, 2c^p is not
    (np.nextafter(sys.float_info.max / 2, math.inf), 1.0, "c=8.98847e+307, p=1"),
], ids=["c1e10-p40", "c5-p1e300", "c1e200-p2", "2c-past-max"])
def test_params_refuse_pair_cost_bound_past_float_range(c, p, shown):
    """A pair cost lies in [0, 2c^p]: each of these constructed, and the first
    ``et_gospa`` raised a bare ``OverflowError: (34, 'Numerical result out of range')``."""
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'metric 2*c**p must be a finite float, got {shown}')}$"):
        MetricParams(c=c, p=p)


def test_params_accept_largest_finite_pair_cost_bound():
    assert 2.0 * MetricParams(c=sys.float_info.max / 2, p=1.0).c == sys.float_info.max


def test_missed_target_surcharge():
    # one estimate, two targets: unmatched target pays 2 c^p
    targets = [np.array([[0.0, 0.0]]), np.array([[50.0, 0.0]])]
    result = et_gospa(targets, np.array([[0.0, 0.0]]), P514)
    assert result.missed_count == 1
    assert result.assignment == (0, None)
    assert et_gospa(targets, np.array([[50.0, 0.0]]), P514).assignment == (None, 0)
    assert result.value == pytest.approx(0.0 + 10.0, abs=1e-12)


def test_no_estimates():
    targets = [np.array([[0.0, 0.0]]), np.array([[50.0, 0.0]])]
    result = et_gospa(targets, np.zeros((0, 2)), P514)
    assert result.missed_count == 2
    assert result.value == pytest.approx(20.0, abs=1e-12)


def test_oracle_equivalence_random():
    rng = np.random.default_rng(20260826)
    for _ in range(300):
        targets, est, params = _random_instance(rng)
        got = et_gospa(targets, est, params).value
        want = reference_et_gospa([list(map(tuple, t)) for t in targets],
                                  [tuple(y) for y in est], params)
        assert got == pytest.approx(want, abs=1e-12)


def test_non_negative_random():
    rng = np.random.default_rng(99)
    for _ in range(200):
        targets, est, params = _random_instance(rng)
        assert et_gospa(targets, est, params).value >= 0.0


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    targets, est, params = _random_instance(rng)
    while len(est) < 2:
        targets, est, params = _random_instance(rng)
    base = et_gospa(targets, est, params).value
    for _ in range(10):
        t_perm = [targets[i][rng.permutation(len(targets[i]))]
                  for i in rng.permutation(len(targets))]
        e_perm = est[rng.permutation(len(est))]
        assert et_gospa(t_perm, e_perm, params).value == pytest.approx(base, abs=1e-9)


_half_grid = st.integers(-10, 10).map(lambda k: 0.5 * k)  # quantized: many ties
_point = st.tuples(_half_grid, _half_grid)


@settings(max_examples=150, deadline=None)
@given(
    targets=st.lists(st.lists(_point, min_size=1, max_size=4), min_size=1, max_size=4),
    near=st.lists(_point, max_size=6),
    n_far=st.integers(0, 5),
    c=st.integers(1, 9).map(float),
    p=st.sampled_from([1.0, 2.0]),
    alpha=st.sampled_from([1.0, 2.0]),
    data=st.data(),
)
def test_value_invariant_under_reordering(targets, near, n_far, c, p, alpha, data):
    """The argmin is not canonical, but value and sum_pair_costs are invariant."""
    params = MetricParams(c=c, p=p, alpha=alpha)
    targets = [np.array(t) for t in targets]
    # far from every target: pair cost exactly c^p against each target
    far = [(100.0 + 10.0 * k, -100.0) for k in range(n_far)]
    est = np.array(near + far, dtype=float).reshape(-1, 2)
    if n_far:
        assert np.all(cost_matrix(targets, est, params)[:, len(near):] == c**p)
    base = et_gospa(targets, est, params)
    t_order = data.draw(st.permutations(range(len(targets))))
    e_order = data.draw(st.permutations(range(len(est))))
    got = et_gospa([targets[i] for i in t_order], est[list(e_order)], params)
    assert got.value == pytest.approx(base.value, rel=1e-12, abs=1e-12)
    assert got.sum_pair_costs == pytest.approx(base.sum_pair_costs, rel=1e-12, abs=1e-12)
    assert (got.missed_count, got.extra_count) == (base.missed_count, base.extra_count)


def _fig3_instance(rng):
    """Two singleton targets; y1, y2 equidistant from x1, y2 farther from x2.

    The estimate farther from the unmatched target scores better (the
    between-class property), and adding the second estimate removes the
    missed-target surcharge, so d(X,{y1}) > d(X,{y2}) > d(X,{y1,y2}).
    y1's distance to x2 stays inside the clamp region to keep the first
    inequality strict.
    """
    c = 5.0
    x1 = rng.uniform(-5, 5, size=2)
    direction = rng.uniform(-1, 1, size=2)
    direction /= np.linalg.norm(direction)
    x2 = x1 + direction * rng.uniform(1.6, 2.0)
    r = rng.uniform(0.3, 0.7)
    # y1 on the near side of x1 toward x2; y2 on the far side
    y1 = x1 + direction * r
    y2 = x1 - direction * r
    return [x1[None, :], x2[None, :]], y1, y2, MetricParams(c=c, p=1.0, alpha=2.0)


def test_between_and_more_matching_properties():
    """d(X,{y1}) > d(X,{y2}) and both exceed d(X,{y1,y2}), 100 random layouts."""
    rng = np.random.default_rng(1234)
    for _ in range(100):
        targets, y1, y2, params = _fig3_instance(rng)
        d1 = et_gospa(targets, y1[None, :], params).value
        d2 = et_gospa(targets, y2[None, :], params).value
        d12 = et_gospa(targets, np.vstack([y1, y2]), params).value
        assert d1 > d2
        assert d1 > d12
        assert d2 > d12


def test_moving_estimate_away_from_other_targets_does_not_increase():
    # increasing the subtrahend's distance (still clamped region) lowers E
    targets = [np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]])]
    y_near = np.array([0.5, 0.0])   # close to the other target
    y_far = np.array([0.5, 1.5])    # same own-distance? no; compare pair costs directly
    e_near = _pair_cost(0, targets, y_near, P514)
    # same estimate, other target moved farther away (within clamp)
    targets_far = [np.array([[0.0, 0.0]]), np.array([[2.5, 0.0]])]
    e_far = _pair_cost(0, targets_far, y_near, P514)
    assert e_far <= e_near


# ---------------------------------------------------------------------------
# gospa baseline and the singleton reduction


def test_gospa_baseline_examples():
    assert gospa_baseline(np.array([[0.0, 0.0]]),
                          np.array([[0.0, 0.0], [10.0, 10.0]]), P514) == pytest.approx(2.5)
    pts = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert gospa_baseline(pts, pts, P514) == pytest.approx(0.0)
    assert gospa_baseline(np.array([[0.0, 0.0]]),
                          np.array([[3.0, 4.0]]), P514) == pytest.approx(5.0)


def test_gospa_baseline_empty_sets():
    assert gospa_baseline(np.zeros((0, 2)), np.zeros((0, 2)), P514) == 0.0
    assert gospa_baseline(np.zeros((0, 2)), np.array([[1.0, 1.0]]), P514) == pytest.approx(2.5)


@settings(max_examples=200, deadline=None)
@given(c=st.floats(0.5, 20.0), p=st.floats(1.0, 3.0))
@example(c=5.0, p=2.2)
@example(c=10.0, p=2.5)
def test_gospa_baseline_clamped_pair_costs_the_cardinality_charge(c, p):
    """A pair clamped at c^p costs, bit for bit, what one unmatched point pays at alpha = 1."""
    params = MetricParams(c=c, p=p, alpha=1.0)
    far = gospa_baseline(_POINT, np.array([[100.0, 0.0]]), params)  # d^2 = 1e4 > c
    assert far == gospa_baseline(_POINT, np.zeros((0, 2)), params)


@pytest.mark.parametrize("p", [1.0, 1.7, 2.0])
def test_gospa_baseline_matches_its_pair_matrix(p):
    """The baseline takes its pair costs from ``_min_costs``, each truth point a target
    of its own; it equals, bit for bit, the assignment over the (|X|, |Y|) matrix
    min(|x - y|^2 ^ p, c^p) formed from ``np.sum(diff**2, axis=-1)``."""
    params = MetricParams(c=5.0, p=p, alpha=2.0)
    cp = params.c ** params.p
    rng = np.random.default_rng(31)
    for n_x, n_y in [(1, 1), (3, 7), (9, 4), (40, 300)]:
        x = rng.uniform(-4.0, 4.0, (n_x, 2))
        y = rng.uniform(-4.0, 4.0, (n_y, 2))
        d2 = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=-1)
        costs = np.minimum(d2 ** p, cp)
        matched = costs[linear_sum_assignment(costs)].sum()
        want = (matched + (cp / params.alpha) * abs(n_x - n_y)) ** (1.0 / p)
        assert gospa_baseline(x, y, params) == want


def _far_apart_singletons(rng, params):
    """Singleton targets on a coarse lattice; estimates near their own target."""
    n_x = rng.integers(1, 5)
    spacing = 4.0 * math.sqrt(params.c)
    centers = np.array([[i * spacing, (i % 2) * spacing] for i in range(n_x)])
    centers += rng.uniform(-0.5, 0.5, size=centers.shape)
    targets = [c[None, :] for c in centers]
    ests = [c + rng.uniform(-0.4, 0.4, size=2) for c in centers]
    n_extra = rng.integers(0, 3)
    for _ in range(n_extra):
        k = rng.integers(0, n_x)
        ests.append(centers[k] + rng.uniform(-0.4, 0.4, size=2))
    return targets, np.array(ests)


def test_singleton_far_apart_reduction():
    """With singleton well-separated targets, et_gospa equals gospa_baseline."""
    rng = np.random.default_rng(777)
    params = MetricParams(c=5.0, p=1.0, alpha=2.0)
    for _ in range(200):
        targets, est = _far_apart_singletons(rng, params)
        got = et_gospa(targets, est, params).value
        want = gospa_baseline(np.vstack(targets), est, params)
        assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_singleton_far_apart_reduction_every_p(seed, p):
    """The reduction holds at every p, not only at p = 1.

    E forms c^p + D before it subtracts the other targets' c^p, so each pair
    cost is exact to rounding at the scale of c^p (c^p = 125 at p = 3).  The
    brackets are compared with that absolute error allowed; the value, their
    p-th root, would amplify it wherever the bracket is near 0.
    """
    params = MetricParams(c=5.0, p=p, alpha=2.0)
    targets, est = _far_apart_singletons(np.random.default_rng(seed), params)
    got = et_gospa(targets, est, params).value
    want = gospa_baseline(np.vstack(targets), est, params)
    assert got**p == pytest.approx(want**p, rel=1e-12, abs=1e-12 * params.c**p)


# ---------------------------------------------------------------------------
# location MSE


def test_location_mse_zero():
    poses = [Pose(1.0, 2.0, 0.0), Pose(3.0, 4.0, 1.0)]
    assert np.all(location_mse(poses, poses) == 0.0)


def test_location_mse_constant_offset():
    truth = [Pose(0.0, 0.0, 0.0), Pose(1.0, 0.0, 0.0)]
    est = [Pose(0.3, 0.0, 0.0), Pose(1.3, 0.0, 0.0)]
    assert np.allclose(location_mse(truth, est), 0.09)


def test_location_mse_random_walk():
    rng = np.random.default_rng(4)
    truth = [Pose(float(x), float(y), 0.0) for x, y in rng.uniform(-3, 3, size=(20, 2))]
    est = [Pose(p.x + dx, p.y + dy, 0.0)
           for p, (dx, dy) in zip(truth, rng.uniform(-1, 1, size=(20, 2)))]
    got = location_mse(truth, est)
    want = [(t.x - e.x) ** 2 + (t.y - e.y) ** 2 for t, e in zip(truth, est)]
    assert np.allclose(got, want)


def test_location_mse_length_mismatch():
    with pytest.raises(ValueError):
        location_mse([Pose(0, 0, 0)], [])
