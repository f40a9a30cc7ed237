"""DBSCAN clustering tests, including an exhaustive O(n^2) reference."""

import re
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from etslam import clustering, harness, scene
from etslam.clustering import (
    NOISE,
    ClusterParams,
    cluster_centroids,
    dbscan,
    recovered_target_count,
)
from etslam.scene import (
    Circle,
    ExtendedTarget,
    Scene,
    Trajectory,
    load_scene,
    reference_points,
)

DEFAULT_SCENE = str(resources.files("etslam") / "configs" / "default_scene.yaml")


def reference_dbscan(points: np.ndarray, params: ClusterParams) -> np.ndarray:
    """Brute-force DBSCAN with the same scan-order semantics as the library.

    Neighborhoods come from a full pairwise-distance pass; clusters grow from
    core seeds in input order with FIFO expansion over sorted neighbors, so a
    border point keeps the first cluster that reaches it.  The library's
    graph formulation must reproduce these labels exactly.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    if n == 0:
        return np.zeros(0, dtype=int)
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    nbrs = [list(np.flatnonzero(d2[i] <= params.eps**2)) for i in range(n)]
    core = [len(nb) >= params.min_pts for nb in nbrs]
    labels = np.full(n, NOISE, dtype=int)
    cid = 0
    for seed in range(n):
        if not core[seed] or labels[seed] != NOISE:
            continue
        labels[seed] = cid
        queue = [seed]
        while queue:
            i = queue.pop(0)
            if not core[i]:
                continue
            for j in sorted(nbrs[i]):
                if labels[j] == NOISE:
                    labels[j] = cid
                    queue.append(j)
        cid += 1
    return labels


def pair_list_dbscan(points: np.ndarray, params: ClusterParams) -> np.ndarray:
    """The former library DBSCAN, worked inside the KD-tree's (E, 2) eps-pair array.

    Core points count their pairs; the core-core pairs give the components,
    hooked onto their lowest core index; a border point takes the lowest
    cluster id over its mixed (core, non-core) pairs.  Fast enough for the
    bench-sized maps that the O(n^2) reference cannot take.
    """
    n = len(points)
    edges = cKDTree(points).query_pairs(params.eps, output_type="ndarray")
    core = np.bincount(edges.ravel(), minlength=n) + 1 >= params.min_pts
    lo, hi = edges.T
    core_lo, core_hi = core[lo], core[hi]
    mixed = edges[core_lo != core_hi]
    both = edges[core_lo & core_hi]
    root = clustering._lowest_index_components(n, both)
    firsts, ids = np.unique(root[core], return_inverse=True)
    labels = np.full(n, len(firsts), dtype=int)
    labels[core] = ids
    lo, hi = mixed.T
    to_lo, to_hi = labels[hi], labels[lo]
    np.minimum.at(labels, lo, to_lo)
    np.minimum.at(labels, hi, to_hi)
    labels[labels == len(firsts)] = NOISE
    return labels


# ---------------------------------------------------------------------------
# worked examples


def test_two_pair_clusters():
    pts = np.array([[0.0, 0.0], [0.0, 0.1], [5.0, 5.0], [5.0, 5.1]])
    labels = dbscan(pts, ClusterParams(eps=0.5, min_pts=2))
    assert list(labels) == [0, 0, 1, 1]
    cents = cluster_centroids(pts, labels)
    assert np.allclose(cents, [[0.0, 0.05], [5.0, 5.05]])


def test_single_point_is_noise():
    labels = dbscan(np.array([[1.0, 1.0]]), ClusterParams(eps=0.5, min_pts=2))
    assert list(labels) == [NOISE]


def test_identical_points_min_pts_one():
    pts = np.zeros((3, 2))
    labels = dbscan(pts, ClusterParams(eps=0.5, min_pts=1))
    assert list(labels) == [0, 0, 0]


def test_all_noise_no_centroids():
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    labels = dbscan(pts, ClusterParams(eps=0.5, min_pts=2))
    assert np.all(labels == NOISE)
    assert cluster_centroids(pts, labels).shape == (0, 2)


def test_border_point_attaches_to_first_core():
    # chain: core at 0, border at 0.4 reachable from both cores
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.4, 0.0], [0.8, 0.0], [0.9, 0.0]])
    labels = dbscan(pts, ClusterParams(eps=0.45, min_pts=2))
    assert labels[2] == labels[0]  # first cluster reaches it first
    assert labels[0] != NOISE and labels[3] != NOISE


def test_empty_input():
    assert dbscan(np.zeros((0, 2))).shape == (0,)
    assert cluster_centroids(np.zeros((0, 2)), np.zeros(0, dtype=int)).shape == (0, 2)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        dbscan(np.array([[0.0, np.nan]]))


def test_param_validation():
    with pytest.raises(ValueError):
        ClusterParams(eps=0.0)
    with pytest.raises(ValueError):
        ClusterParams(min_pts=0)
    for min_pts in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="min_pts"):
            ClusterParams(min_pts=min_pts)
    assert ClusterParams(min_pts=np.int64(4)).min_pts == 4


@pytest.mark.parametrize("shape", [(4,), (0,), (5, 3), (3, 1), (2, 2, 2)])
def test_points_must_be_n_by_2(shape):
    pts = np.arange(float(np.prod(shape))).reshape(shape)
    with pytest.raises(ValueError, match=rf"\(n, 2\), got {re.escape(str(shape))}"):
        dbscan(pts)
    with pytest.raises(ValueError, match=rf"\(n, 2\), got {re.escape(str(shape))}"):
        cluster_centroids(pts, np.zeros(len(pts), dtype=int))


def test_centroid_label_alignment_checked():
    with pytest.raises(ValueError):
        cluster_centroids(np.zeros((3, 2)), np.zeros(2, dtype=int))


def test_border_point_joins_lowest_cluster_id():
    # cluster 0 starts at index 0; cluster 1's core next to the border point
    # (x=0.9, index 1) precedes cluster 0's (x=-0.9, index 8)
    xs = [-1.6, 0.9, 0.0, 1.2, 1.4, 1.6, -1.4, -1.2, -0.9]
    pts = np.column_stack([xs, np.zeros(len(xs))])
    params = ClusterParams(eps=1.0, min_pts=4)
    labels = dbscan(pts, params)
    assert list(labels) == [0, 1, 0, 1, 1, 1, 0, 0, 0]
    assert np.array_equal(labels, reference_dbscan(pts, params))


def test_min_pts_one_isolated_points_numbered_by_index():
    pts = np.array([[3.0, 0.0], [0.0, 0.0], [0.2, 0.0], [-3.0, 0.0], [9.0, 9.0]])
    params = ClusterParams(eps=0.5, min_pts=1)
    labels = dbscan(pts, params)
    assert list(labels) == [0, 1, 1, 2, 3]
    assert np.array_equal(labels, reference_dbscan(pts, params))


@pytest.mark.parametrize("eps", [0.5, 1.0])
@pytest.mark.parametrize("min_pts", [1, 2, 3, 5, 8])
def test_lattice_exact_boundary_matches_reference(eps, min_pts):
    """On a 0.5 m lattice many pairwise distances equal eps exactly."""
    rng = np.random.default_rng(int(eps * 10) + 100 * min_pts)
    cells = np.array([(i, j) for i in range(-6, 7) for j in range(-6, 7)])
    for _ in range(10):
        keep = rng.random(len(cells)) < rng.uniform(0.15, 0.7)
        pts = 0.5 * cells[keep] + np.array([40.0, -12.5])
        params = ClusterParams(eps=eps, min_pts=min_pts)
        assert np.array_equal(dbscan(pts, params), reference_dbscan(pts, params))


def test_duplicate_points_match_reference():
    rng = np.random.default_rng(3)
    base = rng.uniform(-3.0, 3.0, size=(15, 2))
    pts = base[rng.integers(0, len(base), size=60)]
    for min_pts in (1, 2, 3, 4, 6):
        for eps in (0.05, 0.5, 1.0):
            params = ClusterParams(eps=eps, min_pts=min_pts)
            assert np.array_equal(dbscan(pts, params), reference_dbscan(pts, params))
    # a point repeated min_pts times is core on its own
    labels = dbscan(np.array([[1.0, 1.0]] * 3 + [[9.0, 9.0]]), ClusterParams(0.1, 3))
    assert list(labels) == [0, 0, 0, NOISE]


# ---------------------------------------------------------------------------
# the eps/3 cell grid: cell boundaries, exact-eps ties, far coordinates


@pytest.mark.parametrize("eps", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("divisor", [3, 6])
def test_grid_lattice_matches_reference(eps, divisor):
    """Lattices of spacing eps/3 and eps/6 put points on cell boundaries and
    exact-eps ties at the stencil's far offsets, 3 and 4 cells out."""
    rng = np.random.default_rng(int(40 * eps) + divisor)
    cells = np.array([(i, j) for i in range(-6, 7) for j in range(-6, 7)])
    for min_pts in (1, 2, 3, 5, 9):
        for _ in range(4):
            keep = rng.random(len(cells)) < rng.uniform(0.2, 0.8)
            pts = (eps / divisor) * cells[keep] + np.array([3.0, -7.25])
            params = ClusterParams(eps=eps, min_pts=min_pts)
            assert np.array_equal(dbscan(pts, params), reference_dbscan(pts, params))


def test_grid_finds_neighbours_at_far_cell_offsets():
    """Every neighbour pair of the lattices whose cells lie 3 or 4 apart on an axis,
    by the grid's own cell rule, clusters as the reference clusters it, alone with
    the lattice's corner point, which keeps the grid's origin: these pairs are
    found only through the ring's far offsets, (0, 4) and (3, 3) among them."""
    cells = np.array([(i, j) for i in range(-6, 7) for j in range(-6, 7)])
    seen = set()
    for eps in (0.5, 0.75, 1.0):
        params = ClusterParams(eps=eps, min_pts=2)
        for divisor in (3, 6):
            pts = (eps / divisor) * cells + np.array([3.0, -7.25])
            grid = np.floor((pts - pts.min(axis=0)) / (eps / 3))
            d = pts[:, None, :] - pts[None, :, :]
            close = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] <= eps * eps
            offset = np.abs(grid[:, None, :] - grid[None, :, :])
            for i, j in zip(*np.nonzero(close & (offset.max(axis=-1) >= 3))):
                if i < j:
                    seen.add(tuple(sorted(offset[i, j].astype(int))))
                    trio = pts[[0, i, j]]
                    assert np.array_equal(dbscan(trio, params), reference_dbscan(trio, params))
    assert {(0, 4), (3, 3)} <= seen


@pytest.mark.parametrize("transpose", [False, True])
def test_grid_finds_a_neighbour_four_cells_and_one_row_away(transpose):
    """Rounding puts p, on a cell boundary, in the cell below, so q lies 4 cells and
    1 row off: the stencil's (4, 1) offset, a gap of exactly eps, must be tested."""
    eps = 0.3
    pts = np.array([[0.0, 0.0],  # the grid's origin
                    [2.9999999999999996, 0.09999999999999998],
                    [3.2999999999999994, 0.09999999999999999]])
    offset = np.abs(np.diff(np.floor(pts[1:] / (eps / 3)), axis=0))
    dx, dy = pts[2] - pts[1]
    assert offset.tolist() == [[4, 1]] and dx * dx + dy * dy <= eps * eps
    pts = pts[:, ::-1] if transpose else pts
    params = ClusterParams(eps=eps, min_pts=2)
    assert list(dbscan(pts, params)) == [NOISE, 0, 0]
    assert np.array_equal(dbscan(pts, params), reference_dbscan(pts, params))


def _linked_groups(eps, gap):
    """Two 3x3 groups, each with one link point, the two links ``gap`` apart in x
    and every other pair across the groups more than eps apart."""
    offsets = np.array([(i, j) for i in (-0.4, -0.3, -0.2) for j in (-0.1, 0.0, 0.1)])
    left = np.vstack([offsets * eps, [[0.0, 0.0]]])
    right = np.vstack([offsets * [-eps, eps], [[0.0, 0.0]]]) + [gap, 0.0]
    return np.vstack([left, right])


@pytest.mark.parametrize("eps", [0.5, 1.0])
@pytest.mark.parametrize("transpose", [False, True])
def test_grid_joins_groups_over_one_exact_eps_pair(eps, transpose):
    """The only link is one pair exactly eps apart, three cells apart on the grid, so
    the ring test decides it; one ulp further apart, the groups stay two clusters."""
    params = ClusterParams(eps=eps, min_pts=3)
    for gap, want in ((eps, [0] * 20), (np.nextafter(eps, np.inf), [0] * 10 + [1] * 10)):
        pts = _linked_groups(eps, gap)
        cells = np.floor((pts[[9, 19], 0] - pts[:, 0].min()) / (eps / 3))
        assert cells[1] - cells[0] == 3
        pts = pts[:, ::-1] if transpose else pts
        labels = dbscan(pts, params)
        assert list(labels) == want
        assert np.array_equal(labels, reference_dbscan(pts, params))


# eps 3 makes the cells unit squares; a noise point at (-10, -10) puts the grid's
# origin on a cell corner, so the cell of (x, y) is (floor(x), floor(y)) + 10
_UNIT_EPS = 3.0
_ANCHOR = [[-10.0, -10.0]]


def _unit_cells(points):
    return np.floor((points - points.min(axis=0)) / (_UNIT_EPS / 3)).astype(int) - 10


def test_grid_joins_through_the_middle_of_a_ring_range():
    """Cell (0, 0)'s ring range in row 2 holds cells (2, -3), (2, 0) and (2, 3).  The
    ends belong to (0, 0)'s near component, through two chains of single points that
    bend round (2, 0); (2, 0) holds a near component of its own, two points within
    eps of (0, 0)'s point and of no other.  Those pairs alone join the two, and only
    the middle of the range holds another root."""
    chain = [[0.99, 0.5], [0.0, 1.9], [1.0, 2.99], [2.5, 3.9],     # (0, 0) up to (2, 3)
             [0.0, -0.9], [1.0, -1.99], [2.5, -2.9]]               # down to (2, -3)
    middle = [[2.99, 0.5], [2.99, 0.7]]
    pts = np.array(_ANCHOR + chain + middle)
    cells = _unit_cells(pts)
    assert cells[[1, 4, 7, 8]].tolist() == [[0, 0], [2, 3], [2, -3], [2, 0]]
    d = pts[1:8, None, :] - pts[None, 8:, :]
    close = np.hypot(d[..., 0], d[..., 1]) <= _UNIT_EPS
    assert close.tolist() == [[True, True]] + [[False, False]] * 6
    params = ClusterParams(eps=_UNIT_EPS, min_pts=2)
    labels = dbscan(pts, params)
    assert labels.tolist() == [NOISE] + [0] * 9
    assert np.array_equal(labels, reference_dbscan(pts, params))


def test_grid_counts_a_sparse_cell_in_the_middle_of_a_dense_cells_range():
    """Dense cell (0, 0)'s ring range in row 2 holds dense cells (2, -3) and (2, 3) at
    its ends and, between them, the sparse cell (2, 0), whose one point is within eps
    of (0, 0)'s three points and of no other: it is core only by counting them, which
    only the range of (0, 0) can test, since (0, 0) has the lower key."""
    dense = [[0.9, 0.4], [0.9, 0.5], [0.9, 0.6]]
    lone = [[2.1, 0.5]]
    ends = [[2.5, -2.9], [2.5, -2.8], [2.6, -2.9], [2.5, 3.9], [2.5, 3.8], [2.6, 3.9]]
    pts = np.array(_ANCHOR + dense + lone + ends)
    cells = _unit_cells(pts)
    assert cells[[1, 4, 5, 8]].tolist() == [[0, 0], [2, 0], [2, -3], [2, 3]]
    d = pts[4] - pts
    assert np.flatnonzero(np.hypot(d[:, 0], d[:, 1]) <= _UNIT_EPS).tolist() == [1, 2, 3, 4]
    params = ClusterParams(eps=_UNIT_EPS, min_pts=3)
    labels = dbscan(pts, params)
    assert labels.tolist() == [NOISE] + [0] * 4 + [1] * 3 + [2] * 3
    assert np.array_equal(labels, reference_dbscan(pts, params))


def test_grid_at_utm_scale_matches_reference():
    """Map coordinates in metres from a UTM origin, where a point's ulp is 1e-9 m."""
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(1, 120))
        blobs = rng.uniform(-8.0, 8.0, size=(3, 2))
        pts = blobs[rng.integers(0, 3, size=n)] + rng.normal(0, 0.3, size=(n, 2))
        pts = np.vstack([pts, rng.uniform(-8.0, 8.0, size=(n // 4, 2))]) + [5e5, 4e6]
        params = ClusterParams(eps=float(rng.uniform(0.2, 1.0)), min_pts=int(rng.integers(1, 6)))
        assert np.array_equal(dbscan(pts, params), reference_dbscan(pts, params)), trial


def test_grid_span_guard():
    """Past 2**29 eps the cell keys could overflow, so the span is refused, naming eps."""
    params = ClusterParams(eps=0.5, min_pts=1)
    assert list(dbscan(np.array([[0.0, 0.0], [2**28, 1.0]]), params)) == [0, 1]
    for near, far in (([0.0, 0.0], [np.nextafter(2.0**28, np.inf), 0.0]),
                      ([0.0, 0.0], [0.0, 1e300]),
                      ([-1e308, 0.0], [1e308, 0.0])):
        with pytest.raises(ValueError, match=r"2\*\*29 times eps 0\.5"):
            dbscan(np.array([near, far]), params)


# ---------------------------------------------------------------------------
# reference equivalence and invariances


def test_agrees_with_bruteforce_reference():
    rng = np.random.default_rng(123)
    for trial in range(100):
        n = int(rng.integers(0, 120))
        # mixture of a few tight blobs plus uniform background
        blobs = rng.uniform(-10.0, 10.0, size=(4, 2))
        pts = np.vstack([
            blobs[rng.integers(0, 4, size=n)] + rng.normal(0, 0.3, size=(n, 2)),
            rng.uniform(-10.0, 10.0, size=(n // 3, 2)),
        ]) if n else np.zeros((0, 2))
        params = ClusterParams(eps=float(rng.uniform(0.2, 1.0)),
                               min_pts=int(rng.integers(1, 6)))
        got = dbscan(pts, params)
        want = reference_dbscan(pts, params)
        assert np.array_equal(got, want), f"trial {trial}"


def test_core_and_noise_status_order_invariant():
    rng = np.random.default_rng(7)
    pts = np.vstack([rng.normal(0, 0.2, size=(20, 2)),
                     rng.normal(5, 0.2, size=(20, 2)),
                     rng.uniform(-10, 10, size=(10, 2))])
    params = ClusterParams(eps=0.5, min_pts=3)
    base = dbscan(pts, params)
    for _ in range(5):
        perm = rng.permutation(len(pts))
        shuffled = dbscan(pts[perm], params)
        # noise status is permutation invariant even if cluster ids differ
        assert np.array_equal(shuffled == NOISE, base[perm] == NOISE)
        # cluster partitions coincide up to relabeling
        pairs = {(a, b) for a, b in zip(base[perm], shuffled) if a != NOISE}
        assert len({a for a, _ in pairs}) == len(pairs) == len({b for _, b in pairs})


def test_density_connectivity_witness():
    """Every same-cluster pair is linked through overlapping core balls."""
    rng = np.random.default_rng(11)
    pts = rng.normal(0, 1.0, size=(60, 2))
    params = ClusterParams(eps=0.6, min_pts=3)
    labels = dbscan(pts, params)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    core = (d2 <= params.eps**2).sum(axis=1) >= params.min_pts
    for cid in np.unique(labels[labels != NOISE]):
        members = np.flatnonzero(labels == cid)
        start = next(i for i in members if core[i])  # clusters contain a core
        # BFS over core-to-any edges within the cluster
        reached = {start}
        frontier = [start]
        while frontier:
            i = frontier.pop()
            if not core[i]:
                continue
            for j in members:
                if j not in reached and d2[i, j] <= params.eps**2:
                    reached.add(j)
                    frontier.append(j)
        assert reached == set(members)


_lattice = st.integers(-8, 8).map(lambda k: 0.5 * k)
_lattice_points = st.lists(st.tuples(_lattice, _lattice), max_size=60)
_lattice_params = st.builds(ClusterParams, eps=st.sampled_from([0.5, 0.75, 1.0]),
                            min_pts=st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(points=_lattice_points, params=_lattice_params)
def test_lattice_inputs_match_reference(points, params):
    pts = np.array(points, dtype=float).reshape(-1, 2)
    assert np.array_equal(dbscan(pts, params), reference_dbscan(pts, params))


@settings(max_examples=100, deadline=None)
@given(points=_lattice_points, params=_lattice_params, data=st.data())
def test_core_partition_and_noise_permutation_invariant(points, params, data):
    pts = np.array(points, dtype=float).reshape(-1, 2)
    perm = np.array(data.draw(st.permutations(range(len(pts)))), dtype=int)
    base, shuffled = dbscan(pts, params)[perm], dbscan(pts[perm], params)
    assert np.array_equal(base == NOISE, shuffled == NOISE)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    core = ((d2 <= params.eps**2).sum(axis=1) >= params.min_pts)[perm]
    # core points share a cluster in one order iff they share it in the other
    same_base = base[core][:, None] == base[core][None, :]
    same_shuffled = shuffled[core][:, None] == shuffled[core][None, :]
    assert np.array_equal(same_base, same_shuffled)


# ---------------------------------------------------------------------------
# lowest-index components against scipy's connected components


def reference_component_minimum(n, a, b):
    """Lowest node index in each node's component, by scipy's connected_components."""
    graph = coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    _, first = np.unique(comp, return_index=True)  # comp ids are 0..k-1
    return first[comp]


class _CountedHooks:
    """numpy as the clustering module sees it, counting the hook rounds (minimum.at calls).

    Components of n nodes need at most about 2 log2(n) rounds: within two rounds
    every tree that still has a cross edge merges with another.
    """

    def __init__(self, n):
        self.rounds, self.limit = 0, 2 * max(n, 1).bit_length() + 2
        self.minimum = lambda *args: np.minimum(*args)
        self.minimum.at = self._hook

    def _hook(self, *args):
        self.rounds += 1
        if self.rounds > self.limit:
            raise AssertionError(f"more than {self.limit} hook rounds")
        np.minimum.at(*args)

    def __getattr__(self, name):
        return getattr(np, name)


def _check_components(monkeypatch, n, a, b):
    """Assert the helper's roots against scipy's components; return its hook rounds."""
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    want = reference_component_minimum(n, a, b)
    hooks = _CountedHooks(n)
    with monkeypatch.context() as m:
        m.setattr(clustering, "np", hooks)
        root = clustering._lowest_index_components(n, np.column_stack([a, b]))
    assert np.array_equal(root, want)
    return hooks.rounds


def test_lowest_index_components_random_multigraphs(monkeypatch):
    rng = np.random.default_rng(31)
    for density in (0.1, 0.5, 1.0, 2.0, 8.0):
        for _ in range(20):
            n = int(rng.integers(1, 400))
            a, b = rng.integers(0, n, size=(2, int(density * n)))
            # repeat some edges, some of them reversed
            k = rng.integers(0, len(a) + 1)
            a, b = np.concatenate([a, a[:k], b[:k]]), np.concatenate([b, b[:k], a[:k]])
            _check_components(monkeypatch, n, a, b)


def test_lowest_index_components_long_paths_and_stars(monkeypatch):
    n = 100_000
    perm = np.random.default_rng(32).permutation(n)
    # a path through the nodes in random order needs many rounds
    assert _check_components(monkeypatch, n, perm[:-1], perm[1:]) > 5
    zigzag = np.stack([np.arange(n // 2), n - 1 - np.arange(n // 2)], axis=1).ravel()
    _check_components(monkeypatch, n, zigzag[:-1], zigzag[1:])
    for centre in (0, n // 2, n - 1):
        leaves = np.delete(np.arange(n), centre)
        _check_components(monkeypatch, n, leaves, np.full(n - 1, centre))


def test_lowest_index_components_reversed_edges(monkeypatch):
    """Rows with lo > hi hook nothing in the first round and still join in time."""
    rng = np.random.default_rng(33)
    n = 100_000
    perm = rng.permutation(n)
    a, b = perm[:-1], perm[1:]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    assert _check_components(monkeypatch, n, hi, lo) > 5
    for density in (0.5, 2.0):
        n = int(rng.integers(100, 400))
        a, b = np.sort(rng.integers(0, n, size=(int(density * n), 2)), axis=1).T
        a, b = a[a != b], b[a != b]
        _check_components(monkeypatch, n, b, a)


def test_lowest_index_components_without_edges(monkeypatch):
    for n in (0, 1, 5):
        assert _check_components(monkeypatch, n, [], []) == 0


@pytest.fixture(scope="module")
def surface_hits():
    """Ray hits on the target surfaces from every third step of the ci.yaml trajectory."""
    cfg = harness.load_experiment("ci.yaml")
    traj = cfg.scene.trajectory
    bearings = np.radians(np.arange(0.0, 360.0, 2.0))
    n_steps = int(round(traj.total_length / traj.speed / traj.step_interval))
    hits = np.vstack([
        scene.ground_truth_scan(
            cfg.scene, scene.trajectory_pose(traj, k * traj.step_interval), bearings
        ).points
        for k in range(3, n_steps + 1, 3)
    ])
    return cfg.scene, hits


_SURFACE_MAPS = [(0.05, 0.02), (0.2, 0.10)]  # (position noise std [m], clutter share)


def _surface_map(surface_hits, noise_std, clutter):
    """The surface hits with Gaussian noise and uniform clutter, in shuffled order."""
    sc, hits = surface_hits
    rng = np.random.default_rng(int(100 * noise_std))
    pts = hits + noise_std * rng.standard_normal(hits.shape)
    junk = rng.uniform(sc.bounds_min, sc.bounds_max, (int(round(clutter * len(hits))), 2))
    return np.vstack([pts, junk])[rng.permutation(len(pts) + len(junk))]


@pytest.mark.parametrize("noise_std, clutter", _SURFACE_MAPS)
def test_surface_map_matches_reference(surface_hits, noise_std, clutter):
    """About 2000 map points, where the components take several hook rounds."""
    pts = _surface_map(surface_hits, noise_std, clutter)
    assert 2000 <= len(pts) <= 2500
    for eps, min_pts in ((0.5, 3), (0.25, 4), (1.0, 10)):
        params = ClusterParams(eps=eps, min_pts=min_pts)
        labels = dbscan(pts, params)
        assert labels.max() >= 5
        assert np.array_equal(labels, reference_dbscan(pts, params)), (eps, min_pts)


def _grid_bytes(points, eps):
    """Bytes of the near cell pairs and of the ring ranges' (lo, hi) bounds that
    ``dbscan`` builds for ``points``."""
    *_, near, ring = clustering._grid(points, eps)
    return sum(a.nbytes for a in (*near, *ring))


def _traced_peak(points, params):
    """Labels and the tracemalloc peak of one ``dbscan`` call, after a warm-up call."""
    want = dbscan(points, params)
    tracemalloc.start()
    try:
        labels = dbscan(points, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(labels, want)
    return labels, peak


@pytest.mark.parametrize("noise_std, clutter", _SURFACE_MAPS)
def test_dbscan_footprint_within_its_cell_pairs(surface_hits, noise_std, clutter):
    """One call's numpy temporaries stay within 4x the bytes of its near cell pairs and
    its ring ranges' bounds.

    The call holds per-point and per-cell arrays, its near pairs and the bounds
    of its ring ranges, and it expands only the ring ranges that an exact test
    reads, into the point pairs of those cells.  On the dense map the bound is
    below the bytes of its (E, 2) eps-pair array, so a per-point-pair list, an
    earlier design's largest array, would not fit.
    """
    pts = _surface_map(surface_hits, noise_std, clutter)
    params = ClusterParams()
    bound = 4 * _grid_bytes(pts, params.eps)
    _, peak = _traced_peak(pts, params)
    assert peak <= bound, (peak, bound)
    if noise_std == _SURFACE_MAPS[0][0]:
        pairs = cKDTree(pts).query_pairs(params.eps, output_type="ndarray")
        assert bound < pairs.nbytes, (bound, pairs.nbytes)


@pytest.fixture(scope="module")
def map_eval_hits():
    """Ray hits on the target surfaces at every step of the first 60 s of the ci.yaml
    trajectory, as the bench's ``map_eval`` workload casts them."""
    cfg = harness.load_experiment("ci.yaml")
    traj = cfg.scene.trajectory
    bearings = np.radians(np.arange(0.0, 360.0, 2.0))
    hits = np.vstack([
        scene.ground_truth_scan(
            cfg.scene, scene.trajectory_pose(traj, k * traj.step_interval), bearings
        ).points
        for k in range(1, int(round(60.0 / traj.step_interval)) + 1)
    ])
    return cfg.scene, hits


def _map_eval_maps(map_eval_hits, seed):
    """The ``map_eval`` workload's two maps at ``seed``: noise, clutter and shuffle as
    it draws them, with its estimate draws between the maps."""
    sc, hits = map_eval_hits
    rng = np.random.default_rng(seed)
    maps = []
    for noise_std, clutter in _SURFACE_MAPS:
        pts = hits + noise_std * rng.standard_normal(hits.shape)
        junk = rng.uniform(sc.bounds_min, sc.bounds_max, (int(round(clutter * len(hits))), 2))
        maps.append(np.vstack([pts, junk])[rng.permutation(len(pts) + len(junk))])
        for size in (20, 50, 100, 200, 300):
            rng.choice(len(maps[-1]), size, replace=False)
    return maps


@pytest.mark.parametrize("seed", [7, 13])
def test_map_eval_maps_match_pair_list_dbscan(map_eval_hits, seed):
    """The bench's 6590- and 7107-point maps: labels byte for byte as the former
    pair-list design's, and one call's peak below the bytes of its eps-pair array
    and at most 1.3 MB.  Expanding every ring cell pair, 32,195 on the 7107-point
    map at seed 13, took that call to 1.89 MB."""
    params = harness.load_experiment("ci.yaml").cluster
    maps = _map_eval_maps(map_eval_hits, seed)
    assert [len(pts) for pts in maps] == [6590, 7107]
    for pts in maps:
        want = pair_list_dbscan(pts, params)
        labels, peak = _traced_peak(pts, params)
        assert labels.dtype == want.dtype and labels.tobytes() == want.tobytes()
        assert labels.max() >= 9 and (labels == NOISE).any()
        pairs = cKDTree(pts).query_pairs(params.eps, output_type="ndarray")
        assert peak < pairs.nbytes, (peak, pairs.nbytes)
        assert peak <= 1.3e6, peak


# ---------------------------------------------------------------------------
# centroids against the per-cluster mask formula


def reference_cluster_centroids(points, labels):
    """Mean of ``points[labels == c]`` for each id c other than NOISE, in id order."""
    points, labels = np.asarray(points, dtype=float), np.asarray(labels)
    ids = np.unique(labels[labels != NOISE])
    if ids.size == 0:
        return np.zeros((0, 2))
    return np.stack([points[labels == c].mean(axis=0) for c in ids])


def _assert_centroids_match_reference(points, labels):
    got, want = cluster_centroids(points, labels), reference_cluster_centroids(points, labels)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("noise_std, clutter", _SURFACE_MAPS)
def test_centroids_of_surface_map_match_reference(surface_hits, noise_std, clutter):
    pts = _surface_map(surface_hits, noise_std, clutter)
    for params in (ClusterParams(), ClusterParams(eps=0.25, min_pts=4)):
        labels = dbscan(pts, params)
        assert labels.max() >= 5 and (labels == NOISE).any()
        _assert_centroids_match_reference(pts, labels)


def test_centroids_all_noise_and_single_label_match_reference():
    pts = np.random.default_rng(5).normal(0.0, 3.0, size=(40, 2))
    _assert_centroids_match_reference(pts, np.full(40, NOISE))
    for label in (0, 7, -3):
        _assert_centroids_match_reference(pts, np.full(40, label))


def test_centroids_with_gaps_and_negative_ids_match_reference():
    """Ids {-3, 0, 7} with NOISE among them: -3 is a cluster, ordered first."""
    rng = np.random.default_rng(9)
    labels = rng.choice([-3, NOISE, 0, 7], size=500)
    pts = rng.normal(0.0, 5.0, size=(500, 2))
    _assert_centroids_match_reference(pts, labels)
    assert len(cluster_centroids(pts, labels)) == 3


def test_centroids_of_one_large_cluster_match_reference():
    """2e5 points in one cluster: the sums run in input order, as the mean's do."""
    pts = np.random.default_rng(21).normal(100.0, 7.0, size=(200_000, 2))
    _assert_centroids_match_reference(pts, np.zeros(len(pts), dtype=int))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(0, 60))
def test_centroids_of_arbitrary_labels_match_reference(data, n):
    """Unsorted, non-contiguous ids, with NOISE and ids below it among them."""
    ids = data.draw(st.lists(st.integers(-5, 40), min_size=1, max_size=8, unique=True))
    ids = sorted(set(ids) | {NOISE, -4})
    labels = np.array(data.draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n)),
                      dtype=int)
    seed = data.draw(st.integers(0, 2**32 - 1))
    pts = np.random.default_rng(seed).normal(0.0, 10.0, size=(n, 2))
    _assert_centroids_match_reference(pts, labels)


# ---------------------------------------------------------------------------
# target recovery


def _targets():
    scene = load_scene({
        "bounds": {"min": [-20.0, -20.0], "max": [20.0, 20.0]},
        "targets": [
            {"id": 1, "kind": "circle", "center": [0.0, 0.0], "radius": 1.0},
            {"id": 2, "kind": "rect", "center": [8.0, 0.0],
             "width": 2.0, "height": 2.0},
        ],
        "trajectory": {"waypoints": [[0.0, -10.0], [1.0, -10.0]],
                       "speed": 1.0, "step_interval": 0.5},
    })
    return scene.targets


def test_recovered_target_count_basic():
    targets = _targets()
    cents = np.array([[0.0, 1.0], [8.0, 1.0]])  # on each boundary
    assert recovered_target_count(cents, targets) == 2


def test_recovered_target_count_deduplicates():
    targets = _targets()
    cents = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0]])  # all claim id 1
    assert recovered_target_count(cents, targets) == 1


def test_recovered_target_count_distance_gate(monkeypatch):
    """A centroid claims a target within ``RECOVERY_DISTANCE`` (1 m) of its boundary."""
    targets = _targets()
    assert clustering.RECOVERY_DISTANCE == 1.0
    cents = np.array([[0.0, 4.0]])  # 3 m from the circle boundary
    assert recovered_target_count(cents, targets) == 0
    assert recovered_target_count(np.array([[0.0, 2.0]]), targets) == 1  # exactly 1 m
    monkeypatch.setattr(clustering, "RECOVERY_DISTANCE", 3.5)
    assert recovered_target_count(cents, targets) == 1


@pytest.mark.parametrize("centroids, shape", [
    ([1.0, 2.0, 3.0, 4.0], "(4,)"),
    (np.zeros((3, 3)), "(3, 3)"),
])
def test_recovered_target_count_rejects_bad_shape(centroids, shape):
    message = re.escape(f"centroids must have shape (n, 2), got {shape}")
    with pytest.raises(ValueError, match=message):
        recovered_target_count(centroids, _targets())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_recovered_target_count_rejects_non_finite_centroid(bad):
    cents = np.array([[0.0, 1.0], [bad, 1.0]])
    with pytest.raises(ValueError, match="centroids must be finite"):
        recovered_target_count(cents, _targets())


def reference_recovered_target_count(centroids, targets, max_distance=1.0):
    """The former centroids x targets loop; a later target must be strictly nearer to win."""
    claimed = set()
    for c in np.atleast_2d(centroids):
        best, best_d = None, np.inf
        for i, tgt in enumerate(targets):
            d = abs(float(tgt.shape.signed_distance(c[None, :])[0]))
            if d < best_d:
                best, best_d = i, d
        if best is not None and best_d <= max_distance:
            claimed.add(best)
    return len(claimed)


def test_recovered_target_count_counts_targets_not_ids():
    """Two circles built in code with one id: a centroid beside each counts two."""
    circles = [Circle(center=(x, 0.0), radius=1.0) for x in (0.0, 10.0)]
    scene = Scene(
        bounds_min=np.array([-20.0, -20.0]), bounds_max=np.array([20.0, 20.0]),
        targets=[ExtendedTarget(id=1, shape=c, reference_points=reference_points(c, 4))
                 for c in circles],
        trajectory=Trajectory(waypoints=np.array([[0.0, -10.0], [1.0, -10.0]]),
                              speed=1.0, step_interval=0.5),
    )
    cents = np.array([[0.0, 1.2], [10.0, 1.2]])
    assert recovered_target_count(cents, scene.targets) == 2
    assert reference_recovered_target_count(cents, scene.targets) == 2


def test_recovered_target_count_edge_cases(monkeypatch):
    targets = _targets()
    # (4, 0) is exactly 3 m from the circle (id 1) and from the rect's left face (id 2);
    # (0, 1) sits on the circle, so a count of 1 means the tie went to the first target
    tie = np.array([[4.0, 0.0], [0.0, 1.0]])
    beyond = np.array([[0.0, 2.5]])  # exactly 1.5 m from the circle
    cases = [
        (np.zeros((0, 2)), targets, 1.0, 0),
        (tie, [], 1.0, 0),
        (tie, targets, 3.0, 1),
        (tie, targets[::-1], 3.0, 2),
        (beyond, targets, 1.5, 1),
        (beyond, targets, np.nextafter(1.5, 0.0), 0),
    ]
    for cents, tgts, max_distance, want in cases:
        monkeypatch.setattr(clustering, "RECOVERY_DISTANCE", max_distance)
        assert recovered_target_count(cents, tgts) == want
        assert reference_recovered_target_count(cents, tgts, max_distance) == want


def test_recovered_target_count_matches_reference(monkeypatch):
    targets = load_scene(DEFAULT_SCENE).targets
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(0, 15))
        cents = rng.uniform(0.0, 30.0, size=(n, 2))
        # about half of the centroids near a boundary point
        near = rng.random(n) < 0.5
        refs = np.vstack([t.reference_points for t in targets])
        cents[near] = refs[rng.integers(0, len(refs), size=near.sum())] + rng.normal(
            0.0, 0.7, size=(near.sum(), 2))
        max_distance = float(rng.uniform(0.1, 3.0))
        monkeypatch.setattr(clustering, "RECOVERY_DISTANCE", max_distance)
        assert recovered_target_count(cents, targets) == \
            reference_recovered_target_count(cents, targets, max_distance)
