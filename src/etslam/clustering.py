"""DBSCAN recognition of extended targets from accumulated map points.

Classic DBSCAN semantics (Ester et al. 1996): a point is core iff it has
>= min_pts neighbors within eps (closed ball, itself included), where p and q
are neighbors iff ``dx*dx + dy*dy <= eps*eps`` on their coordinates.
Clusters are the connected components of the core points under that
relation, numbered in order of each cluster's first core point in the input.
A border point (not core, within eps of a core point) joins the lowest-id
cluster among its core neighbors; every other point is noise.  Core/noise
status and the partition of the core points do not depend on input order;
cluster ids and border labels can change under a permutation.

The neighbours come from a grid of square cells of side eps/3 (Gunawan 2013;
Gan & Tao 2015), placed at the points' minimum and keyed over the occupied
cells only, so no array is sized by the map's extent:

- Near cells, which differ by at most 1 on each axis, hold points at most
  2*sqrt(2)/3 eps = 0.943 eps apart: neighbours with no distance computed.
  A cell whose 3x3 block holds min_pts points makes all its points core.
- Ring cells, the rest within reach, get the exact test point by point:
  cells whose gap, (max(|dx|-1, 0)^2 + max(|dy|-1, 0)^2) (eps/3)^2, exceeds
  eps^2 hold no neighbours, so the reach is |dx|, |dy| <= 4 less the
  corners.  Each cell keeps its ring neighbours as six ranges of positions
  in the key order, one per ring row, all bounded by one search of 12 key
  offsets; the near ranges are the gaps between them.  The test reads only
  the sparser cells' points, to count their neighbours, and the core points
  of two cells in different near-cell components, so only the ranges that a
  sparse cell (3x3 block under min_pts) owns or holds, and those of a cell
  with a core point that hold a cell of another near-cell component, are
  expanded into cell pairs.
- The cells that hold a core point are the component graph's nodes, hooked
  onto their lowest index (Shiloach & Vishkin 1982) and numbered by their
  first core point, so each component's lowest node holds its cluster's
  first core point and the clusters come out in that order.

A span beyond 2**29 eps is refused with a ValueError: past it the int64 cell
keys can overflow, and rounding of the cell index can eat the near cells'
margin of 0.057 eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from etslam.scene import as_points, ragged_ranges, require_positive

NOISE = -1
# a centroid claims a target whose boundary is within this distance [m]
RECOVERY_DISTANCE = 1.0


@dataclass(frozen=True)
class ClusterParams:
    eps: float = 0.5
    min_pts: int = 3

    def __post_init__(self):
        require_positive("cluster", eps=self.eps)
        min_pts = self.min_pts
        if isinstance(min_pts, bool) or not isinstance(min_pts, (int, np.integer)) or min_pts < 1:
            raise ValueError(f"min_pts must be an int >= 1, got {min_pts!r}")


def _lowest_index_components(n: int, edges: np.ndarray) -> np.ndarray:
    """Lowest node index in each node's component of the n-node graph with ``edges``.

    ``edges`` is an (E, 2) intp array of (lo, hi) rows, and it is overwritten.
    Each round hooks every row's hi root onto its lo end, jumps pointers until
    each node points at its root, rewrites the rows as their roots in place and
    keeps the rows left between two trees, each reordered to (lo, hi).  The
    first round takes the rows as given, so a row with lo > hi waits one round.
    Pointers only decrease, so no cycle forms and each root is its tree's
    lowest index.
    """
    root = np.arange(n)
    while len(edges):
        lo, hi = edges.T
        np.minimum.at(root, hi, lo)
        while not np.array_equal(jumped := root[root], root):
            root = jumped
        # mode="clip" writes in place, unbuffered; every entry is a node, so none clips
        np.take(root, edges, out=edges, mode="clip")
        # compress and min/max: a boolean row index and a row sort are 4x and 15x slower
        edges = np.compress(lo != hi, edges, axis=0)
        lo, hi = edges.T
        smaller = np.minimum(lo, hi)
        np.maximum(lo, hi, out=hi)
        lo[:] = smaller
    return root


# The ring's rows, as (row offset, first column offset, last column offset): the half
# of the ring at higher keys, so every pair of ring cells is found once, from its lower
# key.
_RING = ((0, 2, 4), (1, -4, -2), (1, 2, 4), (2, -3, 3), (3, -3, 3), (4, -1, 1))


def _range_pairs(lo, hi, rows) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) for every cell b in [lo[r, a], hi[r, a]) of each flat index r * m + a in
    ``rows``, where lo and hi are (R, m) arrays of cell positions."""
    k, b = ragged_ranges(lo.ravel()[rows], hi.ravel()[rows])
    return rows[k] % lo.shape[1], b


def _next_flagged(flags: np.ndarray) -> np.ndarray:
    """The first position q >= p whose flag is set, for every position p; the last
    flag must be set."""
    at = np.flatnonzero(flags)
    return np.repeat(at, np.diff(at, prepend=-1))


def _grid(points: np.ndarray, eps: float):
    """The cells of side eps/3 that hold a point: each point's cell, the point indices
    grouped by cell, where each cell's group starts, the (a, b) pairs of near cells,
    and the (lo, hi) bounds of each cell's ring ranges, (6, m) arrays of positions
    in the key order, one row per row of ``_RING``."""
    n = len(points)
    # per column: a reduction over axis 0 of an (n, 2) array is ten times slower;
    # Python floats, so a span past the float range reads inf without a warning
    x, y = points.T
    x0, y0 = float(x.min()), float(y.min())
    span = max(float(x.max()) - x0, float(y.max()) - y0)
    if span > 2**29 * eps:
        raise ValueError(
            f"points span {span:g}, more than 2**29 times eps {eps!r}, too wide for the cell grid"
        )
    ij = np.floor((points - [x0, y0]) / (eps / 3)).astype(np.int64)
    # column offsets -4..4 stay inside a row this wide, so no key wraps onto a cell
    width = int(ij[:, 1].max()) + 9
    key = ij[:, 0] * width + ij[:, 1]
    members = np.argsort(key)
    key = key[members]
    first = np.concatenate([[True], key[1:] != key[:-1]])
    cell = np.empty(n, dtype=np.intp)
    cell[members] = np.cumsum(first) - 1
    keys = key[first]
    start = np.append(np.flatnonzero(first), n)
    m = len(keys)
    # one search finds both ends of each cell's range in every ring row, and the
    # near cells lie between them: in row 0, the next cell, at column 1 when ring
    # row 0 starts past it, and in row 1, columns -1..1, between its two ranges
    ends = np.array([[dx * width + lo for dx, lo, _ in _RING],
                     [dx * width + hi + 1 for dx, _, hi in _RING]])
    lo, hi = np.searchsorted(keys, keys + ends[..., None])
    a0 = np.flatnonzero(lo[0] - np.arange(1, m + 1))
    a1, b1 = ragged_ranges(hi[1], lo[2])
    return cell, members, start, (np.append(a0, a1), np.append(a0 + 1, b1)), (lo, hi)


def _close_pairs(points, eps, members, start, a, b) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) for every point p of cell a[k] and q of cell b[k] within eps of each other,
    where cell c holds the points ``members[start[c]:start[c + 1]]``."""
    k, p = ragged_ranges(start[a], start[a + 1])
    k, q = ragged_ranges(start[b[k]], start[b[k] + 1])
    p, q = members[p[k]], members[q]
    dx = points[p, 0] - points[q, 0]
    dy = points[p, 1] - points[q, 1]
    close = dx * dx + dy * dy <= eps * eps
    return p[close], q[close]


def _cell_clusters(points, eps, core, cell, members, m, near, ring) -> tuple[np.ndarray, int]:
    """The cluster id of the core points in each of the m cells, and the number of
    clusters, which is also the id of every cell that holds no core point.

    The graph's nodes are the cells that hold a core point, numbered in the
    order of each cell's first core point, and one extra node k stands for
    every other cell, so each component's lowest node holds its first core
    point.  Near cells join outright; ring cells in two near components join if
    a core point of one lies within eps of one of the other.
    """
    core_members = members[core[members]]
    core_start = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.bincount(cell[core_members], minlength=m), out=core_start[1:])
    held = np.diff(core_start) > 0
    firsts = np.sort(np.minimum.reduceat(core_members, core_start[:-1][held]))
    k = len(firsts)
    node = np.full(m, k)
    node[cell[firsts]] = np.arange(k)
    a, b = node[near[0]], node[near[1]]
    joined = (a < k) & (b < k)
    root = _lowest_index_components(k + 1, np.column_stack([a[joined], b[joined]]))
    # the ring ranges of a cell that holds a core point and that hold a cell of
    # another near component: their first cell's root differs, or its run of one
    # root in the key order ends inside them.  An empty range at m reads the pad.
    cell_root = root[np.append(node, k)]
    run_end = _next_flagged(np.append(cell_root[1:] != cell_root[:-1], True)) + 1
    lo, hi = ring
    own = cell_root[:-1]
    a, b = _range_pairs(lo, hi, np.flatnonzero(
        (own < k) & ((cell_root[lo] != own) | (run_end[lo] < hi))))
    # the owner holds a core point, so a pair can join two components when b holds
    # one too, in another component
    apart = (cell_root[b] != cell_root[a]) & (cell_root[b] < k)
    a, b = a[apart], b[apart]
    p, q = _close_pairs(points, eps, core_members, core_start, a, b)
    edges = np.column_stack([root[node[cell[p]]], root[node[cell[q]]]])
    root = _lowest_index_components(k + 1, edges)[root]
    # roots ascend with their first core point; node k, a root, ranks last
    rank = np.cumsum(root == np.arange(k + 1)) - 1
    return rank[root[node]], rank[k]


def dbscan(points: np.ndarray, params: ClusterParams = ClusterParams()) -> np.ndarray:
    """Cluster labels per row of (n, 2) points; noise is NOISE (-1), ids contiguous from 0."""
    points = as_points(points)
    n = len(points)
    if n == 0:
        return np.zeros(0, dtype=int)
    eps, min_pts = params.eps, params.min_pts
    cell, members, start, near, ring = _grid(points, eps)
    m = len(start) - 1

    # core: every point of a cell whose 3x3 block holds min_pts points; in the
    # sparser cells, each point adds its exact neighbours in the ring cells
    count = np.diff(start)
    block = (count + np.bincount(near[0], count[near[1]], minlength=m)
             + np.bincount(near[1], count[near[0]], minlength=m))
    sparse = block < min_pts
    # the ring ranges that a sparse cell owns or holds
    lo, hi = ring
    next_sparse = _next_flagged(np.append(sparse, True))
    a, b = _range_pairs(lo, hi, np.flatnonzero(sparse | (next_sparse[lo] < hi)))
    either = sparse[a] | sparse[b]
    close_p, close_q = _close_pairs(points, eps, members, start, a[either], b[either])
    core = (block[cell] + np.bincount(close_p, minlength=n)
            + np.bincount(close_q, minlength=n) >= min_pts)

    cid, n_clusters = _cell_clusters(points, eps, core, cell, members, m, near, ring)
    # border points: the lowest cluster id among their core neighbours; a near
    # cell's core points all lie within eps, a ring cell's were tested above.
    # A cell that holds a core point keeps its id, which its near core cells share.
    to_a, to_b = cid[near[1]], cid[near[0]]
    np.minimum.at(cid, near[0], to_a)
    np.minimum.at(cid, near[1], to_b)
    labels = cid[cell]
    for p, q in ((close_p, close_q), (close_q, close_p)):
        border = core[q] & ~core[p]
        np.minimum.at(labels, p[border], labels[q[border]])
    labels[labels == n_clusters] = NOISE
    return labels


def cluster_centroids(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Arithmetic mean per cluster id (noise excluded), ordered by id."""
    points = as_points(points)
    labels = np.asarray(labels)
    if len(labels) != len(points):
        raise ValueError("labels must align with points")
    ids, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    keep = ids != NOISE
    if not keep.any():
        return np.zeros((0, 2))
    # bincount adds each cluster's points in input order, as mean(axis=0) of its
    # rows does, so the centroids are the per-cluster means bit for bit
    sums = np.column_stack([np.bincount(inverse, column) for column in points.T])
    return (sums / counts[:, None])[keep]


def recovered_target_count(centroids: np.ndarray, targets) -> int:
    """Number of distinct targets claimed by at least one cluster centroid.

    A centroid claims the target whose boundary is nearest (the first such
    target on a tie), provided that distance is at most ``RECOVERY_DISTANCE``.
    Targets are told apart by their position in ``targets``, not by their ids.
    """
    centroids = as_points(centroids, "centroids")
    if len(centroids) == 0 or not targets:
        return 0
    dist = np.abs(np.stack([tgt.shape.signed_distance(centroids) for tgt in targets]))
    nearest = np.argmin(dist, axis=0)
    claimed = nearest[dist[nearest, np.arange(len(centroids))] <= RECOVERY_DISTANCE]
    return len(np.unique(claimed))
