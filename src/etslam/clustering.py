"""DBSCAN recognition of extended targets from accumulated map points.

Classic DBSCAN semantics (Ester et al. 1996): a point is core iff it has
>= min_pts neighbors within eps (closed ball, itself included).  Clusters are
the connected components of the core points under the eps-neighbor relation,
numbered in order of each cluster's first core point in the input.  A border
point (not core, within eps of a core point) joins the lowest-id cluster
among its core neighbors; every other point is noise.  Core/noise status and
the partition of the core points do not depend on input order; cluster ids
and border labels can change under a permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

NOISE = -1


@dataclass(frozen=True)
class ClusterParams:
    eps: float = 0.5
    min_pts: int = 3

    def __post_init__(self):
        if not 0.0 < self.eps < np.inf:
            raise ValueError("cluster eps must be finite and > 0")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


def dbscan(points: np.ndarray, params: ClusterParams = ClusterParams()) -> np.ndarray:
    """Cluster labels per point; noise is labeled NOISE (-1), ids contiguous from 0."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    if n == 0:
        return np.zeros(0, dtype=int)
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    edges = cKDTree(points).query_pairs(params.eps, output_type="ndarray")
    core = np.bincount(edges.ravel(), minlength=n) + 1 >= params.min_pts
    a, b = edges.T
    core_a, core_b = core[a], core[b]
    # clusters: components of the core-core edges, numbered by first core point
    both = core_a & core_b
    graph = coo_matrix((np.ones(both.sum()), (a[both], b[both])), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    _, first, inverse = np.unique(comp[core], return_index=True, return_inverse=True)
    labels = np.full(n, NOISE, dtype=int)
    labels[core] = np.argsort(np.argsort(first))[inverse]
    # border points: the smallest cluster id among their core neighbors
    border = np.full(n, len(first))
    for src, dst, reach in ((a, b, core_a & ~core_b), (b, a, core_b & ~core_a)):
        np.minimum.at(border, dst[reach], labels[src[reach]])
    return np.where(border < len(first), border, labels)


def cluster_centroids(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Arithmetic mean per cluster id (noise excluded), ordered by id."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(labels)
    if len(labels) != len(points):
        raise ValueError("labels must align with points")
    ids = np.unique(labels[labels != NOISE])
    if ids.size == 0:
        return np.zeros((0, 2))
    return np.stack([points[labels == c].mean(axis=0) for c in ids])


def recovered_target_count(
    centroids: np.ndarray, targets, max_distance: float = 1.0
) -> int:
    """Number of distinct targets claimed by at least one cluster centroid.

    A centroid claims the target whose boundary is nearest (the first such
    target on a tie), provided that distance is at most ``max_distance``.
    """
    centroids = np.atleast_2d(np.asarray(centroids, dtype=float))
    if centroids.size == 0 or not targets:
        return 0
    dist = np.abs(np.stack([tgt.shape.signed_distance(centroids) for tgt in targets]))
    nearest = np.argmin(dist, axis=0)
    claimed = nearest[dist[nearest, np.arange(len(centroids))] <= max_distance]
    return len(np.unique(np.array([tgt.id for tgt in targets])[claimed]))
