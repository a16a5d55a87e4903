"""Spatial graph construction and RBF edge featurization.

Neighbor queries run on ``scipy.spatial.cKDTree``. The tree only proposes
candidates: distances are recomputed here as ``norm(q - r)`` and those
decide every answer, so results are exact and do not depend on how the
tree rounds. A kNN row is accepted once its farthest candidate lies
strictly beyond its k-th distance, which proves that no point outside the
candidates can enter the row; other rows are asked again with twice the
candidates. Distance ties always break toward the smaller point index so
graphs are reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

# relative margin covering the rounding difference between the tree's
# distances and the recomputed ones
_SLACK = 1e-9


@dataclass(frozen=True)
class RbfConfig:
    """Radial basis featurization: Gaussians at evenly spaced centers on
    [0, max_d], each as wide as the center spacing."""

    n_kernels: int = 16
    max_d: float = 20.0

    def __post_init__(self):
        if self.n_kernels < 1:
            raise DataError("n_kernels must be >= 1")
        if not 0 < self.max_d < np.inf:
            raise DataError(f"RBF range requires 0 < max_d < inf, got {self.max_d}")

    @property
    def centers(self) -> np.ndarray:
        return np.linspace(0.0, self.max_d, self.n_kernels)

    @property
    def gamma(self) -> float:
        """Inverse squared center spacing (1 for a single kernel)."""
        if self.n_kernels == 1:
            return 1.0
        return (self.max_d / (self.n_kernels - 1)) ** -2


def rbf_expand(d, cfg: RbfConfig = None) -> np.ndarray:
    """Expand distances into Gaussian kernel responses, one per center."""
    if cfg is None:
        cfg = RbfConfig()
    d = np.asarray(d, dtype=np.float64)
    return np.exp(-cfg.gamma * (d[..., None] - cfg.centers) ** 2)


@dataclass(frozen=True)
class SpatialGraph:
    """Directed edges (src j -> dst i) with displacement and RBF features.

    Edges are sorted by (dst, src); edge_vec rows hold x_src - x_dst.
    """

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    edge_vec: np.ndarray
    edge_scalar: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def in_degree(self) -> np.ndarray:
        return np.bincount(self.dst, minlength=self.n_nodes)


def _finalize_graph(coords, src, dst, rbf: RbfConfig) -> SpatialGraph:
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.lexsort((src, dst))
    src, dst = src[order], dst[order]
    edge_vec = coords[src] - coords[dst]
    edge_scalar = rbf_expand(np.linalg.norm(edge_vec, axis=1), rbf)
    return SpatialGraph(n_nodes=len(coords), src=src, dst=dst,
                        edge_vec=edge_vec, edge_scalar=edge_scalar)


def _tree(points):
    # scipy.spatial also loads scipy.special and scipy.spatial.transform,
    # which nothing here uses: importing it at first use instead of at
    # `import protfit` keeps about 0.14 s off every start
    from scipy.spatial import cKDTree
    return cKDTree(points)


def _as_points(points, name: str, count: str) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise DataError(f"{name} must be ({count}, 3)")
    if not np.isfinite(points).all():
        raise DataError("non-finite coordinates")
    return points


def build_radius_graph(coords, cutoff: float, rbf: RbfConfig = None) -> SpatialGraph:
    """Edges between every pair at distance strictly inside (0, cutoff)."""
    coords = _as_points(coords, "coords", "n")
    if cutoff <= 0:
        raise DataError("cutoff must be positive")
    if rbf is None:
        rbf = RbfConfig()
    pairs = _tree(coords).query_pairs(cutoff * (1 + _SLACK),
                                      output_type="ndarray")
    a, b = pairs[:, 0], pairs[:, 1]
    dist = np.linalg.norm(coords[a] - coords[b], axis=1)
    keep = (dist > 0) & (dist < cutoff)
    a, b = a[keep], b[keep]
    return _finalize_graph(coords, np.concatenate([a, b]),
                           np.concatenate([b, a]), rbf)


def _knn(queries, refs, k: int, skip_self: bool = False):
    """The k nearest refs of each query as (indices, distances), sorted by
    (distance, index); with skip_self, query i never lists ref i."""
    n = len(refs)
    tree = _tree(refs)
    out_idx = np.empty((len(queries), k), dtype=np.int64)
    out_dist = np.empty((len(queries), k), dtype=np.float64)
    rows = np.arange(len(queries))
    want = k + 1 + skip_self
    while len(rows):
        want = min(want, n)
        _, cand = tree.query(queries[rows], k=want)
        cand = cand.reshape(len(rows), want)
        dist = np.linalg.norm(queries[rows][:, None, :] - refs[cand], axis=2)
        if skip_self:
            is_self = cand == rows[:, None]
            farthest = np.where(is_self, -np.inf, dist).max(axis=1)
            dist[is_self] = np.inf
        else:
            farthest = dist.max(axis=1)
        order = np.lexsort((cand, dist), axis=1)[:, :k]
        cand = np.take_along_axis(cand, order, axis=1)
        dist = np.take_along_axis(dist, order, axis=1)
        # refs outside the candidates lie at least as far as the farthest one
        done = (farthest > dist[:, -1] * (1 + _SLACK)) | (want == n)
        out_idx[rows[done]] = cand[done]
        out_dist[rows[done]] = dist[done]
        rows = rows[~done]
        want *= 2
    return out_idx, out_dist


def build_knn_graph(coords, k: int, rbf: RbfConfig = None) -> SpatialGraph:
    """Graph with edges from each node's min(k, n-1) nearest other nodes."""
    coords = _as_points(coords, "coords", "n")
    n = len(coords)
    if n < 2:
        raise DataError("kNN graph needs at least 2 points")
    if k < 1:
        raise DataError("k must be >= 1")
    if rbf is None:
        rbf = RbfConfig()
    k_eff = min(k, n - 1)
    idx, _ = _knn(coords, coords, k_eff, skip_self=True)
    dst = np.repeat(np.arange(n, dtype=np.int64), k_eff)
    return _finalize_graph(coords, idx.reshape(-1), dst, rbf)


def cross_knn(queries, refs, k: int):
    """For each query, the k nearest refs as (indices, distances), ascending
    distance with ties broken by smaller ref index."""
    queries = _as_points(queries, "queries", "m")
    refs = _as_points(refs, "refs", "n")
    if k < 1:
        raise DataError("k must be >= 1")
    if len(refs) < k:
        raise DataError(f"need at least k={k} reference points, got {len(refs)}")
    return _knn(queries, refs, k)
