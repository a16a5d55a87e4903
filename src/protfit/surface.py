"""Protein surface point clouds from a smooth distance field.

The field over alpha carbons is a soft-min of per-atom distances,
f(x) = -s * log(sum_a exp(-|x - a| / s)), which has analytic gradients
everywhere. Seeds are sprayed on spheres of radius ``level`` around each
atom and projected onto the level set {f = level} with damped Newton
steps along the gradient. Seed directions are drawn in per-atom local
frames built from neighboring atoms, and deduplication happens in a
canonical frame from the atom cloud's principal axes, so the whole
pipeline commutes with rigid motions of the input.

The field is evaluated only where its answer is not already known. Each
point's normal is the normalized gradient from the Newton iteration that
found it on the level set. The interior test (do probes along the normal
re-enter the level set?) relies on the field being 1-Lipschitz: a probe
with value f proves every probe within f - (level - level_tol) of it,
less a 1e-9 relative margin for rounding, to be outside, so those are
never evaluated. Both keep every output bit-identical to evaluating
the field everywhere.

Per-point geometric features are ``N_FEATURES`` columns: a Gaussian
curvature estimate (local quadric fit in the tangent frame) and heat
kernel signatures at the ``HKS_TIMES`` from the lowest eigenpairs of the
symmetric normalized Laplacian of the surface kNN graph, from one
shift-invert ``eigsh`` solve at every cloud size.
Its shifted Laplacian is factored once, by SuperLU in symmetric mode,
and ``eigsh`` applies that factor's solve as the inverse operator. Both
features read column prefixes of one table of each point's nearest other
points, from a single ``cross_knn`` self-query of the cloud.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.spatial.distance import cdist

from .errors import DataError, NumericsError
from .geometry import cross_knn, nearest_others
from .io import Protein, read_text_lines

HKS_TIMES = tuple(np.logspace(-0.5, 1.5, 4))
# feature columns per point: curvature, then one HKS per time
N_FEATURES = 1 + len(HKS_TIMES)
# (atom, point) pairs per chunk of the field: a (atoms x 3 x points)
# difference block of 768 KB, or a (points x atoms) distance block of
# 256 KB, small enough to stay in a core's cache while the block is reused
_FIELD_PAIRS = 1 << 15


@dataclass(frozen=True)
class SurfaceConfig:
    """Fields are what a run sets; class constants, fixed numerics."""
    atom_radius: float = 3.0
    smoothing: float = 1.0
    level: float = None           # defaults to atom_radius
    seeds_per_atom: int = 20
    min_points: int = 512
    max_points: int = 4096
    knn_k: int = 16
    curvature_k: int = 12
    hks_eigenpairs: int = 32
    level_tol: ClassVar[float] = 1e-3
    max_seed_rounds: ClassVar[int] = 5

    def __post_init__(self):
        if self.level is None:
            object.__setattr__(self, "level", 1.0 * self.atom_radius)
        if self.min_points > self.max_points:
            raise DataError("min_points must be <= max_points")
        for name in ("atom_radius", "smoothing", "level"):
            if not 0 < getattr(self, name) < np.inf:
                raise DataError(f"{name} must be finite and positive, "
                                f"got {getattr(self, name)}")
        for name in ("seeds_per_atom", "min_points", "knn_k", "curvature_k",
                     "hks_eigenpairs"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be positive, "
                                f"got {getattr(self, name)}")


@dataclass(frozen=True)
class SurfacePointCloud:
    points: np.ndarray            # (n_s, 3)
    normals: np.ndarray           # (n_s, 3) unit
    features: np.ndarray = None   # (n_s, d_f) or None until computed

    @property
    def n_points(self) -> int:
        return len(self.points)

    def with_features(self, features: np.ndarray) -> "SurfacePointCloud":
        return replace(self, features=np.asarray(features, dtype=np.float64))

    def subset(self, idx: np.ndarray) -> "SurfacePointCloud":
        return SurfacePointCloud(
            points=self.points[idx], normals=self.normals[idx],
            features=None if self.features is None else self.features[idx])


@dataclass(frozen=True)
class ExcisionMap:
    kept: np.ndarray
    removed: np.ndarray


# ---------------------------------------------------------------------------
# smooth distance field
# ---------------------------------------------------------------------------

def _field(points: np.ndarray, atoms: np.ndarray, smoothing: float,
           with_grad: bool = False):
    """Soft-min field values (and optionally gradients) at many points.

    Values alone come from points-major (points, atoms) distance blocks of
    ``cdist``; with gradients, each chunk of points is laid out
    atoms-major: one (atoms, 3, points) block of differences, whose three
    coordinate slices give (atoms, points) blocks of distances and
    weights. Both keep the summation order of the plain (points, atoms, 3)
    formula, so the output is bit-identical to it and does not depend on
    how the points are batched or chunked: each distance adds dx^2, dy^2
    and dz^2 left to right, the weight sum is numpy's pairwise sum over
    one contiguous row of atoms per point, and each gradient adds its
    atoms' terms one after another in atom order. ``atoms`` must be a
    non-empty (atoms, 3) array.
    """
    if atoms.ndim != 2 or len(atoms) < 1:
        raise DataError("need at least one atom")
    points = np.atleast_2d(points)
    m = len(points)
    f = np.empty(m)
    chunk = max(1, _FIELD_PAIRS // len(atoms))
    if not with_grad:
        for start in range(0, m, chunk):
            d = cdist(points[start:start + chunk], atoms)
            np.maximum(d, 1e-12, out=d)
            w = np.divide(d, -smoothing, out=d)   # -d / smoothing, bit for bit
            zmax = w.max(axis=1)
            w -= zmax[:, None]
            np.exp(w, out=w)
            f[start:start + chunk] = -smoothing * (zmax + np.log(w.sum(axis=1)))
        return f
    g = np.empty((m, 3))
    columns = np.ascontiguousarray(points.T)
    for start in range(0, m, chunk):
        stop = min(m, start + chunk)
        diff = columns[None, :, start:stop] - atoms[:, :, None]
        d = np.square(diff[:, 0])
        sq = np.square(diff[:, 1])
        d += sq
        np.square(diff[:, 2], out=sq)
        d += sq
        np.sqrt(d, out=d)
        np.maximum(d, 1e-12, out=d)
        w = np.divide(d, -smoothing, out=sq)   # -d / smoothing, bit for bit
        zmax = w.max(axis=0)
        w -= zmax
        np.exp(w, out=w)
        # summed along contiguous rows, so numpy sums pairwise as before
        wsum = np.ascontiguousarray(w.T).sum(axis=1)
        f[start:stop] = -smoothing * (zmax + np.log(wsum))
        w /= wsum
        diff *= w[:, None, :]
        diff /= d[:, None, :]
        g[start:stop] = diff.sum(axis=0).T
    return f, g


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

# partner offsets in order of preference: i+1, i-1, i+2, i-2, i+3, i-3
_PARTNER_OFFSETS = np.array([1, -1, 2, -2, 3, -3])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis. Each one is a (1, 3) @ (3, 1)
    matmul, which numpy sends to the same BLAS dot as a 1-D ``v @ e`` or
    ``np.linalg.norm(v) ** 2``; an elementwise sum can round otherwise."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _seed_frames(atoms: np.ndarray) -> np.ndarray:
    """Per-atom orthonormal frames from chain-adjacent atoms, so seed
    directions rotate with the molecule. Picking partners by index (not
    by distance) keeps the frames stable even under the exact distance
    ties of a fixed-bond-length backbone.

    e1 points to the first partner (in offset order) that is not
    coincident, e2 to the first other partner with a clear component
    orthogonal to e1. The frames are bit-identical to building them atom
    by atom: a last-bit change can move a Newton seed into another
    deduplication cell and so change the cloud itself."""
    n = len(atoms)
    frames = np.tile(np.eye(3), (n, 1, 1))
    if n < 2:
        return frames
    partner = np.arange(n)[:, None] + _PARTNER_OFFSETS        # (n, 6)
    inside = (partner >= 0) & (partner < n)
    v = atoms[np.clip(partner, 0, n - 1)] - atoms[:, None, :]   # (n, 6, 3)
    nv = np.sqrt(_dot(v, v))
    ok1 = inside & (nv > 1e-9)
    # atoms whose partners all coincide with them keep the identity frame
    has_e1 = np.flatnonzero(ok1.any(axis=1))
    inside, v, nv, ok1 = inside[has_e1], v[has_e1], nv[has_e1], ok1[has_e1]
    rows = np.arange(len(has_e1))
    first = ok1.argmax(axis=1)
    e1 = v[rows, first] / nv[rows, first][:, None]
    w = v - _dot(v, e1[:, None, :])[..., None] * e1[:, None, :]
    nw = np.sqrt(_dot(w, w))
    ok2 = (inside & (np.arange(len(_PARTNER_OFFSETS)) != first[:, None])
           & (nw > 1e-6 * np.maximum(nv, 1.0)))
    second = ok2.argmax(axis=1)
    e2 = np.empty_like(e1)
    found = ok2.any(axis=1)
    e2[found] = w[rows, second][found] / nw[rows, second][found][:, None]
    # collinear chain: complete with the global axis least aligned with e1
    # (deterministic, loses exact equivariance)
    lone = ~found
    axis = np.eye(3)[np.argmin(np.abs(e1[lone]), axis=1)]
    w = axis - _dot(axis, e1[lone])[:, None] * e1[lone]
    e2[lone] = w / np.sqrt(_dot(w, w))[:, None]
    frames[has_e1] = np.stack([e1, e2, np.cross(e1, e2)], axis=2)
    return frames


def _canonical_frame(atoms: np.ndarray):
    """Centroid plus sign-fixed principal axes; canonical coordinates are
    invariant under rigid motion for generic atom clouds."""
    center = atoms.mean(axis=0)
    rel = atoms - center
    if len(atoms) < 3:
        return center, np.eye(3)
    cov = rel.T @ rel
    _, vecs = np.linalg.eigh(cov)
    for col in range(3):
        proj = rel @ vecs[:, col]
        skew = np.sum(proj ** 3)
        if abs(skew) > 1e-9:
            if skew < 0:
                vecs[:, col] = -vecs[:, col]
        else:
            lead = proj[np.argmax(np.abs(proj))]
            if lead < 0:
                vecs[:, col] = -vecs[:, col]
    if np.linalg.det(vecs) < 0:
        vecs[:, 2] = -vecs[:, 2]
    return center, vecs


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _project_to_level(seeds, atoms, cfg: SurfaceConfig):
    """Damped Newton projection of seeds onto {f = level}; drops seeds that
    fail to converge within 50 iterations. Returns the converged points
    and the field gradient at each, from the iteration that found it
    converged: ``_field`` rows do not depend on the batch, so it is the
    gradient a new call at the returned points would give."""
    pts = seeds.copy()
    grad = np.empty_like(pts)
    level, s = cfg.level, cfg.smoothing
    active = np.ones(len(pts), dtype=bool)
    done = np.zeros(len(pts), dtype=bool)
    for _ in range(50):
        work = np.flatnonzero(active & ~done)
        if len(work) == 0:
            break
        f, g = _field(pts[work], atoms, s, with_grad=True)
        r = f - level
        hit = np.abs(r) < cfg.level_tol
        done[work[hit]] = True
        grad[work[hit]] = g[hit]
        move = work[~hit]
        if len(move) == 0:
            continue
        g = g[~hit]
        r = r[~hit]
        gn2 = np.maximum((g * g).sum(axis=1), 1e-6)
        step = -(r / gn2)[:, None] * g
        norm = np.linalg.norm(step, axis=1)
        scale = np.minimum(1.0, level / np.maximum(norm, 1e-12))
        pts[move] += step * scale[:, None]
        bad = ~np.isfinite(pts[move]).all(axis=1)
        if bad.any():
            active[move[bad]] = False
    return pts[done], grad[done]


def _interior_mask(pts, normals, atoms, cfg: SurfaceConfig) -> np.ndarray:
    """True for points whose outward normal ray re-enters the level set
    within 2 * level (pockets and tunnels rather than the outer envelope):
    some probe ``pts + t * normals``, t in ``linspace(level / 4, 2 * level,
    8)``, has a field value below ``level - level_tol``.

    The answer is that of evaluating every probe, but most probes are
    settled without evaluation. The soft-min field is 1-Lipschitz (its
    gradient is a convex combination of unit vectors, also with the 1e-12
    distance clamp), so a probe with value f proves that every probe
    within ``f - (level - level_tol) - margin`` of it along the same unit
    normal is outside. Each round evaluates every open point's farthest
    still-open probe and closes the probes its value certifies; a point
    stops at its first inside probe. The margin, 1e-9 of the largest of
    ``level``, ``smoothing`` and the coordinates, covers the rounding of
    the values and of the probe positions. A probe the bound cannot settle
    is evaluated, and gets the value the all-probe test would give it,
    since ``_field`` rows do not depend on the batch.
    """
    level = cfg.level
    ts = np.linspace(0.25 * level, 2.0 * level, 8)
    probes = pts[:, None, :] + ts[None, :, None] * normals[:, None, :]
    inside_below = level - cfg.level_tol
    margin = 1e-9 * max(level, cfg.smoothing, np.abs(atoms).max(),
                        np.abs(probes).max(initial=0.0))
    open_probes = np.ones((len(pts), len(ts)), dtype=bool)
    inside = np.zeros(len(pts), dtype=bool)
    rows = np.arange(len(pts))
    while len(rows):
        far = len(ts) - 1 - open_probes[rows, ::-1].argmax(axis=1)
        f = _field(probes[rows, far], atoms, cfg.smoothing)
        hit = f < inside_below
        inside[rows[hit]] = True
        reach = f - inside_below - margin
        still = open_probes[rows] & (np.abs(ts - ts[far][:, None]) > reach[:, None])
        still[np.arange(len(rows)), far] = False
        open_probes[rows] = still
        rows = rows[~hit & still.any(axis=1)]
    return inside


def generate_surface(protein: Protein, cfg: SurfaceConfig = None,
                     seed: int = 0) -> SurfacePointCloud:
    """Sample the level set of the smooth distance field around the protein.

    Raises DataError("degenerate surface") when fewer than min_points
    outer-envelope points survive even after extra seeding rounds.
    """
    if cfg is None:
        cfg = SurfaceConfig()
    atoms = protein.ca_coords
    rng = np.random.default_rng(seed)
    frames = _seed_frames(atoms)
    center, axes = _canonical_frame(atoms)
    spacing = cfg.level / 4.0
    # Kept points with their grid cells, normals and interior verdicts; a
    # round adds only points in cells not seen before, in seed order.
    cells = np.empty((0, 3), dtype=np.int64)
    pts = normals = outer = np.empty((0, 3))
    interior = np.empty(0, dtype=bool)
    for _ in range(cfg.max_seed_rounds):
        local = rng.standard_normal((len(atoms), cfg.seeds_per_atom, 3))
        local /= np.maximum(np.linalg.norm(local, axis=2, keepdims=True), 1e-12)
        dirs = np.einsum("nij,nkj->nki", frames, local)
        seeds = (atoms[:, None, :] + cfg.level * dirs).reshape(-1, 3)
        projected, grad = _project_to_level(seeds, atoms, cfg)
        canon = (projected - center) @ axes
        new_cells = np.floor(canon / spacing).astype(np.int64)
        _, first = np.unique(np.concatenate([cells, new_cells]), axis=0,
                             return_index=True)
        fresh = np.sort(first[first >= len(cells)]) - len(cells)
        new_pts, grad = projected[fresh], grad[fresh]
        new_normals = grad / np.maximum(
            np.linalg.norm(grad, axis=1, keepdims=True), 1e-12)
        cells = np.concatenate([cells, new_cells[fresh]])
        pts = np.concatenate([pts, new_pts])
        normals = np.concatenate([normals, new_normals])
        interior = np.concatenate(
            [interior, _interior_mask(new_pts, new_normals, atoms, cfg)])
        outer, outer_normals = pts[~interior], normals[~interior]
        if len(outer) >= cfg.min_points:
            break
    if len(outer) < cfg.min_points:
        raise DataError(
            f"degenerate surface: only {len(outer)} points, need {cfg.min_points}")
    if len(outer) > cfg.max_points:
        pick = np.round(np.linspace(0, len(outer) - 1, cfg.max_points)).astype(int)
        outer, outer_normals = outer[pick], outer_normals[pick]
    return SurfacePointCloud(points=outer, normals=outer_normals)


# ---------------------------------------------------------------------------
# geometric features
# ---------------------------------------------------------------------------

def _gaussian_curvature(pts, normals, neigh) -> np.ndarray:
    """Quadric-fit curvature: fit z = a x^2 + b xy + c y^2 over the k
    nearest neighbors in each point's tangent frame, K = 4ac - b^2.
    ``neigh`` holds each point's k nearest other points."""
    rel = pts[neigh] - pts[:, None, :]            # (n, k, 3)
    z_axis = normals
    # any tangent direction works: K is invariant to in-plane rotation
    ref = np.eye(3)[np.argmin(np.abs(z_axis), axis=1)]
    e1 = ref - (ref * z_axis).sum(axis=1, keepdims=True) * z_axis
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(z_axis, e1)
    u = (rel * e1[:, None, :]).sum(axis=2)
    v = (rel * e2[:, None, :]).sum(axis=2)
    w = (rel * z_axis[:, None, :]).sum(axis=2)
    basis = np.stack([u * u, u * v, v * v], axis=2)   # (n, k, 3)
    mat = np.einsum("nki,nkj->nij", basis, basis)
    mat += 1e-12 * np.eye(3)
    rhs = np.einsum("nki,nk->ni", basis, w)
    coef = np.linalg.solve(mat, rhs[..., None])[..., 0]
    return 4.0 * coef[:, 0] * coef[:, 2] - coef[:, 1] ** 2


def _heat_kernel_signature(idx, dist, cfg: SurfaceConfig) -> np.ndarray:
    """HKS at ``HKS_TIMES`` from the ``cfg.hks_eigenpairs`` lowest
    eigenpairs of the normalized Laplacian of the Gaussian-weighted kNN
    graph; ``idx`` and ``dist`` hold each point's k nearest other points."""
    n, k = idx.shape
    # one layout for the sum, so sigma does not depend on the caller's view
    dist = np.ascontiguousarray(dist)
    sigma = max(dist.mean(), 1e-9)
    vals = np.exp(-(dist.ravel() ** 2) / sigma ** 2)
    rows = np.repeat(np.arange(n), k)
    w = scipy.sparse.csr_matrix((vals, (rows, idx.ravel())), shape=(n, n))
    w = (w + w.T) * 0.5
    deg = np.asarray(w.sum(axis=1)).ravel()
    if deg.min() <= 0:
        raise NumericsError("degenerate surface graph: isolated node")
    dinv = scipy.sparse.diags(deg ** -0.5)
    lap = scipy.sparse.identity(n) - dinv @ w @ dinv
    m = min(cfg.hks_eigenpairs, n - 1)
    # The Laplacian is singular, so shift-invert about -1e-3: L + 1e-3 I is
    # symmetric positive definite, which makes SuperLU's symmetric mode
    # (diagonal pivots, an A^T + A ordering) stable and leaves less fill
    # than a general factor. A fixed start vector keeps ARPACK off its
    # process-wide random state, so equal clouds give bit-identical output.
    shift = -1e-3
    start = np.random.default_rng(0).standard_normal(n)
    try:
        lu = scipy.sparse.linalg.splu(
            (lap - shift * scipy.sparse.identity(n)).tocsc(),
            permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True))
        evals, evecs = scipy.sparse.linalg.eigsh(
            lap, k=m, sigma=shift, which="LM", v0=start,
            OPinv=scipy.sparse.linalg.LinearOperator(
                (n, n), matvec=lu.solve, dtype=np.float64))
    except RuntimeError as exc:
        raise NumericsError(f"surface Laplacian eigendecomposition failed: {exc}")
    order = np.argsort(evals)
    evals, evecs = evals[order], evecs[:, order]
    phi2 = evecs ** 2
    return phi2 @ np.exp(-np.outer(evals, HKS_TIMES))


def surface_features(cloud: SurfacePointCloud,
                     cfg: SurfaceConfig = None) -> np.ndarray:
    """Curvature + HKS columns, each standardized per cloud."""
    if cfg is None:
        cfg = SurfaceConfig()
    n = cloud.n_points
    if n < cfg.curvature_k + 1:
        raise DataError(
            f"need at least curvature_k+1={cfg.curvature_k + 1} points, got {n}")
    # cross_knn sorts each row by (distance, index) with exact distances,
    # so the first k columns of one wide others-table are the k-NN table
    k_curv, k_hks = cfg.curvature_k, min(cfg.knn_k, n - 1)
    idx, dist = nearest_others(
        *cross_knn(cloud.points, cloud.points, max(k_curv, k_hks) + 1))
    curv = _gaussian_curvature(cloud.points, cloud.normals, idx[:, :k_curv])
    hks = _heat_kernel_signature(idx[:, :k_hks], dist[:, :k_hks], cfg)
    feats = np.column_stack([curv, hks])
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std[std < 1e-12] = 1.0
    return (feats - mean) / std


# ---------------------------------------------------------------------------
# leakage excision
# ---------------------------------------------------------------------------

def excise_near_residue(cloud: SurfacePointCloud, residue_coords, m: int):
    """Remove the union over residues of each residue's m nearest surface
    points; returns the reduced cloud and the kept/removed index partition."""
    if m < 1:
        raise DataError("m must be >= 1")
    residue_coords = np.atleast_2d(np.asarray(residue_coords, dtype=np.float64))
    if cloud.n_points <= m:
        raise DataError("cloud too small to excise m points per residue")
    if len(residue_coords) == 0:
        kept = np.arange(cloud.n_points)
        return cloud, ExcisionMap(kept=kept, removed=np.empty(0, dtype=np.int64))
    idx, _ = cross_knn(residue_coords, cloud.points, m)
    removed = np.unique(idx)
    kept = np.setdiff1d(np.arange(cloud.n_points), removed)
    if len(kept) == 0:
        raise DataError("excision would empty the surface cloud")
    return cloud.subset(kept), ExcisionMap(kept=kept, removed=removed)


# ---------------------------------------------------------------------------
# cloud dump format
# ---------------------------------------------------------------------------

def write_cloud_tsv(cloud: SurfacePointCloud, path, header_lines=()) -> None:
    n_feat = 0 if cloud.features is None else cloud.features.shape[1]
    cols = ["x", "y", "z", "nx", "ny", "nz"] + [f"f_{i+1}" for i in range(n_feat)]
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("# columns=" + ",".join(cols) + "\n")
        blocks = [cloud.points, cloud.normals] + ([cloud.features] if n_feat else [])
        table = np.column_stack(blocks).astype(np.float64).tolist()
        fh.write("".join("\t".join(map(repr, row)) + "\n" for row in table))


def read_cloud_tsv(path) -> SurfacePointCloud:
    """Read a cloud dump back; every row must hold the same number (at
    least 6) of finite values."""
    lines = read_text_lines(path)
    if not any(line.strip() for line in lines):
        raise DataError(f"{path}: empty cloud dump")
    try:
        data = np.loadtxt(lines, delimiter="\t", comments=None, ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path}: malformed cloud dump ({exc})") from None
    if data.shape[1] < 6:
        raise DataError(f"{path}: expected at least 6 columns")
    if not np.isfinite(data).all():
        raise DataError(f"{path}: non-finite value in cloud dump")
    features = data[:, 6:] if data.shape[1] > 6 else None
    return SurfacePointCloud(points=data[:, :3], normals=data[:, 3:6],
                             features=features)


def featured_cloud(protein: Protein, cfg: SurfaceConfig, seed: int,
                   dump=None) -> SurfacePointCloud:
    """The protein's base cloud with its geometric features: read from the
    ``dump`` path when one is given (it must carry exactly ``N_FEATURES``
    feature columns), else generated with ``cfg`` and ``seed`` and
    featurized."""
    if dump:
        cloud = read_cloud_tsv(dump)
        width = 0 if cloud.features is None else cloud.features.shape[1]
        if width != N_FEATURES:
            raise DataError(f"{dump}: cloud dump has {width} feature columns, "
                            f"need {N_FEATURES}")
        return cloud
    cloud = generate_surface(protein, cfg, seed=seed)
    return cloud.with_features(surface_features(cloud, cfg))
