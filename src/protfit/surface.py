"""Protein surface point clouds from a smooth distance field.

The field over alpha carbons is a soft-min of per-atom distances,
f(x) = -s * log(sum_a exp(-|x - a| / s)), which has analytic gradients
everywhere. Seeds are sprayed on spheres of radius ``level`` around each
atom and projected onto the level set {f = level} with damped Newton
steps along the gradient. Seed directions are drawn in per-atom local
frames built from neighboring atoms, and deduplication happens in a
canonical frame from the atom cloud's principal axes, so the whole
pipeline commutes with rigid motions of the input.

Per-point geometric features are a Gaussian curvature estimate (local
quadric fit in the tangent frame) and heat kernel signatures from the
lowest eigenpairs of the symmetric normalized Laplacian of the surface
kNN graph, from one shift-invert ``eigsh`` solve at every cloud size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import DataError, NumericsError
from .geometry import cross_knn
from .io import Protein, read_text_lines

_DEFAULT_HKS_TIMES = tuple(np.logspace(-0.5, 1.5, 4))
_FIELD_CHUNK = 4096   # points per (points x atoms) distance block


@dataclass(frozen=True)
class SurfaceConfig:
    atom_radius: float = 3.0
    smoothing: float = 1.0
    level: float = None           # defaults to atom_radius
    seeds_per_atom: int = 20
    min_points: int = 512
    max_points: int = 4096
    knn_k: int = 16
    curvature_k: int = 12
    hks_eigenpairs: int = 32
    hks_times: tuple = _DEFAULT_HKS_TIMES
    level_tol: float = 1e-3
    max_seed_rounds: int = 5

    def __post_init__(self):
        if self.level is None:
            object.__setattr__(self, "level", 1.0 * self.atom_radius)
        if self.min_points > self.max_points:
            raise DataError("min_points must be <= max_points")
        for name in ("atom_radius", "smoothing", "level"):
            if not 0 < getattr(self, name) < np.inf:
                raise DataError(f"{name} must be finite and positive, "
                                f"got {getattr(self, name)}")
        if min(self.seeds_per_atom, self.min_points, self.knn_k,
               self.curvature_k, self.hks_eigenpairs) < 1:
            raise DataError("surface counts must be positive")

    def paper_scale(self) -> "SurfaceConfig":
        return replace(self, min_points=6000, max_points=20000)


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
    """Soft-min field values (and optionally gradients) at many points."""
    points = np.atleast_2d(points)
    m = len(points)
    f = np.empty(m)
    g = np.empty((m, 3)) if with_grad else None
    for start in range(0, m, _FIELD_CHUNK):
        stop = min(m, start + _FIELD_CHUNK)
        diff = points[start:stop, None, :] - atoms[None, :, :]
        d = np.maximum(np.linalg.norm(diff, axis=2), 1e-12)
        z = -d / smoothing
        zmax = z.max(axis=1, keepdims=True)
        w = np.exp(z - zmax)
        wsum = w.sum(axis=1, keepdims=True)
        f[start:stop] = -smoothing * (zmax[:, 0] + np.log(wsum[:, 0]))
        if with_grad:
            g[start:stop] = ((w / wsum)[:, :, None] * diff / d[:, :, None]).sum(axis=1)
    return (f, g) if with_grad else f


def smooth_distance(x, atoms, cfg: SurfaceConfig = None) -> float:
    """Soft-min of distances from x to the atoms (tends to the true minimum
    distance as smoothing goes to zero)."""
    smoothing = (cfg or SurfaceConfig()).smoothing
    atoms = np.asarray(atoms, dtype=np.float64)
    if atoms.ndim != 2 or len(atoms) < 1:
        raise DataError("need at least one atom")
    return float(_field(np.asarray(x, dtype=np.float64)[None, :], atoms, smoothing)[0])


def smooth_distance_grad(x, atoms, cfg: SurfaceConfig = None) -> np.ndarray:
    smoothing = (cfg or SurfaceConfig()).smoothing
    atoms = np.asarray(atoms, dtype=np.float64)
    _, g = _field(np.asarray(x, dtype=np.float64)[None, :], atoms, smoothing,
                  with_grad=True)
    return g[0]


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def _seed_frames(atoms: np.ndarray) -> np.ndarray:
    """Per-atom orthonormal frames from chain-adjacent atoms, so seed
    directions rotate with the molecule. Picking partners by index (not
    by distance) keeps the frames stable even under the exact distance
    ties of a fixed-bond-length backbone."""
    n = len(atoms)
    frames = np.tile(np.eye(3), (n, 1, 1))
    if n < 2:
        return frames
    for i in range(n):
        partners = [j for j in (i + 1, i - 1, i + 2, i - 2, i + 3, i - 3)
                    if 0 <= j < n]
        e1 = None
        rest = []
        for j in partners:
            v = atoms[j] - atoms[i]
            nv = np.linalg.norm(v)
            if e1 is None and nv > 1e-9:
                e1 = v / nv
            else:
                rest.append(j)
        if e1 is None:
            continue
        e2 = None
        for j in rest:
            v = atoms[j] - atoms[i]
            w = v - (v @ e1) * e1
            nw = np.linalg.norm(w)
            if nw > 1e-6 * max(np.linalg.norm(v), 1.0):
                e2 = w / nw
                break
        if e2 is None:
            # collinear chain: complete with the global axis least aligned
            # with e1 (deterministic, loses exact equivariance)
            axis = np.eye(3)[np.argmin(np.abs(e1))]
            w = axis - (axis @ e1) * e1
            e2 = w / np.linalg.norm(w)
        frames[i] = np.stack([e1, e2, np.cross(e1, e2)], axis=1)
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

def _project_to_level(seeds, atoms, cfg: SurfaceConfig) -> np.ndarray:
    """Damped Newton projection of seeds onto {f = level}; drops seeds that
    fail to converge within 50 iterations."""
    pts = seeds.copy()
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
    return pts[done]


def _interior_mask(pts, normals, atoms, cfg: SurfaceConfig) -> np.ndarray:
    """True for points whose outward normal ray re-enters the level set
    within 2 * level (pockets and tunnels rather than the outer envelope)."""
    level = cfg.level
    ts = np.linspace(0.25 * level, 2.0 * level, 8)
    probes = pts[:, None, :] + ts[None, :, None] * normals[:, None, :]
    f = _field(probes.reshape(-1, 3), atoms, cfg.smoothing).reshape(len(pts), len(ts))
    return (f < level - cfg.level_tol).any(axis=1)


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
    seen_cells = set()
    kept_pts = []
    outer = np.empty((0, 3))
    for _ in range(cfg.max_seed_rounds):
        local = rng.standard_normal((len(atoms), cfg.seeds_per_atom, 3))
        local /= np.maximum(np.linalg.norm(local, axis=2, keepdims=True), 1e-12)
        dirs = np.einsum("nij,nkj->nki", frames, local)
        seeds = (atoms[:, None, :] + cfg.level * dirs).reshape(-1, 3)
        projected = _project_to_level(seeds, atoms, cfg)
        canon = (projected - center) @ axes
        cells = np.floor(canon / spacing).astype(np.int64)
        for row, key in enumerate(map(tuple, cells)):
            if key not in seen_cells:
                seen_cells.add(key)
                kept_pts.append(projected[row])
        pts = np.array(kept_pts).reshape(-1, 3)   # (0, 3) if no seed converged
        _, grad = _field(pts, atoms, cfg.smoothing, with_grad=True)
        normals = grad / np.maximum(np.linalg.norm(grad, axis=1, keepdims=True), 1e-12)
        interior = _interior_mask(pts, normals, atoms, cfg)
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

def _gaussian_curvature(pts, normals, k: int) -> np.ndarray:
    """Quadric-fit curvature: fit z = a x^2 + b xy + c y^2 over the k
    nearest neighbors in each point's tangent frame, K = 4ac - b^2."""
    idx, _ = cross_knn(pts, pts, k + 1)
    # the first k entries of each row that are not the point itself
    others = np.argsort(idx == np.arange(len(pts))[:, None], axis=1, kind="stable")
    neigh = np.take_along_axis(idx, others[:, :k], axis=1)
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


def _heat_kernel_signature(pts, cfg: SurfaceConfig) -> np.ndarray:
    n = len(pts)
    k = min(cfg.knn_k, n - 1)
    idx, dist = cross_knn(pts, pts, k + 1)
    sigma = max(dist[:, 1:].mean(), 1e-9)
    keep = idx != np.arange(n)[:, None]
    rows = np.nonzero(keep)[0]
    vals = np.exp(-(dist[keep] ** 2) / sigma ** 2)
    w = scipy.sparse.csr_matrix((vals, (rows, idx[keep])), shape=(n, n))
    w = (w + w.T) * 0.5
    deg = np.asarray(w.sum(axis=1)).ravel()
    if deg.min() <= 0:
        raise NumericsError("degenerate surface graph: isolated node")
    dinv = scipy.sparse.diags(deg ** -0.5)
    lap = scipy.sparse.identity(n) - dinv @ w @ dinv
    m = min(cfg.hks_eigenpairs, n - 1)
    # The Laplacian is singular, so shift-invert about -1e-3 keeps the LU
    # factor positive definite; a fixed start vector keeps ARPACK off its
    # process-wide random state, so equal clouds give bit-identical output.
    start = np.random.default_rng(0).standard_normal(n)
    try:
        evals, evecs = scipy.sparse.linalg.eigsh(
            lap.tocsc(), k=m, sigma=-1e-3, which="LM", v0=start)
    except RuntimeError as exc:
        raise NumericsError(f"surface Laplacian eigendecomposition failed: {exc}")
    order = np.argsort(evals)
    evals, evecs = evals[order], evecs[:, order]
    phi2 = evecs ** 2
    times = np.asarray(cfg.hks_times, dtype=np.float64)
    return phi2 @ np.exp(-np.outer(evals, times))


def surface_features(cloud: SurfacePointCloud,
                     cfg: SurfaceConfig = None) -> np.ndarray:
    """Curvature + HKS columns, each standardized per cloud."""
    if cfg is None:
        cfg = SurfaceConfig()
    n = cloud.n_points
    if n < cfg.curvature_k + 1:
        raise DataError(
            f"need at least curvature_k+1={cfg.curvature_k + 1} points, got {n}")
    curv = _gaussian_curvature(cloud.points, cloud.normals, cfg.curvature_k)
    hks = _heat_kernel_signature(cloud.points, cfg)
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
