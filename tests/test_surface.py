import collections
import sys

import numpy as np
import pytest
import scipy.linalg

import protfit.surface
from conftest import fibonacci_sphere, make_coil_protein, random_rotation
from protfit.corpus import make_motif_protein
from protfit.errors import DataError
from protfit.geometry import cross_knn, nearest_others
from protfit.io import Protein
from protfit.surface import (HKS_TIMES, N_FEATURES, SurfaceConfig,
                             SurfacePointCloud, _field, _gaussian_curvature,
                             _heat_kernel_signature, _interior_mask,
                             _project_to_level, _seed_frames,
                             excise_near_residue,
                             generate_surface, read_cloud_tsv,
                             surface_features, write_cloud_tsv)

SMALL = SurfaceConfig(min_points=64, max_points=384, seeds_per_atom=20)


# ---------------------------------------------------------------------------
# smooth distance field
# ---------------------------------------------------------------------------

def test_soft_min_single_atom_is_exact_distance():
    assert _field(np.array([5.0, 0, 0]), np.zeros((1, 3)), 1.0)[0] == pytest.approx(5.0, abs=1e-12)


def test_soft_min_two_coincident_atoms():
    value = _field(np.array([5.0, 0, 0]), np.zeros((2, 3)), 1.0)[0]
    assert value == pytest.approx(5.0 - np.log(2.0), abs=1e-12)


def test_soft_min_below_true_min_and_converges(rng):
    atoms = rng.uniform(0, 10, (8, 3))
    x = rng.uniform(0, 10, 3)
    true_min = np.linalg.norm(atoms - x, axis=1).min()
    assert _field(x, atoms, SurfaceConfig().smoothing)[0] <= true_min + 1e-12
    sharp = _field(x, atoms, 0.01)[0]
    assert sharp == pytest.approx(true_min, abs=1e-6)


def test_soft_min_gradient_matches_finite_differences(rng):
    atoms = rng.uniform(0, 10, (12, 3))
    s = SurfaceConfig().smoothing
    for _ in range(5):
        x = rng.uniform(-2, 12, 3)
        grad = _field(x, atoms, s, with_grad=True)[1][0]
        h = 1e-5
        fd = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd[k] = (_field(x + e, atoms, s)[0] - _field(x - e, atoms, s)[0]) / (2 * h)
        assert np.abs(grad - fd).max() / max(np.linalg.norm(fd), 1e-9) < 1e-6


def _dense_field(points, atoms, smoothing):
    """The plain (points, atoms, 3) soft-min formula, for comparison."""
    diff = points[:, None, :] - atoms[None, :, :]
    d = np.maximum(np.linalg.norm(diff, axis=2), 1e-12)
    z = -d / smoothing
    zmax = z.max(axis=1, keepdims=True)
    w = np.exp(z - zmax)
    wsum = w.sum(axis=1, keepdims=True)
    f = -smoothing * (zmax[:, 0] + np.log(wsum[:, 0]))
    g = ((w / wsum)[:, :, None] * diff / d[:, :, None]).sum(axis=1)
    return f, g


@pytest.mark.parametrize("n_atoms", [1, 7, 9, 40, 300])
@pytest.mark.parametrize("pairs", [None, 1, 3])
def test_field_is_bit_identical_to_dense_formula(rng, monkeypatch, n_atoms, pairs):
    """Several chunks (pair budgets of one and three points per chunk,
    with the points not a multiple of three) and a point on an atom, where
    the 1e-12 distance clamp applies. The 300 atoms sit at coordinates of
    scale 1e3."""
    if pairs is not None:
        monkeypatch.setattr(protfit.surface, "_FIELD_PAIRS", pairs * n_atoms)
    scale = 1e3 if n_atoms == 300 else 10.0
    atoms = rng.uniform(0, scale, (n_atoms, 3))
    points = rng.uniform(-0.3 * scale, 1.3 * scale, (17, 3))
    points[5] = atoms[0]
    f, g = _field(points, atoms, 0.7, with_grad=True)
    want_f, want_g = _dense_field(points, atoms, 0.7)
    assert np.array_equal(f, want_f)
    assert np.array_equal(g, want_g)
    assert np.array_equal(_field(points, atoms, 0.7), want_f)


def test_field_rows_do_not_depend_on_the_batch(rng):
    atoms = rng.uniform(0, 10, (30, 3))
    points = rng.uniform(-3, 13, (25, 3))
    points[2] = atoms[4]
    f, g = _field(points, atoms, 1.0, with_grad=True)
    for i, x in enumerate(points):
        fi, gi = _field(x, atoms, 1.0, with_grad=True)
        assert fi[0] == f[i] and np.array_equal(gi[0], g[i])


@pytest.mark.parametrize("with_grad", [False, True],
                         ids=["smooth_distance", "smooth_distance_grad"])
@pytest.mark.parametrize("atoms", [np.empty((0, 3)), np.zeros(3)])
def test_smooth_distance_needs_an_atom_array(with_grad, atoms):
    with pytest.raises(DataError, match="need at least one atom"):
        _field(np.zeros(3), atoms, 1.0, with_grad=with_grad)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _loop_seed_frames(atoms):
    """Oracle: the per-atom loop that ``_seed_frames`` vectorizes."""
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
            axis = np.eye(3)[np.argmin(np.abs(e1))]
            w = axis - (axis @ e1) * e1
            e2 = w / np.linalg.norm(w)
        frames[i] = np.stack([e1, e2, np.cross(e1, e2)], axis=1)
    return frames


def _frame_atoms(case):
    rng = np.random.default_rng(17)
    if isinstance(case, int) and case > 3:
        # the residue counts of the benchmark's surface-mixed slots
        return make_motif_protein("m", case, rng).ca_coords
    if isinstance(case, int):
        return 3.8 * rng.standard_normal((case, 3))
    if case == "collinear":
        return np.outer(np.arange(9.0), [1.5, -2.0, 0.5]) + 3.0
    if case == "coincident":
        atoms = 4.0 * rng.standard_normal((12, 3))
        atoms[3:6] = atoms[4]          # a run of coincident atoms
        atoms[9:] = atoms[8]           # a coincident tail
        return atoms
    if case == "all-coincident":
        return np.tile([1.0, -2.0, 0.5], (5, 1))
    # integer lattice: exact ties and exactly collinear partner triples
    return rng.integers(0, 4, (60, 3)).astype(float)


@pytest.mark.parametrize("case", [80, 156, 88, 170, 96, 184, 104, 200, 1, 2, 3,
                                  "collinear", "coincident", "all-coincident",
                                  "lattice"])
def test_seed_frames_match_the_per_atom_loop(case):
    """A last-bit change in a frame can move a Newton seed into another
    deduplication cell, so the vectorized frames must keep the loop's bits."""
    atoms = _frame_atoms(case)
    assert np.array_equal(_seed_frames(atoms), _loop_seed_frames(atoms))


def test_single_residue_gives_sphere():
    protein = Protein(id="one", sequence=[0], ca_coords=np.zeros((1, 3)))
    cfg = SurfaceConfig(min_points=50, max_points=400, seeds_per_atom=600)
    cloud = generate_surface(protein, cfg, seed=0)
    radii = np.linalg.norm(cloud.points, axis=1)
    assert np.abs(radii - cfg.level).max() < 1e-3
    # radial normals
    unit = cloud.points / radii[:, None]
    assert np.abs(cloud.normals - unit).max() < 1e-6


def test_coil_level_set_residuals_and_count(coil30):
    cloud = generate_surface(coil30, SMALL, seed=3)
    f = _field(cloud.points, coil30.ca_coords, SMALL.smoothing)
    assert np.abs(f - SMALL.level).max() < 1e-3
    assert SMALL.min_points <= cloud.n_points <= SMALL.max_points
    assert np.abs(np.linalg.norm(cloud.normals, axis=1) - 1).max() < 1e-6


def test_generate_surface_deterministic(coil30):
    a = generate_surface(coil30, SMALL, seed=11)
    b = generate_surface(coil30, SMALL, seed=11)
    assert np.array_equal(a.points, b.points)
    c = generate_surface(coil30, SMALL, seed=12)
    assert c.n_points != a.n_points or not np.allclose(a.points, c.points)


def test_generate_surface_equivariant(coil30):
    rot = random_rotation(42)
    shift = np.array([7.0, -3.0, 11.0])
    import dataclasses
    moved = dataclasses.replace(coil30, ca_coords=coil30.ca_coords @ rot.T + shift)
    a = generate_surface(coil30, SMALL, seed=5)
    b = generate_surface(moved, SMALL, seed=5)
    assert a.n_points == b.n_points
    assert np.abs(b.points - (a.points @ rot.T + shift)).max() < 1e-6
    assert np.abs(b.normals - a.normals @ rot.T).max() < 1e-6


def test_degenerate_surface_rejected():
    protein = Protein(id="one", sequence=[0], ca_coords=np.zeros((1, 3)))
    cfg = SurfaceConfig(min_points=4096, max_points=8192, seeds_per_atom=4)
    with pytest.raises(DataError, match="degenerate surface"):
        generate_surface(protein, cfg, seed=0)
    # no seed reaches a level this close to the atoms
    tiny = SurfaceConfig(level=1e-300, min_points=4, seeds_per_atom=4)
    with pytest.raises(DataError, match="degenerate surface: only 0 points"):
        generate_surface(make_coil_protein(6, seed=1), tiny, seed=0)


def _all_probes_interior(pts, normals, atoms, cfg):
    """The interior test that evaluates every probe."""
    ts = np.linspace(0.25 * cfg.level, 2.0 * cfg.level, 8)
    probes = pts[:, None, :] + ts[None, :, None] * normals[:, None, :]
    f = _field(probes.reshape(-1, 3), atoms, cfg.smoothing).reshape(len(pts), len(ts))
    return (f < cfg.level - cfg.level_tol).any(axis=1)


def _level_set_points(protein, cfg, per_atom=4):
    """Projected seeds with their unit normals, before the interior test."""
    atoms = protein.ca_coords
    dirs = np.random.default_rng(0).standard_normal((len(atoms) * per_atom, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts, grad = _project_to_level(np.repeat(atoms, per_atom, axis=0)
                                  + cfg.level * dirs, atoms, cfg)
    return pts, grad / np.linalg.norm(grad, axis=1, keepdims=True)


@pytest.mark.parametrize("n_res, seed, has_interior",
                         [(30, 1, False), (60, 0, True), (104, 0, True)])
def test_interior_mask_matches_all_probes(n_res, seed, has_interior):
    protein = make_motif_protein("m", n_res, np.random.default_rng(seed))
    cfg = SurfaceConfig()
    pts, normals = _level_set_points(protein, cfg)
    want = _all_probes_interior(pts, normals, protein.ca_coords, cfg)
    assert want.any() == has_interior
    assert np.array_equal(
        _interior_mask(pts, normals, protein.ca_coords, cfg), want)


def test_interior_mask_next_to_the_threshold(monkeypatch):
    """Probe values within 1e-10 of level - level_tol around one atom,
    where the field is the distance. Along outward normals the nearest
    probe is one the farthest probe's bound reaches only without its
    margin, so each point evaluates both; inward normals put the farthest
    probe itself next to the threshold."""
    cfg = SurfaceConfig()
    atom = np.zeros((1, 3))
    ts = np.linspace(0.25 * cfg.level, 2.0 * cfg.level, 8)
    below = cfg.level - cfg.level_tol
    dirs = fibonacci_sphere(12)
    offsets = np.array([-1e-10, -3e-11, 0.0, 3e-11, 1e-10])
    rows = []
    real = protfit.surface._field

    def counting(points, *args):
        rows.append(len(points))
        return real(points, *args)

    monkeypatch.setattr(protfit.surface, "_field", counting)
    for radii, sign in ((below - ts[0] + offsets, 1.0),
                        (below + ts[-1] + offsets, -1.0)):
        pts = (radii[:, None, None] * dirs).reshape(-1, 3)
        normals = np.tile(sign * dirs, (len(radii), 1))
        want = _all_probes_interior(pts, normals, atom, cfg)
        assert 0 < want.sum() < len(pts)
        rows.clear()
        assert np.array_equal(_interior_mask(pts, normals, atom, cfg), want)
        if sign > 0:
            assert sum(rows) == 2 * len(pts)


def test_normals_are_the_normalized_field_gradients():
    protein = make_motif_protein("m", 60, np.random.default_rng(0))
    cloud = generate_surface(protein, SurfaceConfig(max_points=896), seed=0)
    _, grad = _field(cloud.points, protein.ca_coords, 1.0, with_grad=True)
    want = grad / np.maximum(np.linalg.norm(grad, axis=1, keepdims=True), 1e-12)
    assert np.array_equal(cloud.normals, want)


# (point, atom) pairs one generate_surface call below evaluates: 1,032,200
# when measured, 2,362,984 with all-probe interior tests and a second
# gradient pass for the normals
FIELD_PAIRS_104 = 1_032_200


def test_generate_surface_field_work(monkeypatch):
    """A work gate: the field is asked only by Newton projection and the
    interior test, for at most the measured pairs plus 10%."""
    pairs = collections.Counter()
    real = protfit.surface._field

    def counting(points, atoms, smoothing, with_grad=False):
        caller = sys._getframe(1).f_code.co_name
        pairs[caller] += len(np.atleast_2d(points)) * len(atoms)
        return real(points, atoms, smoothing, with_grad)

    monkeypatch.setattr(protfit.surface, "_field", counting)
    protein = make_motif_protein("gate", 104, np.random.default_rng(0))
    cloud = generate_surface(protein, SurfaceConfig(max_points=1536), seed=0)
    assert cloud.n_points == 1536
    assert set(pairs) == {"_project_to_level", "_interior_mask"}
    assert sum(pairs.values()) <= 1.1 * FIELD_PAIRS_104


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def test_sphere_curvature_close_to_analytic():
    radius = 5.0
    pts = fibonacci_sphere(2000, radius)
    normals = pts / radius
    curv = _gaussian_curvature(pts, normals,
                               nearest_others(*cross_knn(pts, pts, 13))[0])
    expected = 1.0 / radius ** 2
    assert abs(curv.mean() - expected) / expected < 0.25


def test_plane_curvature_near_zero(rng):
    xy = rng.uniform(-10, 10, (1500, 2))
    pts = np.column_stack([xy, np.zeros(len(xy))])
    normals = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    curv = _gaussian_curvature(pts, normals,
                               nearest_others(*cross_knn(pts, pts, 13))[0])
    reference = 1.0 / 5.0 ** 2
    assert np.abs(curv).mean() < 0.05 * reference


def test_features_rigid_motion_invariant(rng):
    pts = rng.uniform(0, 12, (300, 3))
    normals = rng.standard_normal((300, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cloud = SurfacePointCloud(points=pts, normals=normals)
    cfg = SurfaceConfig(min_points=8, max_points=4096)
    feats = surface_features(cloud, cfg)
    rot = random_rotation(9)
    moved = SurfacePointCloud(points=pts @ rot.T + 4.0,
                              normals=normals @ rot.T)
    feats2 = surface_features(moved, cfg)
    assert np.abs(feats - feats2).max() < 1e-6


def test_features_standardized(coil30):
    cloud = generate_surface(coil30, SMALL, seed=3)
    feats = surface_features(cloud, SMALL)
    assert feats.shape == (cloud.n_points, N_FEATURES)
    assert np.abs(feats.mean(axis=0)).max() < 1e-9
    assert np.abs(feats.std(axis=0) - 1).max() < 1e-9


def _dense_hks(pts, cfg):
    """Oracle: brute-force kNN graph, dense Laplacian, ``scipy.linalg.eigh``."""
    n = len(pts)
    k = min(cfg.knn_k, n - 1)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    nbr = np.argsort(dist, axis=1, kind="stable")[:, :k]
    nd = np.take_along_axis(dist, nbr, axis=1)
    w = np.zeros((n, n))
    np.put_along_axis(w, nbr, np.exp(-nd ** 2 / nd.mean() ** 2), axis=1)
    w = (w + w.T) / 2
    dinv = w.sum(axis=1) ** -0.5
    lap = np.eye(n) - dinv[:, None] * w * dinv[None, :]
    m = min(cfg.hks_eigenpairs, n - 1)
    evals, evecs = scipy.linalg.eigh(lap, subset_by_index=[0, m - 1])
    return evecs ** 2 @ np.exp(-np.outer(evals, HKS_TIMES))


@pytest.fixture(scope="module")
def large_surface():
    """A real surface of 2400 points."""
    cfg = SurfaceConfig(max_points=2400)
    return generate_surface(make_coil_protein(170, seed=3), cfg, seed=0), cfg


def test_features_bit_identical_across_calls(large_surface):
    cloud, cfg = large_surface
    first = surface_features(cloud, cfg)
    other = generate_surface(make_coil_protein(30, seed=7), SMALL, seed=0)
    surface_features(other, SMALL)
    for _ in range(2):
        assert np.array_equal(surface_features(cloud, cfg), first)


def _hks_case(case, large_surface):
    if case == "large":
        return large_surface[0].points, large_surface[1]
    if case == "coil":
        cfg = SurfaceConfig(max_points=600)
        return generate_surface(make_coil_protein(60, seed=3), cfg).points, cfg
    if case == "crowded":
        # 17 copies of point 0: with knn_k 16, the last copy's 17 nearest
        # points are the other 17 coincident ones, all of smaller index
        pts = 5.0 * np.random.default_rng(7).standard_normal((200, 3))
        return np.concatenate([pts, np.repeat(pts[:1], 17, axis=0)]), SurfaceConfig()
    # Gaussian point sets whose Laplacian has an exactly singular LU factor
    # at shift 0: seeds 1156 and 1255 draw 106 and 221 points
    rng = np.random.default_rng(case)
    return 5.0 * rng.standard_normal((int(rng.integers(8, 400)), 3)), SurfaceConfig()


@pytest.mark.parametrize("case", [1156, 1255, "coil", "large", "crowded"])
def test_hks_matches_dense_eigh(case, large_surface):
    pts, cfg = _hks_case(case, large_surface)
    hks = _heat_kernel_signature(*nearest_others(
        *cross_knn(pts, pts, min(cfg.knn_k, len(pts) - 1) + 1)), cfg)
    expected = _dense_hks(pts, cfg)
    assert hks.shape == (len(pts), len(HKS_TIMES))
    np.testing.assert_allclose(hks, expected, rtol=1e-10, atol=0)


def test_hks_does_not_depend_on_the_distance_table_layout():
    """A strided column prefix of a wider table and its contiguous copy
    give the same HKS bits, on a table of more than 8192 distances, where
    numpy sums the two layouts in different orders."""
    pts = 5.0 * np.random.default_rng(2).standard_normal((600, 3))
    cfg = SurfaceConfig()
    idx, dist = nearest_others(*cross_knn(pts, pts, cfg.knn_k + 5))
    idx, dist = idx[:, :cfg.knn_k], dist[:, :cfg.knn_k]
    assert dist.mean() != np.ascontiguousarray(dist).mean()
    assert np.array_equal(
        _heat_kernel_signature(idx, dist, cfg),
        _heat_kernel_signature(idx, np.ascontiguousarray(dist), cfg))


def test_features_need_enough_points():
    cloud = SurfacePointCloud(points=np.random.default_rng(0).uniform(0, 5, (6, 3)),
                              normals=np.tile([0.0, 0.0, 1.0], (6, 1)))
    with pytest.raises(DataError):
        surface_features(cloud, SurfaceConfig(curvature_k=12))


@pytest.mark.parametrize("curvature_k, knn_k, n", [(12, 6, 200), (6, 16, 200),
                                                 (12, 16, 14), (12, 40, 13)],
                         ids=["curvature-wider", "hks-wider", "few-points",
                              "curvature-k-plus-one-points"])
def test_features_read_one_shared_neighbour_table(monkeypatch, rng,
                                                  curvature_k, knn_k, n):
    pts = 4.0 * rng.standard_normal((n, 3))
    normals = rng.standard_normal((n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cfg = SurfaceConfig(min_points=8, curvature_k=curvature_k, knn_k=knn_k)
    # oracle: each helper fed its own query of exactly the width it needs
    curv = _gaussian_curvature(
        pts, normals, nearest_others(*cross_knn(pts, pts, curvature_k + 1))[0])
    hks = _heat_kernel_signature(
        *nearest_others(*cross_knn(pts, pts, min(knn_k, n - 1) + 1)), cfg)
    expected = np.column_stack([curv, hks])
    std = expected.std(axis=0)
    std[std < 1e-12] = 1.0
    expected = (expected - expected.mean(axis=0)) / std
    widths = []

    def counted(queries, refs, k):
        widths.append(k)
        return cross_knn(queries, refs, k)

    monkeypatch.setattr(protfit.surface, "cross_knn", counted)
    feats = surface_features(SurfacePointCloud(points=pts, normals=normals), cfg)
    assert widths == [max(curvature_k, min(knn_k, n - 1)) + 1]
    assert np.array_equal(feats, expected)


# ---------------------------------------------------------------------------
# excision
# ---------------------------------------------------------------------------

def _toy_cloud(rng, n):
    pts = rng.uniform(0, 20, (n, 3))
    normals = np.tile([0.0, 0.0, 1.0], (n, 1))
    feats = rng.standard_normal((n, 5))
    return SurfacePointCloud(points=pts, normals=normals, features=feats)


def test_excise_single_nearest(rng):
    cloud = _toy_cloud(rng, 50)
    residue = cloud.points[17] + 1e-3
    reduced, emap = excise_near_residue(cloud, [residue], 1)
    assert emap.removed.tolist() == [17]
    assert reduced.n_points == 49
    assert np.array_equal(reduced.features, np.delete(cloud.features, 17, axis=0))


def test_excise_union_semantics(rng):
    cloud = _toy_cloud(rng, 60)
    residue = cloud.points[5] + 1e-3
    # two residues share their nearest points: union smaller than 2*m
    reduced, emap = excise_near_residue(cloud, [residue, residue + 1e-4], 3)
    assert len(emap.removed) <= 5
    assert len(emap.removed) >= 3


def test_excise_matches_brute_force_union(rng):
    cloud = _toy_cloud(rng, 1000)
    residues = rng.uniform(0, 20, (10, 3))
    _, emap = excise_near_residue(cloud, residues, 20)
    expected = set()
    for r in residues:
        d = np.linalg.norm(cloud.points - r, axis=1)
        order = sorted(range(1000), key=lambda j: (d[j], j))
        expected.update(order[:20])
    assert set(emap.removed.tolist()) == expected
    assert set(emap.kept.tolist()) | expected == set(range(1000))
    assert set(emap.kept.tolist()) & expected == set()


def test_excise_refuses_to_empty_cloud(rng):
    cloud = _toy_cloud(rng, 5)
    with pytest.raises(DataError):
        excise_near_residue(cloud, [cloud.points[0]], 5)
    residues = [cloud.points[i] for i in range(5)]
    with pytest.raises(DataError):
        excise_near_residue(cloud, residues, 4)


# ---------------------------------------------------------------------------
# dump round trip
# ---------------------------------------------------------------------------

def test_cloud_dump_round_trip(tmp_path, coil30):
    cloud = generate_surface(coil30, SMALL, seed=3)
    cloud = cloud.with_features(surface_features(cloud, SMALL))
    path = tmp_path / "cloud.tsv"
    write_cloud_tsv(cloud, path, header_lines=["config_hash=deadbeef"])
    again = read_cloud_tsv(path)
    assert np.array_equal(again.points, cloud.points)
    assert np.array_equal(again.normals, cloud.normals)
    assert np.array_equal(again.features, cloud.features)
    assert "deadbeef" in path.read_text()


def _per_value_text(cloud, header_lines=()):
    """The dump written one value at a time with repr(float(v))."""
    n_feat = 0 if cloud.features is None else cloud.features.shape[1]
    cols = ["x", "y", "z", "nx", "ny", "nz"] + [f"f_{i+1}" for i in range(n_feat)]
    lines = [f"# {line}\n" for line in header_lines]
    lines.append("# columns=" + ",".join(cols) + "\n")
    for i in range(cloud.n_points):
        row = list(cloud.points[i]) + list(cloud.normals[i])
        if n_feat:
            row += list(cloud.features[i])
        lines.append("\t".join(repr(float(v)) for v in row) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("with_features", [False, True])
def test_cloud_dump_text_matches_per_value_repr(tmp_path, rng, with_features):
    points = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3))
    points[0] = [0.1, -0.0, 1e16]
    normals = rng.standard_normal((40, 3))
    features = rng.standard_normal((40, 5)) if with_features else None
    cloud = SurfacePointCloud(points=points, normals=normals, features=features)
    path = tmp_path / "cloud.tsv"
    write_cloud_tsv(cloud, path, header_lines=["seed=1"])
    assert path.read_text() == _per_value_text(cloud, header_lines=["seed=1"])


def test_cloud_dump_reads_extreme_values_bit_exactly(tmp_path, rng):
    tiny = np.nextafter(0.0, 1.0)
    points = rng.standard_normal((6000, 3))
    points[:4] = [[-0.0, tiny, np.finfo(float).max],
                  [-np.finfo(float).max, -tiny, 1e-310],
                  [0.1, 1 / 3, -2.5e-308], [1e300, -1e-300, 0.0]]
    cloud = SurfacePointCloud(points=points, normals=rng.standard_normal((6000, 3)))
    path = tmp_path / "cloud.tsv"
    write_cloud_tsv(cloud, path)
    again = read_cloud_tsv(path)
    assert again.points.tobytes() == cloud.points.tobytes()
    assert again.normals.tobytes() == cloud.normals.tobytes()
    assert again.features is None


@pytest.mark.parametrize("body", [
    b"1\t2\t3\t4\t5\t6\n1\t2\t3\n",           # ragged row
    b"1\t2\t3\t4\t5\t6\n1\t2\t3\t4\t5\tx\n",  # non-numeric cell
    b"1\t2\t3\t4\t5\tnan\n",
    b"1\t2\t3\t4\t5\t6\t-inf\n",
    b"1\t2\t3\t4\t5\n",                        # too few columns
    b"# only a comment\n\n",                   # empty dump
    b"1\t2\t3\t4\t5\t6\xff\n",                 # not UTF-8
])
def test_malformed_cloud_dump_is_data_error(tmp_path, body):
    path = tmp_path / "cloud.tsv"
    path.write_bytes(body)
    with pytest.raises(DataError):
        read_cloud_tsv(path)
