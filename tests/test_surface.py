import numpy as np
import pytest
import scipy.linalg

from conftest import make_coil_protein, random_rotation
from protfit.errors import DataError
from protfit.io import Protein
from protfit.surface import (SurfaceConfig, SurfacePointCloud,
                             _field, _gaussian_curvature,
                             _heat_kernel_signature, excise_near_residue,
                             generate_surface, read_cloud_tsv, smooth_distance,
                             smooth_distance_grad, surface_features,
                             write_cloud_tsv)

SMALL = SurfaceConfig(min_points=64, max_points=384, seeds_per_atom=20)


def fibonacci_sphere(n, radius=1.0):
    golden = (1 + 5 ** 0.5) / 2
    i = np.arange(n)
    z = 1 - (2 * i + 1) / n
    r = np.sqrt(1 - z * z)
    theta = 2 * np.pi * i / golden
    pts = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
    return radius * pts


# ---------------------------------------------------------------------------
# smooth distance field
# ---------------------------------------------------------------------------

def test_soft_min_single_atom_is_exact_distance():
    assert smooth_distance(np.array([5.0, 0, 0]), np.zeros((1, 3))) == pytest.approx(5.0, abs=1e-12)


def test_soft_min_two_coincident_atoms():
    value = smooth_distance(np.array([5.0, 0, 0]), np.zeros((2, 3)),
                            SurfaceConfig(smoothing=1.0))
    assert value == pytest.approx(5.0 - np.log(2.0), abs=1e-12)


def test_soft_min_below_true_min_and_converges(rng):
    atoms = rng.uniform(0, 10, (8, 3))
    x = rng.uniform(0, 10, 3)
    true_min = np.linalg.norm(atoms - x, axis=1).min()
    assert smooth_distance(x, atoms) <= true_min + 1e-12
    sharp = smooth_distance(x, atoms, SurfaceConfig(smoothing=0.01))
    assert sharp == pytest.approx(true_min, abs=1e-6)


def test_soft_min_gradient_matches_finite_differences(rng):
    atoms = rng.uniform(0, 10, (12, 3))
    cfg = SurfaceConfig()
    for _ in range(5):
        x = rng.uniform(-2, 12, 3)
        grad = smooth_distance_grad(x, atoms, cfg)
        h = 1e-5
        fd = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd[k] = (smooth_distance(x + e, atoms, cfg)
                     - smooth_distance(x - e, atoms, cfg)) / (2 * h)
        assert np.abs(grad - fd).max() / max(np.linalg.norm(fd), 1e-9) < 1e-6


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_single_residue_gives_sphere():
    protein = Protein(id="one", sequence=[0], ca_coords=np.zeros((1, 3)))
    cfg = SurfaceConfig(min_points=50, max_points=400, seeds_per_atom=600,
                        max_seed_rounds=1)
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
    cfg = SurfaceConfig(min_points=4096, max_points=8192, seeds_per_atom=4,
                        max_seed_rounds=1)
    with pytest.raises(DataError, match="degenerate surface"):
        generate_surface(protein, cfg, seed=0)
    # no seed reaches a level this close to the atoms
    tiny = SurfaceConfig(level=1e-300, min_points=4, seeds_per_atom=4,
                         max_seed_rounds=1)
    with pytest.raises(DataError, match="degenerate surface: only 0 points"):
        generate_surface(make_coil_protein(6, seed=1), tiny, seed=0)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def test_sphere_curvature_close_to_analytic():
    radius = 5.0
    pts = fibonacci_sphere(2000, radius)
    normals = pts / radius
    curv = _gaussian_curvature(pts, normals, 12)
    expected = 1.0 / radius ** 2
    assert abs(curv.mean() - expected) / expected < 0.25


def test_plane_curvature_near_zero(rng):
    xy = rng.uniform(-10, 10, (1500, 2))
    pts = np.column_stack([xy, np.zeros(len(xy))])
    normals = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    curv = _gaussian_curvature(pts, normals, 12)
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
    assert feats.shape == (cloud.n_points, 1 + len(SMALL.hks_times))
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
    return evecs ** 2 @ np.exp(-np.outer(evals, cfg.hks_times))


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
    # Gaussian point sets whose Laplacian has an exactly singular LU factor
    # at shift 0: seeds 1156 and 1255 draw 106 and 221 points
    rng = np.random.default_rng(case)
    return 5.0 * rng.standard_normal((int(rng.integers(8, 400)), 3)), SurfaceConfig()


@pytest.mark.parametrize("case", [1156, 1255, "coil", "large"])
def test_hks_matches_dense_eigh(case, large_surface):
    pts, cfg = _hks_case(case, large_surface)
    hks = _heat_kernel_signature(pts, cfg)
    expected = _dense_hks(pts, cfg)
    assert hks.shape == (len(pts), len(cfg.hks_times))
    np.testing.assert_allclose(hks, expected, rtol=1e-10, atol=0)


def test_features_need_enough_points():
    cloud = SurfacePointCloud(points=np.random.default_rng(0).uniform(0, 5, (6, 3)),
                              normals=np.tile([0.0, 0.0, 1.0], (6, 1)))
    with pytest.raises(DataError):
        surface_features(cloud, SurfaceConfig(curvature_k=12))


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
