import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rotation
from protfit import geometry
from protfit.errors import DataError
from protfit.geometry import (RbfConfig, build_knn_graph, build_radius_graph,
                              cross_knn, knn_receptive_field, nearest_others,
                              rbf_expand)
from protfit.gvp import receptive_sets


def edge_set(graph):
    return set(zip(graph.src.tolist(), graph.dst.tolist()))


def brute_radius_edges(coords, cutoff):
    out = set()
    n = len(coords)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = np.linalg.norm(coords[j] - coords[i])
            if 0 < d < cutoff:
                out.add((j, i))
    return out


def brute_knn_rows(queries, refs, k, skip_self=False):
    rows = []
    for qi, q in enumerate(queries):
        cands = []
        for ri, r in enumerate(refs):
            if skip_self and ri == qi:
                continue
            cands.append((float(np.linalg.norm(q - r)), ri))
        cands.sort()
        rows.append([ri for _, ri in cands[:k]])
    return rows


# ---------------------------------------------------------------------------
# radius graph
# ---------------------------------------------------------------------------

def test_radius_two_points_inside_cutoff():
    g = build_radius_graph(np.array([[0., 0, 0], [5., 0, 0]]), 10.0)
    assert edge_set(g) == {(0, 1), (1, 0)}


def test_radius_boundary_is_strict():
    g = build_radius_graph(np.array([[0., 0, 0], [10., 0, 0]]), 10.0)
    assert g.n_edges == 0


def test_radius_matches_brute_force_small(rng):
    coords = rng.uniform(0, 20, (50, 3))
    g = build_radius_graph(coords, 8.0)
    assert edge_set(g) == brute_radius_edges(coords, 8.0)


def test_radius_matches_brute_force_gridded(rng):
    coords = rng.uniform(0, 25, (300, 3))  # above the brute-force limit
    g = build_radius_graph(coords, 6.0)
    assert edge_set(g) == brute_radius_edges(coords, 6.0)


def test_radius_edge_order_sorted():
    rng = np.random.default_rng(5)
    coords = rng.uniform(0, 10, (40, 3))
    g = build_radius_graph(coords, 6.0)
    pairs = list(zip(g.dst.tolist(), g.src.tolist()))
    assert pairs == sorted(pairs)


def test_radius_isolated_node_ok():
    g = build_radius_graph(np.array([[0., 0, 0], [100., 0, 0], [0., 1, 0]]), 5.0)
    assert np.bincount(g.dst, minlength=g.n_nodes).tolist() == [1, 0, 1]


# ---------------------------------------------------------------------------
# kNN graph
# ---------------------------------------------------------------------------

def test_knn_collinear_hand_case():
    coords = np.array([[0., 0, 0], [1., 0, 0], [3., 0, 0]])
    g = build_knn_graph(coords, 1)
    assert edge_set(g) == {(1, 0), (0, 1), (1, 2)}


def test_knn_unit_square_excludes_diagonal():
    coords = np.array([[0., 0, 0], [1., 0, 0], [1., 1, 0], [0., 1, 0]])
    g = build_knn_graph(coords, 2)
    assert edge_set(g) == {(1, 0), (3, 0), (0, 1), (2, 1),
                           (1, 2), (3, 2), (0, 3), (2, 3)}


def test_knn_matches_brute_force_with_ties(rng):
    coords = rng.uniform(0, 15, (200, 3))
    g = build_knn_graph(coords, 16)
    expected = brute_knn_rows(coords, coords, 16, skip_self=True)
    for i in range(len(coords)):
        got = sorted(g.src[g.dst == i].tolist())
        assert got == sorted(expected[i])
    assert (np.bincount(g.dst, minlength=g.n_nodes) == 16).all()


def test_knn_k_larger_than_n():
    coords = np.array([[0., 0, 0], [1., 0, 0], [2., 0, 0]])
    g = build_knn_graph(coords, 10)
    assert (np.bincount(g.dst, minlength=g.n_nodes) == 2).all()


def test_knn_rejects_single_node():
    with pytest.raises(DataError):
        build_knn_graph(np.zeros((1, 3)), 1)


def test_knn_exact_tie_breaks_by_index():
    # points 1 and 2 are equidistant from 0; the smaller index wins
    coords = np.array([[0., 0, 0], [1., 0, 0], [-1., 0, 0], [5., 0, 0]])
    g = build_knn_graph(coords, 1)
    assert g.src[g.dst == 0].tolist() == [1]


# ---------------------------------------------------------------------------
# cross kNN
# ---------------------------------------------------------------------------

def test_cross_knn_simple():
    refs = np.array([[1., 0, 0], [2., 0, 0], [3., 0, 0]])
    idx, dist = cross_knn(np.zeros((1, 3)), refs, 2)
    assert idx[0].tolist() == [0, 1]
    assert np.allclose(dist[0], [1.0, 2.0])


def test_cross_knn_coincident_ref_first():
    refs = np.array([[0., 0, 0], [1., 0, 0]])
    idx, dist = cross_knn(np.zeros((1, 3)), refs, 2)
    assert idx[0, 0] == 0 and dist[0, 0] == 0.0


def test_cross_knn_matches_brute_force(rng):
    queries = rng.uniform(0, 30, (100, 3))
    refs = rng.uniform(0, 30, (500, 3))
    idx, dist = cross_knn(queries, refs, 20)
    expected = brute_knn_rows(queries, refs, 20)
    for q in range(100):
        assert idx[q].tolist() == expected[q]
        assert (np.diff(dist[q]) >= 0).all()


def test_lattice_exact_ties_match_brute_force():
    # integer lattice with repeated points, well above 64 points: every
    # distance is the root of an integer, so ties are exact and only the
    # smaller-index rule decides them; cutoff 2 falls on lattice distances
    rng = np.random.default_rng(11)
    base = rng.integers(0, 6, (180, 3)).astype(float)
    coords = np.concatenate([base, base[rng.integers(0, 180, 40)]])
    queries = np.concatenate([rng.integers(-1, 7, (40, 3)).astype(float),
                              coords[:20]])
    idx, _ = cross_knn(queries, coords, 12)
    assert idx.tolist() == brute_knn_rows(queries, coords, 12)
    g = build_knn_graph(coords, 8)
    expected = brute_knn_rows(coords, coords, 8, skip_self=True)
    for i in range(len(coords)):
        assert sorted(g.src[g.dst == i].tolist()) == sorted(expected[i])
    assert edge_set(build_radius_graph(coords, 2.0)) == brute_radius_edges(coords, 2.0)


@pytest.mark.parametrize("lattice", [False, True], ids=["uniform", "lattice"])
def test_cross_knn_prefix_is_the_narrower_query(rng, lattice):
    """Surface features read the k-NN rows of several k off one wide
    self-query, so a row's first k columns must be the k-NN row exactly,
    also when only the smaller-index rule orders exact ties."""
    if lattice:
        base = rng.integers(0, 6, (180, 3)).astype(float)
        pts = np.concatenate([base, base[rng.integers(0, 180, 40)]])
    else:
        pts = rng.uniform(0, 20, (300, 3))
    wide_idx, wide_dist = cross_knn(pts, pts, 41)
    for k in (1, 7, 13, 17, 40):
        idx, dist = cross_knn(pts, pts, k)
        assert np.array_equal(wide_idx[:, :k], idx)
        assert np.array_equal(wide_dist[:, :k], dist)


@pytest.mark.parametrize("copies", [0, 3, 30])
def test_nearest_others_matches_brute_force(rng, copies):
    """A self-query's (k + 1)-NN table gives each point's k nearest other
    points in (distance, index) order, also for a copy of a point that k + 1
    coincident points of smaller index crowd out of its own row."""
    base = rng.integers(0, 5, (120, 3)).astype(float)
    pts = np.concatenate([base, np.repeat(base[:1], copies, axis=0)])
    for k in (1, 4, 16):
        idx, dist = nearest_others(*cross_knn(pts, pts, k + 1))
        assert idx.tolist() == brute_knn_rows(pts, pts, k, skip_self=True)
        assert np.array_equal(dist, np.linalg.norm(pts[idx] - pts[:, None], axis=2))


@pytest.mark.parametrize("copies", [0, 3, 30])
def test_nearest_others_on_a_subset_table(rng, copies):
    """A table queried for some points, in any order, gives those points'
    rows of the whole table, crowded-out copies included."""
    base = rng.integers(0, 5, (120, 3)).astype(float)
    pts = np.concatenate([base, np.repeat(base[:1], copies, axis=0)])
    ids = np.concatenate([rng.choice(120, 40, replace=False),
                          np.arange(120, len(pts))[::-1]])
    for k in (1, 4, 16):
        whole_idx, whole_dist = nearest_others(*cross_knn(pts, pts, k + 1))
        idx, dist = nearest_others(*cross_knn(pts[ids], pts, k + 1), ids)
        assert np.array_equal(idx, whole_idx[ids])
        assert np.array_equal(dist, whole_dist[ids])


def test_cross_knn_rejects_too_few_refs():
    with pytest.raises(DataError):
        cross_knn(np.zeros((1, 3)), np.zeros((2, 3)), 3)


# ---------------------------------------------------------------------------
# kNN receptive field
# ---------------------------------------------------------------------------

def _walk_cloud(rng, kind):
    if kind == "uniform":
        return rng.uniform(0, 20, (150, 3))
    if kind == "tiny":
        return rng.uniform(0, 5, (7, 3))
    base = rng.integers(0, 5, (150, 3)).astype(float)
    if kind == "lattice":   # 125 cells for 150 points: exact ties and copies
        return base
    # 30 copies of one point: most are crowded out of their own rows
    return np.concatenate([base[:90], np.repeat(base[:1], 30, axis=0), base[90:]])


@pytest.mark.parametrize("kind", ["uniform", "lattice", "crowded", "tiny"])
def test_receptive_field_walk_equals_whole_graph(rng, kind):
    """The on-demand walk gives the whole kNN graph's edges into S_1, in
    the same order with the same features, and the same receptive sets,
    bit for bit, for every k (k >= n - 1 too), depth and output set."""
    pts = _walk_cloud(rng, kind)
    n = len(pts)
    rbf = RbfConfig(n_kernels=6, max_d=8.0)
    for k in (1, 5, 16, n - 1, n + 3):
        whole = build_knn_graph(pts, k, rbf=rbf)
        for out in ([], [0], rng.choice(n, min(n, 4), replace=False),
                    [n - 1, n - 1, 3]):
            for n_layers in range(7):
                want_sets = receptive_sets(whole, out, n_layers)
                graph, sets = knn_receptive_field(pts, out, k, n_layers, rbf=rbf)
                assert len(sets) == len(want_sets) == n_layers + 1
                for got, want in zip(sets, want_sets):
                    assert np.array_equal(got, want)
                into = np.isin(whole.dst, want_sets[1] if n_layers else [])
                assert graph.n_nodes == n
                for name in ("src", "dst", "edge_vec", "edge_scalar"):
                    got, want = getattr(graph, name), getattr(whole, name)[into]
                    assert got.shape == want.shape and np.array_equal(got, want), name


def test_receptive_field_walk_queries_the_rows_of_s1_only(rng, monkeypatch):
    pts = rng.uniform(0, 20, (300, 3))
    queried = []
    real = geometry._knn

    def counted(queries, tree, k):
        queried.append(len(queries))
        return real(queries, tree, k)

    monkeypatch.setattr(geometry, "_knn", counted)
    _, sets = knn_receptive_field(pts, [0, 1], 8, 3)
    assert sum(queried) == len(sets[1]) < len(pts)


def test_receptive_field_walk_rejects_bad_input():
    with pytest.raises(DataError, match="at least 2 points"):
        knn_receptive_field(np.zeros((1, 3)), [0], 4, 2)
    with pytest.raises(DataError, match="non-finite"):
        knn_receptive_field(np.array([[0.0, 0, 0], [np.nan, 0, 0]]), [0], 1, 1)
    with pytest.raises(DataError, match="out of range"):
        knn_receptive_field(np.eye(3), [3], 1, 1)


# ---------------------------------------------------------------------------
# RBF featurization
# ---------------------------------------------------------------------------

def test_rbf_center_hits_one_exactly():
    cfg = RbfConfig(n_kernels=4, max_d=6.0)
    out = rbf_expand(cfg.centers[0], cfg)
    assert out[0] == 1.0


def test_rbf_inverse_width():
    cfg = RbfConfig(n_kernels=3, max_d=10.0)
    d = cfg.centers[1] + 1.0 / np.sqrt(cfg.gamma)
    assert np.isclose(rbf_expand(d, cfg)[1], np.exp(-1.0), atol=1e-12)


def test_rbf_reversed_centers_reverse_output():
    cfg = RbfConfig(n_kernels=5, max_d=8.0)
    rev = RbfConfig(n_kernels=5, max_d=8.0)
    out = rbf_expand(3.3, cfg)
    # mirroring d about the center span reverses the response vector
    mirrored = rbf_expand(cfg.max_d - 3.3, rev)
    assert np.allclose(out, mirrored[::-1], atol=1e-12)


@pytest.mark.parametrize("n_kernels,max_d", [(1, 20.0), (4, 6.0), (16, 20.0)])
def test_rbf_expand_keeps_the_plain_expression_bits(rng, n_kernels, max_d):
    """The in-place expansion gives the bits of exp(-gamma * (d - c) ** 2)
    on random, zero, tiny, large and huge distances and on a scalar."""
    cfg = RbfConfig(n_kernels=n_kernels, max_d=max_d)
    d = np.concatenate([rng.uniform(0, 25, 3000), np.zeros(5), [5e-324, 1e-300],
                        rng.uniform(25, 1e4, 300), [1e150, 1e200, 1e308]])
    with np.errstate(over="ignore"):
        for x in (d, d.reshape(-1, 1, 1), 3.3):
            want = np.exp(-cfg.gamma * (np.asarray(x)[..., None] - cfg.centers) ** 2)
            got = rbf_expand(x, cfg)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 45, allow_nan=False), st.integers(2, 12))
def test_rbf_output_in_unit_interval(d, n_kernels):
    # (0, 1] holds wherever exp does not underflow; distances beyond ~45 A
    # with narrow kernels round to exactly 0 in float64
    out = rbf_expand(d, RbfConfig(n_kernels=n_kernels, max_d=20.0))
    assert out.shape == (n_kernels,)
    assert (out > 0).all() and (out <= 1.0).all()


# ---------------------------------------------------------------------------
# rigid-motion properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_rigid_motion_invariance_and_equivariance(seed):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 12, (80, 3))
    rot = random_rotation(seed + 100)
    if seed % 2:
        rot[:, 0] = -rot[:, 0]  # improper orthogonal transforms count too
    shift = rng.uniform(-30, 30, 3)
    moved = coords @ rot.T + shift

    g1 = build_radius_graph(coords, 6.0)
    g2 = build_radius_graph(moved, 6.0)
    assert edge_set(g1) == edge_set(g2)
    assert np.abs(g2.edge_vec - g1.edge_vec @ rot.T).max() < 1e-9
    d1 = np.linalg.norm(g1.edge_vec, axis=1)
    d2 = np.linalg.norm(g2.edge_vec, axis=1)
    assert np.abs(d1 - d2).max() < 1e-9

    k1 = build_knn_graph(coords, 5)
    k2 = build_knn_graph(moved, 5)
    assert edge_set(k1) == edge_set(k2)
    assert np.abs(k2.edge_vec - k1.edge_vec @ rot.T).max() < 1e-9
