import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rotation
from protfit.errors import DataError
from protfit.geometry import (RbfConfig, build_knn_graph, build_radius_graph,
                              cross_knn, rbf_expand)


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
    assert g.in_degree().tolist() == [1, 0, 1]


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
    assert (g.in_degree() == 16).all()


def test_knn_k_larger_than_n():
    coords = np.array([[0., 0, 0], [1., 0, 0], [2., 0, 0]])
    g = build_knn_graph(coords, 10)
    assert (g.in_degree() == 2).all()


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


def test_cross_knn_rejects_too_few_refs():
    with pytest.raises(DataError):
        cross_knn(np.zeros((1, 3)), np.zeros((2, 3)), 3)


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
