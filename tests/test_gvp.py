import dataclasses
import json
import struct

import numpy as np
import pytest

from conftest import make_coil_protein, random_rotation
from protfit import autodiff as ad
from protfit.autodiff import Parameter, Tensor
from protfit.errors import DataError
from protfit.geometry import (RbfConfig, build_knn_graph, build_radius_graph,
                              cross_knn, rbf_expand)
from protfit.gvp import (Corruption, FitnessModel, GvpParams, GvpState,
                         ModelConfig, MODES, _channel_mix, _layer_norm_scalar,
                         _rescale_vector, _window_mean, fuse_residue_surface,
                         gvp_apply, load_checkpoint, receptive_sets,
                         run_message_passing, save_checkpoint, surface_init)
from protfit.io import ResidueEmbeddings, mask_context_tag
from protfit.surface import SurfaceConfig, SurfacePointCloud, generate_surface, surface_features
from test_autodiff import check

SMALL_MODEL = dict(scalar_dim=10, vector_dim=3, structure_layers=2,
                   surface_layers=2, init_hidden=8, embed_dim=12,
                   rbf_kernels=4, surface_feat_dim=5)


def small_model(mode="s3f", seed=0, **kw):
    cfg = ModelConfig(mode=mode, seed=seed, **{**SMALL_MODEL, **kw})
    return FitnessModel(cfg)


def random_gvp(rng, s_in, v_in, s_out, v_out):
    d_h = max(v_in, v_out)
    return GvpParams(
        w_h=Parameter(rng.standard_normal((d_h, v_in))),
        w_mu=Parameter(rng.standard_normal((v_out, d_h))),
        w_m=Parameter(rng.standard_normal((s_in + d_h, s_out))),
        b_m=Parameter(rng.standard_normal(s_out)),
        w_g=Parameter(rng.standard_normal((s_out, v_out))),
        b_g=Parameter(rng.standard_normal(v_out)))


def make_cloud(protein, seed=0, n_max=96):
    cfg = SurfaceConfig(min_points=32, max_points=n_max, seeds_per_atom=16)
    cloud = generate_surface(protein, cfg, seed=seed)
    return cloud.with_features(surface_features(cloud, cfg))


# ---------------------------------------------------------------------------
# gvp_apply
# ---------------------------------------------------------------------------

def test_channel_mix_of_split_parts_matches_einsum_over_concat(rng):
    w = Parameter(rng.standard_normal((4, 5)))
    v1 = Parameter(rng.standard_normal((6, 3, 2)))
    v2 = Parameter(rng.standard_normal((6, 3, 3)))
    got = _channel_mix(w, [v1, v2])
    want = np.einsum("oi,nxi->nxo", w.data,
                     np.concatenate([v1.data, v2.data], axis=2))
    assert got.shape == (6, 3, 4)
    assert np.abs(got.data - want).max() < 1e-13
    weights = Tensor(rng.standard_normal((6, 3, 4)))

    def fn():
        out = _channel_mix(w, [v1, v2])
        return ad.tsum(out * out * weights)

    check(fn, [w, v1, v2])


def test_gvp_zero_vectors_stay_zero(rng):
    p = random_gvp(rng, 4, 3, 5, 2)
    s = Tensor(rng.standard_normal((6, 4)))
    v = Tensor(np.zeros((6, 3, 3)))
    _, v_out = gvp_apply(p, s, v)
    assert np.array_equal(v_out.data, np.zeros((6, 3, 2)))


def test_gvp_equivariance(rng):
    p = random_gvp(rng, 4, 3, 5, 2)
    s = Tensor(rng.standard_normal((6, 4)))
    v = rng.standard_normal((6, 3, 3))
    rot = random_rotation(3)
    s1, v1 = gvp_apply(p, s, Tensor(v))
    s2, v2 = gvp_apply(p, s, Tensor(rot @ v))
    assert np.abs(s1.data - s2.data).max() < 1e-10
    assert np.abs(v2.data - rot @ v1.data).max() < 1e-10


def test_gvp_jacobian_matches_finite_differences(rng):
    p = random_gvp(rng, 3, 3, 3, 3)
    s = Parameter(rng.standard_normal((4, 3)))
    v = Parameter(rng.standard_normal((4, 3, 3)))

    def run():
        s_out, v_out = gvp_apply(p, s, v)
        return ad.tsum(s_out * s_out) + ad.tsum(v_out * v_out)

    for target in (s, v):
        for q in (s, v):
            q.grad = None
        run().backward()
        analytic = target.grad.copy()
        flat = target.data.ravel()
        fd = np.zeros_like(flat)
        h = 1e-6
        for k in range(flat.size):
            old = flat[k]
            flat[k] = old + h
            up = float(run().data)
            flat[k] = old - h
            fd[k] = (up - float(run().data)) / (2 * h)
            flat[k] = old
        fd = fd.reshape(target.data.shape)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() < 1e-6


# ---------------------------------------------------------------------------
# message passing
# ---------------------------------------------------------------------------

def _random_state(rng, n, d, dv):
    return GvpState(scalar=Tensor(rng.standard_normal((n, d))),
                    vector=Tensor(rng.standard_normal((n, 3, dv))))


def test_zero_edge_graph_is_feedforward_only(rng):
    coords = np.array([[0., 0, 0], [100., 0, 0], [200., 0, 0]])
    graph = build_radius_graph(coords, 1.0, rbf=RbfConfig(n_kernels=4))
    assert graph.n_edges == 0
    model = small_model()
    state = _random_state(rng, 3, 10, 3)
    out = run_message_passing(model.structure_blocks, graph, state,
                              normalize=False)
    scalar, vector = state.scalar, state.vector
    for block in model.structure_blocks:
        fs, fv = gvp_apply(block.feedforward, scalar, vector)
        scalar = scalar + fs
        vector = vector + fv
    assert np.array_equal(out.scalar.data, scalar.data)
    assert np.array_equal(out.vector.data, vector.data)


def test_residual_identity_with_zero_weights(rng):
    model = small_model()
    for name, p in model.params.items():
        if name.startswith(("structure.", "surface.")):
            p.data = np.zeros_like(p.data)
    coords = np.random.default_rng(0).uniform(0, 6, (5, 3))
    graph = build_radius_graph(coords, 8.0, rbf=model.config.rbf)
    state = _random_state(rng, 5, 10, 3)
    out = run_message_passing(model.structure_blocks, graph, state,
                              normalize=False)
    assert np.array_equal(out.scalar.data, state.scalar.data)
    assert np.array_equal(out.vector.data, state.vector.data)


def test_rescale_vector_sets_row_norm_to_sqrt_channels(rng):
    out = _rescale_vector(Tensor(rng.standard_normal((5, 3, 7)))).data
    assert np.abs(np.sqrt((out ** 2).sum(axis=(1, 2))) - np.sqrt(7)).max() < 1e-8


def test_message_passing_rigid_motion(rng):
    coords = np.random.default_rng(1).uniform(0, 8, (7, 3))
    rot = random_rotation(8)
    shift = np.array([4.0, 5.0, -6.0])
    model = small_model()
    state = _random_state(rng, 7, 10, 3)
    for normalize in (False, True):
        g1 = build_radius_graph(coords, 10.0, rbf=model.config.rbf)
        g2 = build_radius_graph(coords @ rot.T + shift, 10.0, rbf=model.config.rbf)
        rotated = GvpState(scalar=state.scalar,
                           vector=Tensor(rot @ state.vector.data))
        o1 = run_message_passing(model.structure_blocks, g1, state, normalize)
        o2 = run_message_passing(model.structure_blocks, g2, rotated, normalize)
        assert np.abs(o1.scalar.data - o2.scalar.data).max() < 1e-8
        assert np.abs(o2.vector.data - rot @ o1.vector.data).max() < 1e-8


def test_two_node_block_matches_hand_evaluation(rng):
    """Straight-line numpy evaluation of one message+feedforward block."""
    d, dv, nk = 4, 2, 3
    cfg = RbfConfig(n_kernels=nk, max_d=6.0)
    coords = np.array([[0., 0, 0], [2., 0, 0]])
    graph = build_radius_graph(coords, 5.0, rbf=cfg)
    msg = random_gvp(rng, d + nk, dv + 1, d, dv)
    ff = random_gvp(rng, d, dv, d, dv)

    class Block:
        message = msg
        feedforward = ff

    s0 = rng.standard_normal((2, d))
    v0 = rng.standard_normal((2, 3, dv))
    out = run_message_passing([Block()], graph,
                              GvpState(Tensor(s0), Tensor(v0)),
                              normalize=False)

    def hand_gvp(p, s_in, v_in):
        vh = np.einsum("oi,nxi->nxo", p.w_h.data, v_in)
        norms = np.sqrt((vh ** 2).sum(axis=1) + 1e-8)
        lin = np.concatenate([s_in, norms], axis=1) @ p.w_m.data + p.b_m.data
        s_out = np.maximum(lin, 0.0)
        vmu = np.einsum("oi,nxi->nxo", p.w_mu.data, vh)
        gate = 1.0 / (1.0 + np.exp(-(s_out @ p.w_g.data + p.b_g.data)))
        return s_out, vmu * gate[:, None, :]

    # edges sorted by (dst, src): (1,0) then (0,1)
    s_hand = s0.copy()
    v_hand = v0.copy()
    src = [1, 0]
    dst = [0, 1]
    msgs_s = np.zeros_like(s0)
    msgs_v = np.zeros_like(v0)
    for e in range(2):
        delta = coords[src[e]] - coords[dst[e]]
        edge_s = rbf_expand(np.linalg.norm(delta), cfg)
        s_in = np.concatenate([s0[src[e]], edge_s])[None, :]
        v_in = np.concatenate([v0[src[e]], delta[:, None]], axis=1)[None, :]
        ms, mv = hand_gvp(msg, s_in, v_in)
        msgs_s[dst[e]] += ms[0]
        msgs_v[dst[e]] += mv[0]
    s_hand = s_hand + msgs_s  # |N(i)| = 1
    v_hand = v_hand + msgs_v
    fs, fv = hand_gvp(ff, s_hand, v_hand)
    s_hand = s_hand + fs
    v_hand = v_hand + fv
    assert np.abs(out.scalar.data - s_hand).max() < 1e-12
    assert np.abs(out.vector.data - v_hand).max() < 1e-12


# ---------------------------------------------------------------------------
# surface init and fusion
# ---------------------------------------------------------------------------

def test_surface_init_zero_inner_reduces_to_outer(rng):
    model = small_model()
    for name in ("surface_init.inner1.w", "surface_init.inner1.b",
                 "surface_init.inner2.w", "surface_init.inner2.b"):
        model.params[name].data = np.zeros_like(model.params[name].data)
    n_s, d = 7, model.config.scalar_dim
    feats = rng.standard_normal((n_s, 5))
    h0 = Tensor(np.zeros((4, d)))
    nn_idx = rng.integers(0, 4, (n_s, 3))
    nn_dist = rng.uniform(0, 5, (n_s, 3))
    out = surface_init(model.params, h0, feats, nn_idx, nn_dist,
                       model.config.vector_dim)
    w1 = model.params["surface_init.outer1.w"].data
    b1 = model.params["surface_init.outer1.b"].data
    w2 = model.params["surface_init.outer2.w"].data
    b2 = model.params["surface_init.outer2.b"].data
    x = np.concatenate([feats, np.zeros((n_s, d))], axis=1)
    expected = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    assert np.abs(out.scalar.data - expected).max() < 1e-12
    assert np.array_equal(out.vector.data,
                          np.zeros((n_s, 3, model.config.vector_dim)))


def test_surface_init_duplicate_residue_deterministic(rng):
    model = small_model()
    coords = np.array([[0., 0, 0], [1., 0, 0], [1., 0, 0], [5., 5, 5]])
    pts = rng.uniform(0, 2, (6, 3))
    idx1, d1 = cross_knn(pts, coords, 3)
    idx2, d2 = cross_knn(pts, coords, 3)
    assert np.array_equal(idx1, idx2)
    h0 = Tensor(rng.standard_normal((4, model.config.scalar_dim)))
    feats = rng.standard_normal((6, 5))
    a = surface_init(model.params, h0, feats, idx1, d1, 3)
    b = surface_init(model.params, h0, feats, idx2, d2, 3)
    assert np.array_equal(a.scalar.data, b.scalar.data)


def test_surface_init_hand_evaluation(rng):
    """Five points, four residues, random weights vs direct formula."""
    model = small_model()
    d = model.config.scalar_dim
    h0 = rng.standard_normal((4, d))
    feats = rng.standard_normal((5, 5))
    nn_idx = np.array([[0, 1, 2], [1, 2, 3], [3, 0, 1], [2, 1, 0], [0, 3, 2]])
    nn_dist = rng.uniform(0, 8, (5, 3))
    out = surface_init(model.params, Tensor(h0), feats, nn_idx,
                       nn_dist, model.config.vector_dim)
    p = {k: model.params[k].data for k in model.params}
    expected = np.zeros((5, d))
    for i in range(5):
        pooled = np.zeros(d)
        for j in range(3):
            x = np.concatenate([h0[nn_idx[i, j]], [nn_dist[i, j]]])
            z = np.maximum(x @ p["surface_init.inner1.w"]
                           + p["surface_init.inner1.b"], 0.0)
            pooled += z @ p["surface_init.inner2.w"] + p["surface_init.inner2.b"]
        pooled /= 3.0
        y = np.concatenate([feats[i], pooled])
        z = np.maximum(y @ p["surface_init.outer1.w"]
                       + p["surface_init.outer1.b"], 0.0)
        expected[i] = z @ p["surface_init.outer2.w"] + p["surface_init.outer2.b"]
    assert np.abs(out.scalar.data - expected).max() < 1e-10


def test_fuse_zero_surface_leaves_residues(rng):
    h_res = _random_state(rng, 6, 10, 3)
    h_surf = GvpState(Tensor(np.zeros((40, 10))), Tensor(np.zeros((40, 3, 3))))
    idx = np.random.default_rng(0).integers(0, 40, (6, 20))
    out = fuse_residue_surface(h_res, h_surf, idx)
    assert np.array_equal(out.scalar.data, h_res.scalar.data)
    assert np.array_equal(out.vector.data, h_res.vector.data)


def test_fuse_constant_surface_adds_constant(rng):
    h_res = _random_state(rng, 5, 10, 3)
    const = rng.standard_normal(10)
    h_surf = GvpState(Tensor(np.tile(const, (30, 1))),
                      Tensor(np.zeros((30, 3, 3))))
    idx = np.random.default_rng(0).integers(0, 30, (5, 20))
    out = fuse_residue_surface(h_res, h_surf, idx)
    assert np.abs(out.scalar.data - (h_res.scalar.data + const)).max() < 1e-12


def test_fuse_matches_brute_force(rng):
    pts = rng.uniform(0, 10, (40, 3))
    coords = rng.uniform(0, 10, (6, 3))
    h_res = _random_state(rng, 6, 10, 3)
    h_surf = _random_state(rng, 40, 10, 3)
    idx, _ = cross_knn(coords, pts, 20)
    out = fuse_residue_surface(h_res, h_surf, idx)
    for i in range(6):
        d = np.linalg.norm(pts - coords[i], axis=1)
        order = sorted(range(40), key=lambda j: (d[j], j))[:20]
        mean_s = h_surf.scalar.data[order].mean(axis=0)
        mean_v = h_surf.vector.data[order].mean(axis=0)
        assert np.abs(out.scalar.data[i] - (h_res.scalar.data[i] + mean_s)).max() < 1e-12
        assert np.abs(out.vector.data[i] - (h_res.vector.data[i] + mean_v)).max() < 1e-12


# ---------------------------------------------------------------------------
# toy embedder window
# ---------------------------------------------------------------------------

def _dense_window_mixer(n, halfwidth):
    """Row i holds 1/|window| on the clipped window i-hw..i+hw."""
    mix = np.zeros((n, n))
    for i in range(n):
        lo, hi = max(0, i - halfwidth), min(n, i + halfwidth + 1)
        mix[i, lo:hi] = 1.0 / (hi - lo)
    return mix


@pytest.mark.parametrize("n,halfwidth", [(1, 2), (3, 2), (5, 2), (6, 2), (17, 2),
                                         (7, 0), (4, 5), (9, 3)])
def test_window_mean_matches_dense_mixer(rng, n, halfwidth):
    table = Parameter(rng.standard_normal((21, 4)))
    ids = rng.integers(0, 6, n)  # few types, so rows repeat
    got = _window_mean(table, ids, halfwidth)
    want = _dense_window_mixer(n, halfwidth) @ table.data[ids]
    assert got.shape == (n, 4)
    assert np.abs(got.data - want).max() < 1e-14
    weights = Tensor(rng.standard_normal((n, 4)))

    def fn():
        out = _window_mean(table, ids, halfwidth)
        return ad.tsum(out * out * weights)

    check(fn, [table])


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("embed_dim", 0), ("scalar_dim", 0), ("scalar_dim", -5), ("vector_dim", 0),
    ("init_hidden", 0), ("surface_feat_dim", 0), ("surface_knn", 0),
    ("init_neighbors", 0), ("fuse_neighbors", 0), ("rbf_kernels", 0),
    ("structure_layers", -1), ("surface_layers", -1), ("window_halfwidth", -1),
    ("radius_cutoff", 0.0), ("radius_cutoff", -3.0), ("radius_cutoff", float("nan"))])
def test_config_rejects_sizes_that_cannot_run(field, value):
    with pytest.raises(DataError, match=field):
        ModelConfig(**{field: value})


def test_config_allows_zero_layers_and_window():
    protein = make_coil_protein(8, seed=4)
    model = small_model(structure_layers=0, surface_layers=0, window_halfwidth=0)
    rows = model.forward_logits(protein, [1, 6], cloud=make_cloud(protein))
    assert rows.shape == (2, 20) and np.isfinite(rows.data).all()


# ---------------------------------------------------------------------------
# forward_logits
# ---------------------------------------------------------------------------

def test_zero_head_gives_uniform_rows():
    protein = make_coil_protein(10, seed=1)
    model = small_model(mode="s2f")
    model.params["head.w"].data = np.zeros_like(model.params["head.w"].data)
    model.params["head.b"].data = np.zeros_like(model.params["head.b"].data)
    rows = model.forward_logits(protein, [2, 7], mode="s2f").data
    assert np.abs(rows - np.log(1.0 / 20.0)).max() < 1e-12


def test_s3f_with_zero_surface_equals_s2f_bitwise():
    protein = make_coil_protein(12, seed=2)
    cloud = make_cloud(protein, seed=0)
    model = small_model(mode="s3f", seed=4)
    for name, p in model.params.items():
        if name.startswith(("surface.", "surface_init.")):
            p.data = np.zeros_like(p.data)
    a = model.forward_logits(protein, [3, 5], mode="s3f", cloud=cloud).data
    b = model.forward_logits(protein, [3, 5], mode="s2f").data
    assert np.array_equal(a, b)


def test_rows_normalize(rng):
    protein = make_coil_protein(8, seed=3)
    cloud = make_cloud(protein, seed=1)
    model = small_model(mode="s3f", seed=5)
    rows = model.forward_logits(protein, [0, 4, 7], cloud=cloud).data
    assert np.abs(np.exp(rows).sum(axis=1) - 1.0).max() < 1e-12


def test_permutation_consistency_file_mode(rng):
    n = 9
    protein = make_coil_protein(n, seed=6)
    emb_rows = rng.standard_normal((n, 12))
    model = small_model(mode="s2f", embedder="file", seed=7)
    masked = [1, 4]
    emb = ResidueEmbeddings(emb_rows, context_tag=mask_context_tag(masked))
    base = model.forward_logits(protein, masked, embeddings=emb).data

    perm = np.random.default_rng(0).permutation(n)
    inv = np.argsort(perm)
    permuted = dataclasses.replace(protein, sequence=protein.sequence[perm],
                                   ca_coords=protein.ca_coords[perm])
    masked_p = sorted(inv[m] for m in masked)
    emb_p = ResidueEmbeddings(emb_rows[perm],
                              context_tag=mask_context_tag(masked_p))
    out = model.forward_logits(permuted, masked_p, embeddings=emb_p).data
    # rows come back sorted by new position; map them to the original sites
    order = np.argsort([inv[m] for m in masked])
    assert np.abs(out - base[order]).max() < 1e-9


def test_ablation_consistency(rng):
    protein = make_coil_protein(10, seed=8)
    cloud_a = make_cloud(protein, seed=0)
    cloud_b = make_cloud(protein, seed=9)
    model = small_model(mode="s3f", seed=9)
    s2f_a = model.forward_logits(protein, [2], mode="s2f", cloud=cloud_a).data
    s2f_b = model.forward_logits(protein, [2], mode="s2f", cloud=cloud_b).data
    assert np.array_equal(s2f_a, s2f_b)

    other_graph = build_radius_graph(np.random.default_rng(1).uniform(0, 9, (10, 3)),
                                     10.0, rbf=model.config.rbf)
    surf_a = model.forward_logits(protein, [2], mode="surf_only", cloud=cloud_a).data
    surf_b = model.forward_logits(protein, [2], mode="surf_only", cloud=cloud_a,
                                  structure_graph=other_graph).data
    assert np.array_equal(surf_a, surf_b)


def test_context_tag_guard():
    protein = make_coil_protein(6, seed=10)
    model = small_model(mode="s2f", embedder="file", seed=11)
    rows = np.random.default_rng(2).standard_normal((6, 12))
    good = ResidueEmbeddings(rows, context_tag=mask_context_tag([2, 3]))
    model.forward_logits(protein, [2, 3], embeddings=good)
    bad = ResidueEmbeddings(rows, context_tag=mask_context_tag([1]))
    with pytest.raises(DataError, match="context tag"):
        model.forward_logits(protein, [2, 3], embeddings=bad)
    unmasked = ResidueEmbeddings(rows, context_tag="")
    with pytest.raises(DataError, match="context tag"):
        model.forward_logits(protein, [2, 3], embeddings=unmasked)
    # the training path substitutes trainable rows instead
    model.forward_logits(protein, [2, 3], embeddings=unmasked,
                         corruption=Corruption(protein.sequence, np.array([2, 3])))


def test_mode_capability_checks():
    protein = make_coil_protein(6, seed=12)
    s2f = small_model(mode="s2f")
    with pytest.raises(DataError, match="cannot run"):
        s2f.forward_logits(protein, [1], mode="s3f")
    surf = small_model(mode="surf_only")
    with pytest.raises(DataError, match="cannot run"):
        surf.forward_logits(protein, [1], mode="s2f")
    with pytest.raises(DataError, match="cloud"):
        small_model(mode="s3f").forward_logits(protein, [1], mode="s3f")


def test_backward_loss_examples(rng):
    protein = make_coil_protein(8, seed=13)
    model = small_model(mode="s2f", seed=14)
    # near one-hot logits drive the loss to zero
    model.params["head.w"].data = np.zeros_like(model.params["head.w"].data)
    bias = np.zeros(20)
    target = int(protein.sequence[3])
    bias[target] = 50.0
    model.params["head.b"].data = bias
    rows = model.forward_logits(protein, [3], mode="s2f")
    loss = model.loss(rows, [target])
    assert float(loss.data) < 1e-8

    # doubling the upstream gradient doubles every parameter gradient
    model2 = small_model(mode="s2f", seed=15)
    rows = model2.forward_logits(protein, [1, 5], mode="s2f")
    loss = model2.loss(rows, protein.sequence[[1, 5]])
    loss.backward()
    g1 = {k: p.grad.copy() for k, p in model2.params.items() if p.grad is not None}
    model2.zero_grad()
    rows = model2.forward_logits(protein, [1, 5], mode="s2f")
    loss = model2.loss(rows, protein.sequence[[1, 5]])
    loss.backward(grad=np.array(2.0))
    for k, g in g1.items():
        assert np.array_equal(model2.params[k].grad, 2.0 * g)

    with pytest.raises(DataError):
        model2.loss(rows, [])


# ---------------------------------------------------------------------------
# receptive-field passes
# ---------------------------------------------------------------------------

def _full_message_passing(blocks, graph, state, normalize):
    """Whole-graph message passing as it ran before receptive sets: every
    block on every node and every edge."""
    scalar, vector = state.scalar, state.vector
    n = graph.n_nodes
    if graph.n_edges:
        edge_s = Tensor(graph.edge_scalar)
        edge_v = Tensor(graph.edge_vec[:, :, None])
        inv_deg = 1.0 / np.maximum(graph.in_degree(), 1)
    for block in blocks:
        if graph.n_edges:
            msg_s, msg_v = gvp_apply(block.message,
                                     [ad.gather(scalar, graph.src), edge_s],
                                     [ad.gather(vector, graph.src), edge_v])
            scalar = scalar + ad.segment_sum(msg_s, graph.dst, n) * inv_deg[:, None]
            vector = vector + ad.segment_sum(msg_v, graph.dst, n) * inv_deg[:, None, None]
        ff_s, ff_v = gvp_apply(block.feedforward, scalar, vector)
        scalar = scalar + ff_s
        vector = vector + ff_v
        if normalize:
            scalar = _layer_norm_scalar(scalar)
            vector = _rescale_vector(vector)
    return GvpState(scalar=scalar, vector=vector)


def _full_forward(model, protein, masked, mode, cloud):
    """Whole-graph forward as it ran before receptive sets: both stacks on
    every residue and every surface point, masked rows taken at the end."""
    cfg = model.config
    masked = np.asarray(sorted(set(masked)), dtype=np.int64)
    h0 = model.embed(protein, masked)
    state0 = GvpState(scalar=h0, vector=Tensor(
        np.zeros((protein.n_residues, 3, cfg.vector_dim))))
    h_res = state0
    if mode in ("s2f", "s3f"):
        graph = build_radius_graph(protein.ca_coords, cfg.radius_cutoff, rbf=cfg.rbf)
        h_res = _full_message_passing(model.structure_blocks, graph, state0,
                                      cfg.normalize)
    if mode in ("s3f", "surf_only"):
        nn_idx, nn_dist = cross_knn(cloud.points, protein.ca_coords,
                                    cfg.init_neighbors)
        h_surf0 = surface_init(model.params, h0, cloud.features, nn_idx, nn_dist,
                               cfg.vector_dim)
        sgraph = build_knn_graph(cloud.points, cfg.surface_knn, rbf=cfg.rbf)
        h_surf = _full_message_passing(model.surface_blocks, sgraph, h_surf0,
                                       cfg.normalize)
        fuse_idx, _ = cross_knn(protein.ca_coords, cloud.points,
                                min(cfg.fuse_neighbors, cloud.n_points))
        h_res = fuse_residue_surface(h_res, h_surf, fuse_idx)
    rows = ad.gather(h_res.scalar, masked)
    return ad.log_softmax(ad.linear_split([rows], model.params["head.w"],
                                          model.params["head.b"]))


def _bfs_sets(n_nodes, src, dst, out_nodes, n_layers):
    """Receptive sets by a plain walk over the edge list."""
    sets = [sorted(set(int(v) for v in out_nodes))]
    for _ in range(n_layers):
        wanted = set(sets[0])
        grown = set(wanted)
        for s, d in zip(src.tolist(), dst.tolist()):
            if d in wanted:
                grown.add(s)
        sets.insert(0, sorted(grown))
    return sets


def _graph_with_isolated_nodes(seed):
    """A radius graph over clustered points plus far-away points with no
    edges at all."""
    rng = np.random.default_rng(seed)
    coords = np.concatenate([rng.uniform(0, 12, (30, 3)),
                             1000.0 * np.arange(1, 5)[:, None] * np.ones((1, 3))])
    coords = coords[rng.permutation(len(coords))]
    return build_radius_graph(coords, 4.0, rbf=RbfConfig(n_kernels=4))


@pytest.mark.parametrize("seed", range(4))
def test_receptive_sets_match_bfs(seed):
    graph = _graph_with_isolated_nodes(seed)
    isolated = np.flatnonzero(np.bincount(np.concatenate([graph.src, graph.dst]),
                                          minlength=graph.n_nodes) == 0)
    assert len(isolated) >= 4
    rng = np.random.default_rng(seed)
    outs = [[], [int(isolated[0])], rng.choice(graph.n_nodes, 3, replace=False),
            np.concatenate([isolated[:2], rng.choice(graph.n_nodes, 5)])]
    for out in outs:
        for n_layers in (0, 1, 2, 5):
            sets = receptive_sets(graph, out, n_layers)
            expected = _bfs_sets(graph.n_nodes, graph.src, graph.dst, out, n_layers)
            assert len(sets) == n_layers + 1
            assert [s.tolist() for s in sets] == expected
            assert all(s.dtype == np.int64 for s in sets)
    with pytest.raises(DataError, match="out of range"):
        receptive_sets(graph, [graph.n_nodes], 1)


@pytest.mark.parametrize("normalize", [False, True])
def test_message_passing_on_node_sets_matches_full_rows(rng, normalize):
    graph = _graph_with_isolated_nodes(7)
    isolated = np.flatnonzero(graph.in_degree() == 0)
    model = small_model()
    state = _random_state(rng, graph.n_nodes, 10, 3)
    full = _full_message_passing(model.structure_blocks, graph, state, normalize)
    assert np.array_equal(
        run_message_passing(model.structure_blocks, graph, state, normalize).scalar.data,
        full.scalar.data)
    for out in ([], [3], [0, 5, 6, int(isolated[0])]):
        sets = receptive_sets(graph, out, len(model.structure_blocks))
        part = GvpState(scalar=ad.gather(state.scalar, sets[0]),
                        vector=ad.gather(state.vector, sets[0]))
        got = run_message_passing(model.structure_blocks, graph, part, normalize, sets)
        assert got.scalar.shape == (len(sets[-1]), 10)
        assert np.abs(got.scalar.data - full.scalar.data[sets[-1]]).max(initial=0) < 1e-13
        assert np.abs(got.vector.data - full.vector.data[sets[-1]]).max(initial=0) < 1e-13
    with pytest.raises(DataError, match="node sets"):
        run_message_passing(model.structure_blocks, graph, state, normalize,
                            sets[1:])


def _grads(model, log_probs, weights):
    model.zero_grad()
    ad.tsum(log_probs * Tensor(weights)).backward()
    return {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
            for name, p in model.params.items()}


@pytest.fixture(scope="module")
def rf_setup():
    protein = make_coil_protein(40, seed=21)
    return protein, make_cloud(protein, seed=3, n_max=300)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("masked", [[7], [3, 20, 36], [10, 11, 13],
                                    [1, 8, 15, 22, 29, 36]])
def test_forward_and_gradients_match_full_graph_oracle(rf_setup, mode, masked):
    """Receptive-field passes give the whole-graph pass's log-probs and
    every parameter gradient, up to rounding."""
    protein, cloud = rf_setup
    model = small_model(mode="s3f", seed=22, head_init=1.0)
    weights = np.random.default_rng(len(masked)).standard_normal((len(masked), 20))
    got = model.forward_logits(protein, masked, mode=mode, cloud=cloud)
    want = _full_forward(model, protein, masked, mode, cloud)
    assert got.shape == (len(masked), 20)
    assert np.abs(got.data - want.data).max() < 1e-13
    got_grads = _grads(model, got, weights)
    want_grads = _grads(model, want, weights)
    for name, g in want_grads.items():
        scale = max(np.abs(g).max(), 1e-300)
        assert np.abs(got_grads[name] - g).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("mode", MODES)
def test_empty_masked_set_gives_no_rows(rf_setup, mode):
    protein, cloud = rf_setup
    model = small_model(mode="s3f", seed=22)
    rows = model.forward_logits(protein, [], mode=mode, cloud=cloud)
    assert rows.shape == (0, 20)
    assert _full_forward(model, protein, [], mode, cloud).shape == (0, 20)


def test_masked_pass_runs_on_receptive_field_only(monkeypatch):
    """A 3-site pass on a 150-residue coil must run the last surface block on
    the masked residues' fuse points only and start from fewer points than
    the cloud, and the structure stack must start from fewer residues than
    the protein."""
    from protfit import gvp
    protein = make_coil_protein(150, seed=3)
    cfg = SurfaceConfig()
    cloud = generate_surface(protein, cfg, seed=0)
    cloud = cloud.with_features(surface_features(cloud, cfg))
    model = small_model(mode="s3f", structure_layers=5, surface_layers=5)
    calls = []
    real = gvp.run_message_passing

    def recording(blocks, graph, state, normalize=True, node_sets=None):
        out = real(blocks, graph, state, normalize, node_sets)
        calls.append((blocks, graph, node_sets, out))
        return out

    monkeypatch.setattr(gvp, "run_message_passing", recording)
    masked = [20, 75, 130]
    model.forward_logits(protein, masked, cloud=cloud)
    (s_blocks, s_graph, s_sets, s_out), (f_blocks, f_graph, f_sets, f_out) = calls
    assert s_blocks is model.structure_blocks and f_blocks is model.surface_blocks

    assert s_sets[-1].tolist() == masked and s_out.scalar.shape[0] == 3
    assert len(s_sets[0]) < protein.n_residues

    fuse_idx, _ = cross_knn(protein.ca_coords[masked], cloud.points,
                            model.config.fuse_neighbors)
    fuse_points = np.unique(fuse_idx)
    assert np.array_equal(f_sets[-1], fuse_points)
    assert f_out.scalar.shape[0] == len(fuse_points)
    assert f_graph.n_nodes == cloud.n_points
    assert len(f_sets[0]) < cloud.n_points


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    model = small_model(mode="s3f", seed=20)
    path = tmp_path / "m.s3fc"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    assert again.config == model.config
    for name, p in model.params.items():
        assert np.array_equal(again.params[name].data,
                              p.data.astype(np.float32).astype(np.float64))


def test_s2f_checkpoint_has_no_surface_tensors(tmp_path):
    model = small_model(mode="s2f", seed=21)
    assert not any(n.startswith(("surface.", "surface_init."))
                   for n in model.params)
    path = tmp_path / "m.s3fc"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    assert set(again.params) == set(model.params)


def _rewrite_config(path, edit):
    """Apply ``edit`` to the config JSON stored in an S3FC file."""
    blob = path.read_bytes()
    version, cfg_len = struct.unpack("<II", blob[4:12])
    fields = json.loads(blob[12:12 + cfg_len])
    edit(fields)
    cfg = json.dumps(fields, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:4] + struct.pack("<II", version, len(cfg)) + cfg
                     + blob[12 + cfg_len:])


def test_checkpoint_with_fuse_scalar_only_key(tmp_path):
    """Checkpoints store ``"fuse_scalar_only": false`` from when that knob
    existed: false loads and scores as without the key, true cannot run."""
    protein = make_coil_protein(12, seed=2)
    cloud = make_cloud(protein, seed=0)
    path = tmp_path / "m.s3fc"
    save_checkpoint(small_model(mode="s3f", seed=23), path)
    plain = load_checkpoint(path)
    _rewrite_config(path, lambda fields: fields.update(fuse_scalar_only=False))
    old = load_checkpoint(path)
    assert old.config == plain.config
    assert np.array_equal(old.forward_logits(protein, [3, 8], cloud=cloud).data,
                          plain.forward_logits(protein, [3, 8], cloud=cloud).data)
    _rewrite_config(path, lambda fields: fields.update(fuse_scalar_only=True))
    with pytest.raises(DataError, match="fuse_scalar_only"):
        load_checkpoint(path)


@pytest.mark.parametrize("blob", ['["s3f"]', '"s3f"', "3", "null"])
def test_config_json_must_be_an_object(blob):
    with pytest.raises(DataError, match="JSON object"):
        ModelConfig.from_json(blob)


def test_checkpoint_magic_guard(tmp_path):
    path = tmp_path / "m.s3fc"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(path)


TINY_MODEL = dict(mode="s2f", scalar_dim=2, vector_dim=1, structure_layers=1,
                  embed_dim=2, rbf_kernels=2)


def test_checkpoint_cut_at_any_byte_is_data_error(tmp_path):
    path = tmp_path / "m.s3fc"
    save_checkpoint(FitnessModel(ModelConfig(**TINY_MODEL)), path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.s3fc"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(DataError):
            load_checkpoint(cut)
    cut.write_bytes(blob + b"\0")
    with pytest.raises(DataError, match="after the last tensor"):
        load_checkpoint(cut)


def test_checkpoint_missing_tensor_is_data_error(tmp_path):
    model = FitnessModel(ModelConfig(**TINY_MODEL))
    del model.params["head.b"]
    path = tmp_path / "m.s3fc"
    save_checkpoint(model, path)
    with pytest.raises(DataError, match="missing tensors.*head.b"):
        load_checkpoint(path)
