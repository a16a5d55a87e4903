import dataclasses
import json
import struct
import warnings

import numpy as np
import pytest

from conftest import (make_coil_protein, overwrite_checkpoint_value,
                      random_rotation)
from oracle import (channel_mix, check, full_forward, full_message_passing,
                    gvp_apply, layer_norm_scalar, rescale_vector)
from protfit import autodiff as ad
from protfit.autodiff import Parameter, Tensor
from protfit.errors import DataError
from protfit import geometry, gvp
from protfit.geometry import (RbfConfig, _finalize_graph, build_knn_graph,
                              build_radius_graph, cross_knn, rbf_expand)
from protfit.gvp import (Corruption, FitnessModel, GvpBlock, GvpParams, GvpState,
                         ModelConfig, MODES, _block_step, _window_mean,
                         fuse_residue_surface, load_checkpoint, receptive_sets,
                         run_message_passing, save_checkpoint, surface_init)
from protfit.io import ResidueEmbeddings, mask_context_tag
from protfit.surface import (SurfaceConfig, SurfacePointCloud, excise_near_residue,
                             generate_surface, surface_features)

SMALL_MODEL = dict(scalar_dim=10, vector_dim=3, structure_layers=2,
                   surface_layers=2, init_hidden=8, embed_dim=12)


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
# tape-built GVP: the oracle of the block step
# ---------------------------------------------------------------------------

def test_channel_mix_of_split_parts_matches_einsum_over_concat(rng):
    w = Parameter(rng.standard_normal((4, 5)))
    v1 = Parameter(rng.standard_normal((6, 3, 2)))
    v2 = Parameter(rng.standard_normal((6, 3, 3)))
    got = channel_mix(w, [v1, v2])
    want = np.einsum("oi,nxi->nxo", w.data,
                     np.concatenate([v1.data, v2.data], axis=2))
    assert got.shape == (6, 3, 4)
    assert np.abs(got.data - want).max() < 1e-13
    weights = Tensor(rng.standard_normal((6, 3, 4)))

    def fn():
        out = channel_mix(w, [v1, v2])
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
    model = small_model()
    graph = build_radius_graph(coords, 1.0, rbf=model.config.rbf)
    assert graph.n_edges == 0
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
    graph = build_knn_graph(rng.standard_normal((5, 3)), 2, rbf=RbfConfig(n_kernels=2))
    block = GvpBlock(message=random_gvp(rng, 4 + 2, 7 + 1, 4, 7),
                     feedforward=random_gvp(rng, 4, 7, 4, 7))
    state = _random_state(rng, 5, 4, 7)
    out = run_message_passing([block], graph, state).vector.data
    assert np.abs(np.sqrt((out ** 2).sum(axis=(1, 2))) - np.sqrt(7)).max() < 1e-8


def test_message_passing_rigid_motion(rng, monkeypatch):
    """A rigid motion of the points, with the input vectors rotated, leaves
    the output scalars and rotates the output vectors, also when the block
    step runs its edges in many small chunks."""
    coords = np.random.default_rng(1).uniform(0, 8, (7, 3))
    rot = random_rotation(8)
    shift = np.array([4.0, 5.0, -6.0])
    model = small_model()
    state = _random_state(rng, 7, 10, 3)
    for chunk, normalize in ((3, False), (3, True), (512, False), (512, True)):
        monkeypatch.setattr(gvp, "_MESSAGE_CHUNK", chunk)
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
# fused message step
# ---------------------------------------------------------------------------

# (node count, (src, dst) edges, output rows) per case; the step runs with
# _MESSAGE_CHUNK = 3, so longer edge lists cross chunk boundaries
STEP_CASES = {
    "repeats-and-unused-rows": (7, [(0, 1), (2, 1), (2, 4), (0, 4), (5, 4), (2, 5),
                                    (4, 0), (0, 6)], None),
    "one-row-repeated": (5, [(4, 0), (4, 1), (4, 2), (4, 3)], None),
    "empty": (4, [], None),
    "one-edge": (4, [(3, 1)], None),
    "chunk-boundaries": (8, [(s, d) for d in range(8) for s in range(8)
                             if 0 < (s - d) % 8 <= 1 + d % 3], [0, 2, 3, 5, 7]),
    "in-degree-over-chunk": (9, [(s, 4) for s in range(9) if s != 4]
                             + [(4, 0), (4, 8)], [0, 4, 8]),
}


def _step_case(rng, name, n_rbf=3):
    """(graph, step arguments) of a STEP_CASES entry over random points,
    with every node an input row."""
    n, pairs, rows_out = STEP_CASES[name]
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    graph = _finalize_graph(rng.standard_normal((n, 3)) * 3, pairs[:, 0],
                            pairs[:, 1], RbfConfig(n_kernels=n_rbf))
    rows_out = np.arange(n) if rows_out is None else np.array(rows_out)
    edges = np.flatnonzero(np.isin(graph.dst, rows_out))
    return graph, (edges, graph.src[edges],
                   np.searchsorted(rows_out, graph.dst[edges]), rows_out)


def _step_oracle(p, scalar, vector, graph, edges, src, dst, keep):
    """The message half of a block as it ran before the fused step: the
    message GVP on gathered edge rows, then sorted-segment means."""
    s, v = ad.gather(scalar, keep), ad.gather(vector, keep)
    if not len(edges):
        return s, v
    inv_deg = 1.0 / np.maximum(np.bincount(dst, minlength=len(keep)), 1)
    msg_s, msg_v = gvp_apply(p, [ad.gather(scalar, src), Tensor(graph.edge_scalar[edges])],
                             [ad.gather(vector, src), Tensor(graph.edge_vec[edges, :, None])])
    return (s + ad.segment_sum(msg_s, dst, len(keep)) * inv_deg[:, None],
            v + ad.segment_sum(msg_v, dst, len(keep)) * inv_deg[:, None, None])


def _step_parts(packed, d, dv):
    return ad.columns(packed, 0, (d,)), ad.columns(packed, d, (3, dv))


def _zero_feedforward(d, dv):
    shapes = dict(w_h=(dv, dv), w_mu=(dv, dv), w_m=(d + dv, d), b_m=d, w_g=(d, dv),
                  b_g=dv)
    return GvpParams(**{k: Tensor(np.zeros(shape)) for k, shape in shapes.items()})


def _message_half(p, scalar, vector, graph, *args):
    """The message half of a block: the block step with an all-zero
    feedforward GVP and no norms, whose feedforward adds exact zeros."""
    block = GvpBlock(p, _zero_feedforward(scalar.shape[1], vector.shape[2]))
    return _block_step(block, scalar, vector, graph, *args, False)


def _tape_block(block, scalar, vector, graph, args, normalize):
    """A block as the tape ran it before the block step: the message half,
    then the tape-built feedforward GVP, residual adds and norms."""
    d, dv = scalar.shape[1], vector.shape[2]
    s, v = _step_parts(_message_half(block.message, scalar, vector, graph, *args), d, dv)
    ff_s, ff_v = gvp_apply(block.feedforward, s, v)
    s, v = s + ff_s, v + ff_v
    if normalize:
        s, v = layer_norm_scalar(s), rescale_vector(v)
    return s, v


def _step_setup(rng, name, d=4, dv=2):
    graph, args = _step_case(rng, name)
    n = graph.n_nodes
    block = GvpBlock(message=random_gvp(rng, d + 3, dv + 1, d, dv),
                     feedforward=random_gvp(rng, d, dv, d, dv))
    state = (Parameter(rng.standard_normal((n, d))),
             Parameter(rng.standard_normal((n, 3, dv))))
    weights = (Tensor(rng.standard_normal((len(args[3]), d))),
               Tensor(rng.standard_normal((len(args[3]), 3, dv))))
    return graph, args, block, state, weights


def _leaves(state, block):
    return [*state, *vars(block.message).values(), *vars(block.feedforward).values()]


def _weighted(parts, weights):
    return ad.tsum(parts[0] * weights[0]) + ad.tsum(parts[1] * weights[1])


def _gradients(run, leaves, weights):
    for t in leaves:
        t.grad = None
    _weighted(run(), weights).backward()
    return [np.zeros_like(t.data) if t.grad is None else t.grad for t in leaves]


@pytest.mark.parametrize("name", STEP_CASES)
def test_message_step_matches_gather_first_oracle(rng, monkeypatch, name):
    """The message half of the block step: rows and every gradient equal
    the gathered-edge message GVP's up to rounding."""
    monkeypatch.setattr(gvp, "_MESSAGE_CHUNK", 3)
    graph, args, block, state, weights = _step_setup(rng, name)
    p = block.message
    got = _step_parts(_message_half(p, *state, graph, *args), 4, 2)
    want = _step_oracle(p, *state, graph, *args)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g.data - w.data).max(initial=0) < 1e-13
    leaves = [*state, *vars(p).values()]
    grads = [_gradients(lambda: out, leaves, weights) for out in (got, want)]
    for g, w in zip(*grads):
        assert np.abs(g - w).max() <= 1e-12 * max(np.abs(w).max(), 1e-300)


@pytest.mark.parametrize("name", STEP_CASES)
def test_message_step_gradients(rng, monkeypatch, name):
    """Finite differences of every input of the block step, with and
    without norms: state rows (used, unused and isolated ones) and all
    twelve weights."""
    monkeypatch.setattr(gvp, "_MESSAGE_CHUNK", 3)
    graph, args, block, state, weights = _step_setup(rng, name)
    for normalize in (False, True):
        check(lambda: _weighted(_step_parts(
            _block_step(block, *state, graph, *args, normalize), 4, 2), weights),
            _leaves(state, block))


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("name", STEP_CASES)
def test_block_step_matches_tape_oracle(rng, monkeypatch, name, normalize):
    """The block step's rows equal bit for bit its message half followed
    by the tape-built feedforward GVP, residual adds and norms, with and
    without a tape; every gradient agrees up to rounding."""
    monkeypatch.setattr(gvp, "_MESSAGE_CHUNK", 3)
    graph, args, block, state, weights = _step_setup(rng, name)

    def fused():
        return _step_parts(_block_step(block, *state, graph, *args, normalize), 4, 2)

    def tape():
        return _tape_block(block, *state, graph, args, normalize)

    with ad.no_grad():
        for g, w in zip(fused(), tape()):
            assert np.array_equal(g.data, w.data)
    for g, w in zip(fused(), tape()):
        assert np.array_equal(g.data, w.data)
    leaves = _leaves(state, block)
    for g, w in zip(_gradients(fused, leaves, weights), _gradients(tape, leaves, weights)):
        assert np.abs(g - w).max() <= 1e-12 * max(np.abs(w).max(), 1e-300)


def test_block_step_rows_do_not_depend_on_chunk_size(rng, monkeypatch):
    """Every output row sums its messages in (dst, src) order whatever the
    chunk size; only BLAS may round a product row differently for another
    row count."""
    coords = rng.uniform(0, 12, (120, 3))
    graph = build_knn_graph(coords, 9, rbf=RbfConfig(n_kernels=3))
    rows_out = np.sort(rng.choice(120, 70, replace=False))
    edges = np.flatnonzero(np.isin(graph.dst, rows_out))
    args = (edges, graph.src[edges], np.searchsorted(rows_out, graph.dst[edges]), rows_out)
    block = GvpBlock(message=random_gvp(rng, 7, 3, 4, 2),
                     feedforward=random_gvp(rng, 4, 2, 4, 2))
    state = (Parameter(rng.standard_normal((120, 4))),
             Parameter(rng.standard_normal((120, 3, 2))))
    weights = (Tensor(rng.standard_normal((70, 4))),
               Tensor(rng.standard_normal((70, 3, 2))))
    leaves = _leaves(state, block)
    runs = []
    for size in (1, 7, 64, 512, 10**6):
        monkeypatch.setattr(gvp, "_MESSAGE_CHUNK", size)
        packed = _block_step(block, *state, graph, *args, True)
        grads = _gradients(lambda: _step_parts(packed, 4, 2), leaves, weights)
        runs.append((packed.data, grads))
    (rows0, grads0), rest = runs[0], runs[1:]
    for rows, grads in rest:
        assert np.abs(rows - rows0).max() <= 1e-14 * np.abs(rows0).max()
        for g, g0 in zip(grads, grads0):
            assert np.abs(g - g0).max() <= 1e-13 * np.abs(g0).max()


def _tape_nodes(tensor):
    seen, stack = {id(tensor): tensor}, [tensor]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def test_block_step_is_one_tape_node(rng, monkeypatch):
    """Each block records one op, whose parents are its input state and
    its twelve weights, plus two column views of its output, so the tape
    has one size for no edges, one edge, many edges and an in-degree above
    the chunk size."""
    monkeypatch.setattr(gvp, "_MESSAGE_CHUNK", 3)
    blocks = [GvpBlock(message=random_gvp(rng, 4 + 3, 2 + 1, 4, 2),
                       feedforward=random_gvp(rng, 4, 2, 4, 2)) for _ in range(2)]
    for name in ("empty", "one-edge", "repeats-and-unused-rows", "in-degree-over-chunk"):
        graph, (_, _, _, rows_out) = _step_case(rng, name)
        state = GvpState(Parameter(rng.standard_normal((graph.n_nodes, 4))),
                         Parameter(rng.standard_normal((graph.n_nodes, 3, 2))))
        sets = receptive_sets(graph, rows_out, len(blocks))
        part = GvpState(ad.gather(state.scalar, sets[0]), ad.gather(state.vector, sets[0]))
        out = run_message_passing(blocks, graph, part, True, sets)
        nodes = _tape_nodes(ad.tsum(out.scalar) + ad.tsum(out.vector))
        joint = [t for t in nodes if callable(t._backward)]
        assert len(joint) == len(blocks)
        first = [t for t in joint if t._parents[0] is part.scalar]
        assert len(first) == 1
        assert first[0]._parents == (part.scalar, part.vector,
                                     *vars(blocks[0].message).values(),
                                     *vars(blocks[0].feedforward).values())
        # the state and its two gathers, the weights, one op and two column
        # views per block, and the loss's two sums and their add
        assert len(nodes) == 4 + 12 * len(blocks) + 3 * len(blocks) + 3


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
    ("init_hidden", 0), ("structure_layers", -1), ("surface_layers", -1)])
def test_config_rejects_sizes_that_cannot_run(field, value):
    with pytest.raises(DataError, match=field):
        ModelConfig(**{field: value})


FIXED_ARCHITECTURE = [
    (ModelConfig, "radius_cutoff", 10.0), (ModelConfig, "surface_knn", 16),
    (ModelConfig, "init_neighbors", 3), (ModelConfig, "fuse_neighbors", 20),
    (ModelConfig, "rbf_kernels", 16), (ModelConfig, "rbf_max", 20.0),
    (ModelConfig, "window_halfwidth", 2), (ModelConfig, "head_init", 1e-3),
    (SurfaceConfig, "level_tol", 1e-3), (SurfaceConfig, "max_seed_rounds", 5)]


@pytest.mark.parametrize("cls,name,value", FIXED_ARCHITECTURE,
                         ids=[name for _, name, _ in FIXED_ARCHITECTURE])
def test_fixed_architecture_is_no_constructor_argument(cls, name, value):
    """Fixed values are class constants: no run sets them and no config
    stores them."""
    assert getattr(cls(), name) == value
    assert name not in dataclasses.asdict(cls())
    with pytest.raises(TypeError, match=name):
        cls(**{name: value})


def test_config_allows_zero_layers_and_window():
    protein = make_coil_protein(8, seed=4)
    model = small_model(structure_layers=0, surface_layers=0)
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
    return build_radius_graph(coords, 4.0, rbf=ModelConfig().rbf)


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
    isolated = np.flatnonzero(np.bincount(graph.dst, minlength=graph.n_nodes) == 0)
    model = small_model()
    state = _random_state(rng, graph.n_nodes, 10, 3)
    full = full_message_passing(model.structure_blocks, graph, state, normalize)
    # the oracle gathers node states before projecting them, which BLAS
    # need not round bit for bit like the projection-first pass
    whole = run_message_passing(model.structure_blocks, graph, state, normalize)
    assert np.abs(whole.scalar.data - full.scalar.data).max() < 1e-13
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


def test_message_passing_rejects_state_and_sets_that_do_not_fit(rng):
    """A whole-graph state with receptive sets, or a set that misses a row
    the next layer reads, is a DataError rather than wrong rows or a raw
    IndexError."""
    graph = _graph_with_isolated_nodes(7)
    model = small_model()
    blocks = model.structure_blocks
    state = _random_state(rng, graph.n_nodes, 10, 3)
    sets = receptive_sets(graph, [0, 5], len(blocks))
    assert len(sets[0]) < graph.n_nodes
    with pytest.raises(DataError, match="rows"):
        run_message_passing(blocks, graph, state, True, sets)

    def part(rows):
        return GvpState(scalar=ad.gather(state.scalar, rows),
                        vector=ad.gather(state.vector, rows))

    in_neighbor = graph.src[graph.dst == sets[1][0]][0]
    no_neighbor = [sets[0][sets[0] != in_neighbor], *sets[1:]]
    no_next_row = [sets[0][sets[0] != sets[1][-1]], *sets[1:]]
    beyond = [*sets[:-1], np.append(sets[-1], graph.n_nodes)]
    for bad in (no_neighbor, no_next_row, beyond):
        with pytest.raises(DataError, match="not in the layer's node set"):
            run_message_passing(blocks, graph, part(bad[0]), True, bad)


def test_message_passing_rejects_a_graph_of_another_rbf_width(rng):
    """Blocks built for 16 RBF kernels on a 4-kernel graph would read RBF
    rows as channel-norm weights; it is a DataError naming both widths."""
    graph = build_radius_graph(rng.uniform(0, 12, (30, 3)), 4.0,
                               rbf=RbfConfig(n_kernels=4))
    model = small_model()
    assert model.config.rbf.n_kernels == 16
    state = _random_state(rng, graph.n_nodes, 10, 3)
    with pytest.raises(DataError, match="carry 4 RBF values, the blocks take 16"):
        run_message_passing(model.structure_blocks, graph, state)


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
    model = small_model(mode="s3f", seed=22)
    model.params["head.w"].data *= 1e3   # a unit-scale head
    weights = np.random.default_rng(len(masked)).standard_normal((len(masked), 20))
    got = model.forward_logits(protein, masked, mode=mode, cloud=cloud)
    want = full_forward(model, protein, masked, mode, cloud)
    assert got.shape == (len(masked), 20)
    assert np.abs(got.data - want.data).max() < 1e-13
    got_grads = _grads(model, got, weights)
    want_grads = _grads(model, want, weights)
    for name, g in want_grads.items():
        scale = max(np.abs(g).max(), 1e-300)
        assert np.abs(got_grads[name] - g).max() <= 1e-12 * scale, name


def _whole_graph_field(coords, out_nodes, k, n_layers, rbf=None):
    """The surface graph and sets as built before the on-demand walk: the
    whole cloud's kNN graph, then its receptive sets."""
    graph = build_knn_graph(coords, k, rbf=rbf)
    return graph, receptive_sets(graph, out_nodes, n_layers)


@pytest.mark.parametrize("mode", ["s3f", "surf_only"])
@pytest.mark.parametrize("masked", [[7], [3, 20, 36]])
def test_surface_walk_is_bit_identical_to_whole_graph_sets(rf_setup, monkeypatch,
                                                           mode, masked):
    """On an excised cloud, the pass through the on-demand kNN walk gives
    exactly the log-probs and parameter gradients of the pass through the
    whole-cloud kNN graph and its receptive sets."""
    protein, cloud = rf_setup
    cloud, _ = excise_near_residue(cloud, protein.ca_coords[masked], 20)
    model = small_model(mode="s3f", seed=23)
    model.params["head.w"].data *= 1e3   # a unit-scale head
    weights = np.random.default_rng(5).standard_normal((len(masked), 20))
    runs = []
    for field in (gvp.knn_receptive_field, _whole_graph_field):
        monkeypatch.setattr(gvp, "knn_receptive_field", field)
        log_probs = model.forward_logits(protein, masked, mode=mode, cloud=cloud)
        runs.append((log_probs.data, _grads(model, log_probs, weights)))
    (got, got_grads), (want, want_grads) = runs
    assert np.array_equal(got, want)
    assert got_grads.keys() == want_grads.keys()
    for name, g in want_grads.items():
        assert np.array_equal(got_grads[name], g), name


@pytest.mark.parametrize("mode", MODES)
def test_empty_masked_set_gives_no_rows(rf_setup, mode):
    protein, cloud = rf_setup
    model = small_model(mode="s3f", seed=22)
    rows = model.forward_logits(protein, [], mode=mode, cloud=cloud)
    assert rows.shape == (0, 20)
    assert full_forward(model, protein, [], mode, cloud).shape == (0, 20)


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


def test_three_site_pass_work_counts(rf_setup, monkeypatch):
    """Exact work of one 3-site s3f pass on the 40-residue coil and its
    300-point cloud: (output rows, edges) of each block, two structure
    blocks then two surface blocks, and the rows each step of the surface
    walk queries. Host speed cannot move these counts; a change that does
    more or less work changes them."""
    protein, cloud = rf_setup
    model = small_model(mode="s3f", seed=22)
    blocks, queried = [], []
    real_step, real_rows = gvp._block_step, geometry._knn_rows

    def step(block, scalar, vector, graph, edges, src, dst, keep, normalize):
        blocks.append((len(keep), len(edges)))
        return real_step(block, scalar, vector, graph, edges, src, dst, keep, normalize)

    def knn_rows(tree, ids, k):
        queried.append(len(ids))
        return real_rows(tree, ids, k)

    monkeypatch.setattr(gvp, "_block_step", step)
    monkeypatch.setattr(geometry, "_knn_rows", knn_rows)
    model.forward_logits(protein, [3, 20, 36], cloud=cloud)
    assert cloud.n_points == 300
    assert blocks == [(27, 250), (3, 25), (147, 2352), (60, 960)]
    assert queried == [60, 87]


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
    """Checkpoints store ``"fuse_scalar_only": false`` and
    ``"surface_feat_dim": 5`` from when those settings existed: those values
    load and score as without the keys, any other cannot run."""
    protein = make_coil_protein(12, seed=2)
    cloud = make_cloud(protein, seed=0)
    path = tmp_path / "m.s3fc"
    save_checkpoint(small_model(mode="s3f", seed=23), path)
    plain = load_checkpoint(path)
    for key, old_value, bad_value in (("fuse_scalar_only", False, True),
                                      ("surface_feat_dim", 5, 7)):
        _rewrite_config(path, lambda fields: fields.update({key: old_value}))
        old = load_checkpoint(path)
        assert old.config == plain.config
        assert np.array_equal(
            old.forward_logits(protein, [3, 8], cloud=cloud).data,
            plain.forward_logits(protein, [3, 8], cloud=cloud).data)
        _rewrite_config(path, lambda fields: fields.update({key: bad_value}))
        with pytest.raises(DataError, match=key):
            load_checkpoint(path)
        _rewrite_config(path, lambda fields: fields.pop(key))


@pytest.mark.parametrize("key", [name for cls, name, _ in FIXED_ARCHITECTURE
                                 if cls is ModelConfig])
def test_checkpoint_with_fixed_architecture_key(tmp_path, key):
    """Checkpoints written while the fixed architecture was config fields
    store each of its values: the constant loads and scores as without the
    key, any other value is a DataError naming the key."""
    protein = make_coil_protein(12, seed=2)
    cloud = make_cloud(protein, seed=0)
    path = tmp_path / "m.s3fc"
    save_checkpoint(small_model(mode="s3f", seed=23), path)
    plain = load_checkpoint(path)
    constant = getattr(ModelConfig, key)
    _rewrite_config(path, lambda fields: fields.update({key: constant}))
    old = load_checkpoint(path)
    assert old.config == plain.config
    assert np.array_equal(
        old.forward_logits(protein, [3, 8], cloud=cloud).data,
        plain.forward_logits(protein, [3, 8], cloud=cloud).data)
    _rewrite_config(path, lambda fields: fields.update({key: constant * 2}))
    with pytest.raises(DataError, match=key):
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
                  embed_dim=2)


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


@pytest.mark.parametrize("bits", [0x7FA00000, 0x7F800000],
                         ids=["signalling_nan", "inf"])
def test_checkpoint_with_non_finite_value_is_data_error(tmp_path, bits):
    """Checked before the float64 cast, which would warn on a signalling
    NaN; the error names the tensor."""
    path = tmp_path / "m.s3fc"
    save_checkpoint(FitnessModel(ModelConfig(**TINY_MODEL)), path)
    overwrite_checkpoint_value(path, "head.w", bits)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="non-finite values in tensor 'head.w'"):
            load_checkpoint(path)


def test_checkpoint_missing_tensor_is_data_error(tmp_path):
    model = FitnessModel(ModelConfig(**TINY_MODEL))
    del model.params["head.b"]
    path = tmp_path / "m.s3fc"
    save_checkpoint(model, path)
    with pytest.raises(DataError, match="missing tensors.*head.b"):
        load_checkpoint(path)
