"""Multi-scale residue-type prediction network.

Node states are (scalar, vector) pairs. Geometric vector perceptrons mix
vector channels linearly (rotation-equivariant), feed channel norms into
the scalar track (rotation-invariant), and gate output vectors with
sigmoid scalars. Two independent GVP stacks run message passing over the
residue radius graph and the surface kNN graph; surface states are
initialized from nearby residue features plus geometric surface features,
and are folded back into residue states as the mean over each residue's
nearest surface points. A linear head on final scalars yields 20-way
residue-type log probabilities.

Only the masked residues' rows are ever needed, so each stack runs on
their receptive field alone: ``receptive_sets`` walks the graph back
from the wanted rows, one in-neighbor hop per layer, and
``run_message_passing`` computes at each layer only the rows the next
layer reads, on the true edges of those rows. On the surface cloud the
walk (``knn_receptive_field``) queries kNN rows only for the rows it reaches.

Each block is one autodiff op (``_block_step``): it multiplies node rows
by the message GVP's node weights once, runs the message GVP over the
edges in chunks that end where the destination changes, sums each chunk
onto its destination rows, and then runs the feedforward GVP, residual
adds and norms on the node rows, so only node-level state and one chunk
of edge rows are alive at a time. Edge chunks and node rows share one
numpy GVP rule (``_gvp_core``) and its hand-derived vector-Jacobian
product; the backward pass recomputes each chunk, one loop for all
fourteen parents of the block.

Residue embeddings come either from S3FE files (frozen upstream model)
or from a small trainable embedder: a 21-row type table (row 20 is the
mask token) averaged over a +-2 sequence window.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from . import EMBEDDERS, MODES
from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import DataError
from .geometry import (RbfConfig, SpatialGraph, build_radius_graph, cross_knn,
                       knn_receptive_field)
from .io import (N_RESIDUE_TYPES, Protein, ResidueEmbeddings, mask_context_tag,
                 read_file)
from .surface import N_FEATURES, SurfacePointCloud

CHECKPOINT_MAGIC = b"S3FC"
CHECKPOINT_VERSION = 1

STRUCTURE_MODES = ("s2f", "s3f")     # modes that run the residue-graph stack
SURFACE_MODES = ("s3f", "surf_only")  # modes that run the surface stack
MASK_TOKEN = N_RESIDUE_TYPES  # row index of the mask token in the toy table


@dataclass
class GvpState:
    scalar: Tensor   # (n, d)
    vector: Tensor   # (n, 3, d'): x, y, z rows of d' channels


@dataclass
class GvpParams:
    w_h: Parameter    # (d_h, v_in) vector channel mixing
    w_mu: Parameter   # (v_out, d_h)
    w_m: Parameter    # (s_in + d_h, s_out) scalar map
    b_m: Parameter    # (s_out,)
    w_g: Parameter    # (s_out, v_out) vector gate
    b_g: Parameter    # (v_out,)


@dataclass
class GvpBlock:
    message: GvpParams
    feedforward: GvpParams


@dataclass
class Corruption:
    """How the input sequence was manipulated before embedding."""

    corrupted_sequence: np.ndarray
    mask_positions: np.ndarray
    random_positions: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))


@dataclass(frozen=True)
class ModelConfig:
    """Fields are what a run sets; class constants, the fixed architecture."""
    mode: str = "s3f"
    embedder: str = "toy"          # one of EMBEDDERS
    embed_dim: int = 64
    scalar_dim: int = 100
    vector_dim: int = 16
    structure_layers: int = 5
    surface_layers: int = 5
    init_hidden: int = 128
    normalize: bool = True
    seed: int = 0
    radius_cutoff: ClassVar[float] = 10.0
    surface_knn: ClassVar[int] = 16
    init_neighbors: ClassVar[int] = 3
    fuse_neighbors: ClassVar[int] = 20
    rbf_kernels: ClassVar[int] = 16
    rbf_max: ClassVar[float] = 20.0
    window_halfwidth: ClassVar[int] = 2
    head_init: ClassVar[float] = 1e-3
    rbf = RbfConfig(n_kernels=rbf_kernels, max_d=rbf_max)   # derived: no stored key

    def __post_init__(self):
        if self.mode not in MODES:
            raise DataError(f"unknown mode {self.mode!r}")
        if self.embedder not in EMBEDDERS:
            raise DataError(f"unknown embedder {self.embedder!r}")
        for name, least in dict(embed_dim=1, scalar_dim=1, vector_dim=1,
                                init_hidden=1, structure_layers=0,
                                surface_layers=0).items():
            if getattr(self, name) < least:
                raise DataError(f"{name} must be >= {least}, got {getattr(self, name)}")

    def check_mode(self, mode: str) -> str:
        """``mode``, or this config's own if None; a DataError if a model of
        this config lacks a stack that mode runs."""
        mode = mode or self.mode
        if mode not in MODES:
            raise DataError(f"unknown mode {mode!r}")
        for stack in (STRUCTURE_MODES, SURFACE_MODES):
            if mode in stack and self.mode not in stack:
                raise DataError(f"model built for {self.mode!r} cannot run {mode!r}")
        return mode

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "ModelConfig":
        fields = json.loads(blob)
        if not isinstance(fields, dict):
            raise DataError("model config is not a JSON object")
        for key, only in _RETIRED_KEYS.items():
            if key in fields and fields.pop(key) != only:
                raise DataError(f"model config key {key!r} is retired and must "
                                f"be {json.dumps(only)} if present")
        return cls(**fields)


# Stored keys of retired or fixed settings, each with the one value it can hold.
_RETIRED_KEYS = {"fuse_scalar_only": False, "surface_feat_dim": N_FEATURES, **{
    name: getattr(ModelConfig, name) for name in ModelConfig.__annotations__
    if name not in asdict(ModelConfig())}}


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def _gvp_core(w: list, v_h: np.ndarray, lin: np.ndarray) -> tuple:
    """A GVP after its input maps; ``w`` holds the arrays of its GvpParams
    fields in order. Runs on (n, 3, d_h) mixed vectors ``v_h`` and the
    (n, s_out) scalar map ``lin`` of the input scalars, to which the
    channel-norm term and bias are added in place before relu. Returns
    (norms, s, v_mu, gate): the output scalars are s and the output
    vectors v_mu * gate."""
    _, w_mu, w_m, b_m, w_g, b_g = w
    sq = v_h * v_h
    norms = sq[:, 0] + sq[:, 1]   # the order of sq.sum(axis=1)
    norms += sq[:, 2]
    norms += 1e-8
    np.sqrt(norms, out=norms)
    lin += norms @ w_m[-v_h.shape[2]:]
    lin += b_m
    s = ad.relu_data(lin, out=lin)
    v_mu = (v_h.reshape(-1, v_h.shape[2]) @ w_mu.T).reshape(len(v_h), 3, len(w_mu))
    gate = s @ w_g
    gate += b_g
    return norms, s, v_mu, ad.sigmoid_data(gate, out=gate)


def _gvp_core_vjp(w: list, v_h, norms, s, v_mu, gate, g_s, g_v) -> tuple:
    """Backward of ``_gvp_core`` from the gradients of s and of v_mu *
    gate: (g_lin, g_vh, (g_mu, g_norm, g_bm, g_g, g_bg)), where g_norm is
    the gradient of w_m's channel-norm rows."""
    _, w_mu, w_m, _, w_g, _ = w
    d_h = v_h.shape[2]
    g_z = (g_v * v_mu).sum(axis=1)
    g_z *= gate
    g_z *= 1.0 - gate
    g_vmu = (g_v * gate[:, None, :]).reshape(-1, len(w_mu))
    g_lin = g_z @ w_g.T
    g_lin += g_s
    g_lin *= s > 0
    g_vh = (g_vmu @ w_mu).reshape(v_h.shape)
    g_vh += v_h * ((g_lin @ w_m[-d_h:].T) / norms)[:, None, :]
    return g_lin, g_vh, (g_vmu.T @ v_h.reshape(-1, d_h), norms.T @ g_lin,
                         g_lin.sum(axis=0), s.T @ g_z, g_z.sum(axis=0))


# Edge rows per chunk of the block step's message GVP. A chunk runs on to
# the end of its last destination's in-edges, so no output row's sum is
# split and each keeps its (dst, src) order. Of 128 to 8192 rows, 512 was
# the fastest on score-multi-default graphs (2-vCPU x86_64, one BLAS thread).
_MESSAGE_CHUNK = 512


def _edge_chunks(dst: np.ndarray) -> list:
    """(edge slice, run starts within it, output row of each run) for
    consecutive chunks of about ``_MESSAGE_CHUNK`` sorted edges, cut only
    where ``dst`` changes."""
    runs = np.flatnonzero(np.diff(dst, prepend=-1))
    ends = np.append(runs, len(dst))
    chunks, r = [], 0
    while r < len(runs):
        r_end = np.searchsorted(runs, runs[r] + _MESSAGE_CHUNK)
        chunks.append((slice(runs[r], ends[r_end]), runs[r:r_end] - runs[r],
                       dst[runs[r:r_end]]))
        r = r_end
    return chunks


def _block_step(block: GvpBlock, scalar: Tensor, vector: Tensor,
                graph: SpatialGraph, edges: np.ndarray, src: np.ndarray,
                dst: np.ndarray, keep: np.ndarray, normalize: bool) -> Tensor:
    """One message-passing block as one op. Rows ``keep`` of the state get
    the mean message GVP over their in-edges added, then the feedforward
    GVP of the result, then (if ``normalize``) a scalar layer norm and a
    vector rescale to norm sqrt(dv). The message is the GVP of the source
    row's state with the edge's RBF scalars and its vector x_src - x_dst
    appended; ``edges`` are the graph's edges into the kept rows, ``src``
    their source rows and ``dst`` their sorted output rows. Returns the
    new (n_out, d + 3 * dv) scalar and flattened vector rows side by side.

    Node rows are multiplied by the message weights once, before any edge
    reads them. The message GVP then runs chunk by chunk (``_edge_chunks``)
    and each chunk's messages are summed onto their rows at once, so no
    edge-level array outlives its chunk; the node half keeps its node-level
    arrays. One joint VJP serves all 14 parents: it undoes the node half
    from those arrays, then recomputes each chunk (Chen et al.,
    arXiv:1604.06174), folds its edge gradients onto source rows in edge
    order, and takes the node-row weight gradients once after the loop."""
    S, V = scalar.data, vector.data
    n_in, d = S.shape
    dv = V.shape[2]
    n_out = len(keep)
    wm = [t.data for t in vars(block.message).values()]
    wf = [t.data for t in vars(block.feedforward).values()]
    (w_h, _, w_m, *_), (f_h, _, f_m, *_) = wm, wf
    d_h = w_h.shape[0]
    n_rbf = graph.edge_scalar.shape[1]
    w_node, w_rbf = w_m[:d], w_m[d:d + n_rbf]
    w_edge = w_h[:, dv]  # the edge vector is the last input channel
    proj_s = S @ w_node
    proj_v = (V.reshape(3 * n_in, dv) @ w_h[:, :dv].T).reshape(n_in, 3, d_h)
    inv_deg = 1.0 / np.maximum(np.bincount(dst, minlength=n_out), 1)
    chunks = _edge_chunks(dst)

    def recompute(c):
        e, j = edges[c], src[c]
        v_h = proj_v[j]
        v_h += graph.edge_vec[e][:, :, None] * w_edge
        lin = proj_s[j]
        lin += graph.edge_scalar[e] @ w_rbf
        return (v_h, *_gvp_core(wm, v_h, lin))

    msg_s, msg_v = np.zeros((n_out, d)), np.zeros((n_out, 3, dv))
    for c, starts, rows in chunks:
        *_, s, v_mu, gate = recompute(c)
        msg_s[rows] = np.add.reduceat(s, starts, axis=0)
        v_mu *= gate[:, None, :]
        msg_v[rows] = np.add.reduceat(v_mu, starts, axis=0)
    S1 = S[keep] + msg_s * inv_deg[:, None]
    V1 = V[keep] + msg_v * inv_deg[:, None, None]
    f_vh = (V1.reshape(3 * n_out, dv) @ f_h.T).reshape(n_out, 3, len(f_h))
    ff = (f_vh, *_gvp_core(wf, f_vh, S1 @ f_m[:d]))
    _, _, f_s, f_vmu, f_gate = ff
    S2 = S1 + f_s
    V2 = V1 + f_vmu * f_gate[:, None, :]
    out = np.empty((n_out, d + 3 * dv))
    S3, V3 = out[:, :d], out[:, d:].reshape(n_out, 3, dv)
    if normalize:
        c = S2 - S2.sum(axis=1, keepdims=True) * (1.0 / d)
        r = np.sqrt((c * c).sum(axis=1, keepdims=True) * (1.0 / d) + 1e-8)
        np.divide(c, r, out=S3)
        fro2 = (V2 * V2).sum(axis=(1, 2), keepdims=True) + 1e-8
        scale = np.sqrt(dv) / np.sqrt(fro2)
        np.multiply(V2, scale, out=V3)
    else:
        S3[:], V3[:] = S2, V2

    def vjp(g):
        g_s, g_v = g[:, :d], g[:, d:].reshape(n_out, 3, dv)
        if normalize:
            dot = (g_s * S3).sum(axis=1, keepdims=True) * (1.0 / d)
            g_s = (g_s - S3 * dot) / r
            g_s = g_s - g_s.sum(axis=1, keepdims=True) * (1.0 / d)
            dot = (g_v * V2).sum(axis=(1, 2), keepdims=True)
            g_v = scale * (g_v - V2 * (dot / fro2))
        g_lin, g_fvh, (g_fmu, g_fnorm, *g_frest) = _gvp_core_vjp(wf, *ff, g_s, g_v)
        g_fvh = g_fvh.reshape(3 * n_out, len(f_h))
        g_s = g_s + g_lin @ f_m[:d].T
        g_v = g_v + (g_fvh @ f_h).reshape(n_out, 3, dv)
        g_ff = (g_fvh.T @ V1.reshape(3 * n_out, dv), g_fmu,
                np.concatenate([S1.T @ g_lin, g_fnorm]), *g_frest)
        g_S, g_V = np.zeros_like(S), np.zeros_like(V)
        g_S[keep], g_V[keep] = g_s, g_v
        g_s, g_v = g_s * inv_deg[:, None], g_v * inv_deg[:, None, None]
        g_proj_s, g_proj_v = np.zeros_like(proj_s), np.zeros_like(proj_v)
        g_rbf, g_edge = np.zeros_like(w_rbf), np.zeros(d_h)
        g_core = [np.zeros_like(a) for a in (wm[1], w_m[d + n_rbf:], *wm[3:])]
        for c, _, _ in chunks:
            v_h, *saved = recompute(c)
            e, j, out_rows = edges[c], src[c], dst[c]
            g_lin, g_vh, grads = _gvp_core_vjp(wm, v_h, *saved, g_s[out_rows],
                                               g_v[out_rows])
            for acc, grad in zip(g_core, grads):
                acc += grad
            g_rbf += graph.edge_scalar[e].T @ g_lin
            g_edge += graph.edge_vec[e].reshape(-1) @ g_vh.reshape(-1, d_h)
            order = np.argsort(j, kind="stable")
            firsts = np.flatnonzero(np.diff(j[order], prepend=-1))
            rows = j[order[firsts]]
            g_proj_s[rows] += np.add.reduceat(g_lin[order], firsts, axis=0)
            g_proj_v[rows] += np.add.reduceat(g_vh[order], firsts, axis=0)
        g_S += g_proj_s @ w_node.T
        g_pv = g_proj_v.reshape(3 * n_in, d_h)
        g_V += (g_pv @ w_h[:, :dv]).reshape(V.shape)
        g_wh = np.concatenate([g_pv.T @ V.reshape(3 * n_in, dv), g_edge[:, None]],
                              axis=1)
        g_mu, g_norm, *g_rest = g_core
        g_wm = np.concatenate([S.T @ g_proj_s, g_rbf, g_norm])
        return (g_S, g_V, g_wh, g_mu, g_wm, *g_rest, *g_ff)

    return ad._make(out, (scalar, vector, *vars(block.message).values(),
                          *vars(block.feedforward).values()), vjp)


def receptive_sets(graph: SpatialGraph, out_nodes, n_layers: int) -> list:
    """Sorted node sets S_0 ⊇ … ⊇ S_L = out_nodes (deduplicated), L =
    ``n_layers``: the rows of S_{l+1} after message-passing block l depend
    only on the rows of S_l before it, where S_l is S_{l+1} plus every
    in-neighbor of S_{l+1} (the k-hop computation subgraph of GraphSAGE,
    Hamilton et al., arXiv:1706.02216)."""
    out = np.unique(np.asarray(out_nodes, dtype=np.int64))
    if len(out) and (out[0] < 0 or out[-1] >= graph.n_nodes):
        raise DataError("output node out of range")
    need = np.zeros(graph.n_nodes, dtype=bool)
    need[out] = True
    sets = [out]
    for _ in range(n_layers):
        need[graph.src[need[graph.dst]]] = True
        sets.insert(0, np.flatnonzero(need))
    return sets


def _positions(rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Index of each node in the sorted set ``rows``; a DataError if one
    is missing."""
    pos = np.searchsorted(rows, nodes)
    found = pos < len(rows)
    found[found] = rows[pos[found]] == nodes[found]
    if not found.all():
        raise DataError(f"node {nodes[~found][0]} is not in the layer's node set")
    return pos


def run_message_passing(blocks, graph: SpatialGraph, state: GvpState,
                        normalize: bool = True, node_sets=None) -> GvpState:
    """Residual message passing: per block, add the mean GVP message over
    in-neighbors (edge features concatenated onto the neighbor state), then
    add a feedforward GVP of the node state, then (with ``normalize``)
    layer-normalize the scalars and rescale each row's vectors. Nodes
    without neighbors receive a zero message.

    ``node_sets`` (one more than ``blocks``, as from ``receptive_sets``)
    limits the work to the rows that are wanted: ``state`` holds the rows
    of node_sets[0], and block l maps the rows of node_sets[l] to those of
    node_sets[l + 1], running the message GVP only on the edges into
    node_sets[l + 1] (still in (dst, src) order) and dividing by the true
    in-degree. Layer norm and vector rescale act per row, so each kept row
    gets the same arithmetic as on the whole graph. None means every node
    at every layer. A state whose row count is not len(node_sets[0]), or
    a set that lacks a row of the next set or one of its in-neighbors, is
    a DataError, and so is a graph whose edges carry another number of RBF
    values than the blocks' message weights take.

    Each block is one op (``_block_step``) that holds node-level state
    plus one chunk of edges at a time."""
    if node_sets is None:
        node_sets = [np.arange(graph.n_nodes)] * (len(blocks) + 1)
    if len(node_sets) != len(blocks) + 1:
        raise DataError(f"{len(blocks)} blocks need {len(blocks) + 1} node sets, "
                        f"got {len(node_sets)}")
    scalar, vector = state.scalar, state.vector
    if scalar.shape[0] != len(node_sets[0]) or vector.shape[0] != len(node_sets[0]):
        raise DataError(f"state has {scalar.shape[0]} scalar and {vector.shape[0]} "
                        f"vector rows, node_sets[0] has {len(node_sets[0])}")
    d, dv = scalar.shape[1], vector.shape[2]
    for block in blocks:
        n_rbf = len(block.message.w_m.data) - d - len(block.message.w_h.data)
        if n_rbf != graph.edge_scalar.shape[1]:
            raise DataError(f"graph edges carry {graph.edge_scalar.shape[1]} RBF "
                            f"values, the blocks take {n_rbf}")
    for block, rows_in, rows_out in zip(blocks, node_sets, node_sets[1:]):
        keep = _positions(rows_in, rows_out)
        into = np.zeros(graph.n_nodes, dtype=bool)
        into[rows_out] = True
        edges = np.flatnonzero(into[graph.dst])
        packed = _block_step(block, scalar, vector, graph, edges,
                             _positions(rows_in, graph.src[edges]),
                             _positions(rows_out, graph.dst[edges]), keep, normalize)
        scalar = ad.columns(packed, 0, (d,))
        vector = ad.columns(packed, d, (3, dv))
    return GvpState(scalar=scalar, vector=vector)


def _mlp2(parts, w1, b1, w2, b2) -> Tensor:
    return ad.linear_split([ad.relu(ad.linear_split(parts, w1, b1))], w2, b2)


def surface_init(params: dict, residue_scalar: Tensor, cloud_features,
                 nn_idx: np.ndarray, nn_dist: np.ndarray,
                 vector_dim: int) -> GvpState:
    """Surface-node initialization: each point averages an MLP of its
    nearest residues' scalar features (with distances), concatenates its
    geometric features, and runs a second MLP. Vectors start at zero.
    ``params`` is a model's parameter dict (``surface_init.*`` entries)."""
    n_s, k = nn_idx.shape
    rows = ad.gather(residue_scalar, nn_idx.reshape(-1))
    dist = Tensor(nn_dist.reshape(-1, 1))
    inner = _mlp2([rows, dist],
                  params["surface_init.inner1.w"], params["surface_init.inner1.b"],
                  params["surface_init.inner2.w"], params["surface_init.inner2.b"])
    pooled = ad.tmean(ad.reshape(inner, (n_s, k, inner.shape[1])), axis=1)
    outer = _mlp2([Tensor(cloud_features), pooled],
                  params["surface_init.outer1.w"], params["surface_init.outer1.b"],
                  params["surface_init.outer2.w"], params["surface_init.outer2.b"])
    zeros = Tensor(np.zeros((n_s, 3, vector_dim)))
    return GvpState(scalar=outer, vector=zeros)


def fuse_residue_surface(h_res: GvpState, h_surf: GvpState,
                         fuse_idx: np.ndarray) -> GvpState:
    """Add the mean state of each residue's nearest surface points."""
    n_r, k = fuse_idx.shape
    flat = fuse_idx.reshape(-1)
    s_mean = ad.tmean(
        ad.reshape(ad.gather(h_surf.scalar, flat), (n_r, k, h_surf.scalar.shape[1])),
        axis=1)
    scalar = h_res.scalar + s_mean
    v_shape = (n_r, k) + h_surf.vector.shape[1:]
    v_mean = ad.tmean(ad.reshape(ad.gather(h_surf.vector, flat), v_shape), axis=1)
    return GvpState(scalar=scalar, vector=h_res.vector + v_mean)


def _window_mean(table, ids: np.ndarray, halfwidth: int) -> Tensor:
    """Row i is the mean of table[ids[j]] over the sequence window
    |i - j| <= halfwidth, clipped at the chain ends."""
    n = len(ids)
    src = np.arange(n)[:, None] + np.arange(-halfwidth, halfwidth + 1)
    dst = np.broadcast_to(np.arange(n)[:, None], src.shape)
    inside = (src >= 0) & (src < n)
    src, dst = src[inside], dst[inside]  # row-major, so dst is sorted
    summed = ad.segment_sum(ad.gather(table, ids[src]), dst, n)
    return summed * (1.0 / np.bincount(dst, minlength=n))[:, None]


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class FitnessModel:
    """Holds parameters for the mode it was built in and runs forward passes.

    A model built in s3f mode carries both stacks and can also run the s2f
    and surf_only ablations; single-stack models only run their own mode.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params: dict = {}
        rng = np.random.default_rng(config.seed)
        d, dv = config.scalar_dim, config.vector_dim
        if config.embedder == "toy":
            self._param("embed.table", rng.standard_normal(
                (N_RESIDUE_TYPES + 1, config.embed_dim)))
        else:
            self._param("embed.mask_vec", rng.standard_normal(
                (1, config.embed_dim)) / np.sqrt(config.embed_dim))
            self._param("embed.corrupt_table", rng.standard_normal(
                (N_RESIDUE_TYPES, config.embed_dim)) / np.sqrt(config.embed_dim))
        self._linear(rng, "adapter", config.embed_dim, d)
        if config.mode in STRUCTURE_MODES:
            self.structure_blocks = [
                self._block(rng, f"structure.{i}") for i in range(config.structure_layers)]
        else:
            self.structure_blocks = None
        if config.mode in SURFACE_MODES:
            h = config.init_hidden
            self._linear(rng, "surface_init.inner1", d + 1, h)
            self._linear(rng, "surface_init.inner2", h, d)
            self._linear(rng, "surface_init.outer1", N_FEATURES + d, h)
            self._linear(rng, "surface_init.outer2", h, d)
            self.surface_blocks = [
                self._block(rng, f"surface.{i}") for i in range(config.surface_layers)]
        else:
            self.surface_blocks = None
        self._param("head.w", rng.standard_normal((d, N_RESIDUE_TYPES))
                    * config.head_init / np.sqrt(d))
        self._param("head.b", np.zeros(N_RESIDUE_TYPES))

    # ---- parameter plumbing ----

    def _param(self, name: str, array) -> Parameter:
        p = Parameter(np.asarray(array, dtype=np.float64))
        self.params[name] = p
        return p

    def _linear(self, rng, name: str, d_in: int, d_out: int):
        self._param(f"{name}.w", rng.standard_normal((d_in, d_out)) / np.sqrt(d_in))
        self._param(f"{name}.b", np.zeros(d_out))

    def _gvp(self, rng, name: str, s_in: int, v_in: int, s_out: int,
             v_out: int) -> GvpParams:
        d_h = max(v_in, v_out)
        return GvpParams(
            w_h=self._param(f"{name}.w_h",
                            rng.standard_normal((d_h, v_in)) / np.sqrt(v_in)),
            w_mu=self._param(f"{name}.w_mu",
                             rng.standard_normal((v_out, d_h)) / np.sqrt(d_h)),
            w_m=self._param(f"{name}.w_m",
                            rng.standard_normal((s_in + d_h, s_out))
                            / np.sqrt(s_in + d_h)),
            b_m=self._param(f"{name}.b_m", np.zeros(s_out)),
            w_g=self._param(f"{name}.w_g",
                            rng.standard_normal((s_out, v_out)) / np.sqrt(s_out)),
            b_g=self._param(f"{name}.b_g", np.zeros(v_out)),
        )

    def _block(self, rng, name: str) -> GvpBlock:
        cfg = self.config
        return GvpBlock(
            message=self._gvp(rng, f"{name}.msg",
                              cfg.scalar_dim + cfg.rbf_kernels, cfg.vector_dim + 1,
                              cfg.scalar_dim, cfg.vector_dim),
            feedforward=self._gvp(rng, f"{name}.ff", cfg.scalar_dim,
                                  cfg.vector_dim, cfg.scalar_dim, cfg.vector_dim),
        )

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    # ---- embeddings ----

    def embed(self, protein: Protein, masked_positions,
              corruption: Corruption = None,
              embeddings: ResidueEmbeddings = None) -> Tensor:
        """Initial residue scalar features (after the adapter). File-mode
        rows must carry the masked positions' context tag; unmasked rows
        (empty tag) pass only with a ``corruption``, which training gives on
        every call and scoring never does."""
        cfg = self.config
        masked = np.asarray(sorted(int(p) for p in masked_positions), dtype=np.int64)
        if cfg.embedder == "toy":
            if corruption is None:
                ids = protein.sequence.copy()
                ids[masked] = MASK_TOKEN
            else:
                ids = corruption.corrupted_sequence.copy()
                ids[corruption.mask_positions] = MASK_TOKEN
            mixed = _window_mean(self.params["embed.table"], ids,
                                 cfg.window_halfwidth)
        else:
            if embeddings is None:
                raise DataError("file-mode model requires precomputed embeddings")
            if embeddings.n_residues != protein.n_residues:
                raise DataError("embedding row count does not match protein length")
            if embeddings.dim != cfg.embed_dim:
                raise DataError(
                    f"embedding dim {embeddings.dim} != model embed_dim {cfg.embed_dim}")
            expected = mask_context_tag(masked)
            if embeddings.context_tag == expected:
                mixed = Tensor(embeddings.rows)
            elif embeddings.context_tag == "" and corruption is not None:
                # training-time substitution on unmasked rows: hide masked
                # rows behind the trainable mask vector, corrupted rows
                # behind the trainable corruption table
                mask_pos = corruption.mask_positions
                rand_pos = corruption.random_positions
                mixed = ad.substitute_rows(
                    Tensor(embeddings.rows), mask_pos,
                    ad.gather(self.params["embed.mask_vec"],
                              np.zeros(len(mask_pos), dtype=np.int64)))
                mixed = ad.substitute_rows(
                    mixed, rand_pos,
                    ad.gather(self.params["embed.corrupt_table"],
                              corruption.corrupted_sequence[rand_pos]))
            else:
                raise DataError(
                    f"embedding context tag {embeddings.context_tag!r} does not "
                    f"match masked positions (expected {expected!r})")
        return ad.linear_split([mixed], self.params["adapter.w"],
                               self.params["adapter.b"])

    # ---- forward ----

    def forward_logits(self, protein: Protein, masked_positions, *,
                       mode: str = None,
                       embeddings: ResidueEmbeddings = None,
                       cloud: SurfacePointCloud = None,
                       corruption: Corruption = None) -> Tensor:
        """Log-softmax rows over the 20 residue types at the masked positions
        (sorted ascending).

        Only the masked rows are computed. Both GVP stacks run on the
        receptive field of those rows (``receptive_sets``): the structure
        stack on the masked residues' L-hop radius-graph neighbourhood, and
        the surface stack on the L-hop kNN neighbourhood of the surface
        points fused into the masked residues, with ``surface_init`` and its
        residue lookup on the widest of those point sets only; surface kNN
        rows are queried only for the points that walk reaches. The rows
        equal those of a whole-graph pass up to rounding, and training
        takes the same path."""
        cfg = self.config
        mode = cfg.check_mode(mode)
        masked = np.asarray(sorted(set(int(p) for p in masked_positions)),
                            dtype=np.int64)
        n_r = protein.n_residues
        if len(masked) and (masked[0] < 0 or masked[-1] >= n_r):
            raise DataError("masked position out of range")
        h0_scalar = self.embed(protein, masked, corruption=corruption,
                               embeddings=embeddings)
        if mode in STRUCTURE_MODES:
            graph = build_radius_graph(protein.ca_coords, cfg.radius_cutoff,
                                       rbf=cfg.rbf)
            sets = receptive_sets(graph, masked, len(self.structure_blocks))
            state0 = GvpState(
                scalar=ad.gather(h0_scalar, sets[0]),
                vector=Tensor(np.zeros((len(sets[0]), 3, cfg.vector_dim))))
            h_res = run_message_passing(self.structure_blocks, graph, state0,
                                        cfg.normalize, sets)
        else:
            h_res = GvpState(
                scalar=ad.gather(h0_scalar, masked),
                vector=Tensor(np.zeros((len(masked), 3, cfg.vector_dim))))
        if mode in SURFACE_MODES:
            if cloud is None or cloud.n_points == 0:
                raise DataError(f"mode {mode!r} requires a surface cloud")
            if cloud.features is None:
                raise DataError("surface cloud lacks geometric features")
            if cloud.features.shape[1] != N_FEATURES:
                raise DataError(
                    f"cloud feature dim {cloud.features.shape[1]} != "
                    f"{N_FEATURES} surface features")
            if n_r < cfg.init_neighbors:
                raise DataError(
                    f"surface init needs >= {cfg.init_neighbors} residues")
            k_fuse = min(cfg.fuse_neighbors, cloud.n_points)
            fuse_idx, _ = cross_knn(protein.ca_coords[masked], cloud.points, k_fuse)
            sgraph, sets = knn_receptive_field(
                cloud.points, fuse_idx.reshape(-1), cfg.surface_knn,
                len(self.surface_blocks), rbf=cfg.rbf)
            nn_idx, nn_dist = cross_knn(cloud.points[sets[0]], protein.ca_coords,
                                        cfg.init_neighbors)
            h_surf0 = surface_init(self.params, h0_scalar,
                                   cloud.features[sets[0]], nn_idx, nn_dist,
                                   cfg.vector_dim)
            h_surf = run_message_passing(self.surface_blocks, sgraph, h_surf0,
                                         cfg.normalize, sets)
            h_res = fuse_residue_surface(h_res, h_surf,
                                         np.searchsorted(sets[-1], fuse_idx))
        logits = ad.linear_split([h_res.scalar], self.params["head.w"],
                                 self.params["head.b"])
        return ad.log_softmax(logits)

    def loss(self, log_probs: Tensor, targets) -> Tensor:
        """Mean cross-entropy of the target types under the given rows."""
        targets = np.asarray(targets, dtype=np.int64)
        if len(targets) == 0:
            raise DataError("loss needs at least one masked position")
        picked = ad.select_rc(log_probs, np.arange(len(targets)), targets)
        return -ad.tmean(picked)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: FitnessModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        blob = model.config.to_json().encode("utf-8")
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        names = sorted(model.params)
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            data = model.params[name].data
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def load_checkpoint(path) -> FitnessModel:
    """Read an S3FC file written by ``save_checkpoint``. Raises DataError
    unless the file holds exactly one finite tensor of the right shape for
    every parameter of its config, and nothing after the last one."""
    blob = read_file(path)
    if blob[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: magic mismatch (not an S3FC file)")
    offset = 4

    def take(size: int) -> bytes:
        nonlocal offset
        if size > len(blob) - offset:
            raise DataError(f"{path}: truncated checkpoint")
        offset += size
        return blob[offset - size:offset]

    def u32s(count: int) -> tuple:
        return struct.unpack(f"<{count}I", take(4 * count))

    version, cfg_len = u32s(2)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    config = take(cfg_len)
    try:
        model = FitnessModel(ModelConfig.from_json(config.decode("utf-8")))
    except (ValueError, TypeError) as exc:
        raise DataError(f"{path}: unreadable model config ({exc})") from None
    loaded = set()
    (n_tensors,) = u32s(1)
    for _ in range(n_tensors):
        (name_len,) = u32s(1)
        name = take(name_len).decode("utf-8", errors="replace")
        if name not in model.params or name in loaded:
            raise DataError(f"{path}: unexpected tensor {name!r}")
        target = model.params[name]
        (ndim,) = u32s(1)
        if u32s(ndim) != target.data.shape:
            raise DataError(f"{path}: shape mismatch for {name!r}")
        data = np.frombuffer(take(4 * target.data.size), dtype="<f4")
        if not np.isfinite(data).all():
            raise DataError(f"{path}: non-finite values in tensor {name!r}")
        target.data = data.reshape(target.data.shape).astype(np.float64)
        loaded.add(name)
    if offset != len(blob):
        raise DataError(f"{path}: {len(blob) - offset} bytes after the last tensor")
    missing = sorted(set(model.params) - loaded)
    if missing:
        raise DataError(f"{path}: missing tensors {missing}")
    return model
