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
layer reads, on the true edges of those rows.

Residue embeddings come either from S3FE files (frozen upstream model)
or from a small trainable embedder: a 21-row type table (row 20 is the
mask token) averaged over a +-2 sequence window.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import DataError
from .geometry import RbfConfig, SpatialGraph, build_knn_graph, build_radius_graph, cross_knn
from .io import N_RESIDUE_TYPES, Protein, ResidueEmbeddings, mask_context_tag
from .surface import SurfacePointCloud

CHECKPOINT_MAGIC = b"S3FC"
CHECKPOINT_VERSION = 1

MODES = ("s2f", "s3f", "surf_only")
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


_SIZE_FLOORS = dict(embed_dim=1, scalar_dim=1, vector_dim=1, init_hidden=1,
                    surface_feat_dim=1, surface_knn=1, init_neighbors=1,
                    fuse_neighbors=1, rbf_kernels=1, structure_layers=0,
                    surface_layers=0, window_halfwidth=0)


@dataclass(frozen=True)
class ModelConfig:
    mode: str = "s3f"
    embedder: str = "toy"          # toy | file
    embed_dim: int = 64
    scalar_dim: int = 100
    vector_dim: int = 16
    structure_layers: int = 5
    surface_layers: int = 5
    init_hidden: int = 128
    surface_feat_dim: int = 5
    radius_cutoff: float = 10.0
    surface_knn: int = 16
    init_neighbors: int = 3
    fuse_neighbors: int = 20
    rbf_kernels: int = 16
    rbf_max: float = 20.0
    window_halfwidth: int = 2
    normalize: bool = True
    head_init: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise DataError(f"unknown mode {self.mode!r}")
        if self.embedder not in ("toy", "file"):
            raise DataError(f"unknown embedder {self.embedder!r}")
        for name, least in _SIZE_FLOORS.items():
            if getattr(self, name) < least:
                raise DataError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not self.radius_cutoff > 0:
            raise DataError(f"radius_cutoff must be > 0, got {self.radius_cutoff}")

    @property
    def rbf(self) -> RbfConfig:
        return RbfConfig(n_kernels=self.rbf_kernels, max_d=self.rbf_max)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "ModelConfig":
        fields = json.loads(blob)
        if not isinstance(fields, dict):
            raise DataError("model config is not a JSON object")
        # configs written before vector fusion became unconditional all
        # store this key as false
        if fields.pop("fuse_scalar_only", False):
            raise DataError("scalar-only fusion (fuse_scalar_only) is not supported")
        return cls(**fields)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def _channel_mix(w, vectors: list) -> Tensor:
    """(o, c) weights applied to the channels of (n, 3, c) vector parts,
    taken as one channel-axis concat. x, y and z rows all go through the
    same map, which keeps it rotation-equivariant."""
    n = vectors[0].shape[0]
    rows = [ad.reshape(v, (3 * n, v.shape[2])) for v in vectors]
    out = ad.linear_split(rows, ad.transpose(w))
    return ad.reshape(out, (n, 3, out.shape[1]))


def gvp_apply(p: GvpParams, scalar, vector):
    """One geometric vector perceptron on a batch of (scalar, vector) rows.

    Scalar and vector inputs may each be a list of tensors, treated as a
    feature-axis concatenation (node state plus edge features, say).
    """
    scalars = scalar if isinstance(scalar, list) else [scalar]
    vectors = vector if isinstance(vector, list) else [vector]
    v_h = _channel_mix(p.w_h, vectors)
    norms = ad.vec_norm(v_h)
    lin = ad.linear_split(scalars + [norms], p.w_m, p.b_m)
    s_out = ad.relu(lin)
    v_mu = _channel_mix(p.w_mu, [v_h])
    gate = ad.sigmoid(ad.linear_split([s_out], p.w_g, p.b_g))
    v_out = v_mu * ad.reshape(gate, (gate.shape[0], 1, gate.shape[1]))
    return s_out, v_out


def _layer_norm_scalar(s: Tensor) -> Tensor:
    mu = ad.tmean(s, axis=1, keepdims=True)
    centered = s - mu
    var = ad.tmean(centered * centered, axis=1, keepdims=True)
    return centered / ad.sqrt(var + 1e-8)


def _rescale_vector(v: Tensor) -> Tensor:
    n_channels = v.shape[2]
    fro2 = ad.tsum(v * v, axis=(1, 2), keepdims=True)
    return v * (np.sqrt(n_channels) / ad.sqrt(fro2 + 1e-8))


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


def run_message_passing(blocks, graph: SpatialGraph, state: GvpState,
                        normalize: bool = True, node_sets=None) -> GvpState:
    """Residual message passing: per block, add the mean GVP message over
    in-neighbors (edge features concatenated onto the neighbor state), then
    add a feedforward GVP of the node state. Nodes without neighbors
    receive a zero message.

    ``node_sets`` (one more than ``blocks``, as from ``receptive_sets``)
    limits the work to the rows that are wanted: ``state`` holds the rows
    of node_sets[0], and block l maps the rows of node_sets[l] to those of
    node_sets[l + 1], running the message GVP only on the edges into
    node_sets[l + 1] (still in (dst, src) order) and dividing by the true
    in-degree. Layer norm and vector rescale act per row, so each kept row
    gets the same arithmetic as on the whole graph. None means every node
    at every layer."""
    if node_sets is None:
        node_sets = [np.arange(graph.n_nodes)] * (len(blocks) + 1)
    if len(node_sets) != len(blocks) + 1:
        raise DataError(f"{len(blocks)} blocks need {len(blocks) + 1} node sets, "
                        f"got {len(node_sets)}")
    scalar, vector = state.scalar, state.vector
    for block, rows_in, rows_out in zip(blocks, node_sets, node_sets[1:]):
        n_out = len(rows_out)
        into = np.zeros(graph.n_nodes, dtype=bool)
        into[rows_out] = True
        edges = np.flatnonzero(into[graph.dst])
        kept_s, kept_v = scalar, vector
        if n_out < len(rows_in):
            keep = np.searchsorted(rows_in, rows_out)
            kept_s, kept_v = ad.gather(scalar, keep), ad.gather(vector, keep)
        if len(edges):
            src = np.searchsorted(rows_in, graph.src[edges])
            dst = np.searchsorted(rows_out, graph.dst[edges])
            inv_deg = 1.0 / np.maximum(np.bincount(dst, minlength=n_out), 1)
            msg_s, msg_v = gvp_apply(
                block.message,
                [ad.gather(scalar, src), Tensor(graph.edge_scalar[edges])],
                [ad.gather(vector, src), Tensor(graph.edge_vec[edges, :, None])])
            kept_s = kept_s + ad.segment_sum(msg_s, dst, n_out) * inv_deg[:, None]
            kept_v = kept_v + ad.segment_sum(msg_v, dst, n_out) * inv_deg[:, None, None]
        scalar, vector = kept_s, kept_v
        ff_s, ff_v = gvp_apply(block.feedforward, scalar, vector)
        scalar = scalar + ff_s
        vector = vector + ff_v
        if normalize:
            scalar = _layer_norm_scalar(scalar)
            vector = _rescale_vector(vector)
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
            self._linear(rng, "surface_init.outer1", config.surface_feat_dim + d, h)
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
        training = corruption is not None
        if corruption is None:
            corruption = Corruption(
                corrupted_sequence=protein.sequence.copy(), mask_positions=masked)
        if cfg.embedder == "toy":
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
            elif embeddings.context_tag == "" and training:
                # training-time substitution on unmasked rows: hide masked
                # rows behind the trainable mask vector, corrupted rows
                # behind the trainable corruption table
                sub_idx = np.concatenate([
                    corruption.mask_positions, corruption.random_positions])
                parts = []
                if len(corruption.mask_positions):
                    parts.append(ad.gather(
                        self.params["embed.mask_vec"],
                        np.zeros(len(corruption.mask_positions), dtype=np.int64)))
                if len(corruption.random_positions):
                    parts.append(ad.gather(
                        self.params["embed.corrupt_table"],
                        corruption.corrupted_sequence[corruption.random_positions]))
                if parts:
                    rows = parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)
                    mixed = ad.substitute_rows(Tensor(embeddings.rows), sub_idx, rows)
                else:
                    mixed = Tensor(embeddings.rows)
            else:
                raise DataError(
                    f"embedding context tag {embeddings.context_tag!r} does not "
                    f"match masked positions (expected {expected!r})")
        return ad.linear_split([mixed], self.params["adapter.w"],
                               self.params["adapter.b"])

    # ---- forward ----

    def _check_mode(self, mode: str):
        if mode not in MODES:
            raise DataError(f"unknown mode {mode!r}")
        if mode in STRUCTURE_MODES and self.structure_blocks is None:
            raise DataError(f"model built for {self.config.mode!r} cannot run {mode!r}")
        if mode in SURFACE_MODES and self.surface_blocks is None:
            raise DataError(f"model built for {self.config.mode!r} cannot run {mode!r}")

    def forward_logits(self, protein: Protein, masked_positions, *,
                       mode: str = None,
                       embeddings: ResidueEmbeddings = None,
                       cloud: SurfacePointCloud = None,
                       corruption: Corruption = None,
                       structure_graph: SpatialGraph = None) -> Tensor:
        """Log-softmax rows over the 20 residue types at the masked positions
        (sorted ascending).

        Only the masked rows are computed. Both GVP stacks run on the
        receptive field of those rows (``receptive_sets``): the structure
        stack on the masked residues' L-hop radius-graph neighbourhood, and
        the surface stack on the L-hop kNN neighbourhood of the surface
        points fused into the masked residues, with ``surface_init`` and its
        residue lookup on the widest of those point sets only. The rows
        equal those of a whole-graph pass up to rounding, and training
        takes the same path."""
        cfg = self.config
        mode = mode or cfg.mode
        self._check_mode(mode)
        masked = np.asarray(sorted(set(int(p) for p in masked_positions)),
                            dtype=np.int64)
        n_r = protein.n_residues
        if len(masked) and (masked[0] < 0 or masked[-1] >= n_r):
            raise DataError("masked position out of range")
        h0_scalar = self.embed(protein, masked, corruption=corruption,
                               embeddings=embeddings)
        if mode in STRUCTURE_MODES:
            graph = structure_graph
            if graph is None:
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
            if cloud.features.shape[1] != cfg.surface_feat_dim:
                raise DataError(
                    f"cloud feature dim {cloud.features.shape[1]} != "
                    f"model surface_feat_dim {cfg.surface_feat_dim}")
            if n_r < cfg.init_neighbors:
                raise DataError(
                    f"surface init needs >= {cfg.init_neighbors} residues")
            k_fuse = min(cfg.fuse_neighbors, cloud.n_points)
            fuse_idx, _ = cross_knn(protein.ca_coords[masked], cloud.points, k_fuse)
            sgraph = build_knn_graph(cloud.points, cfg.surface_knn, rbf=cfg.rbf)
            sets = receptive_sets(sgraph, fuse_idx.reshape(-1),
                                  len(self.surface_blocks))
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
    unless the file holds exactly one tensor of the right shape for every
    parameter of its config, and nothing after the last one."""
    from pathlib import Path
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    blob = path.read_bytes()
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
        target.data = data.reshape(target.data.shape).astype(np.float64)
        loaded.add(name)
    if offset != len(blob):
        raise DataError(f"{path}: {len(blob) - offset} bytes after the last tensor")
    missing = sorted(set(model.params) - loaded)
    if missing:
        raise DataError(f"{path}: missing tensors {missing}")
    return model
