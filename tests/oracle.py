"""Reference implementations the tests compare the program against.

No command runs any of this. Each one is the plain form of something
``protfit`` computes another way, or a reader of an output that only the
tests parse:

- a central-difference gradient checker;
- tape ops the model no longer records (subtraction, division,
  transpose, sigmoid, square root, vector norms);
- the GVP built op by op on the tape, with its layer norm and vector
  rescale: the oracle of the fused block step;
- message passing and the forward pass on the whole graph, as they ran
  before receptive sets: the oracle of the receptive-field passes;
- the metrics by their textbook definitions;
- a parser of the CSV report.

Tests import this module; no test imports another test file.
"""

import math

import numpy as np

from protfit import autodiff as ad
from protfit.autodiff import Tensor
from protfit.errors import DataError
from protfit.geometry import build_knn_graph, build_radius_graph, cross_knn
from protfit.gvp import GvpParams, GvpState, fuse_residue_surface, surface_init
from protfit.io import read_csv_rows
from protfit.metrics import METRIC_COLUMNS

# ---------------------------------------------------------------------------
# gradient checker
# ---------------------------------------------------------------------------


def numeric_grad(fn, param, h=1e-6):
    """Central finite differences of a scalar-valued fn w.r.t. param.data."""
    flat = param.data.ravel()
    grad = np.zeros_like(flat)
    for k in range(flat.size):
        old = flat[k]
        flat[k] = old + h
        up = float(fn().data)
        flat[k] = old - h
        down = float(fn().data)
        flat[k] = old
        grad[k] = (up - down) / (2 * h)
    return grad.reshape(param.data.shape)


def check(fn, params, tol=1e-6):
    for p in params:
        p.grad = None
    loss = fn()
    loss.backward()
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = numeric_grad(fn, p)
        err = np.abs(analytic - numeric)
        scale = np.maximum(np.abs(numeric), 1.0)
        assert (err / scale).max() < tol, (err / scale).max()


# ---------------------------------------------------------------------------
# tape ops only the oracles record
# ---------------------------------------------------------------------------

def sub(a, b) -> Tensor:
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    return ad._make(a.data - b.data, (a, b),
                    (lambda g: ad._unbroadcast(g, a.data.shape),
                     lambda g: ad._unbroadcast(-g, b.data.shape)))


def div(a, b) -> Tensor:
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    return ad._make(a.data / b.data, (a, b),
                    (lambda g: ad._unbroadcast(g / b.data, a.data.shape),
                     lambda g: ad._unbroadcast(-g * a.data / (b.data * b.data),
                                               b.data.shape)))


def transpose(x) -> Tensor:
    """Transpose of a 2-D tensor (a view; no copy)."""
    x = ad.as_tensor(x)
    return ad._make(x.data.T, (x,), (lambda g: g.T,))


def sigmoid(x) -> Tensor:
    x = ad.as_tensor(x)
    out = ad.sigmoid_data(x.data)
    return ad._make(out, (x,), (lambda g: g * out * (1.0 - out),))


def sqrt(x) -> Tensor:
    x = ad.as_tensor(x)
    out = np.sqrt(x.data)
    return ad._make(out, (x,), (lambda g: g * 0.5 / out,))


def vec_norm(v, eps: float = 1e-8) -> Tensor:
    """Per-channel Euclidean norms of (n, 3, c) vectors: sqrt(sum + eps)."""
    return sqrt(ad.add(ad.tsum(ad.mul(v, v), axis=1), eps))


# ---------------------------------------------------------------------------
# tape-built GVP: the oracle of the block step
# ---------------------------------------------------------------------------

def channel_mix(w, vectors: list) -> Tensor:
    """(o, c) weights applied to the channels of (n, 3, c) vector parts,
    taken as one channel-axis concat. x, y and z rows all go through the
    same map, which keeps it rotation-equivariant."""
    rows = [ad.reshape(v, (3 * v.shape[0], v.shape[2])) for v in vectors]
    out = ad.linear_split(rows, transpose(w))
    return ad.reshape(out, (out.shape[0] // 3, 3, out.shape[1]))


def gvp_apply(p: GvpParams, scalar, vector):
    """One geometric vector perceptron on a batch of (scalar, vector) rows,
    built op by op on the tape.

    Scalar and vector inputs may each be a list of tensors, treated as a
    feature-axis concatenation (node state plus edge features, say).
    """
    scalars = scalar if isinstance(scalar, list) else [scalar]
    vectors = vector if isinstance(vector, list) else [vector]
    v_h = channel_mix(p.w_h, vectors)
    norms = vec_norm(v_h)
    lin = ad.linear_split(scalars + [norms], p.w_m, p.b_m)
    s_out = ad.relu(lin)
    v_mu = channel_mix(p.w_mu, [v_h])
    gate = sigmoid(ad.linear_split([s_out], p.w_g, p.b_g))
    v_out = v_mu * ad.reshape(gate, (gate.shape[0], 1, gate.shape[1]))
    return s_out, v_out


def layer_norm_scalar(s: Tensor) -> Tensor:
    mu = ad.tmean(s, axis=1, keepdims=True)
    centered = sub(s, mu)
    var = ad.tmean(centered * centered, axis=1, keepdims=True)
    return div(centered, sqrt(var + 1e-8))


def rescale_vector(v: Tensor) -> Tensor:
    n_channels = v.shape[2]
    fro2 = ad.tsum(v * v, axis=(1, 2), keepdims=True)
    return v * div(np.sqrt(n_channels), sqrt(fro2 + 1e-8))


# ---------------------------------------------------------------------------
# whole-graph passes: the oracle of the receptive-field passes
# ---------------------------------------------------------------------------

def full_message_passing(blocks, graph, state, normalize):
    """Whole-graph message passing as it ran before receptive sets: every
    block on every node and every edge."""
    scalar, vector = state.scalar, state.vector
    n = graph.n_nodes
    if graph.n_edges:
        edge_s = Tensor(graph.edge_scalar)
        edge_v = Tensor(graph.edge_vec[:, :, None])
        inv_deg = 1.0 / np.maximum(np.bincount(graph.dst, minlength=n), 1)
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
            scalar = layer_norm_scalar(scalar)
            vector = rescale_vector(vector)
    return GvpState(scalar=scalar, vector=vector)


def full_forward(model, protein, masked, mode, cloud):
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
        h_res = full_message_passing(model.structure_blocks, graph, state0,
                                     cfg.normalize)
    if mode in ("s3f", "surf_only"):
        nn_idx, nn_dist = cross_knn(cloud.points, protein.ca_coords,
                                    cfg.init_neighbors)
        h_surf0 = surface_init(model.params, h0, cloud.features, nn_idx, nn_dist,
                               cfg.vector_dim)
        sgraph = build_knn_graph(cloud.points, cfg.surface_knn, rbf=cfg.rbf)
        h_surf = full_message_passing(model.surface_blocks, sgraph, h_surf0,
                                      cfg.normalize)
        fuse_idx, _ = cross_knn(protein.ca_coords, cloud.points,
                                min(cfg.fuse_neighbors, cloud.n_points))
        h_res = fuse_residue_surface(h_res, h_surf, fuse_idx)
    rows = ad.gather(h_res.scalar, masked)
    return ad.log_softmax(ad.linear_split([rows], model.params["head.w"],
                                          model.params["head.b"]))


# ---------------------------------------------------------------------------
# metrics by definition
# ---------------------------------------------------------------------------

def naive_midranks(x):
    ranks = []
    for v in x:
        less = sum(1 for u in x if u < v)
        equal = sum(1 for u in x if u == v)
        ranks.append(less + (equal + 1) / 2.0)
    return np.array(ranks)


def naive_spearman(x, y):
    rx, ry = naive_midranks(x), naive_midranks(y)
    mx, my = rx.mean(), ry.mean()
    num = ((rx - mx) * (ry - my)).sum()
    den = math.sqrt(((rx - mx) ** 2).sum() * ((ry - my) ** 2).sum())
    return num / den


def naive_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum(1.0 if p > n else (0.5 if p == n else 0.0)
               for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def naive_mcc(scores, labels, cut):
    tp = fp = tn = fn = 0
    for s, l in zip(scores, labels):
        p = s > cut
        if p and l:
            tp += 1
        elif p and not l:
            fp += 1
        elif not p and l:
            fn += 1
        else:
            tn += 1
    den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return 0.0 if den == 0 else (tp * tn - fp * fn) / den


def naive_ndcg(scores, gains):
    g = np.asarray(gains, dtype=float)
    lo, hi = g.min(), g.max()
    if hi == lo:
        return 1.0
    g = (g - lo) / (hi - lo)
    order = sorted(range(len(g)), key=lambda i: (-scores[i], i))
    ideal = sorted(range(len(g)), key=lambda i: (-g[i], i))
    dcg = sum(g[i] / math.log2(r + 2) for r, i in enumerate(order))
    idcg = sum(g[i] / math.log2(r + 2) for r, i in enumerate(ideal))
    return dcg / idcg


# ---------------------------------------------------------------------------
# report reader
# ---------------------------------------------------------------------------

def read_report_csv(path) -> dict:
    """Parse an emitted CSV report back into assays/aggregate/groups."""
    rows = read_csv_rows(path)
    if not rows or rows[0][1][:2] != ["assay_id", "n_variants"]:
        raise DataError(f"{path}: unexpected report header")
    out = {"assays": [], "aggregate": None, "groups": {}, "significance": {}}
    for line, row in rows[1:]:
        key, *cells = row
        try:
            if key.startswith("SIGNIFICANCE:"):
                (value,) = cells
                out["significance"][key.split(":", 1)[1]] = float(value)
                continue
            count, *values = cells
            record = {"assay_id": key, "n_variants": int(count),
                      **dict(zip(METRIC_COLUMNS, map(float, values), strict=True))}
        except ValueError:
            raise DataError(f"{path} row {line}: malformed report row {row!r}") from None
        if key == "AGGREGATE":
            out["aggregate"] = record
        elif key.startswith("GROUP:"):
            out["groups"][key.split(":", 1)[1]] = record
        else:
            out["assays"].append(record)
    return out
