"""Minimal reverse-mode automatic differentiation over numpy arrays.

Everything runs in float64. A Tensor records its parents and a backward
closure; ``backward()`` topologically sorts the tape and accumulates
gradients into ``.grad``. Inside ``no_grad()`` operations record neither,
so inference builds no tape. Only the operations the network needs are
implemented: elementwise arithmetic with broadcasting, affine maps of
split row blocks (``linear_split``, which also mixes vector channels),
2-D transpose, reshape and concat, row gather/scatter, sorted-segment
sums, reductions, and the usual nonlinearities. All reductions use fixed
summation orders, so repeated runs are bit-identical.
"""

from __future__ import annotations

import ctypes
import sys
from contextlib import contextmanager

import numpy as np

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Keep freed heap memory in the process for the next forward pass.

    Scoring builds no tape, but each forward pass still allocates and
    frees edge-level temporaries of a few MB at desk scale and tens of MB
    at 150 residues, and a pretrain step frees its whole tape (about
    110 MB for a 36-residue protein with 224 surface points) when it
    ends. When freed memory ends the heap, glibc returns it to the OS,
    and the next pass page-faults it back in. On a 2-vCPU x86_64 VM with
    one BLAS thread, leaving glibc's defaults cost about 9.0k minor page
    faults per perfbench score-sat op (39 variants on two sites of that
    protein) against 0 with this setting, 21.7k per score-multi-default
    op (two 150-residue passes) against 3, and 48 per pretrain-desk op
    against 7. This turns heap trimming off and fixes the mmap threshold
    at 32 MiB, the ceiling of glibc's own dynamic threshold, since
    setting either parameter stops glibc from adjusting the other.
    """
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, -1)


_keep_freed_heap()


def _scatter_rows(idx: np.ndarray, grad: np.ndarray, n: int) -> np.ndarray:
    """Sum grad rows into an (n, ...) array at positions idx (deterministic)."""
    flat = grad.reshape(len(idx), -1)
    d = flat.shape[1]
    cols = np.arange(d, dtype=np.int64)
    out = np.bincount((idx[:, None] * d + cols).ravel(),
                      weights=flat.ravel(), minlength=n * d)
    return out.reshape((n,) + grad.shape[1:])


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the parent's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, grad):
        # First write adopts the incoming array (it may alias a finished
        # child's grad, which is never mutated afterwards); later writes
        # reallocate, so stored grads are never modified in place.
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def zero_grad(self):
        self.grad = None

    def backward(self, grad=None):
        """Accumulate gradients of this (scalar) tensor w.r.t. every parent."""
        if grad is None:
            grad = np.ones_like(self.data)
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ---- operator sugar ----
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return mul(self, -1.0)


class Parameter(Tensor):
    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_grad_enabled = True


@contextmanager
def no_grad():
    """Build no tape inside the block: results record no parents and no
    backward closure, so intermediates are freed as soon as they are
    unreferenced. The previous mode comes back on exit, also on error."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic (broadcasting)
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data),
                                       b.data.shape))

    return _make(a.data / b.data, (a, b), backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def linear_split(parts, w, b=None) -> Tensor:
    """Affine map of a conceptual concat without materializing it:
    sum_i parts[i] @ w[rows_i] (+ b), where w's rows are split by the
    parts' widths."""
    parts = [as_tensor(p) for p in parts]
    w = as_tensor(w)
    widths = [p.data.shape[1] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(widths)])
    out = parts[0].data @ w.data[offsets[0]:offsets[1]]
    for i in range(1, len(parts)):
        out += parts[i].data @ w.data[offsets[i]:offsets[i + 1]]
    if b is not None:
        b = as_tensor(b)
        out = out + b.data
    parents = tuple(parts) + ((w,) if b is None else (w, b))

    def backward(g):
        if w.requires_grad:
            gw = np.empty_like(w.data)
            for i, p in enumerate(parts):
                gw[offsets[i]:offsets[i + 1]] = p.data.T @ g
            w._accumulate(gw)
        for i, p in enumerate(parts):
            if p.requires_grad:
                p._accumulate(g @ w.data[offsets[i]:offsets[i + 1]].T)
        if b is not None and b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return _make(out, parents, backward)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    old = x.data.shape

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.reshape(old))

    return _make(x.data.reshape(shape), (x,), backward)


def transpose(x) -> Tensor:
    """Transpose of a 2-D tensor (a view; no copy)."""
    x = as_tensor(x)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.T)

    return _make(x.data.T, (x,), backward)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        for p, piece in zip(parts, pieces):
            if p.requires_grad:
                p._accumulate(piece)

    return _make(np.concatenate([p.data for p in parts], axis=axis),
                 tuple(parts), backward)


def gather(x, idx) -> Tensor:
    """Select rows x[idx] along axis 0; backward scatter-adds."""
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    n = x.data.shape[0]

    def backward(g):
        if x.requires_grad:
            x._accumulate(_scatter_rows(idx, g, n))

    return _make(x.data[idx], (x,), backward)


def substitute_rows(base, idx, rows) -> Tensor:
    """Copy of base with base[idx] replaced by rows."""
    base, rows = as_tensor(base), as_tensor(rows)
    idx = np.asarray(idx, dtype=np.int64)
    data = base.data.copy()
    data[idx] = rows.data

    def backward(g):
        if base.requires_grad:
            gb = g.copy()
            gb[idx] = 0.0
            base._accumulate(gb)
        if rows.requires_grad:
            rows._accumulate(g[idx])

    return _make(data, (base, rows), backward)


def segment_sum(x, seg: np.ndarray, n_segments: int) -> Tensor:
    """Sum rows of x into n_segments buckets. ``seg`` must be sorted
    ascending (graph edges already are); empty segments stay zero."""
    x = as_tensor(x)
    seg = np.asarray(seg, dtype=np.int64)
    out = np.zeros((n_segments,) + x.data.shape[1:])
    if len(seg):
        starts = np.concatenate([[0], np.flatnonzero(np.diff(seg)) + 1])
        out[seg[starts]] = np.add.reduceat(x.data, starts, axis=0)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g[seg])

    return _make(out, (x,), backward)


def select_rc(x, rows, cols) -> Tensor:
    """Pick x[rows[i], cols[i]] as a 1-D tensor."""
    x = as_tensor(x)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, (rows, cols), g)
            x._accumulate(gx)

    return _make(x.data[rows, cols], (x,), backward)


# ---------------------------------------------------------------------------
# reductions and nonlinearities
# ---------------------------------------------------------------------------

def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    axes = axis if axis is None or isinstance(axis, tuple) else (axis,)

    def backward(g):
        if not x.requires_grad:
            return
        if axes is None:
            x._accumulate(np.broadcast_to(g, x.data.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axes)
        x._accumulate(np.broadcast_to(g, x.data.shape).copy())

    return _make(x.data.sum(axis=axes, keepdims=keepdims), (x,), backward)


def tmean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    if axis is None:
        count = x.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([x.data.shape[a] for a in axes]))
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / count)


def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return _make(np.where(mask, x.data, 0.0), (x,), backward)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out = np.empty_like(x.data)
    pos = x.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    out[~pos] = ex / (1.0 + ex)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * out * (1.0 - out))

    return _make(out, (x,), backward)


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    out = np.sqrt(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * 0.5 / out)

    return _make(out, (x,), backward)


def log_softmax(x) -> Tensor:
    """Row-wise log softmax along the last axis."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g - soft * g.sum(axis=-1, keepdims=True))

    return _make(out, (x,), backward)


def vec_norm(v, eps: float = 1e-8) -> Tensor:
    """Per-channel Euclidean norms of (n, 3, c) vectors: sqrt(sum + eps)."""
    return sqrt(add(tsum(mul(v, v), axis=1), eps))
