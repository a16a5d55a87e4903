"""Minimal reverse-mode automatic differentiation over numpy arrays.

Everything runs in float64. An op computes its output array and hands
``_make(data, parents, vjps)`` one vector-Jacobian product per parent:
``vjps[i]`` maps the gradient of the output to the gradient of
``parents[i]``, already reduced to that parent's shape. The output keeps
its parents in ``_parents`` and the VJPs in ``_backward``.
``Tensor.backward`` topologically sorts the tape and is the only place
that routes gradients: it calls a VJP only for a parent that requires a
gradient and adds the result into that parent's ``.grad``. Parents and
VJPs are paired with ``zip(strict=True)``, so an op that leaves a VJP out
raises instead of dropping a gradient. Inside ``no_grad()`` ops record
neither, so inference builds no tape.

Only the ops the network needs are implemented: elementwise arithmetic
with broadcasting, affine maps of split row blocks (``linear_split``,
which also mixes vector channels), 2-D transpose, reshape and concat, row
gather/scatter, sorted-segment sums, reductions, and the usual
nonlinearities. All reductions use fixed summation orders, so repeated
runs are bit-identical.
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


def _blocks(sizes) -> list:
    """Consecutive slices that cut blocks of the given sizes."""
    ends = np.cumsum(sizes)
    return [slice(end - size, end) for size, end in zip(sizes, ends)]


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
            if node._backward is None or node.grad is None:
                continue
            for p, vjp in zip(node._parents, node._backward, strict=True):
                if p.requires_grad:
                    p._accumulate(vjp(node.grad))

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
    VJPs, so intermediates are freed as soon as they are unreferenced.
    The previous mode comes back on exit, also on error."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _make(data, parents, vjps) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = tuple(vjps)
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic (broadcasting)
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data, (a, b),
                 (lambda g: _unbroadcast(g, a.data.shape),
                  lambda g: _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data - b.data, (a, b),
                 (lambda g: _unbroadcast(g, a.data.shape),
                  lambda g: _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, (a, b),
                 (lambda g: _unbroadcast(g * b.data, a.data.shape),
                  lambda g: _unbroadcast(g * a.data, b.data.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data / b.data, (a, b),
                 (lambda g: _unbroadcast(g / b.data, a.data.shape),
                  lambda g: _unbroadcast(-g * a.data / (b.data * b.data),
                                         b.data.shape)))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def linear_split(parts, w, b=None) -> Tensor:
    """Affine map of a conceptual concat without materializing it:
    sum_i parts[i] @ w[rows_i] (+ b), where w's rows are split by the
    parts' widths."""
    parts = [as_tensor(p) for p in parts]
    w = as_tensor(w)
    rows = _blocks([p.data.shape[1] for p in parts])
    out = parts[0].data @ w.data[rows[0]]
    for p, r in zip(parts[1:], rows[1:]):
        out += p.data @ w.data[r]

    def vjp_w(g):
        gw = np.empty_like(w.data)
        for p, r in zip(parts, rows):
            gw[r] = p.data.T @ g
        return gw

    parents = (*parts, w)
    vjps = [lambda g, r=r: g @ w.data[r].T for r in rows] + [vjp_w]
    if b is not None:
        b = as_tensor(b)
        out = out + b.data
        parents += (b,)
        vjps.append(lambda g: g.sum(axis=0))
    return _make(out, parents, vjps)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    return _make(x.data.reshape(shape), (x,),
                 (lambda g: g.reshape(x.data.shape),))


def transpose(x) -> Tensor:
    """Transpose of a 2-D tensor (a view; no copy)."""
    x = as_tensor(x)
    return _make(x.data.T, (x,), (lambda g: g.T,))


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    lead = (slice(None),) * (axis % data.ndim)
    return _make(data, parts,
                 [lambda g, s=(*lead, block): g[s]
                  for block in _blocks([p.data.shape[axis] for p in parts])])


def gather(x, idx) -> Tensor:
    """Select rows x[idx] along axis 0; the VJP scatter-adds."""
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    return _make(x.data[idx], (x,),
                 (lambda g: _scatter_rows(idx, g, x.data.shape[0]),))


def substitute_rows(base, idx, rows) -> Tensor:
    """Copy of base with base[idx] replaced by rows."""
    base, rows = as_tensor(base), as_tensor(rows)
    idx = np.asarray(idx, dtype=np.int64)
    data = base.data.copy()
    data[idx] = rows.data

    def vjp_base(g):
        gb = g.copy()
        gb[idx] = 0.0
        return gb

    return _make(data, (base, rows), (vjp_base, lambda g: g[idx]))


def segment_sum(x, seg: np.ndarray, n_segments: int) -> Tensor:
    """Sum rows of x into n_segments buckets. ``seg`` must be sorted
    ascending (graph edges already are); empty segments stay zero."""
    x = as_tensor(x)
    seg = np.asarray(seg, dtype=np.int64)
    out = np.zeros((n_segments,) + x.data.shape[1:])
    if len(seg):
        starts = np.concatenate([[0], np.flatnonzero(np.diff(seg)) + 1])
        out[seg[starts]] = np.add.reduceat(x.data, starts, axis=0)
    return _make(out, (x,), (lambda g: g[seg],))


def select_rc(x, rows, cols) -> Tensor:
    """Pick x[rows[i], cols[i]] as a 1-D tensor."""
    x = as_tensor(x)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, cols), g)
        return gx

    return _make(x.data[rows, cols], (x,), (vjp,))


# ---------------------------------------------------------------------------
# reductions and nonlinearities
# ---------------------------------------------------------------------------

def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    axes = axis if axis is None or isinstance(axis, tuple) else (axis,)

    def vjp(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, x.data.shape).copy()

    return _make(x.data.sum(axis=axes, keepdims=keepdims), (x,), (vjp,))


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
    return _make(np.where(mask, x.data, 0.0), (x,), (lambda g: g * mask,))


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out = np.empty_like(x.data)
    pos = x.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _make(out, (x,), (lambda g: g * out * (1.0 - out),))


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    out = np.sqrt(x.data)
    return _make(out, (x,), (lambda g: g * 0.5 / out,))


def log_softmax(x) -> Tensor:
    """Row-wise log softmax along the last axis."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)
    return _make(out, (x,),
                 (lambda g: g - soft * g.sum(axis=-1, keepdims=True),))


def vec_norm(v, eps: float = 1e-8) -> Tensor:
    """Per-channel Euclidean norms of (n, 3, c) vectors: sqrt(sum + eps)."""
    return sqrt(add(tsum(mul(v, v), axis=1), eps))
