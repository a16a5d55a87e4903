"""Minimal reverse-mode automatic differentiation over numpy arrays.

Everything runs in float64. An op computes its output array and hands
``_make(data, parents, vjps)`` one vector-Jacobian product per parent:
``vjps[i]`` maps the gradient of the output to the gradient of
``parents[i]``, already reduced to that parent's shape. An op whose
parents' gradients share one costly pass (the fused GVP block step in
``gvp``) hands one joint VJP instead, which returns every parent's
gradient at once. The output keeps its parents in ``_parents`` and the
VJPs in ``_backward``. ``Tensor.backward`` topologically sorts the tape
and is the only place that routes gradients: it calls a per-parent VJP
only for a parent that requires a gradient and adds the result into that
parent's ``.grad``. Parents and gradients are paired with
``zip(strict=True)``, so an op that leaves one out raises instead of
dropping a gradient. Inside ``no_grad()`` ops record neither, so
inference builds no tape.

Only the ops the model records are implemented: sums, products and
negation with broadcasting, affine maps of split row blocks
(``linear_split``), reshape and column views, row gather and
substitution, sorted-segment sums, sums and means, ``relu`` and
``log_softmax``, and the row picks of the loss (``select_rc``). The fused
GVP block step shares the array forms ``relu_data`` and ``sigmoid_data``,
which write in place. All reductions use fixed summation orders, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import ctypes
import math
import sys
from contextlib import contextmanager

import numpy as np

from .errors import DataError

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Keep freed heap memory in the process for the next forward pass
    or surface.

    Each forward pass, backward pass and surface allocates and frees
    temporaries of up to a few MB: the fused block step holds one chunk
    of edge rows plus node-level arrays, and a pretrain step frees its
    whole tape when it ends. When freed memory ends the heap, glibc
    returns it to the OS, and the next pass page-faults it back in.
    Measured on a 2-vCPU x86_64 VM with one BLAS thread, 15 s of
    perfbench ops after set-up, three rounds of each setting alternating
    (minor page faults per op, then ops/s, with this setting against
    without it):

    - score-sat: 3.7-4.2 against 1900-3800 faults; 17.4-19.3 against
      11.9-15.6 ops/s.
    - pretrain-desk: 106-115 against 760-1200 faults; 4.7-5.2 against
      4.2-5.0 ops/s.
    - score-multi-default: 58-85 against 146-439 faults; 3.8-5.4
      against 3.5-5.4 ops/s, within the host's drift.
    - surface-mixed: 147-156 against 980-1060 faults; 4.7-5.2 against
      4.9-5.2 ops/s, within the host's drift.

    This turns heap trimming off and fixes the mmap threshold at 32 MiB,
    the ceiling of glibc's own dynamic threshold, since setting either
    parameter stops glibc from adjusting the other.
    """
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, -1)


_keep_freed_heap()


def _scatter_rows(idx: np.ndarray, grad: np.ndarray, n: int) -> np.ndarray:
    """Sum grad rows into an (n, ...) array at positions idx (deterministic)."""
    d = math.prod(grad.shape[1:])
    flat = grad.reshape(len(idx), d)
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
        """Accumulate gradients of this (scalar) tensor w.r.t. every parent.

        Leaves (tensors no op made) add the result into ``.grad``. An op's
        output holds its gradient only while its VJPs run, so a second
        backward over the same tape adds the same gradients again."""
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
            if callable(node._backward):
                grads = node._backward(node.grad)
            else:
                grads = [vjp(node.grad) if p.requires_grad else None
                         for p, vjp in zip(node._parents, node._backward, strict=True)]
            for p, g in zip(node._parents, grads, strict=True):
                if p.requires_grad:
                    p._accumulate(g)
            node.grad = None

    # ---- operator sugar ----
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

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
    """The output of an op: ``vjps`` is one VJP per parent, or one joint
    VJP that maps the output gradient to a tuple of every parent's
    gradient in a single pass."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = vjps if callable(vjps) else tuple(vjps)
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic (broadcasting)
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data, (a, b),
                 (lambda g: _unbroadcast(g, a.data.shape),
                  lambda g: _unbroadcast(g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, (a, b),
                 (lambda g: _unbroadcast(g * b.data, a.data.shape),
                  lambda g: _unbroadcast(g * a.data, b.data.shape)))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def linear_split(parts, w, b=None) -> Tensor:
    """Affine map of a conceptual concat without materializing it:
    sum_i parts[i] @ w[rows_i] (+ b), where w's rows are split by the
    parts' widths. Parts are added in order and the bias last."""
    tensors = [as_tensor(t) for t in parts]
    w = as_tensor(w)
    rows = _blocks([t.data.shape[1] for t in tensors])
    out = tensors[0].data @ w.data[rows[0]]
    for t, r in zip(tensors[1:], rows[1:]):
        out += t.data @ w.data[r]

    def vjp_w(g):
        gw = np.empty_like(w.data)
        for t, r in zip(tensors, rows):
            gw[r] = t.data.T @ g
        return gw

    parents = (*tensors, w)
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


def columns(x, start: int, shape: tuple) -> Tensor:
    """Columns start:start + prod(shape) of a 2-D tensor, each row viewed
    as ``shape``; one part of an op output that packs several."""
    x = as_tensor(x)
    stop = start + math.prod(shape)

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g.reshape(len(g), stop - start)
        return gx

    return _make(x.data[:, start:stop].reshape((len(x.data),) + tuple(shape)),
                 (x,), (vjp,))


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
    ascending (graph edges already are) and lie in [0, n_segments), else
    a DataError; empty segments stay zero."""
    x = as_tensor(x)
    seg = np.asarray(seg, dtype=np.int64)
    if len(seg) and (seg[0] < 0 or seg[-1] >= n_segments
                     or (seg[1:] < seg[:-1]).any()):
        raise DataError(f"segment ids must be sorted and in [0, {n_segments})")
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


def relu_data(x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """max(x, 0) with +0.0 for every x that is not > 0 (NaN and -0.0
    included), written to ``out`` (which may be ``x``) if given."""
    out = np.fmax(x, 0.0, out=np.empty_like(x) if out is None else out)
    out += 0.0
    return out


def sigmoid_data(x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """1 / (1 + exp(-x)) in a form that overflows for no x, written to
    ``out`` (which may be ``x``) if given. exp takes min(x, -x) rather
    than -|x|, which would flip the sign of a NaN."""
    pos = x >= 0
    e = np.minimum(x, -x, out=np.empty_like(x) if out is None else out)
    np.exp(e, out=e)
    d = 1.0 + e
    np.copyto(e, 1.0, where=pos)
    e /= d
    return e


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = relu_data(x.data)
    return _make(out, (x,), (lambda g: g * (out > 0),))


def log_softmax(x) -> Tensor:
    """Row-wise log softmax along the last axis."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)
    return _make(out, (x,),
                 (lambda g: g - soft * g.sum(axis=-1, keepdims=True),))
