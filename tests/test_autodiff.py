"""Finite-difference checks for every engine op, each against an
independent central-difference oracle."""

import numpy as np
import pytest

from conftest import make_coil_protein
from protfit import autodiff as ad
from protfit.autodiff import Parameter, Tensor
from protfit.errors import DataError
from protfit.gvp import FitnessModel, ModelConfig, _channel_mix


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


def test_add_mul_broadcast(rng):
    a = Parameter(rng.standard_normal((4, 5)))
    b = Parameter(rng.standard_normal(5))
    c = Parameter(rng.standard_normal((4, 1)))
    check(lambda: ad.tsum((a + b) * c - a / (2.0 + c * c)), [a, b, c])
    # sub and div with the right operand broadcast, then a constant on the
    # left of sub and div, and negation
    for shape in ((5,), (4, 1)):
        y = Parameter(1.0 + rng.random(shape))
        check(lambda: ad.tsum((a - y) * (a / y)), [a, y])
        check(lambda: ad.tsum((2.0 - y) * (2.0 / y) * -a), [a, y])


def test_transpose(rng):
    a = Parameter(rng.standard_normal((4, 3)))
    b = Parameter(rng.standard_normal((6, 3)))
    assert np.array_equal(ad.transpose(b).data, b.data.T)

    def fn():
        out = ad.linear_split([a], ad.transpose(b))
        return ad.tsum(out * out * Tensor(np.arange(6.0)))

    check(fn, [a, b])


def test_channel_mix(rng):
    w = Parameter(rng.standard_normal((4, 3)))
    v = Parameter(rng.standard_normal((5, 3, 3)))
    check(lambda: ad.tsum(_channel_mix(w, [v]) * 0.7), [w, v])


def test_channel_mix_split_equals_concat(rng):
    w = Parameter(rng.standard_normal((4, 5)))
    v1 = Parameter(rng.standard_normal((6, 3, 2)))
    v2 = Parameter(rng.standard_normal((6, 3, 3)))
    merged = _channel_mix(w, [ad.concat([v1, v2], axis=2)])
    split = _channel_mix(w, [v1, v2])
    assert np.allclose(merged.data, split.data)
    assert np.array_equal(ad.concat([v1, v2], axis=-1).data,
                          ad.concat([v1, v2], axis=2).data)
    check(lambda: ad.tsum(ad.concat([v1, v2], axis=-1) * np.arange(5.0)),
          [v1, v2])

    def fn():
        out = _channel_mix(w, [v1, v2])
        return ad.tsum(out * out)

    check(fn, [w, v1, v2])


def test_linear_split_matches_concat(rng):
    a = Parameter(rng.standard_normal((7, 4)))
    b = Parameter(rng.standard_normal((7, 2)))
    w = Parameter(rng.standard_normal((6, 5)))
    bias = Parameter(rng.standard_normal(5))
    merged = np.concatenate([a.data, b.data], axis=1) @ w.data + bias.data
    split = ad.linear_split([a, b], w, bias)
    assert np.allclose(merged, split.data)
    check(lambda: ad.tsum(ad.sigmoid(ad.linear_split([a, b], w, bias))),
          [a, b, w, bias])


def test_gather_and_segment_sum(rng):
    x = Parameter(rng.standard_normal((6, 4)))
    idx = np.array([0, 0, 2, 5, 5, 5])
    seg = np.array([0, 0, 1, 3, 3, 3])

    def fn():
        g = ad.gather(x, idx)
        return ad.tsum(ad.segment_sum(g * g, seg, 5))

    check(fn, [x])
    # empty segments stay zero
    out = ad.segment_sum(Tensor(np.ones((3, 2))), np.array([0, 2, 2]), 4)
    assert np.array_equal(out.data, [[1, 1], [0, 0], [2, 2], [0, 0]])


def test_segment_sum_matches_manual(rng):
    x = rng.standard_normal((10, 3))
    seg = np.sort(rng.integers(0, 6, 10))
    out = ad.segment_sum(Tensor(x), seg, 6).data
    manual = np.zeros((6, 3))
    for row, s in zip(x, seg):
        manual[s] += row
    assert np.allclose(out, manual, atol=1e-12)


def test_substitute_rows(rng):
    base = Parameter(rng.standard_normal((5, 3)))
    rows = Parameter(rng.standard_normal((2, 3)))
    idx = np.array([1, 3])
    out = ad.substitute_rows(base, idx, rows)
    assert np.allclose(out.data[idx], rows.data)
    assert np.allclose(out.data[[0, 2, 4]], base.data[[0, 2, 4]])
    check(lambda: ad.tsum(ad.relu(ad.substitute_rows(base, idx, rows))),
          [base, rows])
    # the file-mode embed path: rows concatenated on axis 0, then substituted
    first = Parameter(rng.standard_normal((1, 3)))
    weights = Tensor(rng.standard_normal((5, 3)))
    assert np.array_equal(ad.concat([first, rows], axis=0).data,
                          np.concatenate([first.data, rows.data]))
    check(lambda: ad.tsum(ad.substitute_rows(
        base, np.array([4, 0, 2]), ad.concat([first, rows], axis=0)) * weights),
        [base, first, rows])


def test_select_rc(rng):
    x = Parameter(rng.standard_normal((4, 6)))
    rows = np.array([0, 1, 3])
    cols = np.array([5, 2, 2])
    check(lambda: ad.tsum(ad.select_rc(x, rows, cols)
                          * ad.select_rc(x, rows, cols)), [x])


def test_reductions_and_reshape(rng):
    x = Parameter(rng.standard_normal((3, 4, 2)))
    check(lambda: ad.tsum(ad.tmean(x, axis=1) * 2.0), [x])
    check(lambda: ad.tsum(ad.tsum(x, axis=(1, 2), keepdims=True) * x), [x])
    check(lambda: ad.tsum(ad.reshape(x, (6, 4)) * 0.3), [x])


def test_nonlinearities(rng):
    x = Parameter(rng.standard_normal((5, 4)) + 0.1)
    check(lambda: ad.tsum(ad.relu(x) + ad.sigmoid(x)), [x])
    y = Parameter(np.abs(rng.standard_normal((3, 3))) + 0.5)
    check(lambda: ad.tsum(ad.sqrt(y)), [y])


def test_log_softmax_rows(rng):
    x = Parameter(rng.standard_normal((6, 9)) * 3)
    out = ad.log_softmax(x)
    assert np.allclose(np.exp(out.data).sum(axis=1), 1.0, atol=1e-12)
    tgt = np.arange(6) % 9
    check(lambda: -ad.tmean(ad.select_rc(ad.log_softmax(x),
                                         np.arange(6), tgt)), [x])


def test_vec_norm_smooth_at_zero():
    v = Parameter(np.zeros((2, 3, 3)))
    out = ad.vec_norm(v)
    ad.tsum(out).backward()
    assert np.isfinite(v.grad).all()
    assert np.allclose(out.data, np.sqrt(1e-8))


def test_shared_node_accumulates():
    x = Parameter(np.array([3.0]))
    y = x + x
    y.backward()
    assert x.grad[0] == 2.0


def test_vjp_not_called_for_parent_without_grad(rng):
    x = Parameter(rng.standard_normal(3))
    const = Tensor(rng.standard_normal(3))

    def never(g):
        raise AssertionError("VJP of a parent that needs no gradient ran")

    out = ad._make(x.data * const.data, (const, x),
                   (never, lambda g: g * const.data))
    ad.tsum(out).backward()
    assert np.array_equal(x.grad, const.data)
    assert const.grad is None


def test_vjp_count_must_match_parents(rng):
    x = Parameter(rng.standard_normal(3))
    y = Parameter(rng.standard_normal(3))
    short = ad._make(x.data + y.data, (x, y), (lambda g: g,))
    with pytest.raises(ValueError, match="zip"):
        ad.tsum(short).backward()
    long = ad._make(2.0 * x.data, (x,), (lambda g: 2.0 * g, lambda g: g))
    with pytest.raises(ValueError, match="zip"):
        ad.tsum(long).backward()


def test_backward_scale_linearity(rng):
    x = Parameter(rng.standard_normal((4, 3)))
    loss = ad.tsum(ad.sigmoid(x) * x)
    loss.backward()
    g1 = x.grad.copy()
    x.grad = None
    loss2 = ad.tsum(ad.sigmoid(x) * x)
    loss2.backward(grad=np.array(2.0))
    assert np.array_equal(x.grad, 2.0 * g1)


# ---------------------------------------------------------------------------
# no_grad
# ---------------------------------------------------------------------------

def test_no_grad_outputs_record_no_tape(rng):
    a = Parameter(rng.standard_normal((4, 3)))
    b = Parameter(rng.standard_normal((3, 5)))
    with ad.no_grad():
        out = ad.log_softmax(ad.relu(ad.linear_split([a], b)) + 1.0)
        total = ad.tsum(out)
    for t in (out, total):
        assert t.requires_grad is False
        assert t._parents == ()
        assert t._backward is None
    outside = ad.tsum(ad.linear_split([a], b))
    assert outside.requires_grad and outside._parents


def test_no_grad_restores_mode_when_body_raises():
    protein = make_coil_protein(6, seed=1)
    model = FitnessModel(ModelConfig(mode="s2f", scalar_dim=8, vector_dim=2,
                                     structure_layers=1, embed_dim=8,
                                     rbf_kernels=4))
    with pytest.raises(DataError, match="out of range"):
        with ad.no_grad():
            model.forward_logits(protein, [protein.n_residues])
    rows = model.forward_logits(protein, [2])
    assert rows.requires_grad and rows._parents
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert not model.forward_logits(protein, [2]).requires_grad


def test_backward_after_no_grad_matches_plain_run(rng):
    x0 = rng.standard_normal((5, 4))
    w0 = rng.standard_normal((4, 3))

    def grads(enter_no_grad):
        x, w = Parameter(x0.copy()), Parameter(w0.copy())
        if enter_no_grad:
            with ad.no_grad():
                ad.tsum(ad.sigmoid(ad.linear_split([x], w)))
        loss = ad.tsum(ad.log_softmax(ad.sigmoid(ad.linear_split([x], w))) * 0.5)
        loss.backward()
        return x.grad, w.grad

    plain, after = grads(False), grads(True)
    for g_plain, g_after in zip(plain, after):
        assert np.array_equal(g_plain, g_after)
